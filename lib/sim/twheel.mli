(** Hierarchical timer wheel with O(1) insert and cancel.

    Deadlines are quantized to integer {e ticks} ([tick] seconds each).
    Each level is a ring of [2^bits] slots; level [l] covers remaining
    deltas in [[2^(bits*l), 2^(bits*(l+1)))] ticks, and timers cascade
    toward level 0 as the cursor crosses frame boundaries. Timers
    beyond the total horizon are clamped into the top level and
    re-placed on cascade, so arbitrarily far deadlines are legal.

    Timers never fire before their requested tick; quantization only
    rounds deadlines {e up}. Slot lists are FIFO and cascading is a
    pure function of the structure's state, so two identical op
    sequences fire in identical order (determinism). Within one tick,
    timers inserted at the same cursor position fire in insertion
    order; same-tick timers inserted at different cursor positions may
    be interleaved by cascade merging (deterministically). *)

type 'a t

type 'a handle
(** O(1) cancellation handle for a pending timer. *)

val create : ?tick:float -> ?bits:int -> ?levels:int -> unit -> 'a t
(** [tick] is the quantum in seconds (default 1 ms); [bits] the log2
    slots per level (default 8); [levels] the number of levels
    (default 3, giving a [2^24]-tick native horizon). *)

val size : 'a t -> int
(** Pending (inserted, not fired, not cancelled) timers. *)

val current_tick : 'a t -> int

val tick_of_time : 'a t -> float -> int
(** Quantize an absolute time up to a tick (ceiling). *)

val time_of_tick : 'a t -> int -> float

val add : 'a t -> tick:int -> 'a -> 'a handle
(** O(1). Ticks at or before the cursor fire on the next advance. *)

val cancel : 'a t -> 'a handle -> bool
(** O(1) unlink; [false] if the timer already fired or was cancelled. *)

val is_active : 'a handle -> bool

val next_due_tick : 'a t -> int option
(** Conservative lower bound on the earliest pending expiry: no timer
    fires strictly before it, and advancing to it makes progress
    (cascade + rescan). Exact when the earliest timer sits in level 0
    or the due list. [None] when empty. *)

val advance_to : 'a t -> int -> fire:('a -> unit) -> unit
(** [advance_to t k ~fire] moves the cursor to tick [k], firing every
    timer with expiry <= [k] in nondecreasing tick order. Empty tick
    ranges are skipped in O(slots) rather than O(ticks). [fire] may
    insert new timers; insertions at or before the cursor fire before
    [advance_to] returns. *)
