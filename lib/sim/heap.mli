(** Minimal binary min-heap keyed by [(time, sequence)].

    The sequence number makes the ordering total and FIFO-stable for
    simultaneous events, which keeps every simulation deterministic. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int
(** Number of entries pushed and not yet popped. *)

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val pop : 'a t -> (float * int * 'a) option
(** Removes and returns the minimum element. *)

val peek_time : 'a t -> float option
(** Time of the minimum element. *)
