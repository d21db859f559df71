(** Deterministic discrete-event simulation engine.

    Simulated entities are lightweight cooperative processes implemented
    with OCaml 5 effects. A process is an ordinary [unit -> unit] function
    that calls the operations in {!module:Proc} (sleep, suspend, spawn…);
    the engine schedules continuations on a virtual clock. Two runs with
    the same seed and the same spawn order produce identical traces.

    Time is in {b seconds} of simulated time throughout the code base. *)

type t

val create : unit -> t
(** The hierarchical timer wheel behind {!schedule_cancelable} ticks
    every 1 ms: O(1) insert/cancel, with deadlines quantized up to a
    whole tick. Plain [spawn]/[sleep] events use an exact event heap. *)

val now : t -> float
(** Current virtual time (for use from outside a process). *)

val spawn : ?name:string -> t -> (unit -> unit) -> unit
(** Register a process to start at the current virtual time. *)

val spawn_at : ?name:string -> t -> float -> (unit -> unit) -> unit
(** Register a process to start at an absolute virtual time. *)

val run : ?until:float -> t -> unit
(** Run events in time order until the queue is empty, or until the clock
    would pass [until] (in which case the clock is set to [until] and
    remaining events stay queued). Exceptions raised by processes
    propagate out of [run]. *)

val pending : t -> int
(** Number of queued heap events; wheel timers are counted by
    {!pending_timers} (diagnostic). *)

type timer
(** A cancelable coarse timer (see {!schedule_cancelable}). *)

val schedule_cancelable :
  ?name:string -> t -> float -> (unit -> unit) -> timer
(** [schedule_cancelable t time f] runs [f] as a process at absolute
    virtual time [time], quantized up to the wheel tick (never early).
    Returns a handle for {!cancel_timer}. Insert is O(1) regardless of
    the pending population; intended for the huge sets of coarse
    TCP/connection timeouts that are usually cancelled before they
    fire. *)

val cancel_timer : t -> timer -> bool
(** O(1). [false] if the timer already fired or was already
    cancelled. *)

val timer_pending : timer -> bool

val pending_timers : t -> int
(** Live timers scheduled via {!schedule_cancelable}. *)

val current_name : t -> string option
(** Name of the process currently executing inside [run], as given to
    [spawn]/[Proc.spawn]; [None] between events, after [run] returns,
    or for anonymous processes. Observability consumers (the tracer's
    scope function) use this to stamp events with the simulated
    process. *)

val ctx : t -> int
(** Flow context of the currently executing process: an opaque
    request/flow id carried fiber-locally, [0] when none is set. Like
    {!current_name} it is saved at every suspension point and restored
    when the process resumes, and spawned children inherit the
    spawner's context at spawn time — so a request id set at accept
    demux rides through sleeps, semaphore waits, and helper fibers
    (disk write-back, TCP drain, readahead). By convention a {e
    negative} value is a "detached" context: flow-stitchable (use the
    absolute value as the flow id) but not charged wait-state
    attribution — used by prefetch fibers running concurrently with
    their originating request. *)

val set_ctx : t -> int -> unit
(** Set the running process's flow context (sticks across its own
    suspensions until overwritten; other processes are unaffected). *)

(** Operations available {e inside} a process body. Calling them outside
    [run] raises [Stdlib.Effect.Unhandled]. *)
module Proc : sig
  val now : unit -> float
  (** Current virtual time. *)

  val sleep : float -> unit
  (** Advance this process's local time by [dt >= 0] seconds. *)

  val sleep_until : float -> unit
  (** Wake at exactly the given absolute virtual time, which must not be
      in the past (a time equal to {!now} is allowed; an earlier one
      raises [Invalid_argument] inside the process, as a negative
      {!sleep} does). Use this when the wake time was computed ahead:
      [sleep (stop -. now ())] wakes at [now +. (stop -. now)], which
      need not round back to [stop]. *)

  val spawn : ?name:string -> (unit -> unit) -> unit
  (** Start a sibling process in the same engine at the current time. *)

  val suspend : ((unit -> unit) -> unit) -> unit
  (** [suspend register] parks the calling process and hands [register] a
      one-shot [resume] closure. Calling [resume] (from any other process,
      at any later virtual time) reschedules the parked process at the
      virtual time of the call. Calling it twice raises
      [Invalid_argument]. This is the primitive from which semaphores,
      condition variables and mailboxes are built (see {!Sync}). *)

  val engine : unit -> t
  (** The engine currently running this process. *)

  val self : unit -> string option
  (** This process's spawn name. *)

  val ctx : unit -> int
  (** This process's flow context (see the engine-level {!ctx}). *)

  val set_ctx : int -> unit

  val with_ctx : int -> (unit -> 'a) -> 'a
  (** Run the thunk with the flow context set to the given value,
      restoring the previous value afterwards (also on raise). The
      override survives the thunk's own suspensions. *)

  val running : unit -> bool
  (** [true] when the caller executes inside a process (engine effects
      are available). Lets dual-context code — pageout hooks, metrics
      samplers — take a fiber-blocking path only when one exists. *)
end
