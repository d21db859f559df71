(** Per-kernel flow (request) identity and Chrome flow-event emission.

    One [Flow.t] per simulated kernel wraps its tracer with a
    deterministic id allocator. A request id is allocated at the
    packet-filter/accept demux (HTTP path) or at job start (workload
    harnesses), installed as the fiber's flow context ([Engine.ctx]),
    and rides suspensions and spawns from there; subsystems emit
    [ph:"s"/"t"/"f"] events against it so Perfetto stitches the
    request across sock, syscall, cache, disk-dispatcher and pageout
    fibers.

    {b Context conventions}: context [0] = no request; positive = the
    request's flow id, charged wait-state attribution ({!Attrib});
    negative = {e detached} — flow-stitchable via the absolute value
    but never charged (prefetch fibers that run concurrently with
    their originating request use this). *)

type t

val create : Trace.t -> t
val trace : t -> Trace.t

val enabled : t -> bool
(** Mirrors [Trace.enabled] — the same one-branch guard. *)

val fresh : t -> int
(** Allocate the next request id (1, 2, ...; per kernel, deterministic). *)

val detach : int -> int
(** The detached (negative) form of a context. *)

val start :
  t -> id:int -> ?args:(string * Trace.arg) list -> unit -> unit

val step : t -> id:int -> ?args:(string * Trace.arg) list -> unit -> unit

val finish :
  t -> id:int -> ?args:(string * Trace.arg) list -> unit -> unit
