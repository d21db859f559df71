(** Per-kernel flow (request) identity.

    One [Flow.t] per simulated kernel pairs its tracer's enabled flag
    with a deterministic id allocator. A request id is allocated at the
    packet-filter/accept demux (HTTP path) or at job start (workload
    harnesses), installed as the fiber's flow context ([Engine.ctx]),
    and rides suspensions and spawns from there; subsystems emit
    [Trace.flow_start]/[flow_step]/[flow_finish] against it so Perfetto
    stitches the request across sock, syscall, cache, disk-dispatcher
    and pageout fibers.

    {b Context conventions}: context [0] = no request; positive = the
    request's flow id, charged wait-state attribution ({!Attrib});
    negative = {e detached} — flow-stitchable via the absolute value
    but never charged (prefetch fibers that run concurrently with
    their originating request use this). *)

type t

val create : Trace.t -> t

val enabled : t -> bool
(** Mirrors [Trace.enabled] — the same one-branch guard. *)

val fresh : t -> int
(** Allocate the next request id (1, 2, ...; per kernel, deterministic). *)

val detach : int -> int
(** The detached (negative) form of a context. *)
