(** Simulated OS processes.

    A process pairs a simulation-engine coroutine with a protection
    domain, a default IO-Lite allocation pool (ACL = that domain), and a
    wired memory footprint. All syscall wrappers take the calling process
    explicitly and charge its CPU. *)

type t

val spawn :
  ?footprint:int ->
  Kernel.t ->
  name:string ->
  (t -> unit) ->
  t
(** Create the process (wiring [footprint] bytes of process memory,
    default 256 KB) and schedule its body at the current virtual time.
    The body runs as a simulation process. *)

val make : ?footprint:int -> Kernel.t -> name:string -> t
(** Create the process record without scheduling a body (the caller will
    run syscalls from its own coroutine — used by drivers). *)

val exit : t -> unit
(** Release the process's wired memory (idempotent). Called
    automatically when a [spawn]ed body returns. *)

val kernel : t -> Kernel.t
val pid : t -> int
val name : t -> string
val domain : t -> Iolite_mem.Pdomain.t
val pool : t -> Iolite_core.Iobuf.Pool.t

val charge : t -> float -> unit
(** Burn CPU: the given amount plus any pending accumulated cost
    (VM ops, data touches) drained from the kernel. *)

val charge_pending : t -> unit
(** Just drain and charge pending cost. *)

val compute_at : t -> bytes:int -> rate:float -> unit
(** Per-byte work at an application-specific rate (bytes/second). *)
