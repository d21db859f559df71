(** Per-request wait-state attribution.

    Every blocking edge a request crosses — submit-ring admission,
    elevator queue residency, disk service, single-flight follower
    wait, pageout rounds and swap-ins, CPU charging — records the
    interval against the request's flow context, tagged with one of
    five causes. At request end the intervals collapse into a
    [{queue, disk_service, coalesced_wait, vm_stall, cpu}]
    decomposition of the request's wall time; the slowest 16 land in a
    bounded, deterministic reservoir for the tail profiler.

    Like the tracer, an [Attrib.t] starts disabled, and a blocking edge
    runs its call through {!timed} (or guards with
    [if Attrib.enabled a then ...]) — one bool load and branch on the
    hot path when off. Only {e positive} contexts
    are charged (see [Engine.ctx]: 0 = no request, negative =
    detached prefetch work). *)

type t

type cause = Queue | Disk_service | Coalesced_wait | Vm_stall | Cpu

(** A completed request's decomposition. Immutable by convention once
    it leaves the reservoir. *)
type record = {
  ar_id : int;  (** the request's flow id *)
  ar_tag : string;  (** workload tag: path, file id, ... *)
  ar_start : float;
  mutable ar_end : float;
  mutable ar_queue : float;
  mutable ar_disk : float;
  mutable ar_coalesced : float;
  mutable ar_vm : float;
  mutable ar_cpu : float;
  mutable ar_coalesced_on : int;
      (** leader flow id of the last coalesced wait, 0 = none *)
}

val create : unit -> t
(** Disabled; every call is a no-op until {!enable}. *)

val enable : t -> clock:(unit -> float) -> ctx:(unit -> int) -> unit
(** Arm with a virtual-time clock (seconds) and a flow-context getter
    (the OS layer passes the engine's fiber-local context) — recording
    sites in layers that cannot see the engine read it via {!here}. *)

val enabled : t -> bool
(** The one-branch guard recording sites use. *)

val now : t -> float
(** Clock reading, for intervals {!timed} cannot bracket (the disk
    dispatcher's queue residency and service split). *)

val here : t -> int
(** The running fiber's flow context (0 outside any request). *)

(** {2 Recording} *)

val begin_request : t -> ctx:int -> tag:string -> unit
(** Open the decomposition for a request at the current clock. No-op
    for non-positive [ctx] or when disabled. *)

val end_request : t -> ctx:int -> unit
(** Close it: stamp the end time, fold into the aggregates, and admit
    into the slowest-16 reservoir (sorted by wall time descending, ties
    by lower id — deterministic under any completion interleaving). *)

val note : ?leader:int -> t -> ctx:int -> cause -> float -> unit
(** [note t ~ctx cause dt] charges [dt] seconds to [cause] on the open
    request [ctx]. [leader] tags a [Coalesced_wait] with the leader's
    flow id (the fill the follower piggybacked on). Ignored for
    unknown/non-positive contexts and non-positive [dt]. *)

val timed : ?leader:int -> t -> cause -> ('a -> 'b) -> 'a -> 'b
(** [timed t cause f x] is [f x], a call that may block; when the
    running fiber's context is a request, the virtual time the call
    took is {!note}d against it as [cause] (with [leader]). Disabled,
    it costs one bool test on top of the call; passing [f] and [x]
    rather than a thunk lets a call site allocate no closure. *)

(** {2 Reading} *)

val wall : record -> float
val total : record -> float
(** Sum of the five components. *)

val covered : record -> float
(** [total / wall] — the ≥95% acceptance metric (1.0 when wall = 0). *)

val components : record -> (string * float) list
(** The five components, in schema order. *)

val dominant : record -> string * float
(** Largest component. *)

val slowest : t -> record list
(** The retained tail, slowest first. *)

val completed : t -> int

val totals : t -> (string * float) list
(** [("wall", _)] plus the five causes, summed over {e all} completed
    requests. *)
