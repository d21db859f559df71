(** Simulated disk with a 1999-era latency model.

    Each request positions the head (seek + rotational latency, reduced
    for sequential hits) and then transfers at media speed. Trace
    experiments are disk-bound exactly when the paper's are; absolute
    speeds are configuration.

    Requests go through an io_uring-shaped submission/completion ring.
    They enter a bounded queue ([qdepth] slots; submitters block while
    the ring is full) and a dispatcher fiber drains them in frozen
    batches, each batch sorted in C-SCAN elevator order. The
    sequential-positioning discount is applied against whatever the
    head last serviced, so contiguous requests from different fibers
    batched together still ride the discount. Completion callbacks run
    as engine-fiber continuations. A request admitted while batch [k]
    is in service is serviced in batch [k+1] (FIFO admission), so waits
    are bounded — elevator order never starves. With [~qdepth:1] every
    batch holds one request, so requests are serviced in ring-admission
    order, each paying its own positioning. *)

type t

type op = [ `Read | `Write ]

val create :
  ?qdepth:int ->
  ?positioning_s:float ->
  ?sequential_positioning_s:float ->
  ?bytes_per_sec:float ->
  ?trace:Iolite_obs.Trace.t ->
  ?attrib:Iolite_obs.Attrib.t ->
  unit ->
  t
(** Defaults: a 64-slot ring, 8 ms average positioning, 0.5 ms when
    sequential with the previously serviced request, 12 MB/s media
    transfer. [trace] receives a [disk]/[read|write] span per request
    covering queueing + positioning + transfer (emitted at completion
    as a [complete] event, with the submitter in [proc]), plus a flow
    step per in-context request at service start so the request
    stitches into the dispatcher batch. [attrib] charges blocking
    requests' waits to their flow context: ring admission and
    submission-to-service residency as [Queue], the serviced extent as
    [Disk_service]. Asynchronous submissions are never charged (their
    submitter isn't waiting). *)

val read : t -> file:int -> off:int -> bytes:int -> unit
(** Must run inside a simulation process; blocks the caller for
    queueing + positioning + transfer. Sequentiality is detected per
    device from the previously serviced request. *)

val write : ?data:string -> t -> file:int -> off:int -> bytes:int -> unit
(** [data], when given, is the write's payload for the durable-write
    log (see {!set_write_log}). *)

val submit : ?data:string -> ?ctx:int -> t -> op:op -> file:int ->
  off:int -> bytes:int -> (unit -> unit) -> unit
(** Asynchronous submission: enqueue the request and return once a
    ring slot is held (blocking only while the ring is full). The
    callback fires at virtual completion time. It runs on the
    dispatcher fiber, so it must not block — resume a waiter or record
    completion, nothing more. [data] is the payload recorded in the
    durable-write log; [ctx] (default 0) is a flow context for trace
    stitching — pass a detached (negative) context so the request joins
    its flow without being charged attribution. *)

val positioning_s : t -> float
val bytes_per_sec : t -> float

val refetch_time : t -> bytes:int -> float
(** Cost of a cold refetch of [bytes] with random positioning — the
    refetch-from-next-tier latency a tier-aware replacement policy
    charges for entries whose only other copy is on this disk. *)

val queue_depth : t -> int
(** Requests submitted but not yet serviced. *)

val batches : t -> int
(** Dispatch batches issued so far. *)

val batched : t -> int
(** Requests that were serviced in a batch of two or more — the share
    of traffic that actually rode the elevator. *)

val reads : t -> int
val writes : t -> int
val bytes_read : t -> int
val bytes_written : t -> int
val busy_time : t -> float

(** {2 Durable-write log (crash-consistency harness support)}

    When enabled, every {e completed} write is appended to an in-order
    log at the end of its service extent. A simulation stopped at an
    arbitrary virtual time ([Engine.run ~until]) therefore leaves
    exactly the durable prefix in the log: in-flight writes whose
    service had not finished are absent, which is the crash model —
    replaying the log into a fresh store reconstructs what the disk
    would hold after the crash. *)

type write_record = {
  wl_seq : int;  (** completion order, 1-based *)
  wl_file : int;
  wl_off : int;
  wl_len : int;
  wl_data : string option;  (** payload, when the submitter passed one *)
  wl_time : float;  (** virtual completion time *)
}

val set_write_log : t -> bool -> unit
(** Enable/disable logging (off by default; disabling clears the log). *)

val write_log : t -> write_record list
(** Completed writes, oldest first. *)
