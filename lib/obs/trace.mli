(** Virtual-clock structured tracer.

    Subsystems emit {e instants} (cache eviction, page fault, packet
    demux), {e spans} (syscall enter/exit, disk service, link
    transmit, HTTP request lifetime) and {e flow events} (causal
    request stitching, see below) stamped with the simulation
    engine's virtual clock and the simulated process name. Events
    buffer in-simulation and serialize as Chrome trace-event JSON,
    loadable in Perfetto or [chrome://tracing].

    {b Overhead contract}: a tracer starts disabled and every emission
    site guards with [if Trace.enabled t then ...] — a single mutable
    bool load and branch — so hot paths pay nothing measurable when
    tracing is off ([bench/main.exe obs] asserts this). Emitters
    re-check internally, so unguarded calls are correct, merely
    slower.

    Event taxonomy ([cat]/[name]): [os]/[IOL_read|IOL_write|...]
    syscall spans; [cache]/[hit|miss|insert|evict]; [net]/[send|recv|
    drain|tx]; [vm]/[map_read|page_alloc|page_fault|pageout];
    [disk]/[read|write]; [httpd]/[request|cgi]; [flow]/[req] flow
    events.

    {b Flow events} carry a per-kernel request id (allocated by
    {!Flow}) and serialize as [ph:"s"/"t"/"f"] sharing that [id], so
    Perfetto draws one request's arrows across the fibers it visited:
    accept demux ([s]), syscall/cache/disk-dispatcher steps ([t]),
    completion ([f], bound to the enclosing slice with [bp:"e"]).

    Determinism: with a deterministic engine, two same-seed runs emit
    byte-identical JSON. *)

type t

type arg = Int of int | Str of string | Float of float

type flow_kind = Flow_start | Flow_step | Flow_finish

type phase =
  | Instant
  | Complete of float  (** duration, seconds *)
  | Flow of flow_kind * int  (** flow binding and the request id *)

type event = {
  eph : phase;
  ecat : string;
  ename : string;
  ets : float;  (** virtual seconds *)
  etid : string;  (** simulated process name *)
  eargs : (string * arg) list;
}

val create : unit -> t
(** A disabled tracer; every emission is a no-op until {!enable}. *)

val enable :
  t -> clock:(unit -> float) -> scope:(unit -> string option) -> unit
(** Arm the tracer. [clock] supplies virtual time (seconds); [scope]
    the current simulated process name ([None] renders as
    ["kernel"]). *)

val enabled : t -> bool
(** The single-branch guard call sites use. *)

val now : t -> float
(** The tracer's current clock reading (0.0 before [enable]). *)

(** {2 Emission} *)

val instant :
  t -> cat:string -> name:string -> ?args:(string * arg) list -> unit -> unit

val complete :
  t ->
  cat:string ->
  name:string ->
  ts:float ->
  dur:float ->
  ?args:(string * arg) list ->
  unit ->
  unit
(** A span recorded after the fact: started at virtual [ts], lasted
    [dur] seconds. *)

val span :
  t -> cat:string -> name:string -> ?args:(string * arg) list ->
  (unit -> 'a) -> 'a
(** Run the thunk inside a span (recorded even if it raises). When the
    tracer is disabled this is exactly one branch plus the call. *)

val flow_start :
  t ->
  id:int ->
  ?cat:string ->
  ?name:string ->
  ?args:(string * arg) list ->
  unit ->
  unit
(** Open a flow chain for request [id] at the current clock/scope
    ([ph:"s"]). [id = 0] is ignored; negative ids (detached contexts,
    see [Engine.ctx]) emit with their absolute value. [cat]/[name]
    default to ["flow"]/["req"] and must match across one chain. *)

val flow_step :
  t ->
  id:int ->
  ?cat:string ->
  ?name:string ->
  ?args:(string * arg) list ->
  unit ->
  unit
(** A [ph:"t"] step: binds the chain to whatever slice encloses the
    current clock/scope (disk dispatcher service, cache fill, ...). *)

val flow_finish :
  t ->
  id:int ->
  ?cat:string ->
  ?name:string ->
  ?args:(string * arg) list ->
  unit ->
  unit
(** Close the chain ([ph:"f","bp":"e"]) — emitted where the request
    completes (last drained byte, job end). *)

(** {2 Bounding} *)

val set_capacity : t -> int option -> unit
(** [set_capacity t (Some n)] bounds the tracer to the [n] most recent
    events: further pushes overwrite the oldest (ring buffer) and
    count in {!dropped}. If more than [n] events are already retained
    the oldest surplus is dropped immediately. [None] (the default)
    removes the bound; already-retained events are kept either way.
    Always-on tracing in long sweeps uses this so memory can't grow
    without bound. *)

val dropped : t -> int
(** Events lost to ring-buffer wrap-around since {!create}/{!clear}
    (exported as the [trace.dropped] gauge by the kernel). *)

(** {2 Inspection and serialization} *)

val event_count : t -> int
(** Retained events (excludes {!dropped}). *)

val clear : t -> unit

val events : t -> event list
(** Retained events, oldest first (tests and tooling; serialization
    streams via {!iter_events} instead). *)

val iter_events : t -> (event -> unit) -> unit
(** Iterate retained events oldest-first without materializing a
    list. *)

val to_json : ?pid:int -> ?label:string -> t -> string
(** Chrome trace-event JSON ([{"traceEvents": [...]}]), timestamps in
    microseconds of virtual time, one trace "process" labelled
    [label]. Built in a single buffer — O(total bytes), no
    per-event intermediate strings. *)

val output : ?pid:int -> ?label:string -> t -> out_channel -> unit
(** Stream the same JSON to a channel through a bounded (64 KB)
    scratch buffer — the full string is never materialized. *)

val write : ?pid:int -> ?label:string -> t -> string -> unit
(** [write t path] streams {!output} to [path]. *)

val json_string : string -> string
(** [s] as a JSON string literal, quotes included, escaped the way
    every string in the trace JSON is: quote, backslash and control
    bytes escaped, valid UTF-8 passed through. When [s] is not valid
    UTF-8, each byte >= 0x80 becomes [\u00XX], so the literal is valid
    JSON for any bytes. *)

(** Combines the traces of several kernels (one simulated machine per
    experiment point) into a single JSON file, each kernel as its own
    trace process. *)
module Sink : sig
  type trace := t
  type t

  val create : unit -> t

  val absorb : t -> label:string -> trace -> unit
  (** Register a kernel's tracer; events are read out at {!write}
      time. Labels appear as Perfetto process names. *)

  val count : t -> int

  val to_json : t -> string
  (** Single-buffer build, like the trace-level {!to_json}. *)

  val output : t -> out_channel -> unit
  (** Streaming merge: bounded scratch buffer, never the whole
      string. *)

  val write : t -> string -> unit
end
