type arg = Int of int | Str of string | Float of float

type flow_kind = Flow_start | Flow_step | Flow_finish

type phase =
  | Instant
  | Complete of float (* duration, seconds *)
  | Flow of flow_kind * int (* ph:"s"/"t"/"f" with the flow (request) id *)

type event = {
  eph : phase;
  ecat : string;
  ename : string;
  ets : float; (* virtual seconds *)
  etid : string; (* simulated process name *)
  eargs : (string * arg) list;
}

(* Events live in a growable circular array: push is O(1) amortized and
   the ring-buffer mode (set_capacity) bounds it, overwriting the oldest
   event and counting the drop. *)
type t = {
  mutable enabled : bool;
  mutable clock : unit -> float;
  mutable scope : unit -> string option;
  mutable buf : event array;
  mutable head : int; (* index of the oldest retained event *)
  mutable len : int; (* retained events *)
  mutable capacity : int; (* 0 = unbounded *)
  mutable dropped : int; (* events overwritten by ring wrap-around *)
}

let dummy_event =
  { eph = Instant; ecat = ""; ename = ""; ets = 0.0; etid = ""; eargs = [] }

let create () =
  {
    enabled = false;
    clock = (fun () -> 0.0);
    scope = (fun () -> None);
    buf = [||];
    head = 0;
    len = 0;
    capacity = 0;
    dropped = 0;
  }

let[@inline] enabled t = t.enabled

let enable t ~clock ~scope =
  t.clock <- clock;
  t.scope <- scope;
  t.enabled <- true

let now t = t.clock ()
let event_count t = t.len
let dropped t = t.dropped

let clear t =
  t.buf <- [||];
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

(* Copy the retained events (oldest first) into a fresh backing array of
   size [ncap >= t.len], resetting head to 0. *)
let rebuild t ncap =
  let old_cap = Array.length t.buf in
  let nb = Array.make (max ncap 1) dummy_event in
  for i = 0 to t.len - 1 do
    nb.(i) <- t.buf.((t.head + i) mod old_cap)
  done;
  t.buf <- nb;
  t.head <- 0

let set_capacity t cap =
  match cap with
  | None -> t.capacity <- 0
  | Some n ->
    if n <= 0 then invalid_arg "Trace.set_capacity: capacity must be positive";
    if t.len > n then begin
      (* Drop the oldest surplus before shrinking the backing array. *)
      let surplus = t.len - n in
      t.head <- (t.head + surplus) mod Array.length t.buf;
      t.len <- n;
      t.dropped <- t.dropped + surplus
    end;
    if Array.length t.buf <> n then rebuild t n;
    t.capacity <- n

let tid t = match t.scope () with Some name -> name | None -> "kernel"

let push t e =
  let cap = Array.length t.buf in
  if t.len < cap then begin
    t.buf.((t.head + t.len) mod cap) <- e;
    t.len <- t.len + 1
  end
  else if t.capacity > 0 && t.len >= t.capacity then begin
    (* Bounded and full: overwrite the oldest in place. *)
    t.buf.(t.head) <- e;
    t.head <- (t.head + 1) mod cap;
    t.dropped <- t.dropped + 1
  end
  else begin
    let ncap =
      let doubled = if cap = 0 then 64 else cap * 2 in
      if t.capacity > 0 then min doubled t.capacity else doubled
    in
    rebuild t ncap;
    t.buf.(t.len) <- e;
    t.len <- t.len + 1
  end

(* Callers guard with [if Trace.enabled t then ...]; these re-check so an
   unguarded call is still correct, just marginally slower. *)
let instant t ~cat ~name ?(args = []) () =
  if t.enabled then
    push t
      {
        eph = Instant;
        ecat = cat;
        ename = name;
        ets = t.clock ();
        etid = tid t;
        eargs = args;
      }

let complete t ~cat ~name ~ts ~dur ?(args = []) () =
  if t.enabled then
    push t
      {
        eph = Complete dur;
        ecat = cat;
        ename = name;
        ets = ts;
        etid = tid t;
        eargs = args;
      }

let flow t kind ~id ?(cat = "flow") ?(name = "req") ?(args = []) () =
  if t.enabled && id <> 0 then
    push t
      {
        eph = Flow (kind, abs id);
        ecat = cat;
        ename = name;
        ets = t.clock ();
        etid = tid t;
        eargs = args;
      }

let flow_start t ~id ?cat ?name ?args () = flow t Flow_start ~id ?cat ?name ?args ()
let flow_step t ~id ?cat ?name ?args () = flow t Flow_step ~id ?cat ?name ?args ()

let flow_finish t ~id ?cat ?name ?args () =
  flow t Flow_finish ~id ?cat ?name ?args ()

let span t ~cat ~name ?args f =
  if not t.enabled then f ()
  else begin
    let ts = t.clock () in
    let finish () = complete t ~cat ~name ~ts ~dur:(t.clock () -. ts) ?args () in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let iter_events t f =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) mod cap)
  done

let events t =
  let acc = ref [] in
  iter_events t (fun e -> acc := e :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (loadable in Perfetto / chrome://tracing)   *)
(* ------------------------------------------------------------------ *)

(* Serialization appends into a single [Buffer.t]; there is no per-event
   intermediate string, so emitting n events is O(total bytes), and the
   streaming writers below flush the same buffer to a channel whenever
   it crosses a threshold — the full JSON string is never materialized
   unless [to_json] is asked for one. *)

(* Bytes >= 0x80 pass through when [s] is valid UTF-8; otherwise each
   is written as the code point of the same value, so the output is
   valid JSON for any bytes. *)
let buffer_add_escaped b s =
  let escape_high = not (String.is_valid_utf_8 s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 || (escape_high && Char.code c >= 0x80) ->
        Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  buffer_add_escaped b s;
  Buffer.add_char b '"';
  Buffer.contents b

let buffer_add_arg buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Str s ->
    Buffer.add_char buf '"';
    buffer_add_escaped buf s;
    Buffer.add_char buf '"'
  | Float f -> Printf.bprintf buf "%.6g" f

let buffer_add_args buf args =
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      buffer_add_escaped buf k;
      Buffer.add_string buf "\":";
      buffer_add_arg buf v)
    args

(* Virtual seconds -> trace microseconds, fixed precision so equal
   virtual times always print identically. *)
let buffer_add_ts buf s = Printf.bprintf buf "%.3f" (s *. 1e6)

(* Emit one trace process (metadata + events) into [buf]. [spill] is
   called after each emitted object so streaming writers can bound the
   buffer; [emit_sep] threads the separator state across processes. *)
let buffer_add_events ?(spill = fun () -> ()) ~emit_sep buf ~pid ~label iter =
  let tids = Hashtbl.create 8 in
  let tid_order = ref [] in
  let tid_of name =
    match Hashtbl.find_opt tids name with
    | Some i -> i
    | None ->
      let i = Hashtbl.length tids + 1 in
      Hashtbl.add tids name i;
      tid_order := (name, i) :: !tid_order;
      i
  in
  let start_obj () =
    if !emit_sep then Buffer.add_string buf ",\n";
    emit_sep := true
  in
  start_obj ();
  Printf.bprintf buf
    "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":\"" pid;
  buffer_add_escaped buf label;
  Buffer.add_string buf "\"}}";
  spill ();
  (* Reserve tids in first-seen order before emitting events, so thread
     metadata precedes use. *)
  iter (fun e -> ignore (tid_of e.etid));
  List.iter
    (fun (name, i) ->
      start_obj ();
      Printf.bprintf buf
        "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\""
        pid i;
      buffer_add_escaped buf name;
      Buffer.add_string buf "\"}}";
      spill ())
    (List.rev !tid_order);
  iter (fun e ->
      start_obj ();
      Printf.bprintf buf "{\"pid\":%d,\"tid\":%d,\"cat\":\"" pid (tid_of e.etid);
      buffer_add_escaped buf e.ecat;
      Buffer.add_string buf "\",\"name\":\"";
      buffer_add_escaped buf e.ename;
      Buffer.add_string buf "\",\"ts\":";
      buffer_add_ts buf e.ets;
      Buffer.add_char buf ',';
      (match e.eph with
      | Instant -> Buffer.add_string buf "\"ph\":\"i\",\"s\":\"t\""
      | Complete dur ->
        Buffer.add_string buf "\"ph\":\"X\",\"dur\":";
        buffer_add_ts buf dur
      | Flow (kind, id) ->
        (* "bp":"e" binds the finish to its enclosing slice, the Chrome
           trace-format convention Perfetto expects for stitching. *)
        (match kind with
        | Flow_start -> Buffer.add_string buf "\"ph\":\"s\""
        | Flow_step -> Buffer.add_string buf "\"ph\":\"t\""
        | Flow_finish -> Buffer.add_string buf "\"ph\":\"f\",\"bp\":\"e\"");
        Printf.bprintf buf ",\"id\":%d" id);
      (match e.eargs with
      | [] -> ()
      | args ->
        Buffer.add_string buf ",\"args\":{";
        buffer_add_args buf args;
        Buffer.add_char buf '}');
      Buffer.add_char buf '}';
      spill ())

let json_header = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
let json_footer = "\n]}\n"

let to_json ?(pid = 1) ?(label = "iolite") t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf json_header;
  buffer_add_events ~emit_sep:(ref false) buf ~pid ~label (iter_events t);
  Buffer.add_string buf json_footer;
  Buffer.contents buf

(* Streaming writer: one bounded scratch buffer, flushed whenever it
   exceeds [spill_at] bytes. Memory stays O(spill_at) however long the
   trace is. *)
let spill_at = 1 lsl 16

let output_events oc ~pid ~label iter =
  let buf = Buffer.create (spill_at + 1024) in
  let spill () =
    if Buffer.length buf >= spill_at then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  Buffer.add_string buf json_header;
  buffer_add_events ~spill ~emit_sep:(ref false) buf ~pid ~label iter;
  Buffer.add_string buf json_footer;
  Buffer.output_buffer oc buf

let output ?(pid = 1) ?(label = "iolite") t oc =
  output_events oc ~pid ~label (iter_events t)

let write ?pid ?label t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output ?pid ?label t oc)

module Sink = struct
  type trace = t

  type t = { mutable traces : (string * trace) list (* reversed *) }

  let create () = { traces = [] }
  let absorb t ~label trace = t.traces <- (label, trace) :: t.traces
  let count t = List.length t.traces

  let add_all ?spill ~emit_sep buf t =
    List.iteri
      (fun i (label, trace) ->
        buffer_add_events ?spill ~emit_sep buf ~pid:(i + 1) ~label
          (iter_events trace))
      (List.rev t.traces)

  let to_json t =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf json_header;
    add_all ~emit_sep:(ref false) buf t;
    Buffer.add_string buf json_footer;
    Buffer.contents buf

  let output t oc =
    let buf = Buffer.create (spill_at + 1024) in
    let spill () =
      if Buffer.length buf >= spill_at then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end
    in
    Buffer.add_string buf json_header;
    add_all ~spill ~emit_sep:(ref false) buf t;
    Buffer.add_string buf json_footer;
    Buffer.output_buffer oc buf

  let write t path =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output t oc)
end
