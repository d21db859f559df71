module Sync = Iolite_sim.Sync
module Proc = Iolite_sim.Engine.Proc
module Trace = Iolite_obs.Trace
module Attrib = Iolite_obs.Attrib

type op = [ `Read | `Write ]

type request = {
  r_op : op;
  r_file : int;
  r_off : int;
  r_bytes : int;
  r_submit : float; (* virtual submission time, for the async span *)
  r_proc : string option; (* submitting process, for trace args *)
  r_ctx : int; (* submitter's flow context; 0 for async submissions *)
  r_data : string option; (* write payload, recorded in the durable log *)
  r_done : unit -> unit;
}

(* One durably completed write: appended when the request's service
   extent ends, so a simulation crashed (Engine.run ~until) mid-service
   has not logged it — the log is exactly what survives the crash. *)
type write_record = {
  wl_seq : int;
  wl_file : int;
  wl_off : int;
  wl_len : int;
  wl_data : string option;
  wl_time : float;
}

type t = {
  positioning_s : float;
  sequential_positioning_s : float;
  bytes_per_sec : float;
  qdepth : int;
  ring : Sync.Semaphore.t; (* submission slots *)
  pending : request Queue.t;
  mutable dispatching : bool;
  mutable in_service : int;
  mutable batch_seq : int; (* batches dispatched so far *)
  mutable batched : int; (* requests serviced in batches of >= 2 *)
  mutable last_file : int;
  mutable last_end : int;
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable busy : float;
  mutable log_writes : bool;
  mutable wlog : write_record list; (* newest first *)
  mutable wseq : int;
  trace : Trace.t;
  attrib : Attrib.t;
}

let create ?(qdepth = 64) ?(positioning_s = 0.008)
    ?(sequential_positioning_s = 0.0005) ?(bytes_per_sec = 12e6) ?trace
    ?attrib () =
  if qdepth < 1 then invalid_arg "Disk.create: qdepth";
  {
    positioning_s;
    sequential_positioning_s;
    bytes_per_sec;
    qdepth;
    ring = Sync.Semaphore.create qdepth;
    pending = Queue.create ();
    dispatching = false;
    in_service = 0;
    batch_seq = 0;
    batched = 0;
    last_file = -1;
    last_end = -1;
    reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
    busy = 0.0;
    log_writes = false;
    wlog = [];
    wseq = 0;
    trace = (match trace with Some tr -> tr | None -> Trace.create ());
    attrib = (match attrib with Some a -> a | None -> Attrib.create ());
  }

let op_name = function `Read -> "read" | `Write -> "write"

(* Append a completed write to the durable log. Runs at service-extent
   end, inside a simulation fiber, so [Proc.now] is the completion's
   virtual time. *)
let log_write t op ~file ~off ~bytes data =
  if t.log_writes && op = `Write then begin
    t.wseq <- t.wseq + 1;
    t.wlog <-
      {
        wl_seq = t.wseq;
        wl_file = file;
        wl_off = off;
        wl_len = bytes;
        wl_data = data;
        wl_time = Proc.now ();
      }
      :: t.wlog
  end

(* Counters account at service time, inside the request's traced
   extent, so a congested disk's spans and counters always agree. *)
let account t op bytes =
  match op with
  | `Read ->
    t.reads <- t.reads + 1;
    t.bytes_read <- t.bytes_read + bytes
  | `Write ->
    t.writes <- t.writes + 1;
    t.bytes_written <- t.bytes_written + bytes

(* Position-then-transfer cost of one request, with the sequential
   discount against whatever the head last serviced — including a
   batched neighbor serviced just before. *)
let service_cost t ~file ~off ~bytes =
  let sequential = file = t.last_file && off = t.last_end in
  let position =
    if sequential then t.sequential_positioning_s else t.positioning_s
  in
  position +. (float_of_int bytes /. t.bytes_per_sec)

let service_one t ~file ~off ~bytes =
  let cost = service_cost t ~file ~off ~bytes in
  Proc.sleep cost;
  t.busy <- t.busy +. cost;
  t.last_file <- file;
  t.last_end <- off + bytes

(* One dispatcher fiber drains the ring in frozen batches: it removes
   every pending request (up to the ring depth — the io_uring-shaped
   completion bound), sorts the batch in C-SCAN elevator order starting
   from the head's current position, services each request, and fires
   the completion callbacks as it goes. Requests submitted while a
   batch is in service wait for the next batch, which bounds every
   request's wait to one batch turn (no starvation). *)

let elevator t batch =
  let arr = Array.of_list batch in
  Array.sort
    (fun a b ->
      match compare a.r_file b.r_file with
      | 0 -> compare a.r_off b.r_off
      | c -> c)
    arr;
  (* Rotate so service resumes at the first request at-or-after the
     head position and wraps (C-SCAN). *)
  let n = Array.length arr in
  let start = ref 0 in
  (try
     for i = 0 to n - 1 do
       let r = arr.(i) in
       if
         r.r_file > t.last_file
         || (r.r_file = t.last_file && r.r_off >= t.last_end)
       then begin
         start := i;
         raise Stdlib.Exit
       end
     done;
     start := 0
   with Stdlib.Exit -> ());
  List.init n (fun i -> arr.((i + !start) mod n))

let complete_span t r =
  if Trace.enabled t.trace then begin
    let now = Trace.now t.trace in
    let args =
      [ ("file", Trace.Int r.r_file); ("bytes", Trace.Int r.r_bytes) ]
    in
    let args =
      match r.r_proc with
      | Some p -> args @ [ ("proc", Trace.Str p) ]
      | None -> args
    in
    Trace.complete t.trace ~cat:"disk" ~name:(op_name r.r_op) ~ts:r.r_submit
      ~dur:(now -. r.r_submit) ~args ()
  end

let rec dispatch t =
  if Queue.is_empty t.pending then t.dispatching <- false
  else begin
    let batch = ref [] in
    let n = ref 0 in
    while (not (Queue.is_empty t.pending)) && !n < t.qdepth do
      batch := Queue.pop t.pending :: !batch;
      incr n
    done;
    t.batch_seq <- t.batch_seq + 1;
    if !n >= 2 then t.batched <- t.batched + !n;
    let ordered = elevator t !batch in
    List.iter
      (fun r ->
        (* A flow step in the dispatcher fiber at service start lands
           inside the request's [disk] span, so Perfetto stitches the
           submitting request into this batch. *)
        if r.r_ctx <> 0 && Trace.enabled t.trace then
          Trace.flow_step t.trace ~id:r.r_ctx
            ~args:[ ("at", Trace.Str "disk"); ("file", Trace.Int r.r_file) ]
            ();
        let charge = Attrib.enabled t.attrib && r.r_ctx > 0 in
        let t_svc = if charge then Attrib.now t.attrib else 0.0 in
        service_one t ~file:r.r_file ~off:r.r_off ~bytes:r.r_bytes;
        if charge then begin
          (* Submission-to-service-start is elevator queue residency
             (plus any ring wait the submitter already recorded);
             service-start-to-now is device service. *)
          Attrib.note t.attrib ~ctx:r.r_ctx Queue (t_svc -. r.r_submit);
          Attrib.note t.attrib ~ctx:r.r_ctx Disk_service
            (Attrib.now t.attrib -. t_svc)
        end;
        t.in_service <- t.in_service - 1;
        log_write t r.r_op ~file:r.r_file ~off:r.r_off ~bytes:r.r_bytes
          r.r_data;
        account t r.r_op r.r_bytes;
        complete_span t r;
        Sync.Semaphore.release t.ring;
        r.r_done ())
      ordered;
    dispatch t
  end

(* Enqueueing is split from slot acquisition and dispatcher spawn: the
   latter two perform engine effects and so must run in the submitting
   fiber proper, never inside a [Proc.suspend] register closure. *)
let enqueue ?data t ~proc ~ctx ~op ~file ~off ~bytes k =
  let r =
    {
      r_op = op;
      r_file = file;
      r_off = off;
      r_bytes = bytes;
      r_submit =
        (if Trace.enabled t.trace then Trace.now t.trace
         else if Attrib.enabled t.attrib then Attrib.now t.attrib
         else 0.0);
      r_proc = proc;
      r_ctx = ctx;
      r_data = data;
      r_done = k;
    }
  in
  Queue.push r t.pending;
  t.in_service <- t.in_service + 1

let ensure_dispatcher t =
  if not t.dispatching then begin
    t.dispatching <- true;
    Proc.spawn ~name:"disk.dispatch" (fun () -> dispatch t)
  end

let submitter_name t = if Trace.enabled t.trace then Proc.self () else None

let submit ?data ?(ctx = 0) t ~op ~file ~off ~bytes k =
  (* Backpressure: block the submitter while the ring is full. Async
     submissions usually carry no flow context — nobody is suspended on
     the completion, so nothing should be charged for its waits; a
     caller may pass a detached (negative) context so the request still
     stitches into its flow. *)
  let proc = submitter_name t in
  Sync.Semaphore.acquire t.ring;
  enqueue ?data t ~proc ~ctx ~op ~file ~off ~bytes k;
  ensure_dispatcher t

let blocking ?data t op ~file ~off ~bytes =
  let proc = submitter_name t in
  let a = t.attrib in
  let ctx =
    if Attrib.enabled a || Trace.enabled t.trace then Attrib.here a else 0
  in
  (* Submit-ring admission wait is queueing on the request. *)
  Attrib.timed a Queue Sync.Semaphore.acquire t.ring;
  (* A freshly spawned dispatcher only runs once this fiber parks, so
     it observes the request pushed by the register closure. *)
  ensure_dispatcher t;
  Proc.suspend (fun resume ->
      enqueue ?data t ~proc ~ctx ~op ~file ~off ~bytes resume)

let read t ~file ~off ~bytes = blocking t `Read ~file ~off ~bytes
let write ?data t ~file ~off ~bytes = blocking ?data t `Write ~file ~off ~bytes

let set_write_log t on =
  t.log_writes <- on;
  if not on then begin
    t.wlog <- [];
    t.wseq <- 0
  end

let write_log t = List.rev t.wlog
let positioning_s t = t.positioning_s
let bytes_per_sec t = t.bytes_per_sec

(* What a cold refetch of [bytes] would cost, random positioning
   included: the tier-aware GDS cost of an entry whose next copy down
   is on this disk. *)
let refetch_time t ~bytes =
  t.positioning_s +. (float_of_int bytes /. t.bytes_per_sec)

let queue_depth t = t.in_service
let batches t = t.batch_seq
let batched t = t.batched
let reads t = t.reads
let writes t = t.writes
let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
let busy_time t = t.busy
