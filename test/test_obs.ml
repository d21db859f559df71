(* Observability layer: metrics registry, virtual-clock tracer, and the
   end-to-end telemetry acceptance checks (trace determinism; registry
   diffs reproducing the checksum-cache contribution). *)

module Metrics = Iolite_obs.Metrics
module Trace = Iolite_obs.Trace
module E = Iolite_workload.Experiments

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Alcotest.(check int) "missing key reads 0" 0 (Metrics.get m "net.bytes");
  Metrics.incr m "net.bytes";
  Metrics.add m "net.bytes" 41;
  Alcotest.(check int) "incr + add accumulate" 42 (Metrics.get m "net.bytes");
  Metrics.incr m "cache.hit";
  Alcotest.(check (list (pair string int)))
    "to_list sorted by key"
    [ ("cache.hit", 1); ("net.bytes", 42) ]
    (Metrics.to_list m);
  Metrics.reset m;
  Alcotest.(check int) "reset clears" 0 (Metrics.get m "net.bytes")

let test_metrics_sites () =
  let m = Metrics.create () in
  let s = Metrics.site m "net.sent" in
  Alcotest.(check bool) "absent before the first bump" false
    (List.mem_assoc "net.sent" (Metrics.snapshot m));
  Metrics.bump s 0;
  Alcotest.(check (list (pair string int)))
    "a zero bump creates the key, as add does" [ ("net.sent", 0) ]
    (Metrics.snapshot m);
  Metrics.bump s 5;
  Metrics.add m "net.sent" 2;
  Alcotest.(check int) "site and add share the cell" 7 (Metrics.get m "net.sent");
  Metrics.reset m;
  Metrics.bump s 3;
  Alcotest.(check (list (pair string int)))
    "the cached cell feeds the registry across reset" [ ("net.sent", 3) ]
    (Metrics.snapshot m);
  (* Two sites on one key resolve to the same cell. *)
  let s' = Metrics.site m "net.sent" in
  Metrics.bump s' 1;
  Alcotest.(check int) "second site" 4 (Metrics.get m "net.sent")

(* The per-request sites of the kernel resolve lazily: a key shows up
   in snapshots only once its event has happened, as with [add]. *)
let test_kernel_sites_lazy () =
  let sys = Iolite_core.Iosys.create () in
  let m = Iolite_core.Iosys.metrics sys in
  let keys () = List.map fst (Metrics.snapshot m) in
  let pool =
    Iolite_core.Iobuf.Pool.create sys ~name:"p" ~acl:Iolite_mem.Vm.Public
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " absent") false (List.mem k (keys ())))
    [ "pool.alloc"; "pool.fresh"; "pool.recycled"; "bytes.filled"; "vm.map_read" ];
  let b =
    Iolite_core.Iobuf.Pool.alloc pool ~producer:(Iolite_core.Iosys.kernel sys)
      100
  in
  Alcotest.(check int) "pool.alloc" 1 (Metrics.get m "pool.alloc");
  Alcotest.(check int) "pool.fresh" 1 (Metrics.get m "pool.fresh");
  Alcotest.(check bool) "pool.recycled still absent" false
    (List.mem "pool.recycled" (keys ()));
  Iolite_core.Iobuf.Buffer.fill b (fun _ ~dst_off:_ ~len:_ -> ());
  Alcotest.(check int) "bytes.filled" 100 (Metrics.get m "bytes.filled");
  Alcotest.(check bool) "bytes.copied still absent" false
    (List.mem "bytes.copied" (keys ()));
  Metrics.reset m;
  ignore
    (Iolite_core.Iobuf.Pool.alloc pool ~producer:(Iolite_core.Iosys.kernel sys)
       100);
  Alcotest.(check int) "pool.alloc after reset" 1 (Metrics.get m "pool.alloc")

let test_metrics_gauges () =
  let m = Metrics.create () in
  let v = ref 7 in
  Metrics.set_gauge m "mem.free" (fun () -> !v);
  Alcotest.(check int) "gauge samples closure" 7 (Metrics.gauge m "mem.free");
  v := 9;
  Alcotest.(check int) "gauge resamples" 9 (Metrics.gauge m "mem.free");
  Alcotest.(check int) "unknown gauge reads 0" 0 (Metrics.gauge m "nope");
  Alcotest.(check (list (pair string int)))
    "gauges appear in to_list"
    [ ("mem.free", 9) ]
    (Metrics.to_list m)

let test_metrics_hist () =
  let m = Metrics.create () in
  Alcotest.(check bool)
    "no hist before observe" true
    (Metrics.find_hist m "lat" = None);
  Metrics.observe m "lat" 0.5;
  Metrics.observe m "lat" 1.5;
  let h = Metrics.hist m "lat" in
  Alcotest.(check int) "observations counted" 2
    (Iolite_util.Stats.Hist.count h);
  Alcotest.(check int) "hist_list has it" 1 (List.length (Metrics.hist_list m))

let test_metrics_snapshot_diff () =
  let m = Metrics.create () in
  Metrics.add m "a" 10;
  Metrics.add m "b" 5;
  let g = ref 100 in
  Metrics.set_gauge m "g" (fun () -> !g);
  let s0 = Metrics.snapshot m in
  Metrics.add m "a" 3;
  Metrics.add m "c" 1;
  g := 90;
  let s1 = Metrics.snapshot m in
  let d = Metrics.diff ~before:s0 ~after:s1 in
  Alcotest.(check (list (pair string int)))
    "diff has deltas only, zero-delta keys dropped"
    [ ("a", 3); ("c", 1); ("g", -10) ]
    d;
  Alcotest.(check int) "snapshot_get of absent key" 0
    (Metrics.snapshot_get s0 "c")

let test_metrics_render () =
  let m = Metrics.create () in
  Metrics.add m "cache.eviction" 2;
  Metrics.observe m "lat" 0.25;
  let r = Metrics.render ~prefix:"  " m in
  Alcotest.(check bool) "counter rendered" true
    (contains ~sub:"cache.eviction" r);
  Alcotest.(check bool) "hist rendered" true (contains ~sub:"n=1" r)

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_disabled_noop () =
  let tr = Trace.create () in
  Alcotest.(check bool) "starts disabled" false (Trace.enabled tr);
  Trace.instant tr ~cat:"cache" ~name:"evict" ();
  let v = Trace.span tr ~cat:"os" ~name:"IOL_read" (fun () -> 17) in
  Alcotest.(check int) "span passes value through" 17 v;
  Trace.complete tr ~cat:"httpd" ~name:"request" ~ts:0.0 ~dur:1.0 ();
  Alcotest.(check int) "disabled tracer buffers nothing" 0
    (Trace.event_count tr)

let test_trace_events_and_json () =
  let tr = Trace.create () in
  let t = ref 0.0 in
  let scope = ref (Some "flash") in
  Trace.enable tr
    ~clock:(fun () ->
      t := !t +. 0.001;
      !t)
    ~scope:(fun () -> !scope);
  Trace.instant tr ~cat:"cache" ~name:"hit"
    ~args:[ ("file", Trace.Int 3); ("path", Trace.Str "/a\"b") ]
    ();
  let v = Trace.span tr ~cat:"os" ~name:"IOL_read" (fun () -> 5) in
  Alcotest.(check int) "span result" 5 v;
  scope := None;
  Trace.instant tr ~cat:"vm" ~name:"page_fault" ();
  Alcotest.(check int) "three events" 3 (Trace.event_count tr);
  let json = Trace.to_json ~label:"test" tr in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" sub) true
        (contains ~sub json))
    [
      "\"traceEvents\"";
      "\"ph\":\"i\"";          (* instant *)
      "\"ph\":\"X\"";          (* complete span *)
      "\"ph\":\"M\"";          (* process/thread metadata *)
      "\"cat\":\"cache\"";
      "\"name\":\"IOL_read\"";
      "\"dur\":";
      "\\\"b";                 (* the quote in the path got escaped *)
      "\"name\":\"flash\"";    (* thread_name metadata from scope *)
      "\"name\":\"kernel\"";   (* None scope renders as kernel *)
      "\"ts\":1000.000";       (* 0.001 s -> 1000 us, fixed precision *)
    ];
  (* Span on a raising thunk still records the event. *)
  (try
     Trace.span tr ~cat:"os" ~name:"boom" (fun () -> failwith "x")
   with Failure _ -> ());
  Alcotest.(check int) "raising span recorded" 4 (Trace.event_count tr);
  Trace.clear tr;
  Alcotest.(check int) "clear empties buffer" 0 (Trace.event_count tr)

(* The bench harness writes its run labels through the same escaper, so
   any label must come out as one valid JSON string literal. *)
let test_trace_json_string () =
  Alcotest.(check string)
    "quote, backslash, control byte, UTF-8" {|"say \"hi\" C:\\x \u0001 café"|}
    (Trace.json_string "say \"hi\" C:\\x \001 caf\xc3\xa9");
  Alcotest.(check string) "valid UTF-8 unchanged" {|"café"|}
    (Trace.json_string "café");
  Alcotest.(check string) "invalid UTF-8 byte as \\u00XX" {|"caf\u00e9"|}
    (Trace.json_string "caf\xe9")

let test_trace_sink () =
  let mk label =
    let tr = Trace.create () in
    Trace.enable tr ~clock:(fun () -> 0.5) ~scope:(fun () -> None);
    Trace.instant tr ~cat:"net" ~name:label ();
    tr
  in
  let sink = Trace.Sink.create () in
  Trace.Sink.absorb sink ~label:"kernel-1" (mk "tx1");
  Trace.Sink.absorb sink ~label:"kernel-2" (mk "tx2");
  Alcotest.(check int) "two traces absorbed" 2 (Trace.Sink.count sink);
  let json = Trace.Sink.to_json sink in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "sink json has %s" sub) true
        (contains ~sub json))
    [ "\"kernel-1\""; "\"kernel-2\""; "\"pid\":1"; "\"pid\":2"; "tx1"; "tx2" ]

(* ------------------------------------------------------------------ *)
(* Ring-buffer bounding                                                *)
(* ------------------------------------------------------------------ *)

let armed () =
  let tr = Trace.create () in
  let t = ref 0.0 in
  Trace.enable tr
    ~clock:(fun () ->
      t := !t +. 0.001;
      !t)
    ~scope:(fun () -> None);
  tr

let event_names tr = List.map (fun e -> e.Trace.ename) (Trace.events tr)

let test_trace_ring_buffer () =
  let tr = armed () in
  Trace.set_capacity tr (Some 4);
  for i = 1 to 10 do
    Trace.instant tr ~cat:"t" ~name:(Printf.sprintf "e%d" i) ()
  done;
  Alcotest.(check int) "retains the capacity" 4 (Trace.event_count tr);
  Alcotest.(check int) "drops the oldest surplus" 6 (Trace.dropped tr);
  Alcotest.(check (list string))
    "newest events survive, oldest first"
    [ "e7"; "e8"; "e9"; "e10" ]
    (event_names tr);
  (* Shrinking below the retained count evicts immediately. *)
  Trace.set_capacity tr (Some 2);
  Alcotest.(check int) "shrink drops immediately" 2 (Trace.event_count tr);
  Alcotest.(check int) "shrink counts as dropped" 8 (Trace.dropped tr);
  Alcotest.(check (list string))
    "still the newest" [ "e9"; "e10" ] (event_names tr);
  (* Lifting the bound keeps what is retained and grows again. *)
  Trace.set_capacity tr None;
  for i = 11 to 13 do
    Trace.instant tr ~cat:"t" ~name:(Printf.sprintf "e%d" i) ()
  done;
  Alcotest.(check int) "unbounded grows" 5 (Trace.event_count tr);
  Alcotest.(check int) "no further drops" 8 (Trace.dropped tr);
  (* The serialized view matches the retained window. *)
  let json = Trace.to_json tr in
  Alcotest.(check bool) "dropped event absent from json" false
    (contains ~sub:"\"e8\"" json);
  Alcotest.(check bool) "retained event present in json" true
    (contains ~sub:"\"e13\"" json);
  Trace.clear tr;
  Alcotest.(check int) "clear resets dropped" 0 (Trace.dropped tr)

(* ------------------------------------------------------------------ *)
(* Streaming serialization                                             *)
(* ------------------------------------------------------------------ *)

let populated () =
  let tr = armed () in
  Trace.instant tr ~cat:"cache" ~name:"hit"
    ~args:[ ("path", Trace.Str "/a\"b\\c\n"); ("n", Trace.Int 3) ]
    ();
  Trace.complete tr ~cat:"os" ~name:"IOL_read" ~ts:0.001 ~dur:0.5
    ~args:[ ("f", Trace.Float 0.25) ]
    ();
  Trace.flow_start tr ~id:1 ();
  Trace.flow_step tr ~id:1 ~args:[ ("at", Trace.Str "disk") ] ();
  Trace.flow_finish tr ~id:1 ();
  tr

let stream_to_string f =
  let path = Filename.temp_file "iolite" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      f oc;
      close_out oc;
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s)

let test_trace_streaming_matches () =
  let tr = populated () in
  Alcotest.(check string)
    "output streams exactly to_json's bytes" (Trace.to_json tr)
    (stream_to_string (fun oc -> Trace.output tr oc));
  let sink = Trace.Sink.create () in
  Trace.Sink.absorb sink ~label:"k1" tr;
  Trace.Sink.absorb sink ~label:"k2" (populated ());
  Alcotest.(check string)
    "sink output streams exactly Sink.to_json's bytes"
    (Trace.Sink.to_json sink)
    (stream_to_string (fun oc -> Trace.Sink.output sink oc))

(* ------------------------------------------------------------------ *)
(* Flow chains                                                         *)
(* ------------------------------------------------------------------ *)

(* Collect each request id's flow events (oldest first) and check the
   chain invariant: exactly one [s] opening it, exactly one [f] closing
   it, [t] steps strictly inside, timestamps nondecreasing. *)
let check_flow_chains tr =
  let chains = Hashtbl.create 16 in
  Trace.iter_events tr (fun e ->
      match e.Trace.eph with
      | Trace.Flow (kind, id) ->
        let prev = try Hashtbl.find chains id with Not_found -> [] in
        Hashtbl.replace chains id ((kind, e.Trace.ets) :: prev)
      | Trace.Instant | Trace.Complete _ -> ());
  Hashtbl.iter
    (fun id rev ->
      let chain = List.rev rev in
      (match chain with
      | (Trace.Flow_start, _) :: rest ->
        List.iter
          (fun (k, _) ->
            if k = Trace.Flow_start then
              Alcotest.failf "flow %d: duplicate start" id)
          rest
      | _ -> Alcotest.failf "flow %d: does not open with ph:s" id);
      (match List.rev chain with
      | (Trace.Flow_finish, _) :: rest ->
        List.iter
          (fun (k, _) ->
            if k = Trace.Flow_finish then
              Alcotest.failf "flow %d: duplicate finish" id)
          rest
      | _ -> Alcotest.failf "flow %d: does not close with ph:f" id);
      ignore
        (List.fold_left
           (fun prev (_, ts) ->
             if ts < prev then
               Alcotest.failf "flow %d: timestamps decrease" id;
             ts)
           neg_infinity chain))
    chains;
  Hashtbl.length chains

(* Property: any interleaving of requests emitted through the Flow API
   — including steps emitted from detached (negative) contexts and
   buffer growth across the default chunk size — serializes into
   well-formed connected chains. *)
let prop_flow_chains =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 8)
        (pair (int_range 0 5) (list_size (0 -- 10) (int_range 0 2))))
  in
  QCheck.Test.make ~name:"flow events form connected s->t*->f chains"
    ~count:200 (QCheck.make gen) (fun reqs ->
      let tr = armed () in
      let flow = Iolite_obs.Flow.create tr in
      (* Per request: its op queue [start; step*; finish]; the generated
         pick list drives the interleaving. *)
      let n = List.length reqs in
      let ids = Array.init n (fun _ -> Iolite_obs.Flow.fresh flow) in
      let queues =
        Array.of_list
          (List.map
             (fun (steps, _) ->
               ref
                 ((`Start :: List.init steps (fun j -> `Step (j land 1 = 1)))
                 @ [ `Finish ]))
             reqs)
      in
      let emit i =
        match !(queues.(i)) with
        | [] -> ()
        | op :: rest ->
          queues.(i) := rest;
          let id = ids.(i) in
          (match op with
          | `Start -> Iolite_obs.Flow.start flow ~id ()
          | `Step detached ->
            (* A detached context stitches via its absolute value. *)
            let id = if detached then Iolite_obs.Flow.detach id else id in
            Iolite_obs.Flow.step flow ~id ()
          | `Finish -> Iolite_obs.Flow.finish flow ~id ())
      in
      (* Interleave: walk every request's pick list round-robin, then
         drain any remainder in order. *)
      List.iteri
        (fun i (_, picks) -> List.iter (fun p -> emit ((i + p) mod n)) picks)
        reqs;
      Array.iteri
        (fun i q -> List.iter (fun _ -> emit i) !q)
        queues;
      check_flow_chains tr = n)

(* ------------------------------------------------------------------ *)
(* Wait attribution: the coalesced-miss edge                           *)
(* ------------------------------------------------------------------ *)

module Engine = Iolite_sim.Engine
module Kernel = Iolite_os.Kernel
module Process = Iolite_os.Process
module Attrib = Iolite_obs.Attrib
module Flow = Iolite_obs.Flow

(* Two cold readers of the same small file: the first becomes the fill
   leader (it eats the disk read), the second lands on the in-flight
   single-flight latch. The follower's wait must be attributed as
   [Coalesced_wait] naming the leader's flow id, and the trace must
   carry the follower's [fill_coalesced] flow step. *)
let test_coalesced_attributes_to_leader () =
  let engine = Engine.create () in
  let kernel = Kernel.create engine in
  Kernel.enable_tracing kernel;
  let file = Kernel.add_file kernel ~name:"/doc.bin" ~size:49_152 in
  let a = Kernel.attrib kernel in
  let flow = Kernel.flow kernel in
  let rids = Array.make 2 0 in
  for i = 0 to 1 do
    ignore
      (Process.spawn kernel
         ~name:(Printf.sprintf "reader%d" i)
         (fun proc ->
           let rid = Flow.fresh flow in
           rids.(i) <- rid;
           Engine.Proc.set_ctx rid;
           Attrib.begin_request a ~ctx:rid ~tag:"/doc.bin";
           Flow.start flow ~id:rid ();
           ignore (Iolite_os.Fileio.iol_read proc ~file ~off:0 ~len:1024);
           Flow.finish flow ~id:rid ();
           Attrib.end_request a ~ctx:rid;
           Engine.Proc.set_ctx 0))
  done;
  Engine.run engine;
  Alcotest.(check int) "both requests completed" 2 (Attrib.completed a);
  Alcotest.(check int) "one miss coalesced" 1
    (Metrics.get (Kernel.metrics kernel) "cache.fill_coalesced");
  let records = Attrib.slowest a in
  let follower =
    match List.filter (fun r -> r.Attrib.ar_coalesced > 0.0) records with
    | [ r ] -> r
    | l -> Alcotest.failf "expected one coalesced record, got %d" (List.length l)
  in
  let leader =
    match List.filter (fun r -> r.Attrib.ar_coalesced = 0.0) records with
    | [ r ] -> r
    | l -> Alcotest.failf "expected one leader record, got %d" (List.length l)
  in
  Alcotest.(check int) "follower waited on the leader's fill"
    leader.Attrib.ar_id follower.Attrib.ar_coalesced_on;
  Alcotest.(check bool) "the leader ate the disk service" true
    (leader.Attrib.ar_disk > 0.0);
  Alcotest.(check bool) "the follower paid no disk service" true
    (follower.Attrib.ar_disk = 0.0);
  (* The follower's wait spans the leader's fill, so it cannot be
     shorter than the leader's disk time, and the decomposition must
     cover its wall time (the >=95% acceptance contract). *)
  Alcotest.(check bool) "coalesced wait covers the leader's fill" true
    (follower.Attrib.ar_coalesced +. 1e-12 >= leader.Attrib.ar_disk);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "request %d covered >= 0.95" r.Attrib.ar_id)
        true
        (Attrib.covered r >= 0.95))
    records;
  (* The trace carries the coalesced step against the follower's id,
     tagged with the leader, and both chains are well-formed. *)
  let tr = Kernel.trace kernel in
  let step_found = ref false in
  Trace.iter_events tr (fun e ->
      match e.Trace.eph with
      | Trace.Flow (Trace.Flow_step, id)
        when id = follower.Attrib.ar_id
             && List.mem_assoc "leader" e.Trace.eargs ->
        if List.assoc "leader" e.Trace.eargs
           = Trace.Int leader.Attrib.ar_id
        then step_found := true
      | _ -> ());
  Alcotest.(check bool) "trace step names the leader" true !step_found;
  Alcotest.(check int) "two well-formed flow chains" 2 (check_flow_chains tr)

(* ------------------------------------------------------------------ *)
(* End-to-end acceptance: the deterministic smoke run                  *)
(* ------------------------------------------------------------------ *)

(* Two full simulated runs are not free (~2.4 virtual seconds each), so
   run smoke twice once and share the results across checks. *)
let smoke_pair =
  lazy
    (let a = E.smoke () in
     let b = E.smoke () in
     (a, b))

let test_smoke_trace_determinism () =
  let a, b = Lazy.force smoke_pair in
  Alcotest.(check bool) "traces non-trivial" true
    (String.length a.E.sm_trace_json > 10_000);
  Alcotest.(check bool)
    "two same-seed runs emit byte-identical trace JSON" true
    (String.equal a.E.sm_trace_json b.E.sm_trace_json)

let test_smoke_trace_subsystems () =
  let a, _ = Lazy.force smoke_pair in
  List.iter
    (fun cat ->
      Alcotest.(check bool)
        (Printf.sprintf "trace has %s events" cat)
        true
        (contains ~sub:(Printf.sprintf "\"cat\":\"%s\"" cat) a.E.sm_trace_json))
    [ "cache"; "net"; "vm"; "disk"; "httpd"; "os"; "flow" ];
  (* Causal stitching: the run emits whole flow chains — starts, steps
     and enclosing-bound finishes sharing request ids. *)
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "trace has %s flow events" sub)
        true
        (contains ~sub a.E.sm_trace_json))
    [ "\"ph\":\"s\""; "\"ph\":\"t\""; "\"ph\":\"f\",\"bp\":\"e\"" ]

let dget l k = match List.assoc_opt k l with Some v -> v | None -> 0

let test_smoke_diff_reproduces_cksum () =
  let a, _ = Lazy.force smoke_pair in
  let total, scanned, saved = a.E.sm_cksum in
  (* The first snapshot is taken before the engine ever runs, so the
     cold + warm phase deltas must account for the entire counter
     values — and their difference is exactly the checksum-cache
     contribution that Fig. 11 plots via [Flash.cksum_stats]. *)
  let phase_total = dget a.E.sm_cold "net.cksum_bytes_total"
                    + dget a.E.sm_warm "net.cksum_bytes_total" in
  let phase_scanned =
    dget a.E.sm_cold "net.cksum_bytes" + dget a.E.sm_warm "net.cksum_bytes"
  in
  Alcotest.(check int) "phase deltas cover total" total phase_total;
  Alcotest.(check int) "phase deltas cover scanned" scanned phase_scanned;
  Alcotest.(check int) "diffs reproduce the cache's saving" saved
    (phase_total - phase_scanned);
  Alcotest.(check bool) "the cache actually saved work" true (saved > 0);
  (* The warm phase should scan relatively less than the cold phase:
     by then every document's checksum is cached. *)
  let ratio c =
    float_of_int (dget c "net.cksum_bytes")
    /. float_of_int (max 1 (dget c "net.cksum_bytes_total"))
  in
  Alcotest.(check bool) "warm phase scans a smaller fraction" true
    (ratio a.E.sm_warm <= ratio a.E.sm_cold)

let test_smoke_latency_and_requests () =
  let a, _ = Lazy.force smoke_pair in
  Alcotest.(check bool) "served requests" true (a.E.sm_requests > 100);
  match a.E.sm_latency with
  | None -> Alcotest.fail "no latency summary"
  | Some s ->
    let open Iolite_util.Stats in
    Alcotest.(check bool) "latency count matches volume" true (s.count > 100);
    Alcotest.(check bool) "percentiles ordered" true
      (s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    Alcotest.(check bool) "latencies positive and sub-second" true
      (s.min > 0.0 && s.max < 1.0)

(* The smoke run is deterministic, so its two phase diffs and its trace
   pin the simulation: any drift in a simulated number moves a digest.
   A change that moves the simulation on purpose re-records them and
   says why. *)
let digest_diff l =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) l)))

let test_smoke_goldens () =
  let a, _ = Lazy.force smoke_pair in
  Alcotest.(check (triple string string string))
    "digests of (cold diff, warm diff, trace JSON)"
    ( "7210f69075d0b2dfd037b4ffab33fe72",
      "4404b1d1685bb3e94e667b57a88a994a",
      "dc231ee8962421efe2c4fa20a69022b8" )
    ( digest_diff a.E.sm_cold,
      digest_diff a.E.sm_warm,
      Digest.to_hex (Digest.string a.E.sm_trace_json) )

let suites =
  [
    ( "obs.metrics",
      [
        Alcotest.test_case "counters" `Quick test_metrics_counters;
        Alcotest.test_case "sites" `Quick test_metrics_sites;
        Alcotest.test_case "kernel sites resolve lazily" `Quick
          test_kernel_sites_lazy;
        Alcotest.test_case "gauges" `Quick test_metrics_gauges;
        Alcotest.test_case "histograms" `Quick test_metrics_hist;
        Alcotest.test_case "snapshot diff" `Quick test_metrics_snapshot_diff;
        Alcotest.test_case "render" `Quick test_metrics_render;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "disabled is a no-op" `Quick test_trace_disabled_noop;
        Alcotest.test_case "events and json" `Quick test_trace_events_and_json;
        Alcotest.test_case "json string" `Quick test_trace_json_string;
        Alcotest.test_case "sink" `Quick test_trace_sink;
        Alcotest.test_case "ring buffer bound" `Quick test_trace_ring_buffer;
        Alcotest.test_case "streaming output" `Quick
          test_trace_streaming_matches;
      ] );
    ( "obs.flow",
      [
        QCheck_alcotest.to_alcotest prop_flow_chains;
        Alcotest.test_case "coalesced wait attributes to leader" `Quick
          test_coalesced_attributes_to_leader;
      ] );
    ( "obs.smoke",
      [
        Alcotest.test_case "trace determinism" `Slow
          test_smoke_trace_determinism;
        Alcotest.test_case "subsystem coverage" `Slow
          test_smoke_trace_subsystems;
        Alcotest.test_case "metric diffs reproduce cksum stats" `Slow
          test_smoke_diff_reproduces_cksum;
        Alcotest.test_case "latency histogram" `Slow
          test_smoke_latency_and_requests;
        Alcotest.test_case "simulation goldens" `Slow test_smoke_goldens;
      ] );
  ]
