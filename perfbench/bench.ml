(* Command line of the MERGED-trace Flash-Lite benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   A run measures [datasets] data sets, each generated from the seed
   and its index: set-up, then the simulated run. Simulated metrics are
   means over the data sets, so that no single data set's tail decides
   them. While [S] host seconds are not used up the data
   sets are measured again, each repetition required to reproduce its
   simulated numbers exactly; host-clock metrics are medians over all
   repetitions. The output is a table followed, as the last line, by
   one JSON object: the end-to-end metrics with [--trace 0], the
   per-layer metrics with [--trace 1]. A traced run pairs every
   repetition with a traced one, to report the tracing overhead and to
   check that tracing leaves the simulation unchanged. *)

module H = Harness

let datasets = 6

(* Metric name and unit, in output order. Host-clock values are medians
   over the repetitions, simulated-clock values means over the data
   sets. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("host_us_per_req", "us");
    ("peak_heap_mb", "MB");
    ("mbps", "Mb/s");
    ("p50_ms", "ms");
    ("p90_ms", "ms");
  ]

let per_layer =
  [
    ("setup.trace_s", "s");
    ("setup.kernel_s", "s");
    ("setup.preload_s", "s");
    ("setup.tier_preload_s", "s");
    ("fs.fill_s", "s");
    ("host.calibration_s", "s");
    ("sim.run_s", "s");
    ("sim.host_s_per_sim_s", "s/s");
    ("gc.minor_mw", "Mwords");
    ("gc.major", "count");
    ("trace.overhead", "ratio");
    ("p99_ms", "ms");
    ("p999_ms", "ms");
    ("client.requests", "count");
    ("client.failed_frac", "frac");
    ("cpu.util", "frac");
    ("cpu.busy_us_per_req", "us");
    ("flash.p99_ms", "ms");
    ("net.cksum_scanned_frac", "frac");
    ("link.util", "frac");
    ("transfer.warm_frac", "frac");
    ("transfer.cold_walks", "count");
    ("vm.map_read_per_req", "1/req");
    ("vm.page_alloc_per_req", "1/req");
    ("pool.fresh", "count");
    ("pool.recycled", "count");
    ("cache.hit_frac", "frac");
    ("cache.eviction", "count");
    ("cache.fill_coalesced", "count");
    ("cache.readahead_acc", "frac");
    ("cache.acl_copy", "count");
    ("bytes.copied", "B");
    ("disk.util", "frac");
    ("disk.reads", "count");
    ("disk.bytes_read", "B");
    ("disk.writes", "count");
    ("disk.batched_frac", "frac");
    ("vm.pageout_pages", "count");
    ("vm.swap_writes", "count");
    ("vm.swap_in", "count");
    ("write.cluster_writes", "count");
    ("write.clustered", "count");
    ("write.superseded", "count");
    ("write.throttled", "count");
    ("write.fsync", "count");
    ("write.mbps", "MB/s");
    ("write.fsync_p99_ms", "ms");
    ("tier.hit_frac", "frac");
    ("cache.tier.promote", "count");
    ("cache.tier.demote", "count");
    ("cache.tier.evict", "count");
    ("wait.queue_s", "s");
    ("wait.disk_service_s", "s");
    ("wait.coalesced_wait_s", "s");
    ("wait.vm_stall_s", "s");
    ("wait.cpu_s", "s");
  ]

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
let host_median reps key =
  H.median (Array.of_list (List.map (fun r -> List.assoc key r.H.host) reps))

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 1)
    fmt

let ms sorted q = if Array.length sorted = 0 then 0.0 else 1000.0 *. H.Stats.percentile sorted q

(* Simulated metrics of one data set. *)
let simulated (r : H.result) =
  [
    ("mbps", float_of_int (r.H.window_bytes * 8) /. float_of_int H.full.H.window /. 1e6);
    ("p50_ms", ms r.H.latencies 0.5);
    ("p90_ms", ms r.H.latencies 0.9);
    ("p99_ms", ms r.H.latencies 0.99);
    ("p999_ms", ms r.H.latencies 0.999);
    ("write.mbps", if r.H.write_time = 0.0 then 0.0 else float_of_int r.H.write_bytes /. 1e6 /. r.H.write_time);
    ("write.fsync_p99_ms", ms r.H.fsyncs 0.99);
  ]
  @ r.H.layer

let mean_over reps f =
  let per = List.map f reps in
  List.map (fun (k, _) -> (k, mean (List.map (List.assoc k) per))) (List.hd per)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else fail "metric is not finite"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and spans_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S host seconds to spend measuring");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.Set_string spans_file, "FILE write the benchmark-side spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match H.find_workload !workload with
    | Some w -> w
    | None -> fail "unknown workload %S" !workload
  in
  let traced = !trace = 1 in
  let seeds = Array.init datasets (fun dataset -> H.seeds_of ~seed:!seed ~dataset) in
  let started = Unix.gettimeofday () in
  let peak_heap_mb = ref 0.0 in
  let rep i ~traced =
    fst
      (H.Spans.within (if traced then "rep.traced" else "rep") (fun parent ->
           try H.run ~traced ~parent w H.full seeds.(i mod datasets)
           with H.Stall msg -> fail "%s stalled: %s" w.H.name msg))
  in
  (* Measure every data set once, then again while another repetition
     of the last one's length still fits in the budget. *)
  let rec repeat i acc last =
    let elapsed = Unix.gettimeofday () -. started in
    if i >= datasets && elapsed +. last > !seconds then List.rev acc
    else begin
      let t0 = Unix.gettimeofday () in
      let plain = rep i ~traced:false in
      let r = (plain, if traced then Some (rep i ~traced:true) else None) in
      if i = datasets - 1 then
        peak_heap_mb :=
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
          /. 1048576.0;
      repeat (i + 1) (r :: acc) (Unix.gettimeofday () -. t0)
    end
  in
  let pairs = repeat 0 [] 0.0 in
  let plain = List.map fst pairs in
  let first = List.filteri (fun i _ -> i < datasets) plain in
  List.iteri
    (fun i (p, t) ->
      let f = List.nth first (i mod datasets) in
      if not (H.same p f) then fail "a repeated data set gave different simulated numbers";
      match t with
      | Some t when not (H.same t f) -> fail "tracing changed the simulated numbers"
      | _ -> ())
    pairs;
  let values =
    if traced then begin
      let traced_reps = List.filter_map snd pairs in
      let traced_first = List.filteri (fun i _ -> i < datasets) traced_reps in
      let host = List.map (fun (k, _) -> (k, host_median traced_reps k)) (List.hd traced_reps).H.host in
      (("trace.overhead", host_median traced_reps "sim.run_s" /. host_median plain "sim.run_s")
      :: host)
      @ mean_over traced_first (fun r -> simulated r @ r.H.waits)
    end
    else
      [
        ("setup_s", host_median plain "setup_s");
        ("host_us_per_req", host_median plain "host_us_per_req");
        ("peak_heap_mb", !peak_heap_mb);
      ]
      @ mean_over first simulated
  in
  let metrics = if traced then per_layer else end_to_end in
  let value name =
    match List.assoc_opt name values with
    | Some v -> v
    | None -> fail "no value for metric %s" name
  in
  let attempted = List.fold_left (fun acc r -> acc + r.H.attempted) 0 first in
  let failed = List.fold_left (fun acc r -> acc + r.H.failed) 0 first in
  let errors = List.concat_map (fun r -> r.H.errors) first in
  Printf.printf "workload %s  seed %d  data sets %d  repetitions %d%s\n" w.H.name !seed
    datasets (List.length plain)
    (if traced then " (each + traced)" else "");
  List.iter
    (fun (name, unit) -> Printf.printf "  %-24s %14.6g %s\n" name (value name) unit)
    metrics;
  Printf.printf "  %-24s %14d of %d attempted\n" "failed" failed attempted;
  if not traced then
    List.iter
      (fun (k, unit) -> Printf.printf "  %-24s %14.6g %s\n" k (value k) unit)
      ([ ("p99_ms", "ms"); ("p999_ms", "ms"); ("client.requests", "count"); ("client.failed_frac", "frac") ]
      @ if w.H.updater then [ ("write.mbps", "MB/s"); ("write.fsync_p99_ms", "ms") ] else []);
  List.iteri
    (fun i r ->
      Printf.printf "  data set %d  %6d requests  p99 %8.2f ms  digest %s\n" i
        (Array.length r.H.latencies) (ms r.H.latencies 0.99) r.H.digest)
    first;
  List.iter (fun e -> Printf.printf "  check failed: %s\n" e) errors;
  if !spans_file <> "" then
    Out_channel.with_open_text !spans_file (fun oc -> output_string oc (H.Spans.to_json ()));
  let correct = errors = [] && failed = 0 in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number (value name))
              unit)
          metrics));
  print_newline ();
  if not correct then exit 1
