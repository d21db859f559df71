module Trace = Iolite_workload.Trace
module Client = Iolite_workload.Client
module Rng = Iolite_util.Rng
module Engine = Iolite_sim.Engine
module Kernel = Iolite_os.Kernel
module Flash = Iolite_httpd.Flash

let test_trace_totals_calibrated () =
  List.iter
    (fun spec ->
      let t = Trace.synthesize spec in
      Alcotest.(check int) "file count" spec.Trace.files (Trace.file_count t);
      let total = Trace.total_bytes t in
      let target = float_of_int spec.Trace.total_bytes in
      Alcotest.(check bool)
        (spec.Trace.sname ^ " total within 2%")
        true
        (Float.abs (float_of_int total -. target) /. target < 0.02);
      let mean = Trace.mean_request_bytes t in
      let mtarget = float_of_int spec.Trace.mean_request_bytes in
      Alcotest.(check bool)
        (spec.Trace.sname ^ " mean transfer within 15%")
        true
        (Float.abs (mean -. mtarget) /. mtarget < 0.15))
    [ Trace.ece; Trace.cs; Trace.merged ]

let test_trace_concentration () =
  (* The published CDF shape: the hot head carries most requests but a
     minority of bytes (e.g. ECE: top 5000 files = 95% of requests, 39%
     of bytes). *)
  let t = Trace.synthesize Trace.ece in
  let reqs, bytes = Trace.cdf_row t ~top:5000 in
  Alcotest.(check bool) "most requests in head" true (reqs > 0.85);
  Alcotest.(check bool) "minority of bytes in head" true (bytes < 0.6)

let test_trace_sampling_matches_masses () =
  let t = Trace.synthesize Trace.ece in
  let rng = Rng.create 42L in
  let n = 50_000 in
  let top_hits = ref 0 in
  for _ = 1 to n do
    if Trace.sample t rng < 100 then incr top_hits
  done;
  let reqs_frac, _ = Trace.cdf_row t ~top:100 in
  let measured = float_of_int !top_hits /. float_of_int n in
  Alcotest.(check bool) "sampling matches cdf" true
    (Float.abs (measured -. reqs_frac) < 0.02)

let test_trace_sizes_bounded () =
  let t = Trace.synthesize Trace.merged in
  for rank = 0 to Trace.file_count t - 1 do
    let s = Trace.file_size t ~rank in
    if s < 64 || s > 4 * 1024 * 1024 then
      Alcotest.failf "size out of bounds at rank %d: %d" rank s
  done

let test_request_log_and_prefix () =
  let t = Trace.synthesize Trace.merged in
  let log = Trace.request_log t ~seed:7L ~count:100_000 in
  let prefix =
    Trace.prefix_for_dataset t ~log ~target_bytes:(50 * 1024 * 1024)
  in
  Alcotest.(check bool) "prefix nontrivial" true
    (prefix > 0 && prefix <= 100_000);
  let files, bytes = Trace.distinct_bytes t ~log ~prefix in
  Alcotest.(check bool) "dataset close to target" true
    (bytes >= 50 * 1024 * 1024 && bytes < 56 * 1024 * 1024);
  Alcotest.(check bool) "many files" true (files > 100);
  (* Monotone: longer prefix, no smaller dataset. *)
  let _, bytes2 = Trace.distinct_bytes t ~log ~prefix:(prefix * 2) in
  Alcotest.(check bool) "monotone" true (bytes2 >= bytes)

let test_trace_deterministic () =
  let a = Trace.synthesize ~seed:1L Trace.ece in
  let b = Trace.synthesize ~seed:1L Trace.ece in
  for rank = 0 to 200 do
    Alcotest.(check int) "same sizes" (Trace.file_size a ~rank)
      (Trace.file_size b ~rank)
  done

let test_client_driver_measures () =
  let engine = Engine.create () in
  let kernel = Kernel.create engine in
  ignore (Kernel.add_file kernel ~name:"/doc" ~size:5_000);
  let listener =
    Flash.listener (Flash.start ~variant:Flash.Iolite kernel ~port:80)
  in
  let config =
    { Client.clients = 8; rtt = 0.0; persistent = false; warmup = 0.5; duration = 2.0 }
  in
  let r =
    Client.run kernel listener config ~pick:(fun ~client:_ ~iter:_ -> "/doc")
  in
  Alcotest.(check bool) "bandwidth measured" true (r.Client.mbps > 1.0);
  Alcotest.(check bool) "requests completed" true (r.Client.requests > 100);
  Alcotest.(check bool) "bytes consistent" true
    (r.Client.bytes > r.Client.requests * 5_000)

let test_client_persistent_faster_small_files () =
  let run persistent =
    let engine = Engine.create () in
    let kernel = Kernel.create engine in
    ignore (Kernel.add_file kernel ~name:"/doc" ~size:1_000);
    let listener =
      Flash.listener (Flash.start ~variant:Flash.Iolite kernel ~port:80)
    in
    let config =
      { Client.clients = 8; rtt = 0.0; persistent; warmup = 0.5; duration = 2.0 }
    in
    (Client.run kernel listener config ~pick:(fun ~client:_ ~iter:_ -> "/doc"))
      .Client.mbps
  in
  let np = run false and p = run true in
  Alcotest.(check bool) "keep-alive helps small files" true (p > np *. 1.3)

(* A 10 s CPU charge left pending before a 1 s window stalls the server
   past the window end, the shape of the warm-start preload leak that
   once read 0.0 Mb/s in Fig 8. That point is an error, not a zero. *)
let test_client_zero_completions_raise () =
  let engine = Engine.create () in
  let kernel = Kernel.create engine in
  ignore (Kernel.add_file kernel ~name:"/doc" ~size:5_000);
  let listener =
    Flash.listener (Flash.start ~variant:Flash.Iolite kernel ~port:80)
  in
  Kernel.add_pending kernel 10.0;
  let config =
    { Client.clients = 8; rtt = 0.0; persistent = false; warmup = 0.5; duration = 1.0 }
  in
  Alcotest.check_raises "stalled point raises"
    (Failure
       "Client.run: no response completed in the measurement window [0.5, \
        1.5] s (8 clients)")
    (fun () ->
      ignore
        (Client.run kernel listener config ~pick:(fun ~client:_ ~iter:_ -> "/doc")))

let test_file_path_matches_printf () =
  List.iter
    (fun rank ->
      Alcotest.(check string) (string_of_int rank)
        (Printf.sprintf "/doc/r%d" rank)
        (Trace.file_path ~rank))
    [ 0; 1; 9; 10; 12345; max_int; -1; min_int ]

(* The warm start's VM work must not be billed to the first measured
   syscall: after loading, nothing is left pending. *)
let test_preload_leaves_nothing_pending () =
  let spec =
    { Trace.ece with Trace.sname = "small"; files = 200; total_bytes = 4 * 1024 * 1024 }
  in
  let trace = Trace.synthesize spec in
  let kernel =
    Kernel.create
      ~config:{ (Kernel.default_config ()) with Kernel.mem_capacity = 32 * 1024 * 1024 }
      (Engine.create ())
  in
  Trace.register_files trace kernel ~prefix_ranks:None;
  Iolite_workload.Experiments.preload_cache kernel ~conv:false ~trace ~prefix_ranks:None;
  Alcotest.(check bool) "files loaded" true
    (Iolite_core.Filecache.total_bytes (Kernel.unified_cache kernel) > 0);
  Alcotest.(check (float 0.0)) "no pending charge" 0.0 (Kernel.take_pending kernel)

(* The multi-owner figures at a fixed small scale, digested exactly
   (floats in hex). Apache's per-connection processes, FastCGI and the
   converted applications run many CPU owners, so these pin the
   context-switch surcharges that the single-server workloads never
   pay. Any change to a simulated number shows up here. *)
module E = Iolite_workload.Experiments

let digest_series series =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.concat_map
             (fun s ->
               s.E.label
               :: List.map
                    (fun p -> Printf.sprintf "%h %h" p.E.x p.E.mbps)
                    s.E.points)
             series)))

let digest_apps apps =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun a ->
               Printf.sprintf "%s %h %h %b" a.E.app a.E.posix_s a.E.iolite_s
                 a.E.verified)
             apps)))

(* Anchor predicates: what the figures mean, asserted on the values
   the goldens digest, so a re-recorded digest cannot drop them
   silently. [values] come in the order the paper ranks them; each must
   be at least the next, or above it with [strict]. *)
let check_ranked ~strict what values =
  let rec go = function
    | (a, va) :: ((b, vb) :: _ as rest) ->
      if not (if strict then va > vb else va >= vb) then
        Alcotest.failf "%s: %s %.2f not %s %s %.2f" what a va
          (if strict then "above" else "at least")
          b vb;
      go rest
    | _ -> ()
  in
  go values

(* The same ranking of the series [names] at every point whose x is at
   least [from]. *)
let check_ranked_series ~strict ?(from = neg_infinity) what series names =
  let points name =
    match List.find_opt (fun s -> s.E.label = name) series with
    | Some s -> List.map (fun p -> (p.E.x, p.E.mbps)) s.E.points
    | None -> Alcotest.failf "%s: missing series %s" what name
  in
  let columns = List.map points names in
  List.iteri
    (fun i (x, _) ->
      if x >= from then
        check_ranked ~strict
          (Printf.sprintf "%s at %g" what x)
          (List.map2 (fun name col -> (name, snd (List.nth col i))) names columns))
    (List.hd columns)

let paper_servers = [ "Flash-Lite"; "Flash"; "Apache" ]

let test_figure_goldens () =
  let scale = 0.1 in
  let figs =
    [
      ("fig3", E.fig3 ~scale ());
      ("fig4", E.fig4 ~scale ());
      ("fig5", E.fig5 ~scale ());
      ("fig6", E.fig6 ~scale ());
    ]
  in
  let apps = E.fig13 () in
  Alcotest.(check (list (pair string string)))
    "figure digests at scale 0.1"
    [
      ("fig3", "f0006cb9b66aa7477c61d0a5ee40fe3a");
      ("fig4", "649518f2e4f7ee37eb020ab884dd1424");
      ("fig5", "f5dfce903461885d77436811538b3897");
      ("fig6", "2f92e45ad8df393304f579c3bf98cb79");
      ("fig13", "4e3533e3f237fdcb3bdfaca14fe86536");
    ]
    (List.map (fun (name, s) -> (name, digest_series s)) figs
    @ [ ("fig13", digest_apps apps) ]);
  List.iter
    (fun (name, s) ->
      check_ranked_series ~strict:false ~from:20.0 name s paper_servers)
    figs;
  List.iter
    (fun a ->
      Alcotest.(check bool) ("fig13 " ^ a.E.app ^ " output verified") true
        a.E.verified;
      check_ranked ~strict:true ("fig13 " ^ a.E.app ^ " runtime")
        [ ("unmodified", a.E.posix_s); ("IO-Lite", a.E.iolite_s) ])
    apps

(* The sweeps that carried a baseline column, digested exactly (floats
   in hex). They are the only runs of the async pipeline under memory
   pressure, of both CAWL throttle regimes and of 10^3 live idle
   timers. The digests were recorded while the baseline paths still
   existed, so they pin that removing them left these rows unchanged.
   The C1M point leaves out its two host wall-clock fields. *)
let digest_lines lines =
  Digest.to_hex (Digest.string (String.concat "\n" lines))

let async_lines p =
  Printf.sprintf "%s %d %d %h %h %h %h %d %d %d %d %d %d %d %d %h %d"
    p.E.as_scenario p.E.as_mem_mb p.E.as_requests p.E.as_p50 p.E.as_p90
    p.E.as_p99 p.E.as_disk_util p.E.as_disk_reads p.E.as_disk_writes
    p.E.as_batches p.E.as_batched p.E.as_coalesced p.E.as_ra_issued
    p.E.as_ra_hit p.E.as_swap_writes p.E.as_seq_read_s p.E.as_attr_completed
  :: List.map (fun (k, v) -> Printf.sprintf "%s %h" k v) p.E.as_attr_totals
  @ List.map
      (fun (r : Iolite_obs.Attrib.record) ->
        Printf.sprintf "%d %s %h %h %h %h %h %h %h %d" r.ar_id r.ar_tag
          r.ar_start r.ar_end r.ar_queue r.ar_disk r.ar_coalesced r.ar_vm
          r.ar_cpu r.ar_coalesced_on)
      p.E.as_tail

let write_line p =
  Printf.sprintf "%s %h %d %h %d %d %d %d %d %d %d %d %d %h %h" p.E.wp_label
    p.E.wp_flush_interval p.E.wp_burst p.E.wp_x p.E.wp_writes p.E.wp_bytes
    p.E.wp_disk_writes p.E.wp_disk_bytes p.E.wp_cluster_writes
    p.E.wp_clustered p.E.wp_flushes p.E.wp_superseded p.E.wp_throttled
    p.E.wp_write_s p.E.wp_mbps

let test_sweep_goldens () =
  let c = E.c1m ~requests:5_000 ~conns:1_000 () in
  let warm = E.async_point ~scale:0.2 ~pressure:false () in
  let pressure = E.async_point ~scale:0.2 ~pressure:true () in
  let seq = E.write_seq_point () in
  let cawl = E.write_cawl_sweep () in
  Alcotest.(check (list (pair string string)))
    "sweep digests"
    [
      ("async warm", "d4ee49dac65e63988cf3a4045558d0cb");
      ("async pressure", "715f573a2fea0b3b792c53270eb54729");
      ("write seq", "70ac18d8c45a7c98b91542fb39bc837d");
      ("write cawl", "1b77ffa8df94f0b15392eb36f45dd0fe");
      ("c1m", "ffc19dd86d1e494c3a21e10815c7f0f7");
    ]
    [
      ("async warm", digest_lines (async_lines warm));
      ("async pressure", digest_lines (async_lines pressure));
      ("write seq", digest_lines [ write_line seq ]);
      ("write cawl", digest_lines (List.map write_line cawl));
      ( "c1m",
        digest_lines
          [
            Printf.sprintf "%d %h %h %h %h %d %d %d %d" c.E.c1m_requests
              c.E.c1m_sim_rps c.E.c1m_p50 c.E.c1m_p90 c.E.c1m_p99
              c.E.c1m_fresh_warm c.E.c1m_recycled_warm c.E.c1m_peak_timers
              c.E.c1m_idle_closed;
          ] );
    ];
  (* The async pipeline coalesces, reads ahead and batches at both
     memory sizes, and attributes every measured request's wait. *)
  List.iter
    (fun p ->
      let what k = Printf.sprintf "async %s %s" p.E.as_scenario k in
      List.iter
        (fun (k, v) -> Alcotest.(check bool) (what k ^ " > 0") true (v > 0))
        [
          ("coalesced", p.E.as_coalesced);
          ("readahead hits", p.E.as_ra_hit);
          ("batched", p.E.as_batched);
        ];
      Alcotest.(check int) (what "attributed") p.E.as_requests
        p.E.as_attr_completed;
      List.iter
        (fun r ->
          Alcotest.(check bool) (what "tail record >= 95% covered") true
            (Iolite_obs.Attrib.covered r >= 0.95))
        p.E.as_tail)
    [ warm; pressure ];
  Alcotest.(check bool) "write-back clusters" true (seq.E.wp_clustered > 0);
  Alcotest.(check bool) "rewrite supersedes" true (seq.E.wp_superseded > 0);
  Alcotest.(check bool) "a CAWL point below the knee" true
    (List.exists (fun p -> p.E.wp_throttled = 0) cawl);
  Alcotest.(check bool) "a CAWL point past the knee" true
    (List.exists (fun p -> p.E.wp_throttled > 0) cawl);
  Alcotest.(check int) "c1m: no fresh chunks once warm" 0 c.E.c1m_fresh_warm;
  Alcotest.(check bool) "c1m: one idle timer per connection" true
    (c.E.c1m_peak_timers >= c.E.c1m_conns)

(* Fig 10 and the NVMM tier sweep, digested exactly (floats in hex).
   Fig 10 is the only contract-scale run of the capacity-bounded
   conventional cache under trace load (Flash and Apache), and the tier
   sweep and probe are the only runs of the tier under trace load. *)
let tier_line p =
  Printf.sprintf "%s %d %h %d %d %d %d %d %d %d %d %d" p.E.tp_label p.E.tp_ws_mb
    p.E.tp_mbps p.E.tp_dram_hits p.E.tp_dram_evictions p.E.tp_tier_hit
    p.E.tp_tier_miss p.E.tp_tier_demote p.E.tp_tier_promote p.E.tp_tier_stage
    p.E.tp_tier_evict p.E.tp_disk_reads

let probe_line p =
  Printf.sprintf "%h %h %h %h %d %d %d" p.E.pr_dram_hit_s p.E.pr_tier_hit_s
    p.E.pr_cold_disk_s p.E.pr_speedup p.E.pr_demote p.E.pr_promote p.E.pr_stage

let test_fig10_golden () =
  let series = E.fig10 ~scale:0.1 () in
  Alcotest.(check string)
    "fig10 digest at scale 0.1" "afb2a28475008e7c8332ad21f8be25b9"
    (digest_series series);
  check_ranked_series ~strict:true "fig10" series paper_servers

(* Fig 8 at scale 0.1: the three traces, each served by Flash-Lite,
   Flash and Apache after a warm start, one bandwidth per server. *)
let test_fig8_golden () =
  let bars = E.fig8 ~scale:0.1 () in
  Alcotest.(check string)
    "fig8 digest at scale 0.1" "0428c948b518f453b7a838e3b6f52fc3"
    (digest_lines
       (List.concat_map
          (fun (trace, points) ->
            List.map
              (fun (server, mbps) -> Printf.sprintf "%s %s %h" trace server mbps)
              points)
          bars));
  List.iter
    (fun (trace, points) ->
      check_ranked ~strict:true ("fig8 " ^ trace)
        (List.map (fun server -> (server, List.assoc server points)) paper_servers))
    bars

(* Figs 11 and 12 at scale 0.1: the ablation bars (GDS/LRU x checksum
   cache) and the RTT sweep. Every warm start in them goes through the
   content generator. *)
let test_fig11_golden () =
  let series = E.fig11 ~scale:0.1 () in
  Alcotest.(check string)
    "fig11 digest at scale 0.1" "2ae1b2d1a80b7a45da65b0ca2b9451c4"
    (digest_series series);
  (* The checksum cache never costs bandwidth, under either policy. *)
  check_ranked_series ~strict:false "fig11 GDS" series
    [ "Flash-Lite (GDS)"; "Flash-Lite no-cksum" ];
  check_ranked_series ~strict:false "fig11 LRU" series
    [ "Flash-Lite LRU"; "Flash-Lite LRU no-cksum" ]

let test_fig12_golden () =
  let series = E.fig12 ~scale:0.1 () in
  Alcotest.(check string)
    "fig12 digest at scale 0.1" "b04c1c3617394d33ae35f5159a664f64"
    (digest_series series);
  check_ranked_series ~strict:true "fig12" series paper_servers

let test_tier_goldens () =
  let points = E.tier_sweep ~scale:0.05 () in
  let pr = E.tier_probe_run () in
  Alcotest.(check string)
    "tier sweep and probe digest" "d10725621b40c1fc6fb7ce6095ef74f6"
    (digest_lines (List.map tier_line points @ [ probe_line pr ]));
  let dram, tiered = List.partition (fun p -> p.E.tp_label = "dram-only") points in
  List.iter
    (fun p ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "dram-only %dMB: no tier hits or demotions" p.E.tp_ws_mb)
        (0, 0)
        (p.E.tp_tier_hit, p.E.tp_tier_demote))
    dram;
  let sum f l = List.fold_left (fun acc p -> acc + f p) 0 l in
  Alcotest.(check bool) "tiered points demote" true
    (sum (fun p -> p.E.tp_tier_demote) tiered > 0);
  Alcotest.(check bool) "tiered points promote" true
    (sum (fun p -> p.E.tp_tier_promote) tiered > 0);
  Alcotest.(check bool) "the tier cuts disk reads" true
    (sum (fun p -> p.E.tp_disk_reads) tiered
    < sum (fun p -> p.E.tp_disk_reads) dram);
  check_ranked ~strict:true "probe latency classes"
    [
      ("cold disk", pr.E.pr_cold_disk_s);
      ("tier hit", pr.E.pr_tier_hit_s);
      ("dram hit", pr.E.pr_dram_hit_s);
      ("zero", 0.0);
    ];
  Alcotest.(check bool) "probe: tier hit >= 5x faster than disk" true
    (pr.E.pr_speedup >= 5.0);
  List.iter
    (fun (k, v) -> Alcotest.(check bool) ("probe " ^ k ^ " > 0") true (v > 0))
    [
      ("demote", pr.E.pr_demote);
      ("promote", pr.E.pr_promote);
      ("stage", pr.E.pr_stage);
    ]

(* Every kernel the harness builds reaches an installed sink, the
   points that configure their own machine included. *)
let test_harness_kernels_reach_sink () =
  let sink = Iolite_obs.Trace.Sink.create () in
  E.set_observability ~sink ();
  Fun.protect ~finally:(fun () -> E.set_observability ()) (fun () ->
      ignore (E.tier_probe_run ());
      ignore (E.write_seq_point ());
      ignore (E.c1m ~requests:2_000 ~conns:100 ());
      ignore (E.async_point ~scale:0.2 ~pressure:false ());
      Alcotest.(check int) "one trace per kernel" 4
        (Iolite_obs.Trace.Sink.count sink))

let suites =
  [
    ( "workload.trace",
      [
        Alcotest.test_case "totals calibrated" `Quick test_trace_totals_calibrated;
        Alcotest.test_case "concentration" `Quick test_trace_concentration;
        Alcotest.test_case "sampling" `Quick test_trace_sampling_matches_masses;
        Alcotest.test_case "sizes bounded" `Quick test_trace_sizes_bounded;
        Alcotest.test_case "log + prefix" `Quick test_request_log_and_prefix;
        Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
        Alcotest.test_case "file_path matches printf" `Quick
          test_file_path_matches_printf;
      ] );
    ( "workload.client",
      [
        Alcotest.test_case "driver measures" `Quick test_client_driver_measures;
        Alcotest.test_case "persistent faster" `Quick test_client_persistent_faster_small_files;
        Alcotest.test_case "zero completions raise" `Quick
          test_client_zero_completions_raise;
      ] );
    ( "workload.warm_start",
      [
        Alcotest.test_case "preload leaves nothing pending" `Quick
          test_preload_leaves_nothing_pending;
      ] );
    ( "workload.harness",
      [
        Alcotest.test_case "every kernel reaches the sink" `Quick
          test_harness_kernels_reach_sink;
      ] );
    ( "workload.figures",
      [
        Alcotest.test_case "figure goldens" `Slow test_figure_goldens;
        Alcotest.test_case "sweep goldens" `Slow test_sweep_goldens;
        Alcotest.test_case "fig8 golden" `Slow test_fig8_golden;
        Alcotest.test_case "fig10 golden" `Slow test_fig10_golden;
        Alcotest.test_case "fig11 golden" `Slow test_fig11_golden;
        Alcotest.test_case "fig12 golden" `Slow test_fig12_golden;
        Alcotest.test_case "tier goldens" `Slow test_tier_goldens;
      ] );
  ]
