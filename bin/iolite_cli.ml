(* Command-line driver: run any experiment of the IO-Lite reproduction. *)

module E = Iolite_workload.Experiments

let scale_arg =
  let doc =
    "Measurement-window scale factor (1.0 = recorded defaults; smaller is \
     quicker and noisier)."
  in
  Cmdliner.Arg.(value & opt float 1.0 & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let metrics_arg =
  let doc =
    "Print each experiment point's metrics-registry snapshot and request \
     latency percentiles after measuring."
  in
  Cmdliner.Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_arg =
  let doc =
    "Arm the virtual-clock tracer on every simulated kernel and write the \
     combined Chrome trace-event JSON (Perfetto-loadable) to $(docv) at \
     exit."
  in
  Cmdliner.Arg.(
    value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Install observability per the flags, run the thunk, then flush the
   trace sink to disk. *)
let with_observability ~metrics ~trace_out f =
  let sink =
    match trace_out with
    | None -> None
    | Some _ -> Some (Iolite_obs.Trace.Sink.create ())
  in
  E.set_observability ~metrics ?sink ();
  Fun.protect
    ~finally:(fun () ->
      (match (sink, trace_out) with
      | Some sink, Some path ->
        Iolite_obs.Trace.Sink.write sink path;
        Printf.eprintf "trace written to %s (%d kernels)\n%!" path
          (Iolite_obs.Trace.Sink.count sink)
      | _ -> ());
      E.set_observability ())
    f

let series_cmd name title x_label runner =
  let run metrics trace_out scale =
    with_observability ~metrics ~trace_out (fun () ->
        E.print_series ~title ~x_label (runner ~scale ()))
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info name ~doc:title)
    Cmdliner.Term.(const run $ metrics_arg $ trace_arg $ scale_arg)

let unit_cmd name doc run =
  let run metrics trace_out scale =
    with_observability ~metrics ~trace_out (fun () -> run scale)
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info name ~doc)
    Cmdliner.Term.(const run $ metrics_arg $ trace_arg $ scale_arg)

let cmds =
  [
    series_cmd "fig3" "Fig 3: HTTP single-file test (non-persistent)" "KB"
      (fun ~scale () -> E.fig3 ~scale ());
    series_cmd "fig4" "Fig 4: persistent HTTP single-file test" "KB"
      (fun ~scale () -> E.fig4 ~scale ());
    series_cmd "fig5" "Fig 5: HTTP/FastCGI" "KB" (fun ~scale () ->
        E.fig5 ~scale ());
    series_cmd "fig6" "Fig 6: persistent HTTP/FastCGI" "KB" (fun ~scale () ->
        E.fig6 ~scale ());
    unit_cmd "fig7" "Fig 7: trace characteristics" (fun _scale ->
        E.print_fig7 ());
    unit_cmd "fig8" "Fig 8: overall trace performance" (fun scale ->
        E.print_fig8 ~scale ());
    unit_cmd "fig9" "Fig 9: 150MB subtrace characteristics" (fun _scale ->
        E.print_fig9 ());
    series_cmd "fig10" "Fig 10: MERGED subtrace performance" "dataset MB"
      (fun ~scale () -> E.fig10 ~scale ());
    series_cmd "fig11" "Fig 11: optimization contributions" "dataset MB"
      (fun ~scale () -> E.fig11 ~scale ());
    series_cmd "fig12" "Fig 12: throughput versus WAN delay" "RTT ms"
      (fun ~scale () -> E.fig12 ~scale ());
    unit_cmd "fig13" "Fig 13: application runtimes" (fun _scale ->
        E.print_fig13 ());
    series_cmd "sendfile" "Extension: the sendfile ablation" "KB"
      (fun ~scale () -> E.ablation_sendfile ~scale ());
    series_cmd "cgi11" "Extension: CGI 1.1 vs FastCGI" "KB" (fun ~scale () ->
        E.ablation_cgi11 ~scale ());
    unit_cmd "all" "Run every figure in order" (fun scale ->
        E.run_all ~scale ());
    (let trace_name =
       Cmdliner.Arg.(
         value
         & pos 0 (enum [ ("ece", `Ece); ("cs", `Cs); ("merged", `Merged) ]) `Ece
         & info [] ~docv:"TRACE" ~doc:"Trace to inspect: ece, cs or merged.")
     in
     let run which =
       let module Trace = Iolite_workload.Trace in
       let spec =
         match which with
         | `Ece -> Trace.ece
         | `Cs -> Trace.cs
         | `Merged -> Trace.merged
       in
       let t = Trace.synthesize spec in
       Printf.printf "%s: %d files, %s total, mean transfer %s\n"
         spec.Trace.sname (Trace.file_count t)
         (Iolite_util.Table.fmt_bytes (Trace.total_bytes t))
         (Iolite_util.Table.fmt_bytes
            (int_of_float (Trace.mean_request_bytes t)));
       Printf.printf "\n%-12s %-14s %-12s\n" "top-N" "% requests" "% bytes";
       List.iter
         (fun top ->
           if top <= Trace.file_count t then begin
             let reqs, bytes = Trace.cdf_row t ~top in
             Printf.printf "%-12d %-14.1f %-12.1f\n" top (100. *. reqs)
               (100. *. bytes)
           end)
         [ 10; 100; 1000; 5000; 10000; 20000; Trace.file_count t ];
       let sizes =
         List.init 10 (fun i -> Trace.file_size t ~rank:(i * 37))
       in
       Printf.printf "\nsample sizes by popularity rank (0,37,74,...): %s\n"
         (String.concat ", " (List.map Iolite_util.Table.fmt_bytes sizes))
     in
     Cmdliner.Cmd.v
       (Cmdliner.Cmd.info "trace" ~doc:"Inspect a synthesized trace")
       Cmdliner.Term.(const run $ trace_name));
    (let conns_arg =
       Cmdliner.Arg.(
         value
         & opt (list int) [ 1_000; 10_000 ]
         & info [ "c"; "conns" ] ~docv:"N,N,..."
             ~doc:
               "Concurrent-connection populations to sweep (the recorded \
                BENCH_scale.json runs 1e3,1e4,1e5,1e6).")
     in
     let requests_arg =
       Cmdliner.Arg.(
         value
         & opt (some int) None
         & info [ "requests" ] ~docv:"N"
             ~doc:"Measured-phase requests per point (default 50000).")
     in
     let run conns requests =
       E.print_c1m (List.map (fun n -> E.c1m ?requests ~conns:n ()) conns)
     in
     Cmdliner.Cmd.v
       (Cmdliner.Cmd.info "scale"
          ~doc:
            "C1M sweep: hold N concurrent connections against Flash-Lite \
             (one timer-wheel idle timer each) and measure per-request \
             wall cost, latency percentiles, warm-phase fresh \
             allocations, and timer churn at full population")
       Cmdliner.Term.(const run $ conns_arg $ requests_arg));
    (let run scale =
       let points = E.async_sweep ~scale () in
       E.print_async points;
       E.print_async_tail points
     in
     Cmdliner.Cmd.v
       (Cmdliner.Cmd.info "async"
          ~doc:
            "Async disk pipeline sweep at 128MB (warm) and 24MB (memory \
             pressure), measuring foreground small-file latency \
             percentiles under a background scan, disk utilization, \
             batching, miss coalescing and readahead accuracy")
       Cmdliner.Term.(const run $ scale_arg));
    (let crash_arg =
       Cmdliner.Arg.(
         value & opt int 0
         & info [ "crash" ] ~docv:"N"
             ~doc:
               "Also run the crash-at-any-point consistency harness over \
                $(docv) randomized crash points (the recorded \
                BENCH_write.json uses 1000) and report oracle failures; \
                exit 1 if there are any.")
     in
     let run metrics trace_out crash_points =
       with_observability ~metrics ~trace_out (fun () ->
           E.print_write (E.write_seq_point () :: E.write_cawl_sweep ()));
       if crash_points > 0 then begin
         let module C = Iolite_workload.Crash in
         Printf.printf "\ncrash harness: %d randomized crash points...\n%!"
           crash_points;
         let r = C.run_many ~runs:crash_points () in
         C.print r;
         if r.C.r_failures <> [] then exit 1
       end
     in
     Cmdliner.Cmd.v
       (Cmdliner.Cmd.info "write"
          ~doc:
            "Delayed write-back sweep: writes per clustered disk write \
             operation on the small-sequential-write headline, plus the \
             CAWL burst sweep at two sync-daemon flush intervals \
             (memory-speed vs. disk-bound regimes either side of the \
             dirty-limit knee)")
       Cmdliner.Term.(const run $ metrics_arg $ trace_arg $ crash_arg));
    (let run metrics trace_out scale =
       with_observability ~metrics ~trace_out (fun () ->
           (* Sweep first, so its metrics blocks precede the probe's. *)
           let points = E.tier_sweep ~scale () in
           E.print_tier points (E.tier_probe_run ()))
     in
     Cmdliner.Cmd.v
       (Cmdliner.Cmd.info "tier"
          ~doc:
            "NVMM cache-tier sweep: working sets swept past a 64MB \
             machine's DRAM, dram-only baseline against the persistent \
             second tier with demotion/promotion traffic decomposed, \
             plus the three-class latency probe (DRAM hit, warm tier \
             hit, cold disk fill)")
       Cmdliner.Term.(const run $ metrics_arg $ trace_arg $ scale_arg));
    (let run metrics trace_out =
       let r = E.smoke () in
       (match trace_out with
       | Some path ->
         let sink = Iolite_obs.Trace.Sink.create () in
         Iolite_obs.Trace.Sink.absorb sink ~label:"smoke" r.E.sm_trace;
         Iolite_obs.Trace.Sink.write sink path;
         Printf.eprintf "trace written to %s\n%!" path
       | None -> ());
       Printf.printf "smoke: %d requests" r.E.sm_requests;
       (match r.E.sm_latency with
       | Some s ->
         Printf.printf ", latency p50=%.4fs p90=%.4fs p99=%.4fs"
           s.Iolite_util.Stats.p50 s.Iolite_util.Stats.p90
           s.Iolite_util.Stats.p99
       | None -> ());
       let total, scanned, saved = r.E.sm_cksum in
       Printf.printf ", cksum total=%d scanned=%d saved=%d\n" total scanned
         saved;
       if metrics then begin
         let dump title l =
           Printf.printf "-- %s --\n" title;
           List.iter (fun (k, v) -> Printf.printf "  %-28s %d\n" k v) l
         in
         dump "cold-phase diff" r.E.sm_cold;
         dump "warm-phase diff" r.E.sm_warm
       end
     in
     Cmdliner.Cmd.v
       (Cmdliner.Cmd.info "smoke"
          ~doc:
            "Small deterministic Flash-Lite run exercising the telemetry \
             stack (static + CGI, tracing armed)")
       Cmdliner.Term.(const run $ metrics_arg $ trace_arg));
    (let filter_arg =
       Cmdliner.Arg.(
         value
         & opt (some string) None
         & info [ "filter" ] ~docv:"PREFIX"
             ~doc:
               "Only show metrics whose dotted name starts with $(docv) \
                (e.g. $(b,cache.) or $(b,net.)).")
     in
     let report filter =
       let r = E.smoke () in
       let keep k =
         match filter with
         | None -> true
         | Some p -> String.length k >= String.length p
                     && String.sub k 0 (String.length p) = p
       in
       let find l k =
         match List.assoc_opt k l with Some v -> v | None -> 0
       in
       let rows =
         List.filter_map
           (fun (k, v) ->
             let cold = find r.E.sm_cold k and warm = find r.E.sm_warm k in
             if keep k && (v <> 0 || cold <> 0 || warm <> 0) then
               Some
                 [
                   k;
                   string_of_int cold;
                   string_of_int warm;
                   string_of_int v;
                 ]
             else None)
           r.E.sm_metrics
       in
       Printf.printf "smoke run: %d requests; per-phase deltas and final \
                      snapshot\n" r.E.sm_requests;
       Iolite_util.Table.print
         ~header:[ "metric"; "cold"; "warm"; "final" ]
         ~rows;
       match r.E.sm_latency with
       | Some s ->
         Printf.printf
           "\nrequest latency: p50=%.4fs p90=%.4fs p99=%.4fs mean=%.4fs\n"
           s.Iolite_util.Stats.p50 s.Iolite_util.Stats.p90
           s.Iolite_util.Stats.p99 s.Iolite_util.Stats.mean
       | None -> ()
     in
     let report_cmd =
       Cmdliner.Cmd.v
         (Cmdliner.Cmd.info "report"
            ~doc:
              "Run the deterministic smoke workload and render its metrics \
               registry — per-phase (cold/warm) counter deltas against the \
               final snapshot — as an aligned table")
         Cmdliner.Term.(const report $ filter_arg)
     in
     Cmdliner.Cmd.group
       (Cmdliner.Cmd.info "obs" ~doc:"Observability reports")
       [ report_cmd ]);
  ]

let () =
  let info =
    Cmdliner.Cmd.info "iolite-cli" ~version:"1.0"
      ~doc:"IO-Lite (OSDI'99) reproduction experiments"
  in
  exit (Cmdliner.Cmd.eval (Cmdliner.Cmd.group info cmds))
