(* Edge cases across layers, plus an end-to-end integration smoke test of
   the experiment harness itself. *)

module Engine = Iolite_sim.Engine
module Sync = Iolite_sim.Sync
module Kernel = Iolite_os.Kernel
module Sock = Iolite_os.Sock
module Policy = Iolite_core.Policy
module E = Iolite_workload.Experiments

let test_suspend_double_resume_rejected () =
  let e = Engine.create () in
  let raised = ref false in
  let stash = ref None in
  Engine.spawn e (fun () ->
      Engine.Proc.suspend (fun resume -> stash := Some resume));
  Engine.spawn e (fun () ->
      Engine.Proc.sleep 1.0;
      (Option.get !stash) ();
      Engine.Proc.sleep 1.0;
      try (Option.get !stash) () with Invalid_argument _ -> raised := true);
  Engine.run e;
  Alcotest.(check bool) "double resume rejected" true !raised

let test_spawn_at () =
  let e = Engine.create () in
  let at = ref 0.0 in
  Engine.spawn_at e 5.0 (fun () -> at := Engine.Proc.now ());
  Engine.run e;
  Alcotest.(check (float 1e-9)) "scheduled time" 5.0 !at

let test_engine_pending () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> Engine.Proc.sleep 1.0);
  Alcotest.(check int) "one pending event" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_gds_custom_cost () =
  (* A cost function can invert GDS's usual small-files-stay preference:
     make large files expensive to refetch so they are retained. *)
  let p = Policy.gds ~cost:(fun _ ~size -> float_of_int (size * size)) () in
  p.Policy.on_insert (1, 0) ~size:1000;
  p.Policy.on_insert (2, 0) ~size:10;
  (* H(1) = 1000, H(2) = 10: the small file becomes the victim. *)
  Alcotest.(check (option (pair int int)))
    "small file evicted under custom cost" (Some (2, 0))
    (p.Policy.choose ~eligible:(fun _ -> true))

let test_request_after_close_fails () =
  let kernel = Kernel.create (Engine.create ()) in
  let listener = Sock.listen kernel ~port:80 in
  let failed = ref false in
  Engine.spawn (Kernel.engine kernel) (fun () ->
      let conn = Sock.connect kernel listener in
      Sock.close conn;
      try ignore (Sock.request conn "late") with Failure _ -> failed := true);
  Engine.run (Kernel.engine kernel);
  Alcotest.(check bool) "request after close fails" true !failed

let test_fill_modes () =
  let sys = Iolite_core.Iosys.create () in
  let d = Iolite_core.Iosys.new_domain sys ~name:"d" in
  let pool =
    Iolite_core.Iobuf.Pool.create sys ~name:"p"
      ~acl:(Iolite_mem.Vm.Only (Iolite_mem.Pdomain.Set.singleton d))
  in
  let counters = Iolite_core.Iosys.metrics sys in
  let get k = Iolite_obs.Metrics.get counters k in
  let mk mode =
    Iolite_core.Iosys.with_fill_mode sys mode (fun () ->
        Iolite_core.Iobuf.Agg.free
          (Iolite_core.Iobuf.Agg.of_string pool ~producer:d (String.make 100 'x')))
  in
  mk `Fill;
  Alcotest.(check int) "fill recorded" 100 (get "bytes.filled");
  mk `As_copy;
  Alcotest.(check int) "as_copy recorded" 100 (get "bytes.copied");
  mk `Dma;
  Alcotest.(check int) "dma recorded" 100 (get "bytes.dma");
  Alcotest.(check int) "fill unchanged" 100 (get "bytes.filled")

let test_fill_mode_restored_on_exception () =
  let sys = Iolite_core.Iosys.create () in
  (try
     Iolite_core.Iosys.with_fill_mode sys `Dma (fun () -> failwith "boom")
   with Failure _ -> ());
  let d = Iolite_core.Iosys.new_domain sys ~name:"d" in
  let pool =
    Iolite_core.Iobuf.Pool.create sys ~name:"p"
      ~acl:(Iolite_mem.Vm.Only (Iolite_mem.Pdomain.Set.singleton d))
  in
  Iolite_core.Iobuf.Agg.free
    (Iolite_core.Iobuf.Agg.of_string pool ~producer:d "abc");
  Alcotest.(check int) "mode restored to Fill" 3
    (Iolite_obs.Metrics.get (Iolite_core.Iosys.metrics sys) "bytes.filled")

let test_costmodel_helpers () =
  let c = Iolite_os.Costmodel.default in
  Alcotest.(check int) "packets exact" 1 (Iolite_os.Costmodel.packets ~mtu:1500 1500);
  Alcotest.(check int) "packets round up" 2 (Iolite_os.Costmodel.packets ~mtu:1500 1501);
  Alcotest.(check int) "packets zero" 0 (Iolite_os.Costmodel.packets ~mtu:1500 0);
  Alcotest.(check (float 1e-12)) "copy time" (1e4 /. c.Iolite_os.Costmodel.copy_rate)
    (Iolite_os.Costmodel.copy_time c 10_000)

(* End-to-end: one Fig-3 style point per server through the public
   experiment API, asserting the paper's ordering. *)
let test_experiment_harness_smoke () =
  let series = E.fig3 ~scale:0.05 () in
  let value label =
    match List.find_opt (fun s -> s.E.label = label) series with
    | Some s -> (List.nth s.E.points (List.length s.E.points - 1)).E.mbps
    | None -> Alcotest.failf "missing series %s" label
  in
  let fl = value "Flash-Lite" and flash = value "Flash" and apache = value "Apache" in
  Alcotest.(check bool) "Flash-Lite fastest at 200KB" true (fl > flash);
  Alcotest.(check bool) "Flash beats Apache" true (flash > apache);
  Alcotest.(check bool) "Flash-Lite at least +30% over Flash" true
    (fl > 1.3 *. flash)

let test_sendfile_ablation_ordering () =
  let series = E.ablation_sendfile ~scale:0.05 () in
  let at_20k label =
    match List.find_opt (fun s -> s.E.label = label) series with
    | Some s -> (
      match List.find_opt (fun p -> p.E.x = 20.0) s.E.points with
      | Some p -> p.E.mbps
      | None -> Alcotest.fail "missing 20KB point")
    | None -> Alcotest.failf "missing series %s" label
  in
  let fl = at_20k "Flash-Lite"
  and sf = at_20k "Flash+sendfile"
  and flash = at_20k "Flash" in
  Alcotest.(check bool) "sendfile between Flash and Flash-Lite" true
    (flash < sf && sf < fl);
  (* The whole series, digested exactly: [Spliced] sends are the only
     readers of the rope's per-leaf checksum memos. *)
  Alcotest.(check string)
    "sendfile ablation digest at scale 0.05" "262721f97357b4754388d61cc545a070"
    (Test_workload.digest_series series)

let test_engine_run_twice () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.spawn e (fun () ->
      for _ = 1 to 3 do
        Engine.Proc.sleep 1.0;
        incr count
      done);
  Engine.run e;
  Alcotest.(check int) "first run complete" 3 !count;
  Engine.spawn e (fun () -> incr count);
  Engine.run e;
  Alcotest.(check int) "second run works" 4 !count

let test_pool_destroy () =
  let sys = Iolite_core.Iosys.create () in
  let d = Iolite_core.Iosys.new_domain sys ~name:"d" in
  let module Iobuf = Iolite_core.Iobuf in
  let pool =
    Iobuf.Pool.create sys ~name:"p"
      ~acl:(Iolite_mem.Vm.Only (Iolite_mem.Pdomain.Set.singleton d))
  in
  let a = Iobuf.Agg.of_string pool ~producer:d "alive" in
  Alcotest.(check bool) "destroy with live buffers rejected" true
    (match Iobuf.Pool.destroy pool with
    | () -> false
    | exception Invalid_argument _ -> true);
  Iobuf.Agg.free a;
  Iobuf.Pool.destroy pool;
  Alcotest.(check int) "no chunks left" 0 (Iobuf.Pool.chunk_count pool);
  Alcotest.(check int) "memory returned" 0
    (Iolite_mem.Physmem.used
       (Iolite_core.Iosys.physmem sys)
       Iolite_mem.Physmem.Io_data)

let test_blit_to_bytes_and_sub_string () =
  let sys = Iolite_core.Iosys.create () in
  let d = Iolite_core.Iosys.new_domain sys ~name:"d" in
  let module Iobuf = Iolite_core.Iobuf in
  let pool =
    Iobuf.Pool.create sys ~name:"p"
      ~acl:(Iolite_mem.Vm.Only (Iolite_mem.Pdomain.Set.singleton d))
  in
  let a = Iobuf.Agg.of_string pool ~producer:d "0123456789" in
  let dst = Bytes.make 14 '.' in
  Iobuf.Agg.blit_to_bytes sys a dst ~pos:2;
  Alcotest.(check string) "blitted" "..0123456789.." (Bytes.to_string dst);
  Alcotest.(check bool) "blit out of range" true
    (match Iobuf.Agg.blit_to_bytes sys a dst ~pos:8 with
    | () -> false
    | exception Invalid_argument _ -> true);
  (match Iobuf.Agg.slices a with
  | [ s ] ->
    let b = Iobuf.Slice.buffer s in
    Alcotest.(check string) "buffer sub_string" "345"
      (Iobuf.Buffer.sub_string b ~off:3 ~len:3)
  | _ -> Alcotest.fail "expected one slice");
  Iobuf.Agg.free a

let test_acl_copy_fallback () =
  (* A file cached in one process's private pool (via the ?pool variant
     of IOL_read) is delivered to another process by physical copy — the
     ACL fallback path. *)
  let kernel = Kernel.create (Engine.create ()) in
  let file = Kernel.add_file kernel ~name:"/private" ~size:5_000 in
  let module Process = Iolite_os.Process in
  let module Fileio = Iolite_os.Fileio in
  let done_ = ref false in
  ignore
    (Process.spawn kernel ~name:"alice" (fun alice ->
         (* Fetch into alice's own pool: the cache entry's ACL = {alice}. *)
         let a =
           Fileio.iol_read ~pool:(Process.pool alice) alice ~file ~off:0
             ~len:5_000
         in
         Iolite_core.Iobuf.Agg.free a;
         ignore
           (Process.spawn kernel ~name:"bob" (fun bob ->
                let before =
                  Iolite_obs.Metrics.get (Kernel.metrics kernel)
                    "cache.acl_copy"
                in
                let b = Fileio.iol_read bob ~file ~off:0 ~len:5_000 in
                Alcotest.(check int) "bytes correct" 5_000
                  (Iolite_core.Iobuf.Agg.length b);
                let after =
                  Iolite_obs.Metrics.get (Kernel.metrics kernel)
                    "cache.acl_copy"
                in
                Alcotest.(check int) "fallback copy counted" (before + 1) after;
                Iolite_core.Iobuf.Agg.free b;
                done_ := true))));
  Engine.run (Kernel.engine kernel);
  Alcotest.(check bool) "ran" true !done_

let test_stats_percentile_edges () =
  Alcotest.(check (float 1e-9)) "single element" 7.0
    (Iolite_util.Stats.percentile [| 7.0 |] 0.99);
  Alcotest.(check (float 1e-9)) "interpolated" 1.5
    (Iolite_util.Stats.percentile [| 1.0; 2.0 |] 0.5);
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Iolite_util.Stats.percentile [||] 0.5))

let test_chart_renders () =
  let s =
    Iolite_util.Table.chart ~x_label:"x" ~y_label:"y"
      ~series:[ ("a", [ (0.0, 1.0); (1.0, 2.0) ]); ("b", [ (0.0, 2.0) ]) ]
  in
  Alcotest.(check bool) "nonempty" true (String.length s > 100);
  Alcotest.(check string) "empty chart" "(empty chart)\n"
    (Iolite_util.Table.chart ~x_label:"x" ~y_label:"y" ~series:[])

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (pair (float_bound_inclusive 1000.0) small_nat))
    (fun entries ->
      let h = Iolite_sim.Heap.create () in
      List.iteri
        (fun i (time, v) -> Iolite_sim.Heap.push h ~time ~seq:i v)
        entries;
      let popped = ref [] in
      let rec drain () =
        match Iolite_sim.Heap.pop h with
        | None -> ()
        | Some (t, s, _) ->
          popped := (t, s) :: !popped;
          drain ()
      in
      drain ();
      let popped = List.rev !popped in
      let sorted = List.sort compare popped in
      popped = sorted)

let prop_stdiol_line_roundtrip =
  QCheck.Test.make ~name:"stdiol lines roundtrip through a pipe" ~count:40
    QCheck.(
      pair bool
        (list_of_size Gen.(0 -- 12)
           (string_gen_of_size Gen.(0 -- 200) (Gen.char_range 'a' 'z'))))
    (fun (zero_copy, lines) ->
      let kernel = Kernel.create (Engine.create ()) in
      let module Process = Iolite_os.Process in
      let module Stdiol = Iolite_os.Stdiol in
      let module Pipe = Iolite_ipc.Pipe in
      let w = Process.make kernel ~name:"w" in
      let r = Process.make kernel ~name:"r" in
      let pipe =
        Pipe.create (Kernel.sys kernel)
          ~mode:(if zero_copy then Pipe.Zero_copy else Pipe.Copying)
          ~writer:(Process.domain w) ~reader:(Process.domain r)
          ~reader_pool:(Process.pool r) ()
      in
      let got = ref [] in
      Engine.spawn (Kernel.engine kernel) (fun () ->
          let oc = Stdiol.open_pipe_out w pipe in
          List.iter (fun l -> Stdiol.output_string oc (l ^ "\n")) lines;
          Stdiol.close_out oc;
          Process.exit w);
      Engine.spawn (Kernel.engine kernel) (fun () ->
          let ic = Stdiol.open_pipe_in r pipe in
          ignore (Stdiol.input_all_lines ic ~f:(fun l -> got := l :: !got));
          Process.exit r);
      Engine.run (Kernel.engine kernel);
      List.rev !got = lines)

let suites =
  [
    ( "misc.engine",
      [
        Alcotest.test_case "double resume" `Quick test_suspend_double_resume_rejected;
        Alcotest.test_case "spawn_at" `Quick test_spawn_at;
        Alcotest.test_case "pending" `Quick test_engine_pending;
        Alcotest.test_case "run twice" `Quick test_engine_run_twice;
      ] );
    ( "misc.core",
      [
        Alcotest.test_case "pool destroy" `Quick test_pool_destroy;
        Alcotest.test_case "blit + sub_string" `Quick test_blit_to_bytes_and_sub_string;
        Alcotest.test_case "acl copy fallback" `Quick test_acl_copy_fallback;
      ] );
    ( "misc.util",
      [
        Alcotest.test_case "percentile edges" `Quick test_stats_percentile_edges;
        Alcotest.test_case "chart renders" `Quick test_chart_renders;
      ] );
    ( "misc.props",
      [
        QCheck_alcotest.to_alcotest prop_heap_sorts;
        QCheck_alcotest.to_alcotest prop_stdiol_line_roundtrip;
      ] );
    ( "misc.policy",
      [ Alcotest.test_case "gds custom cost" `Quick test_gds_custom_cost ] );
    ( "misc.sock",
      [ Alcotest.test_case "request after close" `Quick test_request_after_close_fails ] );
    ( "misc.iosys",
      [
        Alcotest.test_case "fill modes" `Quick test_fill_modes;
        Alcotest.test_case "mode restored on exn" `Quick test_fill_mode_restored_on_exception;
      ] );
    ( "misc.costmodel",
      [ Alcotest.test_case "helpers" `Quick test_costmodel_helpers ] );
    ( "misc.integration",
      [
        Alcotest.test_case "fig3 harness smoke" `Slow test_experiment_harness_smoke;
        Alcotest.test_case "sendfile ablation" `Slow test_sendfile_ablation_ordering;
      ] );
  ]
