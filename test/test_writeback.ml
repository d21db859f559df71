(* Clustered delayed write-back: dirty-extent parking, the sync
   daemon's clustering, supersede-before-flush, fsync/sync durability,
   throttling at the dirty hard limit, dirty-victim eviction flushes,
   the clustering ratio, msync coalescing, and the crash-consistency
   oracle. *)

open Iolite_os
module Engine = Iolite_sim.Engine
module Iobuf = Iolite_core.Iobuf
module Iosys = Iolite_core.Iosys
module Filecache = Iolite_core.Filecache
module Disk = Iolite_fs.Disk
module Metrics = Iolite_obs.Metrics
module Crash = Iolite_workload.Crash
module Mem = Iolite_mem

let mk ?config () =
  let engine = Engine.create () in
  let kernel = Kernel.create ?config engine in
  (engine, kernel)

let in_proc kernel f =
  let out = ref None in
  ignore
    (Process.spawn kernel ~name:"test" (fun proc -> out := Some (f proc)));
  Engine.run (Kernel.engine kernel);
  Option.get !out

let metric kernel name = Metrics.get (Kernel.metrics kernel) name

(* Replay the durable-write log over a blank image and return the bytes
   of [file] at [off, off+len) — what the platters hold for the range
   (offsets never written stay '\000'). *)
let replayed_range kernel ~file ~off ~len =
  let img = Bytes.make len '\000' in
  List.iter
    (fun r ->
      match r.Disk.wl_data with
      | Some data when r.Disk.wl_file = file ->
        let lo = max off r.Disk.wl_off in
        let hi = min (off + len) (r.Disk.wl_off + r.Disk.wl_len) in
        if lo < hi then
          Bytes.blit_string data (lo - r.Disk.wl_off) img (lo - off) (hi - lo)
      | _ -> ())
    (Disk.write_log (Kernel.disk kernel));
  Bytes.to_string img

(* ---------------------- parking and clustering -------------------- *)

let test_park_and_timer_flush () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/f" ~size:(1 lsl 20) in
  let cache = Kernel.unified_cache kernel in
  in_proc kernel (fun proc ->
      Fileio.write_string proc ~file ~off:0 (String.make 4096 'a');
      (* Parked: the writer returned with no disk I/O issued. *)
      Alcotest.(check int) "no disk writes yet" 0
        (Disk.writes (Kernel.disk kernel));
      Alcotest.(check int) "dirty bytes parked" 4096
        (Filecache.dirty_bytes cache));
  (* The run drains the sync daemon: the timer flush made it durable. *)
  Alcotest.(check int) "dirty drained" 0 (Filecache.dirty_bytes cache);
  Alcotest.(check int) "one disk write" 1 (Disk.writes (Kernel.disk kernel));
  Alcotest.(check int) "delayed counted" 1 (metric kernel "write.delayed");
  Alcotest.(check bool) "flush round ran" true
    (metric kernel "write.flushes" >= 1);
  Alcotest.(check bool) "daemon quiescent" true
    (Writeback.quiescent (Kernel.writeback kernel))

let test_adjacent_writes_cluster () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/f" ~size:(1 lsl 20) in
  in_proc kernel (fun proc ->
      (* 16 x 4 KB adjacent = 64 KB = exactly one max-size cluster. *)
      for i = 0 to 15 do
        Fileio.write_string proc ~file ~off:(i * 4096)
          (String.make 4096 'c')
      done);
  Alcotest.(check int) "one clustered disk write" 1
    (Disk.writes (Kernel.disk kernel));
  Alcotest.(check int) "one cluster" 1 (metric kernel "write.cluster_writes");
  Alcotest.(check int) "16 extents rode it" 16
    (metric kernel "write.clustered")

let test_cluster_size_cap () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/f" ~size:(1 lsl 20) in
  in_proc kernel (fun proc ->
      (* 128 KB of adjacent dirty extents: the extent-sized cap
         (Pool.max_alloc = 64 KB) splits them into two requests. *)
      for i = 0 to 31 do
        Fileio.write_string proc ~file ~off:(i * 4096)
          (String.make 4096 'c')
      done);
  Alcotest.(check int) "two capped clusters" 2
    (Disk.writes (Kernel.disk kernel))

let test_non_adjacent_runs_split () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/f" ~size:(1 lsl 20) in
  in_proc kernel (fun proc ->
      Fileio.write_string proc ~file ~off:0 (String.make 4096 'x');
      Fileio.write_string proc ~file ~off:(100 * 4096)
        (String.make 4096 'y'));
  Alcotest.(check int) "two disk writes" 2 (Disk.writes (Kernel.disk kernel));
  (* Single-extent requests are not "clustered". *)
  Alcotest.(check int) "nothing clustered" 0 (metric kernel "write.clustered")

(* --------------------------- supersede ---------------------------- *)

let test_supersede_before_flush () =
  let config =
    { (Kernel.default_config ()) with Kernel.log_durable_writes = true }
  in
  let _, kernel = mk ~config () in
  let file = Kernel.add_file kernel ~name:"/f" ~size:(1 lsl 20) in
  in_proc kernel (fun proc ->
      Fileio.write_string proc ~file ~off:0 (String.make 4096 'a');
      (* Rewrite before any flush: the parked extent is superseded in
         place and only the new bytes ever reach the disk. *)
      Fileio.write_string proc ~file ~off:0 (String.make 4096 'b'));
  Alcotest.(check bool) "supersede counted" true
    (metric kernel "write.superseded" >= 1);
  Alcotest.(check int) "old bytes never written" 1
    (Disk.writes (Kernel.disk kernel));
  Alcotest.(check string) "new bytes durable" (String.make 4096 'b')
    (replayed_range kernel ~file ~off:0 ~len:4096)

let test_supersede_in_flight_ack () =
  (* Direct cache-level check of the generation stamps: a cluster
     captured before a re-write must ack as superseded, not clean the
     newer extent's dirty bit. *)
  let sys = Iosys.create ~capacity:(32 * 1024 * 1024) () in
  let app = Iosys.new_domain sys ~name:"app" in
  let pool =
    Iobuf.Pool.create sys ~name:"wbtest"
      ~acl:(Mem.Vm.Only (Mem.Pdomain.Set.singleton app))
  in
  let cache = Filecache.create ~register_with_pageout:false sys () in
  let put ~off s =
    Filecache.insert ~dirty:true cache ~file:1 ~off
      (Iobuf.Agg.of_string pool ~producer:app s)
  in
  put ~off:0 (String.make 1024 'a');
  let clusters = Filecache.collect_dirty cache ~file:1 in
  Alcotest.(check int) "one cluster" 1 (List.length clusters);
  let c = List.hd clusters in
  Alcotest.(check string) "captured old bytes" (String.make 1024 'a')
    (Filecache.cluster_data c);
  (* Re-write while the cluster is "in flight". *)
  put ~off:0 (String.make 1024 'b');
  let cleaned, superseded = Filecache.ack_cluster cache c in
  Alcotest.(check int) "nothing cleaned" 0 cleaned;
  Alcotest.(check int) "superseded" 1 superseded;
  Alcotest.(check int) "newer write still dirty" 1024
    (Filecache.dirty_bytes cache);
  (* The next round collects the new bytes and cleans them. *)
  let c2 = List.hd (Filecache.collect_dirty cache ~file:1) in
  Alcotest.(check string) "new bytes captured" (String.make 1024 'b')
    (Filecache.cluster_data c2);
  let cleaned, superseded = Filecache.ack_cluster cache c2 in
  Alcotest.(check int) "cleaned" 1 cleaned;
  Alcotest.(check int) "not superseded" 0 superseded;
  Alcotest.(check int) "all clean" 0 (Filecache.dirty_bytes cache)

(* --------------------------- fsync/sync --------------------------- *)

let test_fsync_durable_at_return () =
  let config =
    { (Kernel.default_config ()) with Kernel.log_durable_writes = true }
  in
  let _, kernel = mk ~config () in
  let file = Kernel.add_file kernel ~name:"/f" ~size:(1 lsl 20) in
  let cache = Kernel.unified_cache kernel in
  in_proc kernel (fun proc ->
      Fileio.write_string proc ~file ~off:512 (String.make 2048 'd');
      Fileio.fsync proc ~file;
      (* At fsync's return — not merely at end of run — the bytes are
         on the platter and the file has no dirty backlog. *)
      Alcotest.(check int) "file clean at return" 0
        (Filecache.file_dirty_bytes cache ~file);
      Alcotest.(check int) "no in-flight clusters" 0
        (Writeback.inflight_clusters (Kernel.writeback kernel) ~file);
      Alcotest.(check string) "payload durable" (String.make 2048 'd')
        (replayed_range kernel ~file ~off:512 ~len:2048));
  Alcotest.(check bool) "fsync counted" true (metric kernel "write.fsync" >= 1)

let test_fsync_per_file_isolation () =
  let _, kernel = mk () in
  let fa = Kernel.add_file kernel ~name:"/a" ~size:(1 lsl 20) in
  let fb = Kernel.add_file kernel ~name:"/b" ~size:(1 lsl 20) in
  let cache = Kernel.unified_cache kernel in
  in_proc kernel (fun proc ->
      (* A large backlog on B must not delay an fsync of A. *)
      for i = 0 to 63 do
        Fileio.write_string proc ~file:fb ~off:(i * 4096)
          (String.make 4096 'b')
      done;
      Fileio.write_string proc ~file:fa ~off:0 (String.make 4096 'a');
      Fileio.fsync proc ~file:fa;
      Alcotest.(check int) "A clean" 0
        (Filecache.file_dirty_bytes cache ~file:fa);
      Alcotest.(check bool) "B's backlog untouched by A's fsync" true
        (Filecache.file_dirty_bytes cache ~file:fb > 0));
  Alcotest.(check int) "everything drains by end of run" 0
    (Filecache.dirty_bytes cache)

let test_sync_flushes_all_files () =
  let _, kernel = mk () in
  let fa = Kernel.add_file kernel ~name:"/a" ~size:(1 lsl 20) in
  let fb = Kernel.add_file kernel ~name:"/b" ~size:(1 lsl 20) in
  let cache = Kernel.unified_cache kernel in
  in_proc kernel (fun proc ->
      Fileio.write_string proc ~file:fa ~off:0 (String.make 4096 'a');
      Fileio.write_string proc ~file:fb ~off:0 (String.make 8192 'b');
      Fileio.sync proc;
      Alcotest.(check int) "all clean at sync return" 0
        (Filecache.dirty_bytes cache);
      Alcotest.(check bool) "quiescent" true
        (Writeback.quiescent (Kernel.writeback kernel)));
  Alcotest.(check int) "both files hit the disk" 2
    (Disk.writes (Kernel.disk kernel))

(* --------------------------- throttling --------------------------- *)

let test_hard_limit_throttles_and_releases () =
  let config =
    {
      (Kernel.default_config ()) with
      Kernel.mem_capacity = 32 * 1024 * 1024;
      (* Watermark off (hi >= hard), tiny hard limit: every burst
         overshoots and must block on the drain. *)
      dirty_hi_ratio = 1.0;
      dirty_hard_ratio = 0.05;
      flush_interval = 0.2;
    }
  in
  let _, kernel = mk ~config () in
  let file = Kernel.add_file kernel ~name:"/f" ~size:(8 * 1024 * 1024) in
  let cache = Kernel.unified_cache kernel in
  let finished = ref false in
  in_proc kernel (fun proc ->
      for i = 0 to 2 do
        Fileio.write_string proc ~file
          ~off:(i * 2 * 1024 * 1024)
          (String.make (2 * 1024 * 1024) 'w')
      done;
      finished := true);
  (* The writer was blocked at the limit but released by the drain. *)
  Alcotest.(check bool) "writer completed" true !finished;
  Alcotest.(check bool) "throttled counted" true
    (metric kernel "write.throttled" >= 1);
  Alcotest.(check int) "backlog fully drained" 0
    (Filecache.dirty_bytes cache)

(* ------------------------ dirty eviction -------------------------- *)

let test_dirty_eviction_flushes_victim () =
  let config =
    { (Kernel.default_config ()) with Kernel.log_durable_writes = true }
  in
  let _, kernel = mk ~config () in
  let file = Kernel.add_file kernel ~name:"/f" ~size:(1 lsl 20) in
  let cache = Kernel.unified_cache kernel in
  in_proc kernel (fun proc ->
      Fileio.write_string proc ~file ~off:0 (String.make 65536 'v');
      (* Evict the dirty victim directly (as pageout would): the hook
         must capture its bytes before the entry drops. *)
      let freed = ref 0 in
      while Filecache.entry_count cache > 0 do
        freed := !freed + Filecache.evict_one cache
      done;
      Alcotest.(check int) "victim unpinned" 65536 !freed);
  Alcotest.(check bool) "evict flush counted" true
    (metric kernel "cache.evict_flush" >= 1);
  Alcotest.(check int) "no dirty bytes leaked" 0
    (Filecache.dirty_bytes cache);
  Alcotest.(check string) "no data loss: payload durable"
    (String.make 65536 'v')
    (replayed_range kernel ~file ~off:0 ~len:65536)

let test_evict_backs_off_when_uncaptured () =
  (* If the flusher hook cannot capture the victim (vetoed by an
     in-flight overlap), evict_one must back off rather than drop
     buffered writes. *)
  let sys = Iosys.create ~capacity:(32 * 1024 * 1024) () in
  let app = Iosys.new_domain sys ~name:"app" in
  let pool =
    Iobuf.Pool.create sys ~name:"wbtest"
      ~acl:(Mem.Vm.Only (Mem.Pdomain.Set.singleton app))
  in
  let cache = Filecache.create ~register_with_pageout:false sys () in
  Filecache.set_evict_flusher cache (fun ~file:_ -> ());
  Filecache.insert ~dirty:true cache ~file:1 ~off:0
    (Iobuf.Agg.of_string pool ~producer:app (String.make 1024 'd'));
  Alcotest.(check int) "no progress, no loss" 0 (Filecache.evict_one cache);
  Alcotest.(check int) "entry retained" 1 (Filecache.entry_count cache);
  Alcotest.(check int) "still dirty" 1024 (Filecache.dirty_bytes cache);
  (* Once captured (and acked), the same victim evicts normally. *)
  let c = List.hd (Filecache.collect_dirty cache ~file:1) in
  ignore (Filecache.ack_cluster cache c);
  Alcotest.(check int) "evicts after capture" 1024
    (Filecache.evict_one cache)

(* ------------------------ clustering ratio ------------------------ *)

let test_eager_vs_delayed_disk_ops () =
  (* The headline acceptance figure, at test scale: write-through pays
     one disk write per write, and the clustered path issues at least 8x
     fewer disk write operations for the same writes. *)
  let module E = Iolite_workload.Experiments in
  let delayed = E.write_seq_point () in
  Alcotest.(check bool) "delayed superseded the rewrite" true
    (delayed.E.wp_superseded > 0);
  Alcotest.(check bool)
    (Printf.sprintf "writes per disk op >= 8 (%d writes, %d disk ops)"
       delayed.E.wp_writes delayed.E.wp_disk_writes)
    true
    (delayed.E.wp_writes >= 8 * delayed.E.wp_disk_writes)

(* ----------------------------- msync ------------------------------ *)

let test_msync_coalesces_page_runs () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/m" ~size:65536 in
  in_proc kernel (fun proc ->
      let m = Mmapio.map proc ~file in
      (* Three contiguous dirty pages plus one distant page: two
         coalesced writes, four pages counted. *)
      Mmapio.write m ~off:0 (String.make (3 * 4096) 'p');
      Mmapio.write m ~off:(8 * 4096) (String.make 100 'q');
      Mmapio.msync m;
      Alcotest.(check int) "pages counted" 4
        (metric kernel "mmap.msync_pages");
      Alcotest.(check int) "two coalesced writes" 2
        (metric kernel "write.delayed");
      Mmapio.unmap proc m);
  Alcotest.(check int) "flushed as two disk requests" 2
    (Disk.writes (Kernel.disk kernel))

(* ------------------------ crash consistency ----------------------- *)

let test_crash_directed_points () =
  (* A few fixed crash fractions, including very early (mid first
     flush) and very late (mid final fsync). *)
  List.iter
    (fun frac ->
      let durable, failures = Crash.run_one ~seed:424242L ~frac in
      ignore durable;
      Alcotest.(check (list string))
        (Printf.sprintf "no failures at frac %.2f" frac)
        [] failures)
    [ 0.05; 0.3; 0.5; 0.7; 0.95; 1.0 ]

let test_crash_run_many_counts_points () =
  (* 3 points over 2 seeds: the first seed takes the remainder. *)
  let r = Crash.run_many ~seeds:2 ~runs:3 () in
  Alcotest.(check int) "every requested point runs" 3 r.Crash.r_points;
  Alcotest.(check (list string)) "no failures" [] r.Crash.r_failures

let test_crash_oracle_detects_corruption () =
  (* Negative control: replaying a stale overwrite of an fsync'd range
     after the log must trip the oracle — otherwise the harness proves
     nothing. *)
  let cfg = Crash.default_workload in
  let kernel, history = Crash.run_workload ~seed:42L cfg in
  let log = Disk.write_log (Kernel.disk kernel) in
  let crash_t = history.Crash.h_end +. 1.0 in
  Alcotest.(check (list string)) "intact log is consistent" []
    (Crash.check ~history ~crash_t ~log cfg);
  let s =
    match history.Crash.h_syncs with
    | s :: _ -> s
    | [] -> Alcotest.fail "seed produced no fsyncs"
  in
  let i =
    List.find
      (fun i ->
        i.Crash.is_k = s.Crash.fs_floor && i.Crash.is_file = s.Crash.fs_file)
      history.Crash.h_issues
  in
  (* The stale bytes: the initial contents — data travelling backwards
     past an acknowledged fsync. *)
  let stale =
    {
      Disk.wl_seq = List.length log + 1;
      wl_file = i.Crash.is_file;
      wl_off = i.Crash.is_off;
      wl_len = i.Crash.is_len;
      wl_data =
        Some
          (String.init i.Crash.is_len (fun o ->
               Iolite_fs.Filestore.content_byte ~file:i.Crash.is_file
                 ~off:(i.Crash.is_off + o)));
      wl_time = crash_t;
    }
  in
  Alcotest.(check bool) "tampered log detected" true
    (Crash.check ~history ~crash_t ~log:(log @ [ stale ]) cfg <> [])

let prop_crash_consistent =
  QCheck.Test.make ~count:30
    ~name:"random crash points recover write-order consistent"
    QCheck.(pair small_nat (int_bound 96))
    (fun (s, f) ->
      let seed = Int64.of_int (7001 + (s * 13)) in
      let frac = 0.02 +. (float_of_int f /. 100.0) in
      let _durable, failures = Crash.run_one ~seed ~frac in
      failures = [])

(* -------------------- dirty accounting invariant ------------------ *)

let prop_dirty_accounting =
  (* Random interleavings of dirty/clean inserts, collections and acks:
     dirty_bytes must stay within [0, total bytes] and agree, total and
     per file, with a walk of the entries ([Filecache.check]); every ack
     must account each captured extent exactly once, and draining
     collect+ack rounds must always reach zero. *)
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (4, map3 (fun f o l -> `Ins (f, o, l, true)) (0 -- 1) (0 -- 31) (1 -- 4));
          (2, map3 (fun f o l -> `Ins (f, o, l, false)) (0 -- 1) (0 -- 31) (1 -- 4));
          (2, map (fun f -> `Collect f) (0 -- 1));
          (3, pure `Ack);
        ])
  in
  Test.make ~count:200 ~name:"dirty accounting stays consistent"
    (make Gen.(list_size (1 -- 60) op_gen))
    (fun ops ->
      let sys = Iosys.create ~capacity:(32 * 1024 * 1024) () in
      let app = Iosys.new_domain sys ~name:"app" in
      let pool =
        Iobuf.Pool.create sys ~name:"qc"
          ~acl:(Mem.Vm.Only (Mem.Pdomain.Set.singleton app))
      in
      let cache = Filecache.create ~register_with_pageout:false sys () in
      let slot = 512 in
      let pending = Queue.create () in
      let ok = ref true in
      let check_bounds () =
        let d = Filecache.dirty_bytes cache in
        if d < 0 || d > Filecache.total_bytes cache then ok := false
      in
      List.iter
        (fun op ->
          (match op with
          | `Ins (f, o, l, dirty) ->
            Filecache.insert ~dirty cache ~file:f ~off:(o * slot)
              (Iobuf.Agg.of_string pool ~producer:app
                 (String.make (l * slot) 'x'))
          | `Collect f ->
            List.iter
              (fun c -> Queue.push c pending)
              (Filecache.collect_dirty cache ~file:f)
          | `Ack -> (
            match Queue.take_opt pending with
            | Some c ->
              let cleaned, superseded = Filecache.ack_cluster cache c in
              if cleaned + superseded <> Filecache.cluster_extents c then
                ok := false
            | None -> ()));
          check_bounds ();
          Filecache.check cache)
        ops;
      (* Drain: ack everything in flight, then collect+ack rounds must
         reach zero dirty bytes (nothing can be collected twice while
         captured, and nothing may be lost). *)
      Queue.iter (fun c -> ignore (Filecache.ack_cluster cache c)) pending;
      Queue.clear pending;
      let rounds = ref 0 in
      while Filecache.dirty_bytes cache > 0 && !rounds < 100 do
        incr rounds;
        List.iter
          (fun f ->
            List.iter
              (fun c -> ignore (Filecache.ack_cluster cache c))
              (Filecache.collect_dirty cache ~file:f))
          (Filecache.dirty_files cache)
      done;
      !ok && Filecache.dirty_bytes cache = 0)

let suites =
  [
    ( "wb.cluster",
      [
        Alcotest.test_case "park then timer flush" `Quick
          test_park_and_timer_flush;
        Alcotest.test_case "adjacent writes cluster" `Quick
          test_adjacent_writes_cluster;
        Alcotest.test_case "cluster size cap" `Quick test_cluster_size_cap;
        Alcotest.test_case "non-adjacent runs split" `Quick
          test_non_adjacent_runs_split;
      ] );
    ( "wb.supersede",
      [
        Alcotest.test_case "supersede before flush" `Quick
          test_supersede_before_flush;
        Alcotest.test_case "supersede in-flight ack" `Quick
          test_supersede_in_flight_ack;
      ] );
    ( "wb.sync",
      [
        Alcotest.test_case "fsync durable at return" `Quick
          test_fsync_durable_at_return;
        Alcotest.test_case "fsync per-file isolation" `Quick
          test_fsync_per_file_isolation;
        Alcotest.test_case "sync flushes all" `Quick
          test_sync_flushes_all_files;
      ] );
    ( "wb.pressure",
      [
        Alcotest.test_case "hard limit throttles" `Quick
          test_hard_limit_throttles_and_releases;
        Alcotest.test_case "dirty eviction flushes" `Quick
          test_dirty_eviction_flushes_victim;
        Alcotest.test_case "evict backs off uncaptured" `Quick
          test_evict_backs_off_when_uncaptured;
      ] );
    ( "wb.eager",
      [
        Alcotest.test_case "eager vs delayed disk ops" `Quick
          test_eager_vs_delayed_disk_ops;
      ] );
    ( "wb.msync",
      [
        Alcotest.test_case "msync coalesces page runs" `Quick
          test_msync_coalesces_page_runs;
      ] );
    ( "wb.crash",
      [
        Alcotest.test_case "directed crash points" `Quick
          test_crash_directed_points;
        Alcotest.test_case "oracle detects corruption" `Quick
          test_crash_oracle_detects_corruption;
        Alcotest.test_case "run_many runs every point" `Quick
          test_crash_run_many_counts_points;
        QCheck_alcotest.to_alcotest prop_crash_consistent;
        QCheck_alcotest.to_alcotest prop_dirty_accounting;
      ] );
  ]
