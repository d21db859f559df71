(* The full benchmark harness.

   Two sections:
   - Bechamel micro-benchmarks of the IO-Lite primitives (real wall-clock
     cost of the library's own operations);
   - the paper-reproduction harness: every figure of the evaluation
     (Figs. 3-13), printed as tables + ASCII plots in simulated-testbed
     units (Mb/s on the 1999 cost model).

   Usage:
     dune exec bench/main.exe                 # micro + all figures (scale 0.5)
     dune exec bench/main.exe -- micro        # micro-benchmarks only
     dune exec bench/main.exe -- figures 1.0  # figures at a given scale
     dune exec bench/main.exe -- figures 0.5 --metrics --trace out.json
         # figures with per-point metric registries printed and every
         # kernel's trace collected into one Chrome trace-event file
     dune exec bench/main.exe -- obs [label] [out.json]
         # observability overhead: asserts the disabled-tracer guard adds
         # no measurable per-event cost (history in ./BENCH_obs.json)
     dune exec bench/main.exe -- cache [label] [out.json] [entries]
         # unified-file-cache scaling: lookup/carve/evict against files
         # holding 1k/10k entries (default ./BENCH_cache.json, appended)
     dune exec bench/main.exe -- agg [label] [out.json]
         # deep-aggregate scaling section: repeated 1 KB appends up to ~MBs,
         # splits at random offsets, byte gets at random indices. Prints a
         # table and writes machine-readable JSON (default ./BENCH_agg.json).
         # If the output file already holds a run history, the new run is
         # appended to its "runs" array, so the checked-in BENCH_agg.json
         # accumulates the perf trajectory across PRs.
     dune exec bench/main.exe -- async [label] [out.json] [scale]
         # async disk pipeline, warm and memory-pressure scenarios —
         # request-latency percentiles, disk utilization,
         # batching/coalescing/readahead counters, and a cold
         # sequential-read time (default ./BENCH_async.json).
     dune exec bench/main.exe -- write [label] [out.json] [crash_runs]
         # delayed write-back: writes per clustered disk write op on the
         # sequential headline, the CAWL burst sweep at two flush
         # intervals, and the crash-at-any-point consistency harness
         # (default ./BENCH_write.json, 1000 crash points).
     dune exec bench/main.exe -- tier [label] [out.json] [scale]
         # NVMM second cache tier: Fig. 10-style working-set sweeps on a
         # small (64MB) machine, DRAM-only baseline first then the
         # tiered configuration, plus the single-request latency probe
         # (DRAM hit / warm tier hit / cold disk fill). Appends one
         # "dram-baseline" run and one "tiered" run with the demotion /
         # promotion / staging traffic decomposed per working-set point
         # (default ./BENCH_tier.json).
*)

open Bechamel
open Toolkit
module Iosys = Iolite_core.Iosys
module Iobuf = Iolite_core.Iobuf
module Transfer = Iolite_core.Transfer
module Filecache = Iolite_core.Filecache
module Cksum = Iolite_net.Cksum
module Vm = Iolite_mem.Vm
module Pdomain = Iolite_mem.Pdomain

(* ------------------------------------------------------------------ *)
(* Micro-benchmark fixtures                                            *)
(* ------------------------------------------------------------------ *)

let fixture () =
  let sys = Iosys.create ~capacity:(256 * 1024 * 1024) () in
  let d = Iosys.new_domain sys ~name:"bench" in
  let pool =
    Iobuf.Pool.create sys ~name:"bench"
      ~acl:(Vm.Only (Pdomain.Set.singleton d))
  in
  (sys, d, pool)

let test_pool_alloc_free =
  let _, d, pool = fixture () in
  Test.make ~name:"pool: alloc+seal+free 4KB buffer"
    (Staged.stage (fun () ->
         let b = Iobuf.Pool.alloc pool ~producer:d 4096 in
         Iobuf.Buffer.seal b;
         Iobuf.Buffer.decr_ref b))

let test_agg_of_string =
  let _, d, pool = fixture () in
  let payload = String.make 4096 'x' in
  Test.make ~name:"agg: of_string 4KB (+free)"
    (Staged.stage (fun () ->
         Iobuf.Agg.free (Iobuf.Agg.of_string pool ~producer:d payload)))

let test_agg_concat_split =
  let _, d, pool = fixture () in
  let a = Iobuf.Agg.of_string pool ~producer:d (String.make 1024 'a') in
  let b = Iobuf.Agg.of_string pool ~producer:d (String.make 1024 'b') in
  Test.make ~name:"agg: concat + split + free"
    (Staged.stage (fun () ->
         let ab = Iobuf.Agg.concat a b in
         let l, r = Iobuf.Agg.split ab ~at:1500 in
         Iobuf.Agg.free l;
         Iobuf.Agg.free r;
         Iobuf.Agg.free ab))

let test_cksum_cold =
  let _, d, pool = fixture () in
  let agg = Iobuf.Agg.of_string pool ~producer:d (String.make 4096 'c') in
  Test.make ~name:"cksum: 4KB computed (uncached)"
    (Staged.stage (fun () -> ignore (Cksum.of_agg agg)))

let test_cksum_cached =
  let _, d, pool = fixture () in
  let cache = Cksum.Cache.create () in
  let agg = Iobuf.Agg.of_string pool ~producer:d (String.make 4096 'c') in
  let _ = Cksum.Cache.agg_sum cache agg in
  Test.make ~name:"cksum: 4KB via checksum cache (hit)"
    (Staged.stage (fun () -> ignore (Cksum.Cache.agg_sum cache agg)))

let test_transfer_warm =
  let sys, d, pool = fixture () in
  ignore pool;
  let reader = Iosys.new_domain sys ~name:"reader" in
  let pool2 =
    Iobuf.Pool.create sys ~name:"shared"
      ~acl:(Vm.Only (Pdomain.Set.of_list [ d; reader ]))
  in
  let agg = Iobuf.Agg.of_string pool2 ~producer:d (String.make 4096 't') in
  Iobuf.Agg.free (Transfer.send sys agg ~to_:reader);
  Test.make ~name:"transfer: warm cross-domain send 4KB"
    (Staged.stage (fun () -> Iobuf.Agg.free (Transfer.send sys agg ~to_:reader)))

let test_cache_hit =
  let sys, d, pool = fixture () in
  let cache = Filecache.create ~register_with_pageout:false sys () in
  Filecache.insert cache ~file:1 ~off:0
    (Iobuf.Agg.of_string pool ~producer:d (String.make 65536 'f'));
  Test.make ~name:"filecache: lookup hit 16KB range"
    (Staged.stage (fun () ->
         match Filecache.lookup cache ~file:1 ~off:8192 ~len:16384 with
         | Some a -> Iobuf.Agg.free a
         | None -> assert false))

(* Fills over 16 KB share their blocks with the helper domain; 4 KB
   runs the single loop. *)
let test_blit_content len =
  let dst = Bytes.create len in
  Test.make
    ~name:(Printf.sprintf "fs: blit_content %dKB" (len / 1024))
    (Staged.stage (fun () ->
         Iolite_fs.Filestore.blit_content ~file:7 ~off:4096 dst ~dst_off:0 ~len))

(* A disk read's path with nothing simulated in between: post the range,
   then take it back as one 64 KB part at once, so this times the queue's
   overhead, not the overlap. *)
let test_prefetch_take =
  let len = 65_536 in
  let dst = Bytes.create len in
  Test.make ~name:"fs: prefetch+take 64KB"
    (Staged.stage (fun () ->
         let p = Iolite_fs.Filestore.prefetch ~file:7 ~off:4096 ~len in
         Iolite_fs.Filestore.take p ~pos:0 dst ~dst_off:0 ~len))

let test_zipf =
  let z = Iolite_util.Zipf.create ~n:37703 ~alpha:1.0 in
  let rng = Iolite_util.Rng.create 3L in
  Test.make ~name:"workload: zipf sample (n=37703)"
    (Staged.stage (fun () -> ignore (Iolite_util.Zipf.sample z rng)))

let test_sim_engine =
  Test.make ~name:"sim: spawn+run 100-event engine"
    (Staged.stage (fun () ->
         let e = Iolite_sim.Engine.create () in
         Iolite_sim.Engine.spawn e (fun () ->
             for _ = 1 to 100 do
               Iolite_sim.Engine.Proc.sleep 0.001
             done);
         Iolite_sim.Engine.run e))

let micro_tests =
  [
    test_pool_alloc_free;
    test_agg_of_string;
    test_agg_concat_split;
    test_cksum_cold;
    test_cksum_cached;
    test_transfer_warm;
    test_cache_hit;
    test_blit_content 4096;
    test_blit_content 65536;
    test_prefetch_take;
    test_zipf;
    test_sim_engine;
  ]

let run_micro () =
  print_endline "== Micro-benchmarks (Bechamel, real wall-clock) ==";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* stabilize:false — Bechamel's per-sample Gc.compact stabilization
     permanently degrades the OCaml 5.1 runtime's page reuse, ballooning
     the RSS of everything that runs afterwards (observed: the figure
     harness OOMs after micro-benchmarks run with stabilization). Our
     operations are allocation-light, so estimates are unaffected. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols (List.hd instances) results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-42s %10.1f ns/op\n%!" name est
          | Some _ | None -> Printf.printf "  %-42s (no estimate)\n%!" name)
        analyzed)
    micro_tests

(* ------------------------------------------------------------------ *)
(* Deep-aggregate scaling                                              *)
(* ------------------------------------------------------------------ *)

(* Stresses the cost of aggregate recombination as aggregates get deep:
   repeated append (the stdiol/pipe/mbuf/response-assembly pattern),
   split at random offsets, and random byte indexing. These are the
   operations whose asymptotics changed when Agg moved from a flat slice
   list to a rope; the recorded numbers in BENCH_agg.json are the
   regression baseline for later PRs. *)

type agg_entry = {
  ag_op : string;
  ag_pieces : int;
  ag_piece_size : int;
  ag_iters : int;
  ag_total_ns : float;
}

let ns_per_op e = e.ag_total_ns /. float_of_int e.ag_iters

let now_ns () = Unix.gettimeofday () *. 1e9

let bench_append pool d ~pieces ~piece_size =
  let piece =
    Iobuf.Agg.of_string pool ~producer:d (String.make piece_size 'p')
  in
  let t0 = now_ns () in
  let acc = ref (Iobuf.Agg.empty ()) in
  for _ = 1 to pieces do
    let next = Iobuf.Agg.concat !acc piece in
    Iobuf.Agg.free !acc;
    acc := next
  done;
  let dt = now_ns () -. t0 in
  Iobuf.Agg.free piece;
  ( !acc,
    {
      ag_op = "append";
      ag_pieces = pieces;
      ag_piece_size = piece_size;
      ag_iters = pieces;
      ag_total_ns = dt;
    } )

let bench_split agg ~iters rng =
  let total = Iobuf.Agg.length agg in
  let pieces = Iobuf.Agg.num_slices agg in
  let t0 = now_ns () in
  for _ = 1 to iters do
    let at = Iolite_util.Rng.int rng (total + 1) in
    let l, r = Iobuf.Agg.split agg ~at in
    Iobuf.Agg.free l;
    Iobuf.Agg.free r
  done;
  let dt = now_ns () -. t0 in
  {
    ag_op = "split";
    ag_pieces = pieces;
    ag_piece_size = total / max 1 pieces;
    ag_iters = iters;
    ag_total_ns = dt;
  }

let bench_get agg ~iters rng =
  let total = Iobuf.Agg.length agg in
  let pieces = Iobuf.Agg.num_slices agg in
  let sink = ref 0 in
  let t0 = now_ns () in
  for _ = 1 to iters do
    let i = Iolite_util.Rng.int rng total in
    sink := !sink + Char.code (Iobuf.Agg.get agg i)
  done;
  let dt = now_ns () -. t0 in
  ignore !sink;
  {
    ag_op = "get";
    ag_pieces = pieces;
    ag_piece_size = total / max 1 pieces;
    ag_iters = iters;
    ag_total_ns = dt;
  }

let agg_json_of_run ~label entries =
  let b = Stdlib.Buffer.create 1024 in
  Stdlib.Buffer.add_string b
    (Printf.sprintf "    {\n      \"label\": %S,\n      \"entries\": [\n" label);
  List.iteri
    (fun i e ->
      Stdlib.Buffer.add_string b
        (Printf.sprintf
           "        {\"op\": %S, \"pieces\": %d, \"piece_size\": %d, \
            \"iters\": %d, \"total_ns\": %.0f, \"ns_per_op\": %.1f}%s\n"
           e.ag_op e.ag_pieces e.ag_piece_size e.ag_iters e.ag_total_ns
           (ns_per_op e)
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Stdlib.Buffer.add_string b "      ]\n    }";
  Stdlib.Buffer.contents b

(* Append one labeled run to a JSON history file (shared by every
   section): the checked-in BENCH_*.json files accumulate the perf
   trajectory across PRs instead of being clobbered per run. [units]
   names the clock behind the file's numbers; it is written only when
   the file is created. *)
let append_json_text ~benchmark ~units ~out ~run_json =
  let fresh =
    Printf.sprintf
      "{\n  \"benchmark\": %S,\n  \"units\": %S,\n  \"runs\": [\n%s\n  ]\n}\n"
      benchmark units run_json
  in
  let tail_marker = "\n  ]\n}\n" in
  let existing =
    match open_in out with
    | exception Sys_error _ -> None
    | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some s
  in
  let content, verb =
    match existing with
    | Some s
      when String.length s > String.length tail_marker
           && String.sub s
                (String.length s - String.length tail_marker)
                (String.length tail_marker)
              = tail_marker ->
      ( String.sub s 0 (String.length s - String.length tail_marker)
        ^ ",\n" ^ run_json ^ tail_marker,
        "appended run to" )
    | Some _ ->
      Printf.printf "  (existing %s not in the expected shape; rewriting)\n"
        out;
      (fresh, "wrote")
    | None -> (fresh, "wrote")
  in
  try
    let oc = open_out out in
    output_string oc content;
    close_out oc;
    Printf.printf "  %s %s\n%!" verb out
  with Sys_error e -> Printf.printf "  could not write %s: %s\n%!" out e

let append_json_run ~benchmark ~out ~label entries =
  append_json_text ~benchmark ~units:"nanoseconds (wall-clock)" ~out
    ~run_json:(agg_json_of_run ~label entries)

let run_agg ?(label = "current") ?(out = "BENCH_agg.json") () =
  Printf.printf "\n== Deep-aggregate scaling (label: %s) ==\n" label;
  let _, d, pool = fixture () in
  let rng = Iolite_util.Rng.create 42L in
  let entries = ref [] in
  let record e = entries := e :: !entries in
  Printf.printf "  %-8s %8s %12s %14s %12s\n" "op" "pieces" "iters"
    "total (ms)" "ns/op";
  let show e =
    Printf.printf "  %-8s %8d %12d %14.2f %12.1f\n%!" e.ag_op e.ag_pieces
      e.ag_iters (e.ag_total_ns /. 1e6) (ns_per_op e)
  in
  List.iter
    (fun pieces ->
      let agg, append = bench_append pool d ~pieces ~piece_size:1024 in
      record append;
      show append;
      (* Split/get stress only the deepest aggregate. *)
      if pieces = 1024 then begin
        let split = bench_split agg ~iters:1000 rng in
        record split;
        show split;
        let get = bench_get agg ~iters:10000 rng in
        record get;
        show get
      end;
      Iobuf.Agg.free agg)
    [ 128; 256; 512; 1024; 2048 ];
  let entries = List.rev !entries in
  append_json_run ~benchmark:"deep-agg" ~out ~label entries

(* ------------------------------------------------------------------ *)
(* Checksum scaling                                                    *)
(* ------------------------------------------------------------------ *)

(* Measures checksumming a shared deep aggregate: whole-aggregate folds
   through the identity cache ([agg_sum], which no served path calls),
   and per-MTU-packet checksums derived during segmentation, the
   per-send work of the network path ([pkt_derived_warm] for IO-Lite
   sends, [pkt_memo_warm] for sendfile). The recorded runs in
   BENCH_cksum.json are labeled. The "slice-cache baseline (pre-memo)"
   and "rope-memo" runs predate and include the rope's subtree checksum
   memos, which answered a warm [agg_sum] with one root read; later runs
   fold one identity probe per slice. *)

let cksum_show e =
  Printf.printf "  %-18s %8d %10d %14.2f %12.1f\n%!" e.ag_op e.ag_pieces
    e.ag_iters (e.ag_total_ns /. 1e6) (ns_per_op e)

(* Each phase starts from a compacted heap, outside the timed region, so
   garbage a previous phase left behind is not billed to this one. *)
let time_op ~op ~pieces ~piece_size ~iters f =
  Gc.compact ();
  let t0 = now_ns () in
  for _ = 1 to iters do
    f ()
  done;
  let dt = now_ns () -. t0 in
  {
    ag_op = op;
    ag_pieces = pieces;
    ag_piece_size = piece_size;
    ag_iters = iters;
    ag_total_ns = dt;
  }

let run_cksum ?(label = "current") ?(out = "BENCH_cksum.json") ?(pieces = 1024)
    () =
  Printf.printf "\n== Checksum scaling (label: %s, %d slices) ==\n" label
    pieces;
  let _, d, pool = fixture () in
  let piece_size = 1024 in
  let mtu = 1460 in
  (* A [pieces]-slice aggregate built like a cached response body: many
     1 KB buffers concatenated, the whole rope shared across "sends". *)
  let agg =
    let acc = ref (Iobuf.Agg.empty ()) in
    for i = 1 to pieces do
      let piece =
        Iobuf.Agg.of_string pool ~producer:d
          (String.make piece_size (Char.chr (Char.code 'a' + (i mod 26))))
      in
      let next = Iobuf.Agg.concat !acc piece in
      Iobuf.Agg.free !acc;
      Iobuf.Agg.free piece;
      acc := next
    done;
    !acc
  in
  let total = Iobuf.Agg.length agg in
  let entries = ref [] in
  let record e =
    entries := e :: !entries;
    cksum_show e
  in
  Printf.printf "  %-18s %8s %10s %14s %12s\n" "op" "slices" "iters"
    "total (ms)" "ns/op";
  (* Uncached full scan: the per-send cost of a system with no checksum
     reuse. *)
  record
    (time_op ~op:"of_agg_cold" ~pieces ~piece_size ~iters:200 (fun () ->
         ignore (Cksum.of_agg agg)));
  (* Cold through a fresh cache: scan + insert for every slice. *)
  record
    (time_op ~op:"agg_sum_cold" ~pieces ~piece_size ~iters:50 (fun () ->
         let cache = Cksum.Cache.create () in
         ignore (Cksum.Cache.agg_sum cache agg)));
  (* Warm re-checksum of the shared aggregate: one identity hit per
     slice. *)
  let cache = Cksum.Cache.create () in
  ignore (Cksum.Cache.agg_sum cache agg);
  record
    (time_op ~op:"agg_sum_warm" ~pieces ~piece_size ~iters:2000 (fun () ->
         ignore (Cksum.Cache.agg_sum cache agg)));
  (* Per-packet derivation, naive: one Agg.sub + cache fold per MTU
     packet per send (what segmentation costs without deriving the sums
     during the walk). *)
  let pkt_cache = Cksum.Cache.create () in
  let naive_packets () =
    let off = ref 0 in
    while !off < total do
      let len = min mtu (total - !off) in
      let p = Iobuf.Agg.sub agg ~off:!off ~len in
      ignore (Cksum.Cache.agg_sum pkt_cache p);
      Iobuf.Agg.free p;
      off := !off + len
    done
  in
  naive_packets ();
  record
    (time_op ~op:"pkt_naive_warm" ~pieces ~piece_size ~iters:100 naive_packets);
  (* Per-packet derivation during segmentation: one identity-keyed walk
     per send, no per-packet sub-aggregates. *)
  let seg_cache = Cksum.Cache.create () in
  ignore (Cksum.Cache.packet_sums seg_cache agg ~mtu);
  record
    (time_op ~op:"pkt_derived_warm" ~pieces ~piece_size ~iters:500 (fun () ->
         ignore (Cksum.Cache.packet_sums seg_cache agg ~mtu)));
  (* Identity-less structural variant (the sendfile path). *)
  ignore (Cksum.packet_sums_memo agg ~mtu);
  record
    (time_op ~op:"pkt_memo_warm" ~pieces ~piece_size ~iters:200 (fun () ->
         ignore (Cksum.packet_sums_memo agg ~mtu)));
  Iobuf.Agg.free agg;
  append_json_run ~benchmark:"cksum" ~out ~label (List.rev !entries)

(* ------------------------------------------------------------------ *)
(* Cross-domain transfer scaling                                       *)
(* ------------------------------------------------------------------ *)

(* Measures the per-send cost of cross-domain transfer as aggregates get
   deep — the operation under every pipe write, socket send, and cache
   delivery. Cold = first-ever transfer to a fresh domain (per-chunk map
   operations are unavoidable); warm = repeated transfer on the same
   stream, which the paper says must cost no VM work and which should
   therefore be independent of the slice count. The recorded runs in
   BENCH_transfer.json are labeled: the pre-optimisation numbers
   ("slice-walk baseline") walked every slice per send and are the
   regression baseline the memoized chunk-set/grant-epoch runs are
   compared against. *)

let run_transfer ?(label = "current") ?(out = "BENCH_transfer.json")
    ?(pieces = 1024) () =
  Printf.printf "\n== Cross-domain transfer (label: %s, %d slices) ==\n" label
    pieces;
  let sys = Iosys.create ~capacity:(256 * 1024 * 1024) () in
  let d = Iosys.new_domain sys ~name:"producer" in
  (* Public ACL so freshly minted consumer domains can map (the cold
     case); IO-Lite's file pool has the same shape. *)
  let pool = Iobuf.Pool.create sys ~name:"xfer" ~acl:Vm.Public in
  let piece_size = 1024 in
  let agg =
    let acc = ref (Iobuf.Agg.empty ()) in
    for i = 1 to pieces do
      let piece =
        Iobuf.Agg.of_string pool ~producer:d
          (String.make piece_size (Char.chr (Char.code 'a' + (i mod 26))))
      in
      let next = Iobuf.Agg.concat !acc piece in
      Iobuf.Agg.free !acc;
      Iobuf.Agg.free piece;
      acc := next
    done;
    !acc
  in
  let entries = ref [] in
  let record e =
    entries := e :: !entries;
    cksum_show e
  in
  Printf.printf "  %-18s %8s %10s %14s %12s\n" "op" "slices" "iters"
    "total (ms)" "ns/op";
  (* Cold send: the consumer has never seen the stream's chunks, so every
     one of them must be mapped. *)
  record
    (time_op ~op:"send_cold" ~pieces ~piece_size ~iters:200 (fun () ->
         let r = Iosys.new_domain sys ~name:"cold" in
         Iobuf.Agg.free (Transfer.send sys agg ~to_:r)));
  (* Warm send: same aggregate, same consumer — the steady state of a
     persistent connection serving cached data. *)
  let reader = Iosys.new_domain sys ~name:"reader" in
  Iobuf.Agg.free (Transfer.send sys agg ~to_:reader);
  record
    (time_op ~op:"send_warm" ~pieces ~piece_size ~iters:2000 (fun () ->
         Iobuf.Agg.free (Transfer.send sys agg ~to_:reader)));
  (* Consumer-side enforcement on the warm stream. *)
  record
    (time_op ~op:"check_warm" ~pieces ~piece_size ~iters:2000 (fun () ->
         Transfer.check_readable sys reader agg));
  Iobuf.Agg.free agg;
  append_json_run ~benchmark:"transfer" ~out ~label (List.rev !entries)

(* ------------------------------------------------------------------ *)
(* Unified file cache scaling                                          *)
(* ------------------------------------------------------------------ *)

(* Measures the per-operation cost of the unified file cache as files
   accumulate entries — the regime of the paper's Fig. 8 trace replays,
   where a single large file can be cached as thousands of
   insert/carve remainders. [insert_seq] appends ascending entries (the
   fixture build); [lookup_warm] repeats one exact-bounds hit at the
   file's tail; [lookup_rand] hits a random entry per op (cold index
   probe); [lookup_span16] covers 16 entries per hit; [carve_replace]
   overwrites a random whole entry (carve + reinsert); [evict_drain]
   evicts half the entries through the policy. The recorded runs in
   BENCH_cache.json are labeled: the pre-optimization numbers
   ("list-baseline") walked offset-sorted per-file lists and are the
   regression baseline the interval-index runs are compared against. *)

let run_cache ?(label = "current") ?(out = "BENCH_cache.json") ?scales () =
  let scales = match scales with Some l -> l | None -> [ 1000; 10_000 ] in
  Printf.printf "\n== Unified file cache scaling (label: %s) ==\n" label;
  let entries = ref [] in
  let record e =
    entries := e :: !entries;
    cksum_show e
  in
  Printf.printf "  %-18s %8s %10s %14s %12s\n" "op" "entries" "iters"
    "total (ms)" "ns/op";
  List.iter
    (fun n ->
      let sys = Iosys.create ~capacity:(256 * 1024 * 1024) () in
      let d = Iosys.new_domain sys ~name:"bench" in
      let pool =
        Iobuf.Pool.create sys ~name:"cachebench"
          ~acl:(Vm.Only (Pdomain.Set.singleton d))
      in
      let cache = Filecache.create ~register_with_pageout:false sys () in
      let esz = 128 in
      let payload = String.make esz 'e' in
      let rng = Iolite_util.Rng.create 7L in
      let next = ref 0 in
      record
        (time_op ~op:"insert_seq" ~pieces:n ~piece_size:esz ~iters:n (fun () ->
             Filecache.insert cache ~file:1 ~off:(!next * esz)
               (Iobuf.Agg.of_string pool ~producer:d payload);
             incr next));
      let last_off = (n - 1) * esz in
      record
        (time_op ~op:"lookup_warm" ~pieces:n ~piece_size:esz ~iters:5000
           (fun () ->
             match Filecache.lookup cache ~file:1 ~off:last_off ~len:esz with
             | Some a -> Iobuf.Agg.free a
             | None -> assert false));
      record
        (time_op ~op:"lookup_rand" ~pieces:n ~piece_size:esz ~iters:5000
           (fun () ->
             let k = Iolite_util.Rng.int rng n in
             match Filecache.lookup cache ~file:1 ~off:(k * esz) ~len:esz with
             | Some a -> Iobuf.Agg.free a
             | None -> assert false));
      record
        (time_op ~op:"lookup_span16" ~pieces:n ~piece_size:esz ~iters:2000
           (fun () ->
             let k = Iolite_util.Rng.int rng (n - 16) in
             match
               Filecache.lookup cache ~file:1 ~off:(k * esz) ~len:(16 * esz)
             with
             | Some a -> Iobuf.Agg.free a
             | None -> assert false));
      record
        (time_op ~op:"carve_replace" ~pieces:n ~piece_size:esz ~iters:2000
           (fun () ->
             let k = Iolite_util.Rng.int rng n in
             Filecache.insert cache ~file:1 ~off:(k * esz)
               (Iobuf.Agg.of_string pool ~producer:d payload)));
      record
        (time_op ~op:"evict_drain" ~pieces:n ~piece_size:esz ~iters:(n / 2)
           (fun () -> ignore (Filecache.evict_one cache))))
    scales;
  append_json_run ~benchmark:"cache" ~out ~label (List.rev !entries)

(* ------------------------------------------------------------------ *)
(* Observability overhead                                              *)
(* ------------------------------------------------------------------ *)

(* The tracer's contract is that a disabled tracer costs one mutable
   bool load and branch per potential event — nothing measurable on hot
   paths. This section measures it: a bare counting loop, the same loop
   with the [if Trace.enabled t then emit] guard the call sites use,
   and (for context) the loop with the tracer armed and emitting. The
   recorded runs in BENCH_obs.json track that the disabled-path delta
   stays in the noise across PRs. *)

module Trace = Iolite_obs.Trace

let obs_show e =
  Printf.printf "  %-18s %10d %14.2f %12.2f\n%!" e.ag_op e.ag_iters
    (e.ag_total_ns /. 1e6) (ns_per_op e)

let run_obs ?(label = "current") ?(out = "BENCH_obs.json") () =
  Printf.printf "\n== Observability overhead (label: %s) ==\n" label;
  let iters = 5_000_000 in
  let sink = ref 0 in
  (* Best-of-three per variant: the quantity of interest is a
     per-iteration delta of a few tenths of a ns, easily swamped by a
     scheduling blip in a single run. *)
  let best op f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let e = time_op ~op ~pieces:0 ~piece_size:0 ~iters f in
      if e.ag_total_ns < !best then best := e.ag_total_ns
    done;
    { ag_op = op; ag_pieces = 0; ag_piece_size = 0; ag_iters = iters;
      ag_total_ns = !best }
  in
  let entries = ref [] in
  let record e =
    entries := e :: !entries;
    obs_show e
  in
  Printf.printf "  %-18s %10s %14s %12s\n" "variant" "iters" "total (ms)"
    "ns/op";
  let bare =
    best "bare_loop" (fun () -> sink := !sink + 1)
  in
  record bare;
  let tr = Trace.create () in
  let disabled =
    best "disabled_guard" (fun () ->
        sink := !sink + 1;
        if Trace.enabled tr then
          Trace.instant tr ~cat:"bench" ~name:"ev" ())
  in
  record disabled;
  (* The causal-tracing additions ride the same contract: a disabled
     flow emitter and a disabled attribution note are each one bool
     load and branch. *)
  let flow = Iolite_obs.Flow.create tr in
  record
    (best "disabled_flow" (fun () ->
         sink := !sink + 1;
         if Iolite_obs.Flow.enabled flow then
           Iolite_obs.Flow.step flow ~id:1 ()));
  let attr = Iolite_obs.Attrib.create () in
  record
    (best "disabled_attrib" (fun () ->
         sink := !sink + 1;
         if Iolite_obs.Attrib.enabled attr then
           Iolite_obs.Attrib.note attr ~ctx:1 Iolite_obs.Attrib.Queue 1e-9));
  (* The write-back layer's per-cluster telemetry is one pre-resolved
     counter-cell bump plus the same disabled-tracer guard — no name
     lookups on the flush path. *)
  let wcell =
    Iolite_obs.Metrics.counter (Iolite_obs.Metrics.create ()) "write.clustered"
  in
  record
    (best "disabled_wb_count" (fun () ->
         sink := !sink + 1;
         wcell := !wcell + 1;
         if Trace.enabled tr then
           Trace.instant tr ~cat:"wb" ~name:"cluster" ()));
  (* Context: cost with the tracer armed (buffering an instant event).
     Cleared each batch so the buffer does not grow without bound. *)
  let vnow = ref 0.0 in
  Trace.enable tr
    ~clock:(fun () -> vnow := !vnow +. 1e-9; !vnow)
    ~scope:(fun () -> None);
  let enabled_iters = 200_000 in
  let enabled =
    let e =
      time_op ~op:"enabled_instant" ~pieces:0 ~piece_size:0
        ~iters:enabled_iters (fun () ->
          sink := !sink + 1;
          if Trace.enabled tr then
            Trace.instant tr ~cat:"bench" ~name:"ev" ())
    in
    Trace.clear tr;
    e
  in
  record enabled;
  ignore !sink;
  let delta = ns_per_op disabled -. ns_per_op bare in
  (* "No measurable cost": within 2 ns/event of the bare loop — the
     guard is one field load and a branch (~0.4 ns in release builds;
     dev builds pay an un-inlined call, ~1.5 ns). Compare 100+ ns for
     an enabled emission and tens of microseconds for the simulated
     operations the guards sit on. *)
  if delta <= 2.0 then
    Printf.printf
      "  PASS: disabled tracer adds %.2f ns/event over the bare loop\n" delta
  else
    Printf.printf
      "  WARN: disabled tracer adds %.2f ns/event over the bare loop \
       (> 2.0 ns budget)\n"
      delta;
  append_json_run ~benchmark:"obs" ~out ~label (List.rev !entries)

(* ------------------------------------------------------------------ *)
(* C1M connection-scale sweep                                          *)
(* ------------------------------------------------------------------ *)

(* Holds 10^3..10^6 concurrent persistent connections against Flash-Lite
   (timer-wheel idle timers, 16-way sharded tables) and measures
   per-request wall cost, request latency percentiles, warm-phase
   fresh-chunk allocations, and timer cancel+insert cost at full
   population. Flat wall ns/req and timer ns/op across three decades of
   population is the acceptance criterion. *)

let scale_json_of_run ~label points =
  let module E = Iolite_workload.Experiments in
  let b = Stdlib.Buffer.create 1024 in
  Stdlib.Buffer.add_string b
    (Printf.sprintf "    {\n      \"label\": %S,\n      \"entries\": [\n" label);
  List.iteri
    (fun i p ->
      Stdlib.Buffer.add_string b
        (Printf.sprintf
           "        {\"conns\": %d, \"requests\": %d, \
            \"sim_rps\": %.0f, \"wall_ns_per_req\": %.1f, \"p50_s\": %.6f, \
            \"p90_s\": %.6f, \"p99_s\": %.6f, \"fresh_warm\": %d, \
            \"recycled_warm\": %d, \"timer_ns_per_op\": %.1f, \
            \"peak_timers\": %d, \"idle_closed\": %d}%s\n"
           p.E.c1m_conns p.E.c1m_requests p.E.c1m_sim_rps
           p.E.c1m_wall_ns_per_req p.E.c1m_p50 p.E.c1m_p90 p.E.c1m_p99
           p.E.c1m_fresh_warm p.E.c1m_recycled_warm p.E.c1m_timer_ns_per_op
           p.E.c1m_peak_timers p.E.c1m_idle_closed
           (if i = List.length points - 1 then "" else ",")))
    points;
  Stdlib.Buffer.add_string b "      ]\n    }";
  Stdlib.Buffer.contents b

let run_scale ?(label = "current") ?(out = "BENCH_scale.json")
    ?(conns = [ 1_000; 10_000; 100_000; 1_000_000 ]) () =
  Printf.printf "\n== C1M connection-scale sweep (label: %s) ==\n%!" label;
  let module E = Iolite_workload.Experiments in
  let points =
    List.map
      (fun n ->
        Printf.printf "  running %d conns...\n%!" n;
        let p = E.c1m ~conns:n () in
        (* each point retires a whole simulated machine *)
        Gc.full_major ();
        p)
      conns
  in
  E.print_c1m points;
  append_json_text ~benchmark:"c1m-scale"
    ~units:
      "host nanoseconds (wall_ns_per_req, timer_ns_per_op); simulated \
       seconds (p50_s, p90_s, p99_s); requests per simulated second \
       (sim_rps); counts otherwise"
    ~out
    ~run_json:(scale_json_of_run ~label points)

(* ------------------------------------------------------------------ *)
(* Async disk pipeline                                                 *)
(* ------------------------------------------------------------------ *)

(* Tail latency of the async pipeline (queued ring + elevator,
   readahead, single-flight fills, batched pageout writes) at 128MB and
   under memory pressure at 24MB, plus a cold sequential-read headline.
   The history's "legacy" entries are the pre-async system, recorded
   for comparison. *)

let async_json_of_run ~label points =
  let module E = Iolite_workload.Experiments in
  let b = Stdlib.Buffer.create 1024 in
  Stdlib.Buffer.add_string b
    (Printf.sprintf "    {\n      \"label\": %S,\n      \"entries\": [\n" label);
  List.iteri
    (fun i p ->
      let attr k =
        match List.assoc_opt k p.E.as_attr_totals with
        | Some v -> v
        | None -> 0.0
      in
      Stdlib.Buffer.add_string b
        (Printf.sprintf
           "        {\"scenario\": %S, \"mem_mb\": %d, \
            \"requests\": %d, \"p50_s\": %.6f, \"p90_s\": %.6f, \"p99_s\": \
            %.6f, \"disk_util\": %.4f, \"disk_reads\": %d, \"disk_writes\": \
            %d, \"batches\": %d, \"batched\": %d, \"fill_coalesced\": %d, \
            \"readahead_issued\": %d, \"readahead_hit\": %d, \"swap_writes\": \
            %d, \"seq_read_s\": %.6f, \"attr_completed\": %d, \
            \"attr_wall_s\": %.6f, \"attr_queue_s\": %.6f, \
            \"attr_disk_service_s\": %.6f, \"attr_coalesced_wait_s\": %.6f, \
            \"attr_vm_stall_s\": %.6f, \"attr_cpu_s\": %.6f, \
            \"tail_covered_min\": %.4f}%s\n"
           p.E.as_scenario p.E.as_mem_mb p.E.as_requests
           p.E.as_p50 p.E.as_p90 p.E.as_p99 p.E.as_disk_util p.E.as_disk_reads
           p.E.as_disk_writes p.E.as_batches p.E.as_batched p.E.as_coalesced
           p.E.as_ra_issued p.E.as_ra_hit p.E.as_swap_writes p.E.as_seq_read_s
           p.E.as_attr_completed (attr "wall") (attr "queue")
           (attr "disk_service") (attr "coalesced_wait") (attr "vm_stall")
           (attr "cpu")
           (List.fold_left
              (fun acc r -> Float.min acc (Iolite_obs.Attrib.covered r))
              1.0 p.E.as_tail)
           (if i = List.length points - 1 then "" else ",")))
    points;
  Stdlib.Buffer.add_string b "      ]\n    }";
  Stdlib.Buffer.contents b

let run_async ?(label = "current") ?(out = "BENCH_async.json") ?(scale = 1.0)
    () =
  Printf.printf
    "\n== Async disk pipeline: tail latency under pressure (label: %s) ==\n%!"
    label;
  let module E = Iolite_workload.Experiments in
  let points = E.async_sweep ~scale () in
  E.print_async points;
  E.print_async_tail points;
  append_json_text ~benchmark:"async-disk"
    ~units:
      "simulated seconds (*_s); fractions (disk_util, tail_covered_min); \
       counts otherwise"
    ~out
    ~run_json:(async_json_of_run ~label points)

(* ------------------------------------------------------------------ *)
(* Delayed write-back                                                  *)
(* ------------------------------------------------------------------ *)

(* Three exhibits: the clustering headline (the sync daemon merging
   adjacent dirty extents — writes per disk write op, where the
   history's write-through "eager" entries paid one op per write), the
   CAWL sweep (write throughput vs. burst size over the dirty hard
   limit under two flush intervals: memory speed below the knee, drain
   speed above, the knee's position set by the interval), and the
   crash-at-any-point harness (randomized crash points replayed against
   the durable-write log; the per-offset oracle must accept every
   recovered byte and fsync'd data must survive). *)

let write_json_of_run ~label ~crash points =
  let module E = Iolite_workload.Experiments in
  let module C = Iolite_workload.Crash in
  let b = Stdlib.Buffer.create 1024 in
  Stdlib.Buffer.add_string b
    (Printf.sprintf "    {\n      \"label\": %S,\n      \"entries\": [\n" label);
  List.iteri
    (fun i p ->
      Stdlib.Buffer.add_string b
        (Printf.sprintf
           "        {\"point\": %S, \"flush_interval\": %.2f, \"burst\": %d, \
            \"x\": %.3f, \"writes\": %d, \"bytes\": %d, \"disk_writes\": %d, \
            \"disk_bytes\": %d, \"cluster_writes\": %d, \"clustered\": %d, \
            \"flushes\": %d, \"superseded\": %d, \"throttled\": %d, \
            \"write_s\": %.6f, \"mbps\": %.2f}%s\n"
           p.E.wp_label p.E.wp_flush_interval p.E.wp_burst p.E.wp_x
           p.E.wp_writes p.E.wp_bytes p.E.wp_disk_writes p.E.wp_disk_bytes
           p.E.wp_cluster_writes p.E.wp_clustered p.E.wp_flushes
           p.E.wp_superseded p.E.wp_throttled p.E.wp_write_s p.E.wp_mbps
           (if i = List.length points - 1 then "" else ",")))
    points;
  let writes_per_op =
    match List.find_opt (fun p -> p.E.wp_label = "delayed") points with
    | Some d when d.E.wp_disk_writes > 0 ->
      float_of_int d.E.wp_writes /. float_of_int d.E.wp_disk_writes
    | _ -> 0.0
  in
  Stdlib.Buffer.add_string b
    (Printf.sprintf
       "      ],\n      \"writes_per_disk_op\": %.1f,\n      \
        \"crash\": {\"points\": %d, \"failures\": %d, \"durable_min\": %d, \
        \"durable_max\": %d}\n    }"
       writes_per_op crash.C.r_points
       (List.length crash.C.r_failures)
       crash.C.r_durable_min crash.C.r_durable_max);
  Stdlib.Buffer.contents b

let run_write ?(label = "current") ?(out = "BENCH_write.json")
    ?(crash_runs = 1000) () =
  Printf.printf
    "\n== Delayed write-back: clustering + CAWL (label: %s) ==\n%!" label;
  let module E = Iolite_workload.Experiments in
  let module C = Iolite_workload.Crash in
  let points = E.write_seq_point () :: E.write_cawl_sweep () in
  E.print_write points;
  Printf.printf "\n  crash harness: %d randomized crash points...\n%!"
    crash_runs;
  let crash = C.run_many ~runs:crash_runs () in
  C.print crash;
  append_json_text ~benchmark:"write-back"
    ~units:
      "simulated seconds (write_s); MB/s of simulated time (mbps); counts \
       and bytes otherwise"
    ~out
    ~run_json:(write_json_of_run ~label ~crash points)

(* ------------------------------------------------------------------ *)
(* NVMM second cache tier                                              *)
(* ------------------------------------------------------------------ *)

(* Fig. 10 revisited on a small machine: working-set sweeps well past
   the DRAM budget, once DRAM-only (the recorded baseline — the capacity
   knee sits at the io budget) and once with the tier armed (the knee
   moves out to the tier budget; misses past DRAM promote at NVMM speed
   instead of paying disk positioning). The probe records the three
   latency classes for one small file — DRAM hit, warm tier hit, cold
   disk fill — whose ordering and spread CI asserts. *)

let tier_json_of_run ~label ?probe points =
  let module E = Iolite_workload.Experiments in
  let b = Stdlib.Buffer.create 1024 in
  Stdlib.Buffer.add_string b
    (Printf.sprintf "    {\n      \"label\": %S,\n      \"entries\": [\n" label);
  List.iteri
    (fun i p ->
      Stdlib.Buffer.add_string b
        (Printf.sprintf
           "        {\"variant\": %S, \"ws_mb\": %d, \"mbps\": %.2f, \
            \"dram_hits\": %d, \"dram_evictions\": %d, \"tier_hit\": %d, \
            \"tier_miss\": %d, \"tier_demote\": %d, \"tier_promote\": %d, \
            \"tier_wb_stage\": %d, \"tier_evict\": %d, \"disk_reads\": \
            %d}%s\n"
           p.E.tp_label p.E.tp_ws_mb p.E.tp_mbps p.E.tp_dram_hits
           p.E.tp_dram_evictions p.E.tp_tier_hit p.E.tp_tier_miss
           p.E.tp_tier_demote p.E.tp_tier_promote p.E.tp_tier_stage
           p.E.tp_tier_evict p.E.tp_disk_reads
           (if i = List.length points - 1 then "" else ",")))
    points;
  (match probe with
  | None -> Stdlib.Buffer.add_string b "      ]\n    }"
  | Some pr ->
    Stdlib.Buffer.add_string b
      (Printf.sprintf
         "      ],\n      \"probe\": {\"dram_hit_s\": %.6f, \
          \"warm_tier_hit_s\": %.6f, \"cold_disk_fill_s\": %.6f, \
          \"speedup\": %.2f, \"demote\": %d, \"promote\": %d, \
          \"wb_stage\": %d}\n    }"
         pr.E.pr_dram_hit_s pr.E.pr_tier_hit_s pr.E.pr_cold_disk_s
         pr.E.pr_speedup pr.E.pr_demote pr.E.pr_promote pr.E.pr_stage));
  Stdlib.Buffer.contents b

let run_tier ?(label = "current") ?(out = "BENCH_tier.json") ?(scale = 1.0) ()
    =
  Printf.printf "\n== NVMM second tier: working-set sweep (label: %s) ==\n%!"
    label;
  let module E = Iolite_workload.Experiments in
  let points = E.tier_sweep ~scale () in
  Gc.full_major ();
  let probe = E.tier_probe_run () in
  E.print_tier points probe;
  let baseline, tiered =
    List.partition (fun p -> p.E.tp_label = "dram-only") points
  in
  let units =
    "Mb/s of simulated time (mbps); simulated seconds (probe *_s); counts \
     otherwise"
  in
  append_json_text ~benchmark:"nvmm-tier" ~units ~out
    ~run_json:(tier_json_of_run ~label:(label ^ " dram-baseline") baseline);
  append_json_text ~benchmark:"nvmm-tier" ~units ~out
    ~run_json:(tier_json_of_run ~label:(label ^ " tiered") ~probe tiered)

(* ------------------------------------------------------------------ *)
(* Paper figures                                                       *)
(* ------------------------------------------------------------------ *)

let run_figures ?(metrics = false) ?trace_out scale =
  Printf.printf
    "\n== Paper reproduction: Figs. 3-13 (simulated 1999 testbed; scale %.2f) ==\n"
    scale;
  let module E = Iolite_workload.Experiments in
  let sink =
    match trace_out with
    | None -> None
    | Some _ -> Some (Trace.Sink.create ())
  in
  E.set_observability ~metrics ?sink ();
  Fun.protect
    ~finally:(fun () ->
      (match (sink, trace_out) with
      | Some s, Some path ->
        Trace.Sink.write s path;
        Printf.printf "  wrote %d trace events to %s\n%!"
          (Trace.Sink.count s) path
      | _ -> ());
      E.set_observability ())
    (fun () -> E.run_all ~scale ())

let () =
  match Array.to_list Sys.argv with
  | _ :: "micro" :: _ -> run_micro ()
  | _ :: "agg" :: rest ->
    let label = match rest with l :: _ -> l | [] -> "current" in
    let out = match rest with _ :: o :: _ -> o | _ -> "BENCH_agg.json" in
    run_agg ~label ~out ()
  | _ :: "cksum" :: rest ->
    let label = match rest with l :: _ -> l | [] -> "current" in
    let out = match rest with _ :: o :: _ -> o | _ -> "BENCH_cksum.json" in
    let pieces =
      match rest with _ :: _ :: p :: _ -> int_of_string p | _ -> 1024
    in
    run_cksum ~label ~out ~pieces ()
  | _ :: "transfer" :: rest ->
    let label = match rest with l :: _ -> l | [] -> "current" in
    let out = match rest with _ :: o :: _ -> o | _ -> "BENCH_transfer.json" in
    let pieces =
      match rest with _ :: _ :: p :: _ -> int_of_string p | _ -> 1024
    in
    run_transfer ~label ~out ~pieces ()
  | _ :: "cache" :: rest ->
    let label = match rest with l :: _ -> l | [] -> "current" in
    let out = match rest with _ :: o :: _ -> o | _ -> "BENCH_cache.json" in
    let scales =
      match rest with _ :: _ :: n :: _ -> Some [ int_of_string n ] | _ -> None
    in
    run_cache ~label ~out ?scales ()
  | _ :: "obs" :: rest ->
    let label = match rest with l :: _ -> l | [] -> "current" in
    let out = match rest with _ :: o :: _ -> o | _ -> "BENCH_obs.json" in
    run_obs ~label ~out ()
  | _ :: "scale" :: rest ->
    (* scale [LABEL] [OUT] [CONNS,CONNS,...] *)
    let label = match rest with l :: _ -> l | [] -> "current" in
    let out = match rest with _ :: o :: _ -> o | _ -> "BENCH_scale.json" in
    let conns =
      match rest with
      | _ :: _ :: c :: _ ->
        Some (List.map int_of_string (String.split_on_char ',' c))
      | _ -> None
    in
    run_scale ~label ~out ?conns ()
  | _ :: "async" :: rest ->
    (* async [LABEL] [OUT] [SCALE] *)
    let label = match rest with l :: _ -> l | [] -> "current" in
    let out = match rest with _ :: o :: _ -> o | _ -> "BENCH_async.json" in
    let scale =
      match rest with _ :: _ :: s :: _ -> float_of_string s | _ -> 1.0
    in
    run_async ~label ~out ~scale ()
  | _ :: "write" :: rest ->
    (* write [LABEL] [OUT] [CRASH_RUNS] *)
    let label = match rest with l :: _ -> l | [] -> "current" in
    let out = match rest with _ :: o :: _ -> o | _ -> "BENCH_write.json" in
    let crash_runs =
      match rest with _ :: _ :: n :: _ -> Some (int_of_string n) | _ -> None
    in
    run_write ~label ~out ?crash_runs ()
  | _ :: "tier" :: rest ->
    (* tier [LABEL] [OUT] [SCALE] *)
    let label = match rest with l :: _ -> l | [] -> "current" in
    let out = match rest with _ :: o :: _ -> o | _ -> "BENCH_tier.json" in
    let scale =
      match rest with _ :: _ :: s :: _ -> float_of_string s | _ -> 1.0
    in
    run_tier ~label ~out ~scale ()
  | _ :: "figures" :: rest ->
    (* figures [SCALE] [--metrics] [--trace FILE] *)
    let scale = ref 0.5 in
    let metrics = ref false in
    let trace_out = ref None in
    let rec parse = function
      | [] -> ()
      | "--metrics" :: tl ->
        metrics := true;
        parse tl
      | "--trace" :: file :: tl ->
        trace_out := Some file;
        parse tl
      | s :: tl ->
        scale := float_of_string s;
        parse tl
    in
    parse rest;
    run_figures ~metrics:!metrics ?trace_out:!trace_out !scale
  | _ ->
    run_micro ();
    run_figures 0.5
