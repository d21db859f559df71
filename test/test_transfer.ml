(* Warm-path cross-domain transfer: chunk-set memos and grant epochs.

   The fast path (pool grant epochs + memoized distinct-chunk sets) must
   make exactly the decisions the slice-walking oracle makes, and every
   event that can invalidate a coverage record — ACL narrowing, chunk
   destruction, fresh-chunk allocation, pageout reclaim — must push the
   next transfer back through the cold walk. *)

open Iolite_core
module Mem = Iolite_mem
module Vm = Iolite_mem.Vm
module Pdomain = Iolite_mem.Pdomain
module Metrics = Iolite_obs.Metrics

let mk () =
  let sys = Iosys.create ~capacity:(32 * 1024 * 1024) () in
  let alice = Iosys.new_domain sys ~name:"alice" in
  let bob = Iosys.new_domain sys ~name:"bob" in
  let carol = Iosys.new_domain sys ~name:"carol" in
  let pool_a =
    Iobuf.Pool.create sys ~name:"pa"
      ~acl:(Vm.Only (Pdomain.Set.of_list [ alice; bob ]))
  in
  let pool_b =
    Iobuf.Pool.create sys ~name:"pb"
      ~acl:(Vm.Only (Pdomain.Set.singleton alice))
  in
  (sys, alice, bob, carol, pool_a, pool_b)

let counter sys name = Metrics.get (Iosys.metrics sys) name

(* ------------------------------------------------------------------ *)
(* Directed: counters and the warm/cold split                          *)
(* ------------------------------------------------------------------ *)

let test_warm_after_cold () =
  let sys, alice, _, _, pool_a, _ = mk () in
  let agg = Iobuf.Agg.of_string pool_a ~producer:alice (String.make 5000 'x') in
  let reader = Iosys.new_domain sys ~name:"reader-warm" in
  (* reader is not on the ACL of pool_a: its first transfer must fault
     and must never record coverage. *)
  (match Transfer.grant sys agg ~to_:reader with
  | () -> Alcotest.fail "stranger granted"
  | exception Vm.Protection_fault _ -> ());
  (* alice: first send walks and maps, records coverage; the rest are
     warm. *)
  let cold0 = counter sys "transfer.cold_walks" in
  let a1 = Transfer.send sys agg ~to_:alice in
  Alcotest.(check int) "first send is cold" (cold0 + 1)
    (counter sys "transfer.cold_walks");
  let warm0 = counter sys "transfer.warm_hits" in
  let maps0 = counter sys "vm.map_read" in
  let a2 = Transfer.send sys agg ~to_:alice in
  Transfer.check_readable sys alice agg;
  Alcotest.(check int) "two warm hits" (warm0 + 2)
    (counter sys "transfer.warm_hits");
  Alcotest.(check int) "warm transfers cost no map ops" maps0
    (counter sys "vm.map_read");
  List.iter Iobuf.Agg.free [ agg; a1; a2 ]

let test_epoch_covers_api () =
  let sys, alice, _, _, pool_a, _ = mk () in
  let agg = Iobuf.Agg.of_string pool_a ~producer:alice "covered" in
  Alcotest.(check bool) "no coverage before any transfer" false
    (Iobuf.Pool.epoch_covers pool_a alice);
  Transfer.grant sys agg ~to_:alice;
  Alcotest.(check bool) "coverage after cold walk" true
    (Iobuf.Pool.epoch_covers pool_a alice);
  let e = Iobuf.Pool.epoch pool_a in
  (* Force a fresh chunk: the pool's only chunk is held by [agg], so a
     chunk-sized allocation cannot fit and must mint a new one. *)
  let b = Iobuf.Pool.alloc pool_a ~producer:alice Iobuf.Pool.max_alloc in
  Alcotest.(check bool) "fresh chunk advances the epoch" true
    (Iobuf.Pool.epoch pool_a > e);
  Alcotest.(check bool) "fresh chunk invalidates coverage" false
    (Iobuf.Pool.epoch_covers pool_a alice);
  Iobuf.Buffer.decr_ref b;
  Iobuf.Agg.free agg

(* ------------------------------------------------------------------ *)
(* Directed: epoch invalidation still raises Protection_fault          *)
(* ------------------------------------------------------------------ *)

let test_acl_narrowing_faults () =
  let sys, alice, bob, _, pool_a, _ = mk () in
  let agg = Iobuf.Agg.of_string pool_a ~producer:alice (String.make 3000 'y') in
  let b1 = Transfer.send sys agg ~to_:bob in
  let b2 = Transfer.send sys agg ~to_:bob in
  (* bob is warm now. Narrow the pool to alice only: bob's mappings are
     torn down and his coverage record dies with the epoch. *)
  Alcotest.(check bool) "bob covered pre-narrowing" true
    (Iobuf.Pool.epoch_covers pool_a bob);
  Iobuf.Pool.restrict_acl pool_a (Vm.Only (Pdomain.Set.singleton alice));
  Alcotest.(check bool) "narrowing kills coverage" false
    (Iobuf.Pool.epoch_covers pool_a bob);
  (match Transfer.grant sys agg ~to_:bob with
  | () -> Alcotest.fail "grant after ACL narrowing must fault"
  | exception Vm.Protection_fault _ -> ());
  (match Transfer.check_readable sys bob agg with
  | () -> Alcotest.fail "check_readable after ACL narrowing must fault"
  | exception Vm.Protection_fault _ -> ());
  (* alice is still on the ACL; she re-walks (her record also died) and
     re-records. *)
  let a1 = Transfer.send sys agg ~to_:alice in
  Transfer.check_readable sys alice agg;
  List.iter Iobuf.Agg.free [ agg; b1; b2; a1 ]

let test_destroy_faults () =
  let sys, alice, bob, _, pool_a, _ = mk () in
  let agg = Iobuf.Agg.of_string pool_a ~producer:alice "doomed" in
  let b1 = Transfer.send sys agg ~to_:bob in
  Alcotest.(check bool) "bob covered" true (Iobuf.Pool.epoch_covers pool_a bob);
  List.iter Iobuf.Agg.free [ agg; b1 ];
  Iobuf.Pool.destroy pool_a;
  Alcotest.(check bool) "destroy kills coverage" false
    (Iobuf.Pool.epoch_covers pool_a bob);
  (* The pool mints a fresh chunk for the next allocation; bob holds no
     mapping on it, so a stale warm record would be a soundness hole. *)
  let agg2 = Iobuf.Agg.of_string pool_a ~producer:alice "reborn" in
  (match Transfer.check_readable sys bob agg2 with
  | () -> Alcotest.fail "check_readable on post-destroy chunk must fault"
  | exception Vm.Protection_fault _ -> ());
  Iobuf.Agg.free agg2

let test_fresh_chunk_faults () =
  let sys, alice, bob, _, pool_a, _ = mk () in
  let agg = Iobuf.Agg.of_string pool_a ~producer:alice "orig" in
  let b1 = Transfer.send sys agg ~to_:bob in
  Alcotest.(check bool) "bob covered" true (Iobuf.Pool.epoch_covers pool_a bob);
  (* Mint a fresh chunk while bob's record exists; the new chunk is not
     mapped by bob, so transfers drawing on it must go cold — and
     check_readable (which never maps) must fault. *)
  let big = Iobuf.Pool.alloc pool_a ~producer:alice Iobuf.Pool.max_alloc in
  Iobuf.Buffer.seal big;
  let agg2 = Iobuf.Agg.of_buffer_owned big in
  (match Transfer.check_readable sys bob agg2 with
  | () -> Alcotest.fail "check_readable on fresh chunk must fault"
  | exception Vm.Protection_fault _ -> ());
  (* grant does map (bob is on the ACL), so it re-covers. *)
  Transfer.grant sys agg2 ~to_:bob;
  Transfer.check_readable sys bob agg2;
  List.iter Iobuf.Agg.free [ agg; b1; agg2 ]

(* ------------------------------------------------------------------ *)
(* Directed: reclaim early-exit and its epoch bump                     *)
(* ------------------------------------------------------------------ *)

let test_reclaim_stops_early () =
  let sys, alice, _, _, pool_a, _ = mk () in
  (* Build free lists with resident memory: packed (sub-page) buffers
     pin their chunk's memory even after the chunk drains, unlike
     whole-chunk buffers whose pages return immediately. Allocation is
     size-classed, so four buffers of four different classes land on
     four distinct chunks, and freeing them queues four resident chunks
     on the class free lists. *)
  let smalls = ref [] in
  List.iter
    (fun size ->
      let s = Iobuf.Pool.alloc pool_a ~producer:alice size in
      Iobuf.Buffer.seal s;
      smalls := s :: !smalls)
    [ 128; 256; 512; 1024 ];
  List.iter Iobuf.Buffer.decr_ref !smalls;
  let resident0 = Iobuf.Pool.resident_bytes pool_a in
  Alcotest.(check bool) "free lists hold resident memory" true
    (resident0 >= 4 * Mem.Page.page_size);
  (* Asking for one byte must release exactly one chunk's memory, not
     sweep the whole free list. *)
  let freed = Iobuf.Pool.reclaim pool_a 1 in
  Alcotest.(check int) "one chunk released" Mem.Page.chunk_size freed;
  Alcotest.(check int) "other chunks untouched" (resident0 - freed)
    (Iobuf.Pool.resident_bytes pool_a);
  (* A reclaim that freed something is conservative about coverage. *)
  let agg = Iobuf.Agg.of_string pool_a ~producer:alice "post-reclaim" in
  Transfer.grant sys agg ~to_:alice;
  let e = Iobuf.Pool.epoch pool_a in
  let freed2 = Iobuf.Pool.reclaim pool_a 1 in
  Alcotest.(check bool) "something freed" true (freed2 > 0);
  Alcotest.(check bool) "reclaim advances the epoch" true
    (Iobuf.Pool.epoch pool_a > e);
  (* And a no-op reclaim (nothing resident left to free) leaves the
     epoch alone. *)
  while Iobuf.Pool.reclaim pool_a max_int > 0 do
    ()
  done;
  let e2 = Iobuf.Pool.epoch pool_a in
  ignore (Iobuf.Pool.reclaim pool_a 1);
  Alcotest.(check int) "no-op reclaim keeps the epoch" e2
    (Iobuf.Pool.epoch pool_a);
  Iobuf.Agg.free agg

(* ------------------------------------------------------------------ *)
(* Directed: the warm path through a real consumer (zero-copy pipe)    *)
(* ------------------------------------------------------------------ *)

let test_pipe_roundtrips_go_warm () =
  let sys, _, _, _, _, _ = mk () in
  let writer = Iosys.new_domain sys ~name:"pipe-writer" in
  let reader = Iosys.new_domain sys ~name:"pipe-reader" in
  let reader_pool =
    Iobuf.Pool.create sys ~name:"rp" ~acl:(Vm.Only (Pdomain.Set.singleton reader))
  in
  let pipe =
    Iolite_ipc.Pipe.create sys ~mode:Iolite_ipc.Pipe.Zero_copy ~writer ~reader
      ~reader_pool ()
  in
  let spool = Iolite_ipc.Pipe.stream_pool pipe in
  let roundtrip () =
    let agg = Iobuf.Agg.of_string spool ~producer:writer (String.make 2000 'p') in
    Iolite_ipc.Pipe.write pipe agg;
    match Iolite_ipc.Pipe.read pipe with
    | Some got -> Iobuf.Agg.free got
    | None -> Alcotest.fail "pipe drained unexpectedly"
  in
  (* Cold roundtrips while the stream pool grows; then the pool recycles
     its chunk and the stream settles. *)
  roundtrip ();
  roundtrip ();
  let maps0 = counter sys "vm.map_read" in
  let warm0 = counter sys "transfer.warm_hits" in
  for _ = 1 to 10 do
    roundtrip ()
  done;
  Alcotest.(check int) "warm roundtrips cost no map ops" maps0
    (counter sys "vm.map_read");
  (* Each roundtrip makes two transfer decisions: the writer's grant and
     the reader's delivery check. *)
  Alcotest.(check int) "all 20 decisions warm" (warm0 + 20)
    (counter sys "transfer.warm_hits")

(* ------------------------------------------------------------------ *)
(* Directed: chunk recycling keeps warm grant epochs                   *)
(* ------------------------------------------------------------------ *)

let test_recycle_keeps_warm_epochs () =
  let sys, alice, bob, _, pool_a, _ = mk () in
  let agg = Iobuf.Agg.of_string pool_a ~producer:alice (String.make 2000 'r') in
  let b1 = Transfer.send sys agg ~to_:bob in
  Alcotest.(check bool) "bob covered" true (Iobuf.Pool.epoch_covers pool_a bob);
  let e = Iobuf.Pool.epoch pool_a in
  let fresh0 = counter sys "pool.fresh" in
  let recycled0 = counter sys "pool.recycled" in
  (* Drain every buffer: the chunk parks on its class free list. *)
  List.iter Iobuf.Agg.free [ agg; b1 ];
  Alcotest.(check bool) "chunk parked for reuse" true
    (Iobuf.Pool.free_chunk_count pool_a > 0);
  (* The next fill cycle runs on the recycled chunk, not a fresh one. *)
  let agg2 = Iobuf.Agg.of_string pool_a ~producer:alice (String.make 2000 's') in
  Alcotest.(check int) "no fresh chunk minted" fresh0 (counter sys "pool.fresh");
  Alcotest.(check bool) "reuse went through recycle" true
    (counter sys "pool.recycled" > recycled0);
  (* Recycling kept the VM mappings and the grant epoch: bob's coverage
     record survives and the next transfer stays warm. *)
  Alcotest.(check int) "epoch survives reuse" e (Iobuf.Pool.epoch pool_a);
  Alcotest.(check bool) "bob still covered" true
    (Iobuf.Pool.epoch_covers pool_a bob);
  let warm0 = counter sys "transfer.warm_hits" in
  let cold0 = counter sys "transfer.cold_walks" in
  let b2 = Transfer.send sys agg2 ~to_:bob in
  Alcotest.(check int) "send after recycle is warm" (warm0 + 1)
    (counter sys "transfer.warm_hits");
  Alcotest.(check int) "no cold walk" cold0 (counter sys "transfer.cold_walks");
  List.iter Iobuf.Agg.free [ agg2; b2 ]

(* ------------------------------------------------------------------ *)
(* Property: fast path agrees with the slice-walking oracle            *)
(* ------------------------------------------------------------------ *)

(* The oracle's grant decision from first principles: every distinct
   chunk's ACL must admit the domain. *)
let oracle_admits domain agg =
  let ok = ref true in
  Transfer.iter_chunks agg (fun c ->
      match Vm.chunk_acl c with
      | Vm.Public -> ()
      | Vm.Only set -> if not (Pdomain.Set.mem domain set) then ok := false);
  !ok

let sorted_chunk_ids iter agg =
  let ids = ref [] in
  iter agg (fun c -> ids := Vm.chunk_id c :: !ids);
  List.sort compare !ids

let rec distinct = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> a <> b && distinct rest

let prop_fast_path_matches_oracle =
  QCheck.Test.make ~name:"grant/readability agree with slice-walk oracle"
    ~count:150
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 10) (pair bool (int_range 1 400)))
        bool)
    (fun (pieces, self_concat) ->
      let sys, alice, bob, carol, pool_a, pool_b = mk () in
      let parts =
        List.map
          (fun (use_b, n) ->
            Iobuf.Agg.of_string
              (if use_b then pool_b else pool_a)
              ~producer:alice (String.make n 'q'))
          pieces
      in
      let base = Iobuf.Agg.concat_list parts in
      List.iter Iobuf.Agg.free parts;
      (* Optionally double the rope onto itself: shared subtrees and
         repeated chunks exercise the dedup on both sides. *)
      let agg =
        if self_concat then begin
          let doubled = Iobuf.Agg.concat base base in
          Iobuf.Agg.free base;
          doubled
        end
        else base
      in
      (* 1. The memoized distinct-chunk set is exactly the oracle's. *)
      let fast_ids = sorted_chunk_ids Iobuf.Agg.iter_distinct_chunks agg in
      let oracle_ids = sorted_chunk_ids Transfer.iter_chunks agg in
      let sets_agree = fast_ids = oracle_ids && distinct fast_ids in
      (* 2. Grant and readability decisions agree with the oracle for
         every domain, cold and warm. *)
      let decisions_agree domain =
        let expect = oracle_admits domain agg in
        let attempt f =
          match f () with
          | () -> true
          | exception Vm.Protection_fault _ -> false
        in
        let g1 = attempt (fun () -> Transfer.grant sys agg ~to_:domain) in
        (* Repeat: the second decision may ride the epoch fast path and
           must not change the answer. *)
        let g2 = attempt (fun () -> Transfer.grant sys agg ~to_:domain) in
        let r = attempt (fun () -> Transfer.check_readable sys domain agg) in
        g1 = expect && g2 = expect
        && r = expect (* granted implies readable; refused stays refused:
                         a failed grant maps only the admissible prefix,
                         never the faulting chunk *)
      in
      let all_agree =
        List.for_all decisions_agree [ alice; bob; carol ]
      in
      Iobuf.Agg.free agg;
      sets_agree && all_agree)

(* ------------------------------------------------------------------ *)
(* Coverage witness: O(1) "not covered" answers stay exact             *)
(* ------------------------------------------------------------------ *)

let test_witness_chunk_mapped_later () =
  let sys, alice, bob, _, pool_a, _ = mk () in
  let vm = Iosys.vm sys in
  let agg = Iobuf.Agg.of_string pool_a ~producer:alice "first chunk" in
  Transfer.grant sys agg ~to_:bob;
  Alcotest.(check bool) "bob covered" true (Iobuf.Pool.epoch_covers pool_a bob);
  (* A fresh chunk bob has never mapped: it becomes bob's witness, and
     asking again while it stays unmapped must keep answering "no". *)
  let big = Iobuf.Pool.alloc pool_a ~producer:alice Iobuf.Pool.max_alloc in
  for _ = 1 to 3 do
    Iobuf.Pool.note_domain_coverage pool_a bob;
    Alcotest.(check bool) "unmapped fresh chunk blocks coverage" false
      (Iobuf.Pool.epoch_covers pool_a bob)
  done;
  (* Bob maps the witness chunk directly, without a transfer: the next
     check must notice and record coverage. *)
  Vm.map_read vm bob (Iobuf.Buffer.chunk big);
  Iobuf.Pool.note_domain_coverage pool_a bob;
  Alcotest.(check bool) "mapping the witness restores coverage" true
    (Iobuf.Pool.epoch_covers pool_a bob);
  Iobuf.Buffer.decr_ref big;
  Iobuf.Agg.free agg

(* Random operation sequences over two pools and three domains. After
   every operation each (pool, domain) pair goes through
   [note_domain_coverage], and [epoch_covers] must then equal the
   oracle: every chunk of every buffer allocated from the pool since its
   last [destroy] is readable by the domain. *)
type cov_op =
  | Alloc of int * int (* pool, size *)
  | Free of int (* live aggregate *)
  | Grant of int * int (* live aggregate, domain *)
  | Map of int * int * int (* pool, chunk, domain: a direct read mapping *)
  | Restrict of int * int (* pool, ACL: a subset mask, 8 = public *)
  | Reclaim of int * bool (* pool, everything? *)
  | Destroy of int

let show_cov_op = function
  | Alloc (p, n) -> Printf.sprintf "alloc(p%d,%d)" p n
  | Free i -> Printf.sprintf "free(%d)" i
  | Grant (i, d) -> Printf.sprintf "grant(%d,d%d)" i d
  | Map (p, c, d) -> Printf.sprintf "map(p%d,c%d,d%d)" p c d
  | Restrict (p, m) -> Printf.sprintf "restrict(p%d,%d)" p m
  | Reclaim (p, all) -> Printf.sprintf "reclaim(p%d,%b)" p all
  | Destroy p -> Printf.sprintf "destroy(p%d)" p

let gen_cov_op =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map2
            (fun p n -> Alloc (p, n))
            (int_bound 1)
            (frequency [ (1, return Iobuf.Pool.max_alloc); (3, int_range 1 5000) ]) );
        (2, map (fun i -> Free i) nat);
        (4, map2 (fun i d -> Grant (i, d)) nat (int_bound 2));
        (3, map3 (fun p c d -> Map (p, c, d)) (int_bound 1) nat (int_bound 2));
        (1, map2 (fun p m -> Restrict (p, m)) (int_bound 1) (int_bound 8));
        (1, map2 (fun p all -> Reclaim (p, all)) (int_bound 1) bool);
        (1, map (fun p -> Destroy p) (int_bound 1));
      ])

let prop_coverage_matches_oracle =
  QCheck.Test.make ~name:"coverage witness matches the all-chunks oracle"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 80) (make ~print:show_cov_op gen_cov_op))
    (fun ops ->
      let sys, alice, bob, carol, pool_a, pool_b = mk () in
      let vm = Iosys.vm sys in
      let producer = Iosys.kernel sys in
      let domains = [| alice; bob; carol |] in
      let pools = [| pool_a; pool_b |] in
      (* Chunks of buffers allocated from each pool since its last
         destroy, and the live aggregates with their pool. *)
      let minted = [| []; [] |] in
      let live = ref [] in
      let nth_live i = List.nth !live (i mod List.length !live) in
      let drop_live x = live := List.filter (fun y -> y != x) !live in
      let oracle pi d = List.for_all (fun c -> Vm.readable vm d c) minted.(pi) in
      let step op =
        match op with
        | Alloc (pi, size) ->
          let b = Iobuf.Pool.alloc pools.(pi) ~producer size in
          Iobuf.Buffer.seal b;
          minted.(pi) <- Iobuf.Buffer.chunk b :: minted.(pi);
          live := (pi, Iobuf.Agg.of_buffer_owned b) :: !live
        | Free i ->
          if !live <> [] then begin
            let ((_, a) as x) = nth_live i in
            Iobuf.Agg.free a;
            drop_live x
          end
        | Grant (i, d) -> (
          if !live <> [] then
            let _, a = nth_live i in
            try Transfer.grant sys a ~to_:domains.(d)
            with Vm.Protection_fault _ -> ())
        | Map (pi, c, d) -> (
          match minted.(pi) with
          | [] -> ()
          | cs -> (
            let chunk = List.nth cs (c mod List.length cs) in
            try Vm.map_read vm domains.(d) chunk
            with Vm.Protection_fault _ -> ()))
        | Restrict (pi, m) ->
          let acl =
            if m = 8 then Vm.Public
            else
              Vm.Only
                (Pdomain.Set.of_list
                   (List.filteri (fun k _ -> m land (1 lsl k) <> 0)
                      (Array.to_list domains)))
          in
          Iobuf.Pool.restrict_acl pools.(pi) acl
        | Reclaim (pi, all) ->
          ignore (Iobuf.Pool.reclaim pools.(pi) (if all then max_int else 1))
        | Destroy pi ->
          List.iter
            (fun ((p, a) as x) ->
              if p = pi then begin
                Iobuf.Agg.free a;
                drop_live x
              end)
            !live;
          Iobuf.Pool.destroy pools.(pi);
          minted.(pi) <- []
      in
      List.iteri
        (fun n op ->
          step op;
          Array.iteri
            (fun pi p ->
              Array.iteri
                (fun di d ->
                  Iobuf.Pool.note_domain_coverage p d;
                  if Iobuf.Pool.epoch_covers p d <> oracle pi d then
                    QCheck.Test.fail_reportf
                      "step %d %s: pool %d domain %d covered=%b oracle=%b" n
                      (show_cov_op op) pi di
                      (Iobuf.Pool.epoch_covers p d)
                      (oracle pi d))
                domains)
            pools)
        ops;
      List.iter (fun (_, a) -> Iobuf.Agg.free a) !live;
      true)

let suites =
  [
    ( "core.transfer.warm",
      [
        Alcotest.test_case "warm after cold" `Quick test_warm_after_cold;
        Alcotest.test_case "epoch covers api" `Quick test_epoch_covers_api;
        Alcotest.test_case "acl narrowing faults" `Quick test_acl_narrowing_faults;
        Alcotest.test_case "destroy faults" `Quick test_destroy_faults;
        Alcotest.test_case "fresh chunk faults" `Quick test_fresh_chunk_faults;
        Alcotest.test_case "reclaim stops early" `Quick test_reclaim_stops_early;
        Alcotest.test_case "pipe goes warm" `Quick test_pipe_roundtrips_go_warm;
        Alcotest.test_case "recycle keeps warm epochs" `Quick
          test_recycle_keeps_warm_epochs;
        Alcotest.test_case "witness chunk mapped later" `Quick
          test_witness_chunk_mapped_later;
      ] );
    ( "core.transfer.props",
      [
        QCheck_alcotest.to_alcotest prop_fast_path_matches_oracle;
        QCheck_alcotest.to_alcotest prop_coverage_matches_oracle;
      ] );
  ]
