open Iolite_core
module Mem = Iolite_mem

let mk () =
  let sys = Iosys.create ~capacity:(32 * 1024 * 1024) () in
  let app = Iosys.new_domain sys ~name:"app" in
  let pool =
    Iobuf.Pool.create sys ~name:"test" ~acl:(Mem.Vm.Only (Mem.Pdomain.Set.singleton app))
  in
  (sys, app, pool)

let alloc_str pool producer s =
  Iobuf.Agg.of_string pool ~producer s

let agg_str agg =
  (* Uncharged readback for assertions. *)
  let buf = Buffer.create 16 in
  Iobuf.Agg.iter_slices agg (fun sl ->
      let data, off = Iobuf.Slice.view sl in
      Buffer.add_subbytes buf data off (Iobuf.Slice.len sl));
  Buffer.contents buf

let test_roundtrip () =
  let _, app, pool = mk () in
  let a = alloc_str pool app "hello, world" in
  Alcotest.(check string) "contents" "hello, world" (agg_str a);
  Alcotest.(check int) "length" 12 (Iobuf.Agg.length a);
  Iobuf.Agg.free a

let test_empty () =
  let _, app, pool = mk () in
  let a = alloc_str pool app "" in
  Alcotest.(check int) "empty length" 0 (Iobuf.Agg.length a);
  Alcotest.(check int) "no slices" 0 (Iobuf.Agg.num_slices a);
  Iobuf.Agg.free a

let test_immutability () =
  let _, app, pool = mk () in
  let b = Iobuf.Pool.alloc pool ~producer:app 10 in
  Iobuf.Buffer.blit_string b ~src:"0123456789" ~src_off:0 ~dst_off:0 ~len:10;
  Iobuf.Buffer.seal b;
  Alcotest.check_raises "write after seal" Iobuf.Buffer.Immutable (fun () ->
      Iobuf.Buffer.blit_string b ~src:"x" ~src_off:0 ~dst_off:0 ~len:1);
  Alcotest.check_raises "fill after seal" Iobuf.Buffer.Immutable (fun () ->
      Iobuf.Buffer.fill b (fun data ~dst_off ~len -> Bytes.fill data dst_off len 'x'));
  Iobuf.Buffer.decr_ref b

let test_concat () =
  let _, app, pool = mk () in
  let a = alloc_str pool app "foo" in
  let b = alloc_str pool app "bar" in
  let c = Iobuf.Agg.concat a b in
  Alcotest.(check string) "concatenated" "foobar" (agg_str c);
  Alcotest.(check string) "a unchanged" "foo" (agg_str a);
  Iobuf.Agg.free a;
  Iobuf.Agg.free b;
  (* c still holds references; contents must survive its inputs. *)
  Alcotest.(check string) "c survives inputs" "foobar" (agg_str c);
  Iobuf.Agg.free c

let test_sub_and_split () =
  let _, app, pool = mk () in
  let a = alloc_str pool app "abcdefghij" in
  let mid = Iobuf.Agg.sub a ~off:3 ~len:4 in
  Alcotest.(check string) "sub" "defg" (agg_str mid);
  let l, r = Iobuf.Agg.split a ~at:6 in
  Alcotest.(check string) "left" "abcdef" (agg_str l);
  Alcotest.(check string) "right" "ghij" (agg_str r);
  List.iter Iobuf.Agg.free [ a; mid; l; r ]

let test_sub_invalid () =
  let _, app, pool = mk () in
  let a = alloc_str pool app "abc" in
  Alcotest.check_raises "out of range" (Invalid_argument "Agg.sub: range")
    (fun () -> ignore (Iobuf.Agg.sub a ~off:1 ~len:3));
  Iobuf.Agg.free a

let test_get () =
  let _, app, pool = mk () in
  let a = alloc_str pool app "xy" in
  let b = alloc_str pool app "z" in
  let c = Iobuf.Agg.concat a b in
  Alcotest.(check char) "first" 'x' (Iobuf.Agg.get c 0);
  Alcotest.(check char) "cross slice" 'z' (Iobuf.Agg.get c 2);
  List.iter Iobuf.Agg.free [ a; b; c ]

let test_use_after_free () =
  let _, app, pool = mk () in
  let a = alloc_str pool app "abc" in
  Iobuf.Agg.free a;
  Alcotest.check_raises "length after free" Iobuf.Agg.Use_after_free (fun () ->
      ignore (Iobuf.Agg.length a));
  Alcotest.check_raises "double free" Iobuf.Agg.Use_after_free (fun () ->
      Iobuf.Agg.free a)

let test_refcounting_returns_chunks () =
  let _, app, pool = mk () in
  let aggs = List.init 8 (fun i -> alloc_str pool app (String.make 1000 (Char.chr (65 + i)))) in
  Alcotest.(check int) "one chunk in use" 1 (Iobuf.Pool.chunk_count pool);
  List.iter Iobuf.Agg.free aggs;
  (* All buffers dead: the chunk is recycled in place and reusable. *)
  let b = Iobuf.Pool.alloc pool ~producer:app 64 in
  Alcotest.(check int) "no new chunk" 1 (Iobuf.Pool.chunk_count pool);
  Iobuf.Buffer.seal b;
  Iobuf.Buffer.decr_ref b

let test_generation_changes_on_reuse () =
  let _, app, pool = mk () in
  let a = alloc_str pool app (String.make 100 'a') in
  let uid_a =
    match Iobuf.Agg.slices a with
    | [ s ] -> fst (Iobuf.Slice.uid s)
    | _ -> Alcotest.fail "expected one slice"
  in
  Iobuf.Agg.free a;
  let b = alloc_str pool app (String.make 100 'b') in
  let uid_b =
    match Iobuf.Agg.slices b with
    | [ s ] -> fst (Iobuf.Slice.uid s)
    | _ -> Alcotest.fail "expected one slice"
  in
  Alcotest.(check int) "same chunk" uid_a.Iobuf.Buffer.chunk uid_b.Iobuf.Buffer.chunk;
  Alcotest.(check int) "same offset" uid_a.Iobuf.Buffer.offset uid_b.Iobuf.Buffer.offset;
  Alcotest.(check bool) "different generation" true
    (uid_a.Iobuf.Buffer.generation <> uid_b.Iobuf.Buffer.generation);
  Iobuf.Agg.free b

let test_large_string_spans_chunks () =
  let _, app, pool = mk () in
  let n = Iobuf.Pool.max_alloc + 1234 in
  let s = String.init n (fun i -> Char.chr (i mod 251)) in
  let a = alloc_str pool app s in
  Alcotest.(check int) "length" n (Iobuf.Agg.length a);
  Alcotest.(check int) "two slices" 2 (Iobuf.Agg.num_slices a);
  Alcotest.(check string) "content preserved" s (agg_str a);
  Iobuf.Agg.free a

let test_alloc_bounds () =
  let _, app, pool = mk () in
  Alcotest.(check bool) "zero size rejected" true
    (match Iobuf.Pool.alloc pool ~producer:app 0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "oversize rejected" true
    (match Iobuf.Pool.alloc pool ~producer:app (Iobuf.Pool.max_alloc + 1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_acl_rejected_producer () =
  let sys, _, _ = mk () in
  let outsider = Iosys.new_domain sys ~name:"outsider" in
  let member = Iosys.new_domain sys ~name:"member" in
  let pool =
    Iobuf.Pool.create sys ~name:"private" ~acl:(Mem.Vm.Only (Mem.Pdomain.Set.singleton member))
  in
  Alcotest.(check bool) "outsider cannot produce" true
    (match Iobuf.Pool.alloc pool ~producer:outsider 10 with
    | _ -> false
    | exception Mem.Vm.Protection_fault _ -> true)

let test_copy_accounting () =
  let sys, app, pool = mk () in
  let a = alloc_str pool app (String.make 500 'x') in
  let before = Iolite_obs.Metrics.get (Iosys.metrics sys) "bytes.copied" in
  let s = Iobuf.Agg.to_string sys a in
  let after = Iolite_obs.Metrics.get (Iosys.metrics sys) "bytes.copied" in
  Alcotest.(check int) "copy charged" 500 (after - before);
  Alcotest.(check int) "correct data" 500 (String.length s);
  Iobuf.Agg.free a

let test_fill_accounting () =
  let sys, app, pool = mk () in
  let before = Iolite_obs.Metrics.get (Iosys.metrics sys) "bytes.filled" in
  let a = alloc_str pool app (String.make 300 'x') in
  let after = Iolite_obs.Metrics.get (Iosys.metrics sys) "bytes.filled" in
  Alcotest.(check int) "fill charged once" 300 (after - before);
  Iobuf.Agg.free a

let test_transfer_maps_once () =
  let sys, app, pool = mk () in
  let reader = Iosys.new_domain sys ~name:"reader" in
  let pool2 =
    Iobuf.Pool.create sys ~name:"shared"
      ~acl:(Mem.Vm.Only (Mem.Pdomain.Set.of_list [ app; reader ]))
  in
  ignore pool;
  let a = Iobuf.Agg.of_string pool2 ~producer:app "payload" in
  let maps () =
    Iolite_obs.Metrics.get (Mem.Vm.metrics (Iosys.vm sys)) "vm.map_read"
  in
  let m0 = maps () in
  let recv = Transfer.send sys a ~to_:reader in
  let m1 = maps () in
  Alcotest.(check bool) "first transfer maps" true (m1 > m0);
  Transfer.check_readable sys reader recv;
  Alcotest.(check string) "receiver sees data" "payload" (agg_str recv);
  Iobuf.Agg.free recv;
  let again = Transfer.send sys a ~to_:reader in
  let m2 = maps () in
  Alcotest.(check int) "warm transfer costs no maps" m1 m2;
  Iobuf.Agg.free again;
  Iobuf.Agg.free a

let test_transfer_acl_fault () =
  let sys, app, pool = mk () in
  let stranger = Iosys.new_domain sys ~name:"stranger" in
  let a = Iobuf.Agg.of_string pool ~producer:app "secret" in
  Alcotest.(check bool) "stranger rejected" true
    (match Transfer.send sys a ~to_:stranger with
    | _ -> false
    | exception Mem.Vm.Protection_fault _ -> true);
  Iobuf.Agg.free a

let test_warm_recycling_no_vm_ops () =
  (* The fbufs property: steady-state alloc/transfer/free on a stream
     performs no VM map operations after warmup. *)
  let sys, app, pool = mk () in
  let reader = Iosys.new_domain sys ~name:"reader" in
  let pool =
    ignore pool;
    Iobuf.Pool.create sys ~name:"stream"
      ~acl:(Mem.Vm.Only (Mem.Pdomain.Set.of_list [ app; reader ]))
  in
  let counters = Mem.Vm.metrics (Iosys.vm sys) in
  let round () =
    let a = Iobuf.Agg.of_string pool ~producer:app (String.make 4096 'd') in
    let r = Transfer.send sys a ~to_:reader in
    Iobuf.Agg.free a;
    Iobuf.Agg.free r
  in
  round ();
  round ();
  let maps_before = Iolite_obs.Metrics.get counters "vm.map_read" in
  for _ = 1 to 50 do
    round ()
  done;
  let maps_after = Iolite_obs.Metrics.get counters "vm.map_read" in
  Alcotest.(check int) "zero maps in steady state" maps_before maps_after

let test_try_overwrite_unshared () =
  let sys, app, pool = mk () in
  let a = alloc_str pool app "immutable data here!" in
  Alcotest.(check bool) "unshared overwrite succeeds" true
    (Iobuf.Agg.try_overwrite sys a ~off:10 "DATA");
  Alcotest.(check string) "bytes changed" "immutable DATA here!" (agg_str a);
  Iobuf.Agg.free a

let test_try_overwrite_shared_refused () =
  let sys, app, pool = mk () in
  let a = alloc_str pool app "shared contents" in
  let d = Iobuf.Agg.dup a in
  Alcotest.(check bool) "shared overwrite refused" false
    (Iobuf.Agg.try_overwrite sys a ~off:0 "X");
  Alcotest.(check string) "unchanged" "shared contents" (agg_str a);
  Iobuf.Agg.free d;
  (* Once the other reference is gone, modification is permitted. *)
  Alcotest.(check bool) "exclusive again" true
    (Iobuf.Agg.try_overwrite sys a ~off:0 "X");
  Alcotest.(check string) "now changed" "Xhared contents" (agg_str a);
  Iobuf.Agg.free a

let test_try_overwrite_bumps_generation () =
  let sys, app, pool = mk () in
  let cache = Iolite_net.Cksum.Cache.create () in
  let a = alloc_str pool app (String.make 2048 'a') in
  let sum_before, _ = Iolite_net.Cksum.Cache.agg_sum cache a in
  Alcotest.(check bool) "overwrite ok" true
    (Iobuf.Agg.try_overwrite sys a ~off:0 (String.make 2048 'b'));
  let sum_after, computed = Iolite_net.Cksum.Cache.agg_sum cache a in
  Alcotest.(check bool) "identity changed: no stale cache hit" true
    (computed = 2048);
  Alcotest.(check bool) "checksum reflects new data" true
    (sum_after <> sum_before);
  Alcotest.(check int) "matches fresh computation"
    (Iolite_net.Cksum.of_agg a) sum_after;
  Iobuf.Agg.free a

let test_try_overwrite_partial_sharing () =
  (* Only part of the aggregate is shared: overwriting the shared part
     fails, the exclusive part succeeds. *)
  let sys, app, pool = mk () in
  let shared = alloc_str pool app "SHARED" in
  let private_ = alloc_str pool app "private" in
  let both = Iobuf.Agg.concat shared private_ in
  Iobuf.Agg.free private_;
  (* [shared]'s buffer has 2 refs (shared + both); private has 1 (both). *)
  Alcotest.(check bool) "shared half refused" false
    (Iobuf.Agg.try_overwrite sys both ~off:0 "x");
  Alcotest.(check bool) "private half allowed" true
    (Iobuf.Agg.try_overwrite sys both ~off:6 "PRIVATE");
  Alcotest.(check string) "result" "SHAREDPRIVATE" (agg_str both);
  Iobuf.Agg.free shared;
  Iobuf.Agg.free both

let test_overwrite_structural_sharing () =
  (* Rope subtrees are shared structurally by concat/sub (not only by
     dup): a buffer reachable from a shared subtree is not exclusively
     held, so try_overwrite must refuse until the sharer is freed. *)
  let sys, app, pool = mk () in
  let a = alloc_str pool app "aaaaaaaa" in
  let b = alloc_str pool app "bbbbbbbb" in
  let c = Iobuf.Agg.concat a b in
  (* c shares a's and b's rope nodes. *)
  Alcotest.(check bool) "left half shared via a" false
    (Iobuf.Agg.try_overwrite sys c ~off:0 "XXXX");
  Alcotest.(check bool) "right half shared via b" false
    (Iobuf.Agg.try_overwrite sys c ~off:8 "YYYY");
  Alcotest.(check bool) "a's leaf shared via c" false
    (Iobuf.Agg.try_overwrite sys a ~off:0 "XXXX");
  Iobuf.Agg.free a;
  Alcotest.(check bool) "left half exclusive after a freed" true
    (Iobuf.Agg.try_overwrite sys c ~off:0 "XXXX");
  Alcotest.(check bool) "right half still shared" false
    (Iobuf.Agg.try_overwrite sys c ~off:8 "YYYY");
  Iobuf.Agg.free b;
  Alcotest.(check bool) "right half exclusive after b freed" true
    (Iobuf.Agg.try_overwrite sys c ~off:8 "YYYY");
  Alcotest.(check string) "contents" "XXXXaaaaYYYYbbbb" (agg_str c);
  (* A full-prefix sub shares the left subtree itself. *)
  let pre = Iobuf.Agg.sub c ~off:0 ~len:8 in
  Alcotest.(check bool) "prefix sub shares subtree" false
    (Iobuf.Agg.try_overwrite sys c ~off:0 "ZZZZ");
  (* A mid-range sub builds fresh leaves over the same buffers; the
     buffer refcounts still reveal the sharing. *)
  let mid = Iobuf.Agg.sub c ~off:4 ~len:8 in
  Alcotest.(check bool) "mid sub blocks via buffer refs" false
    (Iobuf.Agg.try_overwrite sys c ~off:10 "Q");
  Iobuf.Agg.free pre;
  Iobuf.Agg.free mid;
  Alcotest.(check bool) "exclusive again" true
    (Iobuf.Agg.try_overwrite sys c ~off:0 "ZZZZ");
  Iobuf.Agg.free c

let test_deep_append () =
  (* The stdiol/pipe/Flash pattern: many small appends. The rope must
     keep content identical to a string model and report num_slices in
     O(1). *)
  let _, app, pool = mk () in
  let model = Buffer.create 65536 in
  let piece_of i = String.make 32 (Char.chr (97 + (i mod 26))) in
  let acc = ref (Iobuf.Agg.empty ()) in
  for i = 1 to 1024 do
    let p = alloc_str pool app (piece_of i) in
    let next = Iobuf.Agg.concat !acc p in
    Iobuf.Agg.free !acc;
    Iobuf.Agg.free p;
    acc := next;
    Buffer.add_string model (piece_of i)
  done;
  Alcotest.(check int) "1024 slices" 1024 (Iobuf.Agg.num_slices !acc);
  Alcotest.(check int) "length" (1024 * 32) (Iobuf.Agg.length !acc);
  Alcotest.(check string) "content matches model" (Buffer.contents model)
    (agg_str !acc);
  (* O(log n) indexing agrees with the model at random spots. *)
  let rng = Iolite_util.Rng.create 7L in
  for _ = 1 to 200 do
    let i = Iolite_util.Rng.int rng (1024 * 32) in
    Alcotest.(check char) "get" (Buffer.nth model i) (Iobuf.Agg.get !acc i)
  done;
  let l, r = Iobuf.Agg.split !acc ~at:10000 in
  Alcotest.(check string) "split left"
    (String.sub (Buffer.contents model) 0 10000)
    (agg_str l);
  Alcotest.(check string) "split right"
    (String.sub (Buffer.contents model) 10000 ((1024 * 32) - 10000))
    (agg_str r);
  List.iter Iobuf.Agg.free [ !acc; l; r ]

(* Model-based randomized sequences: every live aggregate is paired with
   a plain-string model; random concat/sub/split/dup/free/overwrite
   plumbing must keep aggregate contents equal to the model, and freeing
   everything must return all chunks to the pool. Deterministically
   seeded via Iolite_util.Rng (SplitMix64). *)
let model_sequence ~seed ~steps () =
  let sys, app, pool = mk () in
  let rng = Iolite_util.Rng.create seed in
  let rand_string n =
    String.init n (fun _ -> Char.chr (97 + Iolite_util.Rng.int rng 26))
  in
  let live = ref [] in
  let add agg model = live := (agg, model) :: !live in
  let pick () = List.nth !live (Iolite_util.Rng.int rng (List.length !live)) in
  for _ = 1 to 4 do
    let s = rand_string (1 + Iolite_util.Rng.int rng 200) in
    add (alloc_str pool app s) s
  done;
  for _step = 1 to steps do
    match Iolite_util.Rng.int rng 7 with
    | 0 ->
      let a, sa = pick () and b, sb = pick () in
      if String.length sa + String.length sb <= 65536 then
        add (Iobuf.Agg.concat a b) (sa ^ sb)
    | 1 ->
      let a, sa = pick () in
      let n = String.length sa in
      let off = Iolite_util.Rng.int rng (n + 1) in
      let len = Iolite_util.Rng.int rng (n - off + 1) in
      add (Iobuf.Agg.sub a ~off ~len) (String.sub sa off len)
    | 2 ->
      let a, sa = pick () in
      let n = String.length sa in
      let at = Iolite_util.Rng.int rng (n + 1) in
      let l, r = Iobuf.Agg.split a ~at in
      add l (String.sub sa 0 at);
      add r (String.sub sa at (n - at))
    | 3 ->
      let a, sa = pick () in
      add (Iobuf.Agg.dup a) sa
    | 4 ->
      if List.length !live > 2 then begin
        let victim, _ = pick () in
        live := List.filter (fun (a, _) -> not (a == victim)) !live;
        Iobuf.Agg.free victim
      end
    | 5 ->
      let a, sa = pick () in
      let n = String.length sa in
      if n > 0 then begin
        let off = Iolite_util.Rng.int rng n in
        let len = 1 + Iolite_util.Rng.int rng (n - off) in
        let data = rand_string len in
        if Iobuf.Agg.try_overwrite sys a ~off data then begin
          (* Success promises exclusivity: only this aggregate's model
             may change. *)
          let nm = Bytes.of_string sa in
          Bytes.blit_string data 0 nm off len;
          let nm = Bytes.to_string nm in
          live :=
            List.map (fun (x, sx) -> if x == a then (x, nm) else (x, sx)) !live
        end
      end
    | _ ->
      let a, sa = pick () in
      Alcotest.(check int) "length matches model" (String.length sa)
        (Iobuf.Agg.length a);
      Alcotest.(check string) "content matches model" sa (agg_str a);
      if String.length sa > 0 then begin
        let i = Iolite_util.Rng.int rng (String.length sa) in
        Alcotest.(check char) "get matches model" sa.[i] (Iobuf.Agg.get a i)
      end
  done;
  List.iter
    (fun (a, sa) -> Alcotest.(check string) "final content" sa (agg_str a))
    !live;
  List.iter (fun (a, _) -> Iobuf.Agg.free a) !live;
  (* Everything freed: all node/buffer refcounts must have drained, so a
     fresh allocation reuses the existing chunks. *)
  let chunks = Iobuf.Pool.chunk_count pool in
  let probe = Iobuf.Pool.alloc pool ~producer:app 16 in
  Iobuf.Buffer.seal probe;
  Iobuf.Buffer.decr_ref probe;
  Alcotest.(check int) "no leaked chunks" chunks (Iobuf.Pool.chunk_count pool)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~name:"agg of_string/readback identity" ~count:200
    QCheck.(string_of_size Gen.(0 -- 2000))
    (fun s ->
      let _, app, pool = mk () in
      let a = alloc_str pool app s in
      let ok = String.equal s (agg_str a) && Iobuf.Agg.length a = String.length s in
      Iobuf.Agg.free a;
      ok)

let prop_concat_assoc =
  QCheck.Test.make ~name:"concat associativity (content)" ~count:100
    QCheck.(triple (string_of_size Gen.(0 -- 200)) (string_of_size Gen.(0 -- 200)) (string_of_size Gen.(0 -- 200)))
    (fun (x, y, z) ->
      let _, app, pool = mk () in
      let ax = alloc_str pool app x
      and ay = alloc_str pool app y
      and az = alloc_str pool app z in
      let xy = Iobuf.Agg.concat ax ay in
      let xy_z = Iobuf.Agg.concat xy az in
      let yz = Iobuf.Agg.concat ay az in
      let x_yz = Iobuf.Agg.concat ax yz in
      let ok = Iobuf.Agg.content_equal xy_z x_yz in
      List.iter Iobuf.Agg.free [ ax; ay; az; xy; xy_z; yz; x_yz ];
      ok)

let prop_split_concat_inverse =
  QCheck.Test.make ~name:"split then concat restores content" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 500)) small_nat)
    (fun (s, k) ->
      let _, app, pool = mk () in
      let at = k mod (String.length s + 1) in
      let a = alloc_str pool app s in
      let l, r = Iobuf.Agg.split a ~at in
      let back = Iobuf.Agg.concat l r in
      let ok = Iobuf.Agg.content_equal a back in
      List.iter Iobuf.Agg.free [ a; l; r; back ];
      ok)

let prop_sub_matches_string_sub =
  QCheck.Test.make ~name:"sub matches String.sub" ~count:200
    QCheck.(triple (string_of_size Gen.(1 -- 500)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = a mod n in
      let len = b mod (n - off + 1) in
      let _, app, pool = mk () in
      let agg = alloc_str pool app s in
      let sub = Iobuf.Agg.sub agg ~off ~len in
      let ok = String.equal (String.sub s off len) (agg_str sub) in
      Iobuf.Agg.free agg;
      Iobuf.Agg.free sub;
      ok)

let prop_refcount_balanced =
  (* After arbitrary agg plumbing and freeing everything, the pool's
     chunks must all be reusable (no leaked references). *)
  QCheck.Test.make ~name:"refcounts balance after free" ~count:100
    QCheck.(list_of_size Gen.(1 -- 10) (string_of_size Gen.(1 -- 300)))
    (fun strings ->
      let _, app, pool = mk () in
      let aggs = List.map (alloc_str pool app) strings in
      let cat = Iobuf.Agg.concat_list aggs in
      let half = Iobuf.Agg.sub cat ~off:0 ~len:(Iobuf.Agg.length cat / 2) in
      List.iter Iobuf.Agg.free aggs;
      Iobuf.Agg.free cat;
      Iobuf.Agg.free half;
      (* Every buffer is dead; a fresh alloc must not need a new chunk
         beyond the ones already allocated. *)
      let chunks_before = Iobuf.Pool.chunk_count pool in
      let probe = Iobuf.Pool.alloc pool ~producer:app 8 in
      Iobuf.Buffer.seal probe;
      Iobuf.Buffer.decr_ref probe;
      Iobuf.Pool.chunk_count pool = chunks_before)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip;
      prop_concat_assoc;
      prop_split_concat_inverse;
      prop_sub_matches_string_sub;
      prop_refcount_balanced;
    ]

let suites =
  [
    ( "core.iobuf",
      [
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "immutability" `Quick test_immutability;
        Alcotest.test_case "concat" `Quick test_concat;
        Alcotest.test_case "sub and split" `Quick test_sub_and_split;
        Alcotest.test_case "sub invalid" `Quick test_sub_invalid;
        Alcotest.test_case "get" `Quick test_get;
        Alcotest.test_case "use after free" `Quick test_use_after_free;
        Alcotest.test_case "refcount returns chunks" `Quick test_refcounting_returns_chunks;
        Alcotest.test_case "generation on reuse" `Quick test_generation_changes_on_reuse;
        Alcotest.test_case "spans chunks" `Quick test_large_string_spans_chunks;
        Alcotest.test_case "alloc bounds" `Quick test_alloc_bounds;
        Alcotest.test_case "acl producer" `Quick test_acl_rejected_producer;
        Alcotest.test_case "copy accounting" `Quick test_copy_accounting;
        Alcotest.test_case "fill accounting" `Quick test_fill_accounting;
        Alcotest.test_case "overwrite unshared" `Quick test_try_overwrite_unshared;
        Alcotest.test_case "overwrite shared refused" `Quick test_try_overwrite_shared_refused;
        Alcotest.test_case "overwrite bumps generation" `Quick test_try_overwrite_bumps_generation;
        Alcotest.test_case "overwrite partial sharing" `Quick test_try_overwrite_partial_sharing;
        Alcotest.test_case "overwrite structural sharing" `Quick test_overwrite_structural_sharing;
        Alcotest.test_case "deep append" `Quick test_deep_append;
        Alcotest.test_case "model sequence (seed 1)" `Quick (model_sequence ~seed:1L ~steps:400);
        Alcotest.test_case "model sequence (seed 2)" `Quick (model_sequence ~seed:2L ~steps:400);
        Alcotest.test_case "model sequence (seed 3)" `Quick (model_sequence ~seed:3L ~steps:400);
      ] );
    ( "core.transfer",
      [
        Alcotest.test_case "maps once" `Quick test_transfer_maps_once;
        Alcotest.test_case "acl fault" `Quick test_transfer_acl_fault;
        Alcotest.test_case "warm recycling" `Quick test_warm_recycling_no_vm_ops;
      ] );
    ("core.iobuf.props", qcheck_cases);
  ]
