open Iolite_core
module Mem = Iolite_mem

let mk ?policy ?(capacity = 32 * 1024 * 1024) () =
  let sys = Iosys.create ~capacity () in
  let app = Iosys.new_domain sys ~name:"app" in
  let pool =
    Iobuf.Pool.create sys ~name:"cachetest" ~acl:(Mem.Vm.Only (Mem.Pdomain.Set.singleton app))
  in
  let cache = Filecache.create ?policy ~register_with_pageout:false sys () in
  (sys, app, pool, cache)

(* A counter of the cache's registry. *)
let get sys name = Iolite_obs.Metrics.get (Iosys.metrics sys) name

let agg_str agg =
  let buf = Buffer.create 16 in
  Iobuf.Agg.iter_slices agg (fun sl ->
      let data, off = Iobuf.Slice.view sl in
      Buffer.add_subbytes buf data off (Iobuf.Slice.len sl));
  Buffer.contents buf

let put cache pool app ~file ~off s =
  Filecache.insert cache ~file ~off (Iobuf.Agg.of_string pool ~producer:app s)

let test_insert_lookup () =
  let sys, app, pool, cache = mk () in
  put cache pool app ~file:1 ~off:0 "hello world";
  (match Filecache.lookup cache ~file:1 ~off:0 ~len:11 with
  | Some a ->
    Alcotest.(check string) "full hit" "hello world" (agg_str a);
    Iobuf.Agg.free a
  | None -> Alcotest.fail "expected hit");
  (match Filecache.lookup cache ~file:1 ~off:6 ~len:5 with
  | Some a ->
    Alcotest.(check string) "partial range hit" "world" (agg_str a);
    Iobuf.Agg.free a
  | None -> Alcotest.fail "expected partial hit");
  Alcotest.(check int) "hits" 2 (get sys "cache.hit")

let test_miss () =
  let sys, app, pool, cache = mk () in
  put cache pool app ~file:1 ~off:0 "abc";
  Alcotest.(check bool) "other file misses" true
    (Filecache.lookup cache ~file:2 ~off:0 ~len:1 = None);
  Alcotest.(check bool) "beyond extent misses" true
    (Filecache.lookup cache ~file:1 ~off:2 ~len:5 = None);
  Alcotest.(check int) "misses" 2 (get sys "cache.miss")

let test_write_replaces () =
  let _, app, pool, cache = mk () in
  put cache pool app ~file:7 ~off:0 "aaaaaaaaaa";
  put cache pool app ~file:7 ~off:3 "BBBB";
  let check_range off len expect =
    match Filecache.lookup cache ~file:7 ~off ~len with
    | Some a ->
      Alcotest.(check string) "range" expect (agg_str a);
      Iobuf.Agg.free a
    | None -> Alcotest.fail "expected hit"
  in
  check_range 0 3 "aaa";
  check_range 3 4 "BBBB";
  check_range 7 3 "aaa";
  Alcotest.(check int) "three entries after carve" 3 (Filecache.entry_count cache);
  Alcotest.(check int) "byte total" 10 (Filecache.total_bytes cache)

let test_snapshot_semantics () =
  (* Data returned by a read must be unaffected by a later write to the
     same range (Section 3.5). *)
  let _, app, pool, cache = mk () in
  put cache pool app ~file:9 ~off:0 "original!!";
  let snapshot =
    match Filecache.lookup cache ~file:9 ~off:0 ~len:10 with
    | Some a -> a
    | None -> Alcotest.fail "hit expected"
  in
  put cache pool app ~file:9 ~off:0 "rewritten-";
  Alcotest.(check string) "snapshot unchanged" "original!!" (agg_str snapshot);
  (match Filecache.lookup cache ~file:9 ~off:0 ~len:10 with
  | Some fresh ->
    Alcotest.(check string) "new readers see the write" "rewritten-" (agg_str fresh);
    Iobuf.Agg.free fresh
  | None -> Alcotest.fail "hit expected");
  Iobuf.Agg.free snapshot

let test_invalidate_file () =
  let _, app, pool, cache = mk () in
  put cache pool app ~file:1 ~off:0 "abc";
  put cache pool app ~file:2 ~off:0 "def";
  Filecache.invalidate_file cache ~file:1;
  Alcotest.(check bool) "file 1 gone" true
    (Filecache.lookup cache ~file:1 ~off:0 ~len:3 = None);
  Alcotest.(check bool) "file 2 intact" true
    (Filecache.lookup cache ~file:2 ~off:0 ~len:3 <> None |> fun x ->
     x);
  Alcotest.(check int) "one entry left" 1 (Filecache.entry_count cache)

let test_eviction_prefers_unreferenced () =
  let _, app, pool, cache = mk () in
  put cache pool app ~file:1 ~off:0 (String.make 100 'a');
  put cache pool app ~file:2 ~off:0 (String.make 100 'b');
  (* Hold file 1 whole. An exact-bounds hit is an [Agg.dup], which
     moves no buffer refcount, so the hold does not count as a
     reference (DESIGN.md §5d): file 1 survives because this lookup's
     LRU touch leaves file 2 the least recently used, not because it
     is held. *)
  let held =
    match Filecache.lookup cache ~file:1 ~off:0 ~len:100 with
    | Some a -> a
    | None -> Alcotest.fail "hit"
  in
  let freed = Filecache.evict_one cache in
  Alcotest.(check int) "evicted 100 bytes" 100 freed;
  Alcotest.(check bool) "file1 still cached" true
    (Filecache.covered cache ~file:1 ~off:0 ~len:100);
  Alcotest.(check bool) "file2 evicted" false
    (Filecache.covered cache ~file:2 ~off:0 ~len:100);
  Iobuf.Agg.free held

let test_eviction_falls_back_to_referenced () =
  let _, app, pool, cache = mk () in
  put cache pool app ~file:1 ~off:0 (String.make 50 'a');
  let held =
    match Filecache.lookup cache ~file:1 ~off:0 ~len:50 with
    | Some a -> a
    | None -> Alcotest.fail "hit"
  in
  let freed = Filecache.evict_one cache in
  Alcotest.(check int) "referenced entry evicted as last resort" 50 freed;
  (* The held aggregate's data must persist regardless. *)
  Alcotest.(check string) "snapshot persists" (String.make 50 'a') (agg_str held);
  Iobuf.Agg.free held

let test_capacity_enforced () =
  let _, app, pool, cache = mk () in
  Filecache.set_capacity cache (Some (fun () -> 250));
  put cache pool app ~file:1 ~off:0 (String.make 100 'a');
  put cache pool app ~file:2 ~off:0 (String.make 100 'b');
  put cache pool app ~file:3 ~off:0 (String.make 100 'c');
  Alcotest.(check bool) "within capacity" true (Filecache.total_bytes cache <= 250);
  Alcotest.(check bool) "lru victim was file 1" false
    (Filecache.covered cache ~file:1 ~off:0 ~len:100);
  Alcotest.(check bool) "file 3 present" true
    (Filecache.covered cache ~file:3 ~off:0 ~len:100)

let test_gds_prefers_small_victims () =
  (* GDS(1): H = L + 1/size, so with equal recency large files have
     smaller H and are evicted first. *)
  let _, app, pool, cache = mk ~policy:(Policy.gds ()) () in
  put cache pool app ~file:1 ~off:0 (String.make 1000 'L');
  put cache pool app ~file:2 ~off:0 (String.make 10 's');
  let freed = Filecache.evict_one cache in
  Alcotest.(check int) "large file evicted first" 1000 freed;
  Alcotest.(check bool) "small survives" true
    (Filecache.covered cache ~file:2 ~off:0 ~len:10)

let test_gds_inflation_protects_recent () =
  let _, app, pool, cache = mk ~policy:(Policy.gds ()) () in
  (* Insert a big file, evict it (L rises), then a big recent file should
     outrank an old small one only via inflation. *)
  put cache pool app ~file:1 ~off:0 (String.make 1000 'a');
  ignore (Filecache.evict_one cache);
  put cache pool app ~file:2 ~off:0 (String.make 10 'b');
  put cache pool app ~file:3 ~off:0 (String.make 1000 'c');
  (* H(file2) = L + 1/10 where L was 1/1000; H(file3) = L' + 1/1000 with
     L' = L... file3 still smaller priority: evicted. *)
  let freed = Filecache.evict_one cache in
  Alcotest.(check int) "bigger H survives" 1000 freed;
  Alcotest.(check bool) "small survives" true
    (Filecache.covered cache ~file:2 ~off:0 ~len:10)

let test_carve_preserves_disjoint () =
  (* An insert that overlaps the middle of a file must leave entries on
     both sides untouched and trim only the stragglers — offsets, byte
     totals and contents all preserved. *)
  let _, app, pool, cache = mk () in
  List.iter
    (fun (off, s) -> put cache pool app ~file:4 ~off s)
    [ (0, "AAAAAAAA"); (10, "BBBBBBBB"); (20, "CCCCCCCC");
      (30, "DDDDDDDD"); (40, "EEEEEEEE") ];
  (* Overwrite [15, 35): clips B on the right, swallows C, clips D on
     the left. *)
  put cache pool app ~file:4 ~off:15 (String.make 20 'x');
  Alcotest.(check (list (pair int int)))
    "entry layout"
    [ (0, 8); (10, 5); (15, 20); (35, 3); (40, 8) ]
    (Filecache.entries cache ~file:4);
  Alcotest.(check int) "byte total" 44 (Filecache.total_bytes cache);
  let check_range off len expect =
    match Filecache.lookup cache ~file:4 ~off ~len with
    | Some a ->
      Alcotest.(check string) "range" expect (agg_str a);
      Iobuf.Agg.free a
    | None -> Alcotest.fail "expected hit"
  in
  check_range 0 8 "AAAAAAAA";
  check_range 10 5 "BBBBB";
  check_range 35 3 "DDD";
  check_range 40 8 "EEEEEEEE";
  Alcotest.(check bool) "carved range gone at 20" true
    (Filecache.lookup cache ~file:4 ~off:15 ~len:20 <> None)

let test_evict_victim_order () =
  (* The victim-capture eviction (single index probe) must still follow
     strict LRU order and report exact byte counts. *)
  let sys, app, pool, cache = mk () in
  put cache pool app ~file:1 ~off:0 (String.make 11 'a');
  put cache pool app ~file:2 ~off:0 (String.make 22 'b');
  put cache pool app ~file:3 ~off:0 (String.make 33 'c');
  ignore (Filecache.lookup cache ~file:1 ~off:0 ~len:11 |> Option.map Iobuf.Agg.free);
  Alcotest.(check int) "oldest untouched evicted" 22 (Filecache.evict_one cache);
  Alcotest.(check int) "then next" 33 (Filecache.evict_one cache);
  Alcotest.(check int) "then the touched one" 11 (Filecache.evict_one cache);
  Alcotest.(check int) "empty" 0 (Filecache.evict_one cache);
  Alcotest.(check int) "evictions counted" 3 (get sys "cache.eviction")

let test_shrinking_capacity_converges () =
  let sys, app, pool, cache = mk () in
  for file = 1 to 20 do
    put cache pool app ~file ~off:0 (String.make 50 'x')
  done;
  (* A capacity that shrinks on every read: enforcement must re-check it
     between rounds and still converge to the floor — with one read per
     round, not one per eviction. *)
  let calls = ref 0 in
  Filecache.set_capacity cache
    (Some
       (fun () ->
         incr calls;
         max 100 (1000 - (200 * !calls))));
  put cache pool app ~file:21 ~off:0 (String.make 50 'x');
  Alcotest.(check bool) "converged to the floor" true
    (Filecache.total_bytes cache <= 100);
  let evictions = get sys "cache.eviction" in
  Alcotest.(check bool) "many evictions" true (evictions >= 15);
  Alcotest.(check bool)
    (Printf.sprintf "capacity read per round, not per eviction (%d reads)"
       !calls)
    true
    (!calls < 10 && !calls < evictions)

let test_fastpath_counters () =
  let sys, app, pool, cache = mk () in
  let m = Iosys.metrics sys in
  let get name = Iolite_obs.Metrics.get m name in
  put cache pool app ~file:1 ~off:0 "0123456789";
  put cache pool app ~file:1 ~off:10 "abcdefghij";
  let free_hit ~off ~len =
    match Filecache.lookup cache ~file:1 ~off ~len with
    | Some a -> Iobuf.Agg.free a
    | None -> Alcotest.fail "expected hit"
  in
  (* Exact entry bounds: the zero-alloc path. *)
  free_hit ~off:0 ~len:10;
  Alcotest.(check int) "fastpath hit" 1 (get "cache.fastpath_hit");
  (* Sub-range of one entry: hit, but not the fast path. *)
  free_hit ~off:2 ~len:5;
  (* Spanning two entries: hit, not the fast path. *)
  free_hit ~off:5 ~len:10;
  Alcotest.(check int) "no further fastpath" 1 (get "cache.fastpath_hit");
  Alcotest.(check int) "all were hits" 3 (get "cache.hit");
  ignore (Filecache.lookup cache ~file:1 ~off:15 ~len:10);
  Alcotest.(check int) "miss counted" 1 (get "cache.miss");
  Alcotest.(check int) "every lookup probed" 4 (get "cache.probe")

let test_eviction_never_scans_slices () =
  (* The Section 3.7 check on the eviction path must be the O(1) counter
     read ([cache.refcheck]), never the per-slice walk ([cache.refscan])
     — even across an eviction storm with live external references. *)
  let sys, app, pool, cache = mk () in
  let m = Iosys.metrics sys in
  for file = 1 to 30 do
    put cache pool app ~file ~off:0 (String.make 64 (Char.chr (64 + file)))
  done;
  (* A partial-range hold pins boundary buffers of file 5's entry. *)
  let held =
    match Filecache.lookup cache ~file:5 ~off:8 ~len:16 with
    | Some a -> a
    | None -> Alcotest.fail "hit"
  in
  while Filecache.evict_one cache > 0 do
    ()
  done;
  Alcotest.(check int) "cache emptied" 0 (Filecache.entry_count cache);
  Alcotest.(check int) "no slice scans on the hot path" 0
    (Iolite_obs.Metrics.get m "cache.refscan");
  Alcotest.(check bool) "O(1) checks happened" true
    (Iolite_obs.Metrics.get m "cache.refcheck" > 0);
  Alcotest.(check string) "held snapshot outlives eviction"
    (String.make 16 'E') (agg_str held);
  Iobuf.Agg.free held

let test_ref_tracking_transitions () =
  (* External references appear and disappear via buffer refcount
     transitions; the per-entry counters must track them exactly and
     steer eviction per Section 3.7. *)
  let _, app, pool, cache = mk () in
  put cache pool app ~file:1 ~off:0 (String.make 100 'a');
  put cache pool app ~file:2 ~off:0 (String.make 100 'b');
  Alcotest.(check bool) "counters clean" true (Filecache.verify_ref_tracking cache);
  (* A partial-range lookup creates fresh boundary leaves holding real
     buffer references: file 1 becomes externally referenced. *)
  let held =
    match Filecache.lookup cache ~file:1 ~off:10 ~len:50 with
    | Some a -> a
    | None -> Alcotest.fail "hit"
  in
  (* Touch file 2 so file 1 is the LRU victim — but it is referenced. *)
  ignore (Filecache.lookup cache ~file:2 ~off:0 ~len:100 |> Option.map Iobuf.Agg.free);
  Alcotest.(check bool) "counters track the hold" true
    (Filecache.verify_ref_tracking cache);
  Alcotest.(check int) "unreferenced entry evicted instead" 100
    (Filecache.evict_one cache);
  Alcotest.(check bool) "referenced file survives" true
    (Filecache.covered cache ~file:1 ~off:0 ~len:100);
  Alcotest.(check bool) "recent file was sacrificed" false
    (Filecache.covered cache ~file:2 ~off:0 ~len:100);
  (* Releasing the hold flips the entry back to unreferenced. *)
  Iobuf.Agg.free held;
  Alcotest.(check bool) "counters track the release" true
    (Filecache.verify_ref_tracking cache);
  Alcotest.(check int) "now evictable" 100 (Filecache.evict_one cache)

let test_lru_policy_order () =
  let p = Policy.lru () in
  p.Policy.on_insert (1, 0) ~size:10;
  p.Policy.on_insert (2, 0) ~size:10;
  p.Policy.on_insert (3, 0) ~size:10;
  p.Policy.on_access (1, 0) ~size:10;
  Alcotest.(check (option (pair int int)))
    "oldest untouched is victim" (Some (2, 0))
    (p.Policy.choose ~eligible:(fun _ -> true));
  p.Policy.on_remove (2, 0);
  Alcotest.(check (option (pair int int)))
    "next victim" (Some (3, 0))
    (p.Policy.choose ~eligible:(fun _ -> true))

let test_lru_eligibility_filter () =
  let p = Policy.lru () in
  p.Policy.on_insert (1, 0) ~size:10;
  p.Policy.on_insert (2, 0) ~size:10;
  Alcotest.(check (option (pair int int)))
    "skips ineligible tail" (Some (2, 0))
    (p.Policy.choose ~eligible:(fun k -> k <> (1, 0)));
  Alcotest.(check (option (pair int int)))
    "none eligible" None
    (p.Policy.choose ~eligible:(fun _ -> false))

let test_gds_policy_skip_reinserts () =
  let p = Policy.gds () in
  p.Policy.on_insert (1, 0) ~size:1000;
  p.Policy.on_insert (2, 0) ~size:10;
  (* Skip the natural victim once; it must still be chooseable later. *)
  Alcotest.(check (option (pair int int)))
    "skip big" (Some (2, 0))
    (p.Policy.choose ~eligible:(fun k -> k = (2, 0)));
  Alcotest.(check (option (pair int int)))
    "big still tracked" (Some (1, 0))
    (p.Policy.choose ~eligible:(fun k -> k = (1, 0)))

(* GDS as it was before it moved onto [Iolite_sim.Heap]: a private
   (priority, stamp, key) tuple heap with the same ordering and the
   same sift code. The property below pins the shared-heap version to
   it victim for victim. *)
module Ref_heap = struct
  type 'a t = { mutable data : (float * int * 'a) array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let less (p1, s1, _) (p2, s2, _) = p1 < p2 || (p1 = p2 && s1 < s2)

  let push t entry =
    let cap = Array.length t.data in
    if t.len = cap then begin
      let ndata = Array.make (max 16 (cap * 2)) entry in
      Array.blit t.data 0 ndata 0 t.len;
      t.data <- ndata
    end;
    t.data.(t.len) <- entry;
    t.len <- t.len + 1;
    let i = ref (t.len - 1) in
    while !i > 0 && less t.data.(!i) t.data.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = t.data.(!i) in
      t.data.(!i) <- t.data.(p);
      t.data.(p) <- tmp;
      i := p
    done

  let pop t =
    if t.len = 0 then None
    else begin
      let top = t.data.(0) in
      t.len <- t.len - 1;
      if t.len > 0 then begin
        t.data.(0) <- t.data.(t.len);
        let i = ref 0 and continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let m = ref !i in
          if l < t.len && less t.data.(l) t.data.(!m) then m := l;
          if r < t.len && less t.data.(r) t.data.(!m) then m := r;
          if !m = !i then continue := false
          else begin
            let tmp = t.data.(!i) in
            t.data.(!i) <- t.data.(!m);
            t.data.(!m) <- tmp;
            i := !m
          end
        done
      end;
      Some top
    end
end

let ref_gds ?(cost = fun _ ~size:_ -> 1.0) () =
  let cost = ref cost in
  let infos : (Policy.key, float * int) Hashtbl.t = Hashtbl.create 256 in
  let heap = Ref_heap.create () in
  let inflation = ref 0.0 in
  let stamp = ref 0 in
  let set k h =
    incr stamp;
    Hashtbl.replace infos k (h, !stamp);
    Ref_heap.push heap (h, !stamp, k)
  in
  let priority k ~size =
    !inflation +. (!cost k ~size /. float_of_int (max 1 size))
  in
  let choose ~eligible =
    let skipped = ref [] in
    let rec hunt () =
      match Ref_heap.pop heap with
      | None -> None
      | Some ((h, s, k) as entry) -> (
        match Hashtbl.find_opt infos k with
        | Some (h', s') when h = h' && s = s' ->
          if eligible k then begin
            inflation := Float.max !inflation h;
            Some entry
          end
          else begin
            skipped := entry :: !skipped;
            hunt ()
          end
        | Some _ | None -> hunt ())
    in
    let result = hunt () in
    List.iter (fun e -> Ref_heap.push heap e) !skipped;
    Option.map (fun (_, _, k) -> k) result
  in
  {
    Policy.name = "GDS";
    on_insert = (fun k ~size -> set k (priority k ~size));
    on_access = (fun k ~size -> set k (priority k ~size));
    on_remove = (fun k -> Hashtbl.remove infos k);
    choose;
    set_cost = Some (fun f -> cost := f);
  }

type pop =
  | P_insert of Policy.key * int
  | P_access of Policy.key * int
  | P_remove of Policy.key
  | P_choose of int * bool (* eligibility mask over key slots, evict *)

(* Keys (file 0..5, off 0..2) index bits 0..17 of a [P_choose] mask. *)
let pkey_bit (f, o) = 1 lsl ((f * 3) + o)

let pop_gen =
  let open QCheck.Gen in
  let key = pair (0 -- 5) (0 -- 2) in
  (* Few distinct sizes, so equal H values exercise the stamp order. *)
  let size = oneof [ oneofl [ 1; 10; 100; 4096 ]; 1 -- 5000 ] in
  frequency
    [
      (4, map2 (fun k n -> P_insert (k, n)) key size);
      (4, map2 (fun k n -> P_access (k, n)) key size);
      (1, map (fun k -> P_remove k) key);
      (3, map2 (fun m e -> P_choose (m, e)) (0 -- ((1 lsl 18) - 1)) bool);
    ]

let pcosts : (Policy.key -> size:int -> float) array =
  [|
    (fun _ ~size:_ -> 2.0);
    (fun (f, _) ~size:_ -> float_of_int (f + 1));
    (fun _ ~size -> float_of_int size);
  |]

let prop_gds_matches_tuple_heap =
  QCheck.Test.make ~name:"gds picks the tuple-heap gds victims" ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple (list_size (1 -- 80) pop_gen) (0 -- 80)
           (0 -- (Array.length pcosts - 1)))
       ~print:(fun (ops, at, c) ->
         Printf.sprintf "set_cost %d at %d: %s" c at
           (String.concat ";"
              (List.map
                 (function
                   | P_insert ((f, o), n) -> Printf.sprintf "ins(%d,%d,%d)" f o n
                   | P_access ((f, o), n) -> Printf.sprintf "acc(%d,%d,%d)" f o n
                   | P_remove (f, o) -> Printf.sprintf "rm(%d,%d)" f o
                   | P_choose (m, e) -> Printf.sprintf "choose(%x,%b)" m e)
                 ops))))
    (fun (ops, at, c) ->
      let p = Policy.gds () and r = ref_gds () in
      let both f = f p; f r in
      let step i op =
        if i = at then
          both (fun q -> Option.get q.Policy.set_cost pcosts.(c));
        match op with
        | P_insert (k, size) -> both (fun q -> q.Policy.on_insert k ~size); true
        | P_access (k, size) -> both (fun q -> q.Policy.on_access k ~size); true
        | P_remove k -> both (fun q -> q.Policy.on_remove k); true
        | P_choose (mask, evict) ->
          let eligible k = mask land pkey_bit k <> 0 in
          let v = p.Policy.choose ~eligible in
          let v' = r.Policy.choose ~eligible in
          (match v with
          | Some k when evict -> both (fun q -> q.Policy.on_remove k)
          | Some _ | None -> ());
          v = v'
      in
      List.for_all Fun.id (List.mapi step ops))

let test_unified_trim_via_pageout () =
  (* Unified regime: a small physical memory forces pool chunk allocation
     to trigger pageout, which must evict cache entries (Section 3.7). *)
  let sys = Iosys.create ~capacity:(512 * 1024) () in
  let app = Iosys.new_domain sys ~name:"app" in
  let pool =
    Iobuf.Pool.create sys ~name:"p" ~acl:(Mem.Vm.Only (Mem.Pdomain.Set.singleton app))
  in
  let cache = Filecache.create ~register_with_pageout:true sys () in
  (* Fill the cache well past physical memory. *)
  for file = 1 to 24 do
    Filecache.insert cache ~file ~off:0
      (Iobuf.Agg.of_string pool ~producer:app (String.make 60_000 'x'))
  done;
  Alcotest.(check bool) "entries were evicted" true (get sys "cache.eviction" > 0);
  Alcotest.(check bool) "cache bounded by memory" true
    (Filecache.total_bytes cache < 512 * 1024);
  Alcotest.(check bool) "memory not overcommitted much" true
    (Mem.Physmem.overcommit (Iosys.physmem sys) <= Mem.Page.chunk_size)

let test_policy_swap_preserves_entries () =
  let _, app, pool, cache = mk () in
  put cache pool app ~file:1 ~off:0 "aaa";
  put cache pool app ~file:2 ~off:0 "bbb";
  Filecache.set_policy cache (Policy.gds ());
  Alcotest.(check string) "policy swapped" "GDS" (Filecache.policy_name cache);
  (* Both entries remain evictable under the new policy. *)
  let freed = Filecache.evict_one cache + Filecache.evict_one cache in
  Alcotest.(check int) "all entries reachable" 6 freed

(* ------------------------------------------------------------------ *)
(* Model-based property test: the cache against a byte-level oracle.   *)
(* ------------------------------------------------------------------ *)

type op =
  | Op_insert of int * int * string (* file, off, data: replaces *)
  | Op_backfill of int * int * string (* file, off, data: fills gaps *)
  | Op_lookup of int * int * int (* file, off, len *)
  | Op_invalidate of int

let op_gen =
  let open QCheck.Gen in
  let file = 0 -- 3 in
  let off = 0 -- 300 in
  let data = string_size ~gen:(char_range 'a' 'z') (1 -- 120) in
  frequency
    [
      (4, map3 (fun f o d -> Op_insert (f, o, d)) file off data);
      (2, map3 (fun f o d -> Op_backfill (f, o, d)) file off data);
      (5, map3 (fun f o l -> Op_lookup (f, o, l)) file off (1 -- 150));
      (1, map (fun f -> Op_invalidate f) file);
    ]

let model_size = 600

let prop_cache_matches_model =
  QCheck.Test.make ~name:"filecache matches byte-level oracle" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 40) op_gen)
       ~print:(fun ops ->
         String.concat ";"
           (List.map
              (function
                | Op_insert (f, o, d) ->
                  Printf.sprintf "ins(%d,%d,%d)" f o (String.length d)
                | Op_backfill (f, o, d) ->
                  Printf.sprintf "bf(%d,%d,%d)" f o (String.length d)
                | Op_lookup (f, o, l) -> Printf.sprintf "look(%d,%d,%d)" f o l
                | Op_invalidate f -> Printf.sprintf "inv(%d)" f)
              ops)))
    (fun ops ->
      let _, app, pool, cache = mk () in
      (* Oracle: per file, Some c where cached. *)
      let model = Array.init 4 (fun _ -> Array.make model_size None) in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Op_insert (f, off, d) ->
            Filecache.insert cache ~file:f ~off
              (Iobuf.Agg.of_string pool ~producer:app d);
            String.iteri (fun i c -> model.(f).(off + i) <- Some c) d
          | Op_backfill (f, off, d) ->
            Filecache.backfill cache ~file:f ~off
              (Iobuf.Agg.of_string pool ~producer:app d);
            String.iteri
              (fun i c ->
                if model.(f).(off + i) = None then
                  model.(f).(off + i) <- Some c)
              d
          | Op_invalidate f ->
            Filecache.invalidate_file cache ~file:f;
            Array.fill model.(f) 0 model_size None
          | Op_lookup (f, off, len) ->
            let expect =
              let rec gather i acc =
                if i = len then Some (List.rev acc)
                else begin
                  match model.(f).(off + i) with
                  | Some c -> gather (i + 1) (c :: acc)
                  | None -> None
                end
              in
              Option.map
                (fun cs -> String.init len (List.nth cs))
                (gather 0 [])
            in
            if Filecache.covered cache ~file:f ~off ~len <> Option.is_some expect
            then ok := false;
            let got = Filecache.lookup cache ~file:f ~off ~len in
            (match (expect, got) with
            | None, None -> ()
            | Some e, Some agg ->
              if not (String.equal e (agg_str agg)) then ok := false;
              Iobuf.Agg.free agg
            | Some _, None | None, Some _ -> ok := false);
            Option.iter (fun _ -> ()) expect);
          Filecache.check cache)
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* Model-based property test: the interval index against the seed's    *)
(* sorted-list implementation, kept here as a behavioral oracle.       *)
(* ------------------------------------------------------------------ *)

module Listcache = struct
  (* The pre-index per-file sorted-list cache, over plain strings:
     carve via List.partition, backfill via a linear gap walk — the
     exact replacement semantics the tree must reproduce. *)
  type lentry = { loff : int; ldata : string }

  type t = (int, lentry list ref) Hashtbl.t

  let create () : t = Hashtbl.create 8
  let llen e = String.length e.ldata

  let file_entries t file =
    match Hashtbl.find_opt t file with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t file r;
      r

  let insert_sorted r e =
    let rec go = function
      | [] -> [ e ]
      | x :: rest -> if e.loff < x.loff then e :: x :: rest else x :: go rest
    in
    r := go !r

  let carve t ~file ~off ~len =
    let r = file_entries t file in
    let overlapping, keep =
      List.partition (fun e -> e.loff < off + len && off < e.loff + llen e) !r
    in
    r := keep;
    List.iter
      (fun e ->
        let keep_left = off - e.loff in
        let keep_right = e.loff + llen e - (off + len) in
        if keep_left > 0 then
          insert_sorted r { loff = e.loff; ldata = String.sub e.ldata 0 keep_left };
        if keep_right > 0 then
          insert_sorted r
            {
              loff = off + len;
              ldata = String.sub e.ldata (off + len - e.loff) keep_right;
            })
      overlapping

  let insert t ~file ~off data =
    if String.length data > 0 then begin
      carve t ~file ~off ~len:(String.length data);
      insert_sorted (file_entries t file) { loff = off; ldata = data }
    end

  let backfill t ~file ~off data =
    let len = String.length data in
    if len > 0 then begin
      let r = file_entries t file in
      let cursor = ref off in
      let gaps = ref [] in
      List.iter
        (fun e ->
          let e_end = e.loff + llen e in
          if e.loff < off + len && e_end > !cursor then begin
            if e.loff > !cursor then gaps := (!cursor, e.loff - !cursor) :: !gaps;
            cursor := e_end
          end)
        !r;
      if !cursor < off + len then gaps := (!cursor, off + len - !cursor) :: !gaps;
      List.iter
        (fun (go, gl) ->
          insert_sorted r { loff = go; ldata = String.sub data (go - off) gl })
        (List.rev !gaps)
    end

  let lookup t ~file ~off ~len =
    let r = file_entries t file in
    let buf = Buffer.create len in
    let rec walk cursor = function
      | [] -> None
      | e :: rest ->
        let e_end = e.loff + llen e in
        if e_end <= cursor then walk cursor rest
        else if e.loff > cursor then None
        else begin
          let lo = max cursor e.loff and hi = min (off + len) e_end in
          Buffer.add_string buf (String.sub e.ldata (lo - e.loff) (hi - lo));
          if hi >= off + len then Some (Buffer.contents buf) else walk hi rest
        end
    in
    walk off !r

  let invalidate t ~file = Hashtbl.remove t file

  let entries t ~file =
    match Hashtbl.find_opt t file with
    | None -> []
    | Some r -> List.map (fun e -> (e.loff, llen e)) !r

  let file_bytes t ~file =
    List.fold_left (fun acc (_, l) -> acc + l) 0 (entries t ~file)
end

type oop =
  | Oop_insert of int * int * string
  | Oop_backfill of int * int * string
  | Oop_lookup of int * int * int * bool (* file, off, len, hold snapshot *)
  | Oop_evict
  | Oop_invalidate of int

let oracle_files = 3

let oop_gen =
  let open QCheck.Gen in
  let file = 0 -- (oracle_files - 1) in
  let off = 0 -- 200 in
  let data = string_size ~gen:(char_range 'a' 'z') (1 -- 80) in
  frequency
    [
      (5, map3 (fun f o d -> Oop_insert (f, o, d)) file off data);
      (2, map3 (fun f o d -> Oop_backfill (f, o, d)) file off data);
      ( 4,
        map3
          (fun f o (l, h) -> Oop_lookup (f, o, l, h))
          file off
          (pair (1 -- 100) bool) );
      (2, return Oop_evict);
      (1, map (fun f -> Oop_invalidate f) file);
    ]

let prop_cache_matches_list_impl =
  QCheck.Test.make ~name:"interval index matches sorted-list implementation"
    ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 60) oop_gen)
       ~print:(fun ops ->
         String.concat ";"
           (List.map
              (function
                | Oop_insert (f, o, d) ->
                  Printf.sprintf "ins(%d,%d,%d)" f o (String.length d)
                | Oop_backfill (f, o, d) ->
                  Printf.sprintf "bf(%d,%d,%d)" f o (String.length d)
                | Oop_lookup (f, o, l, h) ->
                  Printf.sprintf "look(%d,%d,%d,%b)" f o l h
                | Oop_evict -> "evict"
                | Oop_invalidate f -> Printf.sprintf "inv(%d)" f)
              ops)))
    (fun ops ->
      let _, app, pool, cache = mk () in
      let oracle = Listcache.create () in
      let held = ref [] (* (agg, expected bytes) snapshots *) in
      let ok = ref true in
      let check b = if not b then ok := false in
      (* Eviction drops whole entries the oracle can't predict (policy
         state differs); reconcile it from the cache's entry layout and
         check the freed byte count matches what disappeared. *)
      let resync_after_evict freed =
        let dropped = ref 0 in
        for f = 0 to oracle_files - 1 do
          let real = Filecache.entries cache ~file:f in
          let r = Listcache.file_entries oracle f in
          r :=
            List.filter
              (fun e ->
                if List.mem (e.Listcache.loff, Listcache.llen e) real then true
                else begin
                  dropped := !dropped + Listcache.llen e;
                  false
                end)
              !r
        done;
        check (freed = !dropped)
      in
      let agree () =
        for f = 0 to oracle_files - 1 do
          check (Filecache.entries cache ~file:f = Listcache.entries oracle ~file:f);
          check (Filecache.file_bytes cache ~file:f = Listcache.file_bytes oracle ~file:f)
        done;
        check (Filecache.verify_ref_tracking cache);
        Filecache.check cache
      in
      List.iter
        (fun op ->
          (match op with
          | Oop_insert (f, off, d) ->
            Filecache.insert cache ~file:f ~off
              (Iobuf.Agg.of_string pool ~producer:app d);
            Listcache.insert oracle ~file:f ~off d
          | Oop_backfill (f, off, d) ->
            Filecache.backfill cache ~file:f ~off
              (Iobuf.Agg.of_string pool ~producer:app d);
            Listcache.backfill oracle ~file:f ~off d
          | Oop_lookup (f, off, len, hold) -> (
            let expect = Listcache.lookup oracle ~file:f ~off ~len in
            let got = Filecache.lookup cache ~file:f ~off ~len in
            match (expect, got) with
            | None, None -> ()
            | Some e, Some agg ->
              check (String.equal e (agg_str agg));
              (* Snapshot semantics: the result must keep these exact
                 bytes across every later carve/eviction. *)
              if hold then held := (agg, e) :: !held else Iobuf.Agg.free agg
            | Some _, None | None, Some _ -> check false)
          | Oop_evict -> resync_after_evict (Filecache.evict_one cache)
          | Oop_invalidate f ->
            Filecache.invalidate_file cache ~file:f;
            Listcache.invalidate oracle ~file:f);
          agree ())
        ops;
      List.iter
        (fun (agg, expect) ->
          check (String.equal expect (agg_str agg));
          Iobuf.Agg.free agg)
        !held;
      check (Filecache.verify_ref_tracking cache);
      !ok)

let test_deep_per_file_list () =
  (* Thousands of entries on one file, inserted in descending offset
     order so every insertion traverses the whole sorted list — a stack
     overflow with a non-tail-recursive insert. *)
  let _, app, pool, cache = mk () in
  let n = 5000 in
  for i = n - 1 downto 0 do
    put cache pool app ~file:7 ~off:(i * 2) "ab"
  done;
  Alcotest.(check int) "all entries present" n (Filecache.entry_count cache);
  (match Filecache.lookup cache ~file:7 ~off:(2 * (n - 1)) ~len:2 with
  | Some a ->
    Alcotest.(check string) "last entry readable" "ab" (agg_str a);
    Iobuf.Agg.free a
  | None -> Alcotest.fail "expected hit");
  (* Spanning lookup walks the sorted list across many entries. *)
  match Filecache.lookup cache ~file:7 ~off:0 ~len:(2 * n) with
  | Some a ->
    Alcotest.(check int) "spanning range" (2 * n) (Iobuf.Agg.length a);
    Iobuf.Agg.free a
  | None -> Alcotest.fail "expected spanning hit"

let test_slice_stats () =
  let sys, app, pool, cache = mk () in
  Alcotest.(check int) "empty" 0 (Filecache.total_slices cache);
  (* Two single-buffer entries plus one spanning two chunks. *)
  put cache pool app ~file:1 ~off:0 "hello";
  put cache pool app ~file:2 ~off:0 "world";
  put cache pool app ~file:3 ~off:0 (String.make (Iobuf.Pool.max_alloc + 10) 'x');
  Alcotest.(check int) "pinned slices" 4 (Filecache.total_slices cache);
  Filecache.invalidate_file cache ~file:3;
  Alcotest.(check int) "after invalidate" 2 (Filecache.total_slices cache);
  (* Checksum-cache side of the same O(1) counter. *)
  let ck = Iolite_net.Cksum.Cache.create () in
  (match Filecache.lookup cache ~file:1 ~off:0 ~len:5 with
  | Some a ->
    ignore (Iolite_net.Cksum.Cache.agg_sum ck a);
    ignore (Iolite_net.Cksum.Cache.agg_sum ck a);
    Alcotest.(check int) "cksum slices summed" 2
      (Iolite_net.Cksum.Cache.slices_summed ck);
    Iobuf.Agg.free a
  | None -> Alcotest.fail "expected hit");
  ignore sys

(* An aggregate of [n] buffers, each seen through a sub-slice at an odd
   offset between '#' guards, so a copy-out that ignored slice offsets
   or lengths would leak guard bytes. Returns the aggregate and its
   bytes. *)
let ragged pool app ~tag ~n =
  let pieces =
    List.init n (fun i ->
        String.init (17 + (2 * i)) (fun j ->
            Char.chr (48 + (((tag * 31) + (i * 7) + j) mod 75))))
  in
  let parts =
    List.mapi
      (fun i piece ->
        let pad = 1 + (2 * (i mod 3)) in
        let whole =
          Iobuf.Agg.of_string pool ~producer:app
            (String.make pad '#' ^ piece ^ "##")
        in
        let part = Iobuf.Agg.sub whole ~off:pad ~len:(String.length piece) in
        Iobuf.Agg.free whole;
        part)
      pieces
  in
  let agg = Iobuf.Agg.concat_list parts in
  List.iter Iobuf.Agg.free parts;
  (agg, String.concat "" pieces)

(* Overwrite recycled buffers: a payload that aliased freed buffers
   instead of copying them would change under these bytes. *)
let scribble pool app =
  List.iter Iobuf.Agg.free
    (List.init 16 (fun _ ->
         Iobuf.Agg.of_string pool ~producer:app (String.make 64 'Z')))

let test_demoter_gets_entry_bytes () =
  let _, app, pool, cache = mk () in
  let show (file, off, len, gen, data) =
    Printf.sprintf "file %d [%d,+%d) gen %d %S" file off len gen data
  in
  let demoted = ref [] in
  Filecache.set_demoter cache (fun ~file ~off ~len ~gen ~data ->
      demoted := show (file, off, len, gen, data) :: !demoted);
  let want =
    List.map
      (fun (file, off, n) ->
        let agg, bytes = ragged pool app ~tag:(file + off) ~n in
        Filecache.insert cache ~file ~off agg;
        show (file, off, String.length bytes, 0, bytes))
      [ (1, 0, 1); (1, 500, 4); (2, 7, 6) ]
  in
  (* A dirty entry leaves only once a flush has captured it, and its
     demotion carries its dirty generation. *)
  let dirty_agg, dirty_bytes = ragged pool app ~tag:9 ~n:3 in
  Filecache.insert ~dirty:true cache ~file:3 ~off:11 dirty_agg;
  let gen =
    match Filecache.collect_dirty cache ~file:3 with
    | [ c ] -> Filecache.cluster_gen c
    | _ -> Alcotest.fail "expected one cluster"
  in
  Alcotest.(check bool) "dirty generation stamped" true (gen > 0);
  let want =
    show (3, 11, String.length dirty_bytes, gen, dirty_bytes) :: want
  in
  while Filecache.evict_one cache > 0 do
    ()
  done;
  scribble pool app;
  Alcotest.(check (list string)) "each victim's bytes, once"
    (List.sort compare want) (List.sort compare !demoted)

let test_cluster_data_concatenates () =
  let _, app, pool, cache = mk () in
  let put_dirty ~off ~tag ~n =
    let agg, bytes = ragged pool app ~tag ~n in
    Filecache.insert ~dirty:true cache ~file:4 ~off agg;
    bytes
  in
  (* Three adjacent dirty entries make one run; a fourth sits past a
     gap. *)
  let a = put_dirty ~off:0 ~tag:1 ~n:3 in
  let b = put_dirty ~off:(String.length a) ~tag:2 ~n:5 in
  let c = put_dirty ~off:(String.length a + String.length b) ~tag:3 ~n:2 in
  let run = a ^ b ^ c in
  let lone_off = String.length run + 11 in
  let d = put_dirty ~off:lone_off ~tag:4 ~n:4 in
  let clusters = Filecache.collect_dirty cache ~file:4 in
  Filecache.invalidate_file cache ~file:4;
  scribble pool app;
  match clusters with
  | [ c1; c2 ] ->
    Alcotest.(check int) "run merges three extents" 3
      (Filecache.cluster_extents c1);
    Alcotest.(check int) "run length" (String.length run)
      (Filecache.cluster_len c1);
    Alcotest.(check string) "run bytes" run (Filecache.cluster_data c1);
    Alcotest.(check int) "lone extent offset" lone_off
      (Filecache.cluster_off c2);
    Alcotest.(check string) "lone extent bytes" d (Filecache.cluster_data c2)
  | cs -> Alcotest.failf "expected two clusters, got %d" (List.length cs)

let suites =
  [
    ( "core.filecache",
      [
        Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
        Alcotest.test_case "slice stats" `Quick test_slice_stats;
        Alcotest.test_case "miss" `Quick test_miss;
        Alcotest.test_case "write replaces" `Quick test_write_replaces;
        Alcotest.test_case "snapshot semantics" `Quick test_snapshot_semantics;
        Alcotest.test_case "invalidate file" `Quick test_invalidate_file;
        Alcotest.test_case "evict unreferenced first" `Quick test_eviction_prefers_unreferenced;
        Alcotest.test_case "evict referenced fallback" `Quick test_eviction_falls_back_to_referenced;
        Alcotest.test_case "capacity" `Quick test_capacity_enforced;
        Alcotest.test_case "unified pageout trim" `Quick test_unified_trim_via_pageout;
        Alcotest.test_case "policy swap" `Quick test_policy_swap_preserves_entries;
        Alcotest.test_case "deep per-file list" `Quick test_deep_per_file_list;
        Alcotest.test_case "carve preserves disjoint" `Quick test_carve_preserves_disjoint;
        Alcotest.test_case "evict victim order" `Quick test_evict_victim_order;
        Alcotest.test_case "shrinking capacity converges" `Quick test_shrinking_capacity_converges;
        Alcotest.test_case "fastpath counters" `Quick test_fastpath_counters;
        Alcotest.test_case "eviction never scans slices" `Quick test_eviction_never_scans_slices;
        Alcotest.test_case "ref tracking transitions" `Quick test_ref_tracking_transitions;
        Alcotest.test_case "demoter gets entry bytes" `Quick
          test_demoter_gets_entry_bytes;
        Alcotest.test_case "cluster data concatenates" `Quick
          test_cluster_data_concatenates;
      ] );
    ( "core.filecache.props",
      [
        QCheck_alcotest.to_alcotest prop_cache_matches_model;
        QCheck_alcotest.to_alcotest prop_cache_matches_list_impl;
      ] );
    ( "core.policy",
      [
        Alcotest.test_case "lru order" `Quick test_lru_policy_order;
        Alcotest.test_case "lru eligibility" `Quick test_lru_eligibility_filter;
        Alcotest.test_case "gds size preference" `Quick test_gds_prefers_small_victims;
        Alcotest.test_case "gds inflation" `Quick test_gds_inflation_protects_recent;
        Alcotest.test_case "gds skip reinserts" `Quick test_gds_policy_skip_reinserts;
        QCheck_alcotest.to_alcotest prop_gds_matches_tuple_heap;
      ] );
  ]
