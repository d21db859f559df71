open Iolite_core

(* ------------------------------------------------------------------ *)
(* Satellite: Policy.gds set_cost — L-aging survives a cost switch.   *)
(* ------------------------------------------------------------------ *)

(* GDS with uniform cost: evicting (2,0) (H = 0.5) raises L to 0.5.
   After switching the cost model to a flat 10.0 without rebuilding the
   structure:
   - a new entry of size 100 ranks H = L + 10/100 = 0.6 — only correct
     if BOTH the new cost applies and the pre-switch L survived;
   - the pre-switch entry (1,0) keeps its old H = 1.0 (not re-ranked);
   - a new entry of size 12 ranks H = 0.5 + 10/12 ~ 1.33.
   The eviction order (3,0), (1,0), (4,0) pins all three facts; any
   L-reset or eager re-ranking reorders it. *)
let test_set_cost_l_aging () =
  let p = Policy.gds () in
  let all _ = true in
  p.Policy.on_insert (1, 0) ~size:1;
  (* H = 1.0 *)
  p.Policy.on_insert (2, 0) ~size:2;
  (* H = 0.5 *)
  (match p.Policy.choose ~eligible:all with
  | Some k ->
    Alcotest.(check (pair int int)) "cheapest first" (2, 0) k;
    p.Policy.on_remove k
  | None -> Alcotest.fail "expected a victim");
  let set = Option.get p.Policy.set_cost in
  set (fun _ ~size:_ -> 10.0);
  p.Policy.on_insert (3, 0) ~size:100;
  p.Policy.on_insert (4, 0) ~size:12;
  let order = ref [] in
  for _ = 1 to 3 do
    match p.Policy.choose ~eligible:all with
    | Some k ->
      order := k :: !order;
      p.Policy.on_remove k
    | None -> Alcotest.fail "heap drained early"
  done;
  Alcotest.(check (list (pair int int)))
    "L and pre-switch ranks survive the cost switch"
    [ (3, 0); (1, 0); (4, 0) ]
    (List.rev !order)

let test_lru_has_no_set_cost () =
  Alcotest.(check bool)
    "set_cost is None for LRU" true
    ((Policy.lru ()).Policy.set_cost = None)

(* ------------------------------------------------------------------ *)
(* Satellite: evict_one veto back-off.                                *)
(* ------------------------------------------------------------------ *)

let mk_cache () =
  let sys = Iosys.create ~capacity:(32 * 1024 * 1024) () in
  let app = Iosys.new_domain sys ~name:"app" in
  let pool =
    Iobuf.Pool.create sys ~name:"tiertest"
      ~acl:(Iolite_mem.Vm.Only (Iolite_mem.Pdomain.Set.singleton app))
  in
  let cache = Filecache.create ~register_with_pageout:false sys () in
  (sys, app, pool, cache)

let veto_count sys =
  Iolite_obs.Metrics.get (Iosys.metrics sys) "cache.evict_veto"

(* A dirty, uncaptured LRU victim used to end the round with no
   progress; now it is vetoed (counted) and the policy is re-consulted,
   so the round still reclaims the clean entry behind it. *)
let test_evict_veto_retries () =
  let sys, app, pool, cache = mk_cache () in
  Filecache.insert ~dirty:true cache ~file:1 ~off:0
    (Iobuf.Agg.of_string pool ~producer:app "dirty-uncaptured");
  Filecache.insert cache ~file:2 ~off:0
    (Iobuf.Agg.of_string pool ~producer:app "clean-victim");
  let freed = Filecache.evict_one cache in
  Alcotest.(check bool) "round made progress" true (freed > 0);
  Alcotest.(check int) "one veto counted" 1 (veto_count sys);
  Alcotest.(check bool) "dirty entry survived" true
    (Filecache.covered cache ~file:1 ~off:0 ~len:16);
  Alcotest.(check bool) "clean entry evicted" false
    (Filecache.covered cache ~file:2 ~off:0 ~len:12)

let test_evict_veto_bounded () =
  let sys, app, pool, cache = mk_cache () in
  for f = 1 to 6 do
    Filecache.insert ~dirty:true cache ~file:f ~off:0
      (Iobuf.Agg.of_string pool ~producer:app "dirty")
  done;
  let freed = Filecache.evict_one cache in
  Alcotest.(check int) "no progress when all victims veto" 0 freed;
  Alcotest.(check int) "retry budget bounds the vetoes" 5 (veto_count sys);
  Alcotest.(check int) "nothing dropped" 6 (Filecache.entry_count cache)

(* ------------------------------------------------------------------ *)
(* Tier: directed behavior.                                           *)
(* ------------------------------------------------------------------ *)

let mk_tier ?policy ?capacity () =
  let sys = Iosys.create ~capacity:(32 * 1024 * 1024) () in
  let tier = Tier.create ?policy sys () in
  (match capacity with
  | Some c -> Tier.set_capacity tier (Some (fun () -> c))
  | None -> ());
  (sys, tier)

let test_demote_promote_roundtrip () =
  let sys, tier = mk_tier () in
  let app = Iosys.new_domain sys ~name:"app" in
  let pool =
    Iobuf.Pool.create sys ~name:"rt"
      ~acl:(Iolite_mem.Vm.Only (Iolite_mem.Pdomain.Set.singleton app))
  in
  (* The original bytes ride an aggregate; [Agg.dup] pins the reference
     copy the round-trip must reproduce byte-for-byte. *)
  let original = String.init 300 (fun i -> Char.chr (32 + (i mod 95))) in
  let agg = Iobuf.Agg.of_string pool ~producer:app original in
  let dup = Iobuf.Agg.dup agg in
  let snapshot =
    let b = Buffer.create 300 in
    Iobuf.Agg.iter_slices dup (fun sl ->
        let data, off = Iobuf.Slice.view sl in
        Buffer.add_subbytes b data off (Iobuf.Slice.len sl));
    Buffer.contents b
  in
  Tier.demote tier ~file:1 ~off:64 ~gen:0 snapshot;
  (match Tier.promote tier ~file:1 ~off:64 ~len:300 with
  | Some bytes ->
    Alcotest.(check string) "round-trip equals Agg.dup of the original"
      original bytes
  | None -> Alcotest.fail "expected full coverage");
  Alcotest.(check int) "promotion moved the bytes out" 0
    (Tier.total_bytes tier);
  Iobuf.Agg.free dup;
  Iobuf.Agg.free agg

let test_partial_miss_drops_fragment () =
  let _, tier = mk_tier () in
  Tier.demote tier ~file:1 ~off:0 ~gen:0 "aaaa";
  Alcotest.(check bool) "partial coverage misses" true
    (Tier.promote tier ~file:1 ~off:0 ~len:8 = None);
  (* The stale fragment must not survive next to the disk refill. *)
  Alcotest.(check int) "fragment dropped on miss" 0 (Tier.total_bytes tier)

let test_capacity_eviction_spares_staged () =
  let sys, tier = mk_tier ~capacity:8 () in
  Tier.stage tier ~file:1 ~off:0 ~gen:3 "pinned!!";
  Tier.demote tier ~file:2 ~off:0 ~gen:0 "overflow";
  (* Both are 8 bytes against an 8-byte budget: the demotion overflows,
     and the only eligible victim is the demotion itself (the staged
     entry is pinned). *)
  Alcotest.(check int) "within budget" 8 (Tier.total_bytes tier);
  Alcotest.(check bool) "staged survived" true (Tier.covered tier ~file:1 ~off:0 ~len:8);
  Tier.unstage tier ~file:1 ~off:0 ~len:8;
  Alcotest.(check int) "unstaged, still resident" 8 (Tier.total_bytes tier);
  Alcotest.(check int) "staged accounting drained" 0 (Tier.staged_bytes tier);
  Alcotest.(check int) "evictions counted" 1
    (Iolite_obs.Metrics.get (Iosys.metrics sys) "cache.tier.evict")

(* Tier-served bytes end to end: a kernel with the tier armed and a
   working set larger than its DRAM budget. Every file is read four
   times through Fileio: whole, filled whole-file as the web servers
   do; whole, paged by extent; whole-file again; and over an odd
   sub-range. Whole-file fills demote entries that extent fills later
   promote in part, and the reverse, so promotions take every shape.
   Every byte delivered must match the file's content formula, and the
   tier must have carried traffic both ways. *)
let test_fileio_bytes_through_tier () =
  let module Kernel = Iolite_os.Kernel in
  let module Engine = Iolite_sim.Engine in
  let module Fileio = Iolite_os.Fileio in
  let config =
    {
      (Kernel.default_config ()) with
      Kernel.mem_capacity = 16 * 1024 * 1024;
      cache_policy = Policy.gds ();
      tier_enabled = true;
    }
  in
  let kernel = Kernel.create ~config (Engine.create ()) in
  (* Small files are cached whole; the others are paged by extent. *)
  let files =
    List.init 64 (fun i ->
        let size =
          if i mod 3 = 0 then 9_001 + (997 * i) else 150_001 + (4_099 * i)
        in
        (Kernel.add_file kernel ~name:(Printf.sprintf "/t%d" i) ~size, size))
  in
  let working_set =
    List.fold_left (fun acc (_, size) -> acc + size) 0 files
  in
  let budget =
    Iolite_mem.Physmem.io_budget (Iosys.physmem (Kernel.sys kernel))
  in
  Alcotest.(check bool) "working set exceeds DRAM" true (working_set > budget);
  let reads = ref 0 and bad = ref [] in
  ignore
    (Iolite_os.Process.spawn kernel ~name:"reader" (fun proc ->
         for pass = 1 to 4 do
           List.iter
             (fun (file, size) ->
               if pass mod 2 = 1 && not (Fileio.cached_unified proc ~file)
               then Fileio.fetch_unified proc ~file;
               let off, len =
                 if pass < 4 then (0, size) else ((size / 3) lor 1, size / 2)
               in
               let a = Fileio.iol_read proc ~file ~off ~len in
               let b = Buffer.create len in
               Iobuf.Agg.iter_slices a (fun sl ->
                   let data, o = Iobuf.Slice.view sl in
                   Buffer.add_subbytes b data o (Iobuf.Slice.len sl));
               Iobuf.Agg.free a;
               incr reads;
               if
                 Buffer.length b <> len
                 || not
                      (Iolite_fs.Filestore.check_string ~file ~off
                         (Buffer.contents b))
               then
                 bad := Printf.sprintf "file %d [%d,+%d)" file off len :: !bad)
             files
         done));
  Engine.run (Kernel.engine kernel);
  Alcotest.(check int) "every read completed" (4 * List.length files) !reads;
  Alcotest.(check (list string)) "every byte matches its file" [] !bad;
  let counter name = Iolite_obs.Metrics.get (Kernel.metrics kernel) name in
  Alcotest.(check bool) "evictions demoted" true
    (counter "cache.tier.demote" > 0);
  Alcotest.(check bool) "misses promoted" true
    (counter "cache.tier.promote" > 0);
  Tier.check (Option.get (Kernel.tier kernel))

(* ------------------------------------------------------------------ *)
(* Tier: the qcheck model-based oracle (PR 5 style).                  *)
(*                                                                    *)
(* Reference: a naive sorted list of extents with byte-at-a-time       *)
(* assembly, mirroring the documented semantics with none of the       *)
(* implementation's machinery (no AVL, no hashtable index, no          *)
(* piecewise substring assembly). Invariants carried by the equality:  *)
(* no byte resident twice (entries never overlap), promotion always    *)
(* observes the newest bytes written, and staged pins are respected.   *)
(* ------------------------------------------------------------------ *)

type rent = { ro : int; rd : string; rg : int; rs : bool }

let rlen e = String.length e.rd
let rend e = e.ro + rlen e

let roverlaps e ~off ~len = e.ro < off + len && rend e > off

let rremove_range ?(keep_staged = false) model ~off ~len =
  List.concat_map
    (fun e ->
      if not (roverlaps e ~off ~len) then [ e ]
      else if keep_staged && e.rs then [ e ]
      else
        (if e.ro < off then
           [ { e with rd = String.sub e.rd 0 (off - e.ro) } ]
         else [])
        @
        if rend e > off + len then
          [
            {
              e with
              ro = off + len;
              rd = String.sub e.rd (off + len - e.ro) (rend e - (off + len));
            };
          ]
        else [])
    model

let rinsert model e =
  List.sort (fun a b -> compare a.ro b.ro) (e :: model)

let rcovered model ~off ~len =
  len > 0
  &&
  let ok = ref true in
  for pos = off to off + len - 1 do
    if not (List.exists (fun e -> e.ro <= pos && pos < rend e) model) then
      ok := false
  done;
  !ok

(* Byte-at-a-time assembly: position by position, find the entry that
   holds it. O(len * entries) — the point is independence, not speed. *)
let rassemble model ~off ~len =
  String.init len (fun i ->
      let pos = off + i in
      let e = List.find (fun e -> e.ro <= pos && pos < rend e) model in
      e.rd.[pos - e.ro])

let radmit model ~staged ~off ~gen data =
  let len = String.length data in
  if len = 0 then model
  else if List.exists (fun e -> e.rs && roverlaps e ~off ~len) model then
    model (* staged overlap vetoes the admission *)
  else
    rinsert
      (rremove_range model ~off ~len)
      { ro = off; rd = data; rg = gen; rs = staged }

let rpromote model ~off ~len =
  if not (rcovered model ~off ~len) then
    (rremove_range ~keep_staged:true model ~off ~len, None)
  else
    let bytes = rassemble model ~off ~len in
    (rremove_range ~keep_staged:true model ~off ~len, Some bytes)

let runstage model ~off ~len =
  List.map
    (fun e ->
      if e.rs && e.ro >= off && rend e <= off + len then { e with rs = false }
      else e)
    model

let rinvalidate model ~off ~len =
  if len = 0 then model
  else
    rremove_range
      (List.map
         (fun e -> if roverlaps e ~off ~len then { e with rs = false } else e)
         model)
      ~off ~len

type op =
  | Demote of int * string * int
  | Stage of int * string * int
  | Unstage of int * int
  | Promote of int * int
  | PromoteExact of int (* the exact range of the i-th resident entry, mod n *)
  | Invalidate of int * int
  | Covered of int * int

let op_gen =
  let open QCheck.Gen in
  let off = 0 -- 48 in
  let len = 1 -- 16 in
  let gen = 0 -- 5 in
  (* Bytes vary within an entry, so a promotion that copies from the
     wrong offset of an entry shows. *)
  let data =
    map2
      (fun n c -> String.init n (fun i -> Char.chr (97 + ((c + i) mod 26))))
      len (0 -- 25)
  in
  frequency
    [
      (4, map3 (fun o d g -> Demote (o, d, g)) off data gen);
      (2, map3 (fun o d g -> Stage (o, d, g)) off data gen);
      (2, map2 (fun o l -> Unstage (o, l)) off len);
      (3, map2 (fun o l -> Promote (o, l)) off len);
      (2, map (fun i -> PromoteExact i) (0 -- 63));
      (2, map2 (fun o l -> Invalidate (o, l)) off len);
      (2, map2 (fun o l -> Covered (o, l)) off len);
    ]

let show_op = function
  | Demote (o, d, g) -> Printf.sprintf "demote(%d,%S,%d)" o d g
  | Stage (o, d, g) -> Printf.sprintf "stage(%d,%S,%d)" o d g
  | Unstage (o, l) -> Printf.sprintf "unstage(%d,%d)" o l
  | Promote (o, l) -> Printf.sprintf "promote(%d,%d)" o l
  | PromoteExact i -> Printf.sprintf "promote_exact(%d)" i
  | Invalidate (o, l) -> Printf.sprintf "invalidate(%d,%d)" o l
  | Covered (o, l) -> Printf.sprintf "covered(%d,%d)" o l

(* With a [capacity], the tier evicts under its policy, which the model
   does not predict: after every step, model entries missing from the
   tier count as evicted, must have been unstaged, and leave the model.
   The budget holds after an admitted demotion and after an unstage
   unless only staged entries remain; a vetoed demotion and [stage] do
   not enforce it. *)
let tier_prop ~name ?capacity () =
  QCheck.Test.make ~name ~count:400
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 60) op_gen)
       ~print:(fun ops -> String.concat ";" (List.map show_op ops)))
    (fun ops ->
      let sys, tier = mk_tier ?capacity () in
      let evictions () =
        Iolite_obs.Metrics.get (Iosys.metrics sys) "cache.tier.evict"
      in
      let model = ref [] in
      let ok = ref true in
      let check b = if not b then ok := false in
      let file = 1 in
      List.iter
        (fun op ->
          let evictions0 = evictions () in
          let enforced = ref false in
          (match op with
          | Demote (off, data, gen) ->
            Tier.demote tier ~file ~off ~gen data;
            enforced :=
              not
                (List.exists
                   (fun e -> e.rs && roverlaps e ~off ~len:(String.length data))
                   !model);
            model := radmit !model ~staged:false ~off ~gen data
          | Stage (off, data, gen) ->
            Tier.stage tier ~file ~off ~gen data;
            model := radmit !model ~staged:true ~off ~gen data
          | Unstage (off, len) ->
            Tier.unstage tier ~file ~off ~len;
            enforced := true;
            model := runstage !model ~off ~len
          | Promote (off, len) ->
            let got = Tier.promote tier ~file ~off ~len in
            let model', want = rpromote !model ~off ~len in
            model := model';
            check (got = want)
          | PromoteExact i -> (
            (* Random ranges rarely match an entry; this one always
               does, staged or not, so the tier must hand its stored
               string over rather than a copy. *)
            match Tier.entries tier ~file with
            | [] -> ()
            | resident ->
              let off, stored, _, _ =
                List.nth resident (i mod List.length resident)
              in
              let len = String.length stored in
              let got = Tier.promote tier ~file ~off ~len in
              let model', want = rpromote !model ~off ~len in
              model := model';
              check (got = want);
              check (match got with Some s -> s == stored | None -> false))
          | Invalidate (off, len) ->
            Tier.invalidate tier ~file ~off ~len;
            model := rinvalidate !model ~off ~len
          | Covered (off, len) ->
            check (Tier.covered tier ~file ~off ~len = rcovered !model ~off ~len));
          let resident = Tier.entries tier ~file in
          let kept, evicted =
            List.partition
              (fun e -> List.mem (e.ro, e.rd, e.rg, e.rs) resident)
              !model
          in
          model := kept;
          check (List.for_all (fun e -> not e.rs) evicted);
          check (evictions () - evictions0 = List.length evicted);
          (match capacity with
          | Some cap when !enforced ->
            check
              (Tier.total_bytes tier <= cap || List.for_all (fun e -> e.rs) kept)
          | _ -> ());
          Tier.check tier;
          (* The resident set matches the model byte-for-byte (bytes,
             generation stamps, pins), entries in offset order. *)
          check
            (Tier.entries tier ~file
            = List.map (fun e -> (e.ro, e.rd, e.rg, e.rs)) !model);
          (* No byte resident twice: successive entries don't overlap. *)
          let rec disjoint = function
            | a :: (b :: _ as rest) -> rend a <= b.ro && disjoint rest
            | _ -> true
          in
          check (disjoint !model);
          check
            (Tier.total_bytes tier
            = List.fold_left (fun a e -> a + rlen e) 0 !model);
          check
            (Tier.staged_bytes tier
            = List.fold_left (fun a e -> a + if e.rs then rlen e else 0) 0 !model))
        ops;
      !ok)

let suites =
  [
    ( "tier.policy",
      [
        Alcotest.test_case "set_cost keeps L-aging" `Quick
          test_set_cost_l_aging;
        Alcotest.test_case "lru has no set_cost" `Quick
          test_lru_has_no_set_cost;
      ] );
    ( "tier.evict_veto",
      [
        Alcotest.test_case "vetoed victim retries" `Quick
          test_evict_veto_retries;
        Alcotest.test_case "retry budget bounded" `Quick
          test_evict_veto_bounded;
      ] );
    ( "tier.directed",
      [
        Alcotest.test_case "demote/promote round-trip" `Quick
          test_demote_promote_roundtrip;
        Alcotest.test_case "partial miss drops fragment" `Quick
          test_partial_miss_drops_fragment;
        Alcotest.test_case "capacity spares staged" `Quick
          test_capacity_eviction_spares_staged;
        Alcotest.test_case "fileio bytes through the tier" `Quick
          test_fileio_bytes_through_tier;
      ] );
    ( "tier.props",
      [
        QCheck_alcotest.to_alcotest
          (tier_prop ~name:"tier matches sorted-list model" ());
        QCheck_alcotest.to_alcotest
          (tier_prop ~name:"bounded tier evicts only unstaged entries"
             ~capacity:24 ());
      ] );
  ]
