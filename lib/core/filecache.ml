module Metrics = Iolite_obs.Metrics
module Trace = Iolite_obs.Trace
module Attrib = Iolite_obs.Attrib

type entry = {
  efile : int;
  eoff : int;
  elen : int;
  eagg : Iobuf.Agg.t;
  (* Aggregated Section 3.7 reference tracking: the number of watcher
     registrations (one per pinned slice) whose buffer is currently
     referenced outside cache entries. The entry is "currently
     referenced" iff this is non-zero — an O(1) check, maintained by
     [ewatch] registered on every underlying buffer at pin time. *)
  eref_cell : int ref;
  ewatch : int -> unit;
  (* Entered the cache via readahead and not yet demanded: cleared by
     the first lookup that touches it (a readahead hit); an eviction
     while still set means the prefetch was wasted. *)
  mutable eprefetch : bool;
  (* Delayed write-back (the B_DELWRI scheme): a dirty entry holds bytes
     newer than the backing store. [egen] is the generation stamp
     allotted when the dirty entry was created; a cluster captures
     (entry, gen) pairs so a completion can tell whether the bytes it
     made durable are still the entry's bytes. [ecaptured] is set while
     a flush holds a snapshot of the entry's data (the entry may then be
     evicted safely — durability rides the in-flight cluster).
     [esuperseded] marks a dirty entry replaced by a newer write before
     its write-back completed. *)
  mutable edirty : bool;
  egen : int;
  mutable ecaptured : bool;
  mutable esuperseded : bool;
}

let make_entry ?(prefetched = false) ?(gen = 0) ~file ~off ~len agg =
  let cell = ref 0 in
  {
    efile = file;
    eoff = off;
    elen = len;
    eagg = agg;
    eref_cell = cell;
    ewatch = (fun d -> cell := !cell + d);
    eprefetch = prefetched;
    edirty = gen > 0;
    egen = gen;
    ecaptured = false;
    esuperseded = false;
  }

module Map = Extmap.Make (struct
  type t = entry

  let file e = e.efile
  let off e = e.eoff
  let len e = e.elen
end)

(* Counter cells resolved once at cache creation (the cached-cell
   pattern): the lookup fast path's promise is "no allocation, no
   Hashtbl probes", which has to include the metrics bookkeeping. *)
type cells = {
  cc_probe : int ref; (* cache.probe: index probes (lookup/covered) *)
  cc_fastpath : int ref; (* cache.fastpath_hit: zero-alloc exact hits *)
  cc_hit : int ref;
  cc_miss : int ref;
  cc_insert : int ref;
  cc_eviction : int ref;
  cc_refcheck : int ref; (* cache.refcheck: O(1) Section 3.7 checks *)
  cc_refscan : int ref; (* cache.refscan: slice-walk checks (verify only) *)
  cc_coalesced : int ref; (* cache.fill_coalesced: misses that joined a fill *)
  cc_ra_hit : int ref; (* cache.readahead_hit: prefetched entry demanded *)
  cc_ra_wasted : int ref; (* cache.readahead_wasted: evicted undemanded *)
  cc_superseded : int ref; (* write.superseded: dirty bytes obsoleted pre-durable *)
  cc_evict_flush : int ref; (* cache.evict_flush: dirty victims force-flushed *)
  cc_evict_veto : int ref; (* cache.evict_veto: chosen victims vetoed, retried *)
}

type t = {
  sys : Iosys.t;
  mutable policy : Policy.t;
  map : Map.t;
  (* Single-flight fills: one in-flight fill per (file, offset) range;
     concurrent misses block on the leader's ivar instead of fetching
     again. Whole-file fills key on offset 0; extent-granular fills key
     on their aligned start, so a demand read waits only for the extent
     it needs, not a whole readahead window. The leader's flow id rides
     along so followers can attribute their wait to the fill they
     piggybacked on. *)
  fills : (int * int, int * unit Iolite_sim.Sync.Ivar.t) Hashtbl.t;
  cells : cells;
  mutable slices : int; (* total pinned slices, from cached Agg.num_slices *)
  mutable capacity : (unit -> int) option;
  mutable dirty : int; (* total dirty bytes across files *)
  file_dirty : (int, int) Hashtbl.t; (* file -> dirty bytes, when > 0 *)
  mutable gen : int; (* dirty-generation allocator *)
  (* Called (if set) when eviction picks a dirty, not-yet-captured
     victim: the write-back layer captures the victim file's dirty
     clusters before the entry is dropped, so reclaim never loses
     buffered writes. *)
  mutable evict_flush : (file:int -> unit) option;
  (* Called (if set) with a snapshot of each evicted entry's bytes just
     before the entry is dropped: the next cache tier down admits the
     victim instead of losing it (demotion). *)
  mutable demoter :
    (file:int -> off:int -> len:int -> gen:int -> data:string -> unit) option;
}

let key e = (e.efile, e.eoff)

let pin e =
  Iobuf.Agg.iter_slices e.eagg (fun s ->
      let b = Iobuf.Slice.buffer s in
      Iobuf.Buffer.incr_cache_ref b;
      (* Register after the cache ref is counted, then sample the current
         status: the watcher reports only subsequent transitions. *)
      Iobuf.Buffer.add_ext_watcher b e.ewatch;
      if Iobuf.Buffer.externally_referenced b then incr e.eref_cell)

let unpin e =
  Iobuf.Agg.iter_slices e.eagg (fun s ->
      let b = Iobuf.Slice.buffer s in
      if Iobuf.Buffer.externally_referenced b then decr e.eref_cell;
      Iobuf.Buffer.remove_ext_watcher b e.ewatch;
      Iobuf.Buffer.decr_cache_ref b)

(* The slice-walk reference check the O(1) counters replaced, kept only
   for {!verify_ref_tracking}; [cache.refscan] counts its uses so tests
   can assert the eviction hot path never takes it. *)
let entry_referenced_scan t e =
  incr t.cells.cc_refscan;
  let referenced = ref false in
  Iobuf.Agg.iter_slices e.eagg (fun s ->
      if Iobuf.Buffer.externally_referenced (Iobuf.Slice.buffer s) then
        referenced := true);
  !referenced

let verify_ref_tracking t =
  let ok = ref true in
  Map.iter t.map (fun e ->
      if entry_referenced_scan t e <> (!(e.eref_cell) > 0) then ok := false);
  !ok

let file_dirty_bytes t ~file =
  match Hashtbl.find_opt t.file_dirty file with Some n -> n | None -> 0

let add_dirty t ~file n =
  t.dirty <- t.dirty + n;
  let d = file_dirty_bytes t ~file + n in
  if d = 0 then Hashtbl.remove t.file_dirty file
  else Hashtbl.replace t.file_dirty file d

let add_entry t e =
  Map.add t.map e;
  if e.edirty then add_dirty t ~file:e.efile e.elen;
  pin e;
  t.slices <- t.slices + Iobuf.Agg.num_slices e.eagg;
  t.policy.Policy.on_insert (key e) ~size:e.elen

let drop_entry t e =
  Map.remove t.map e;
  if e.edirty then add_dirty t ~file:e.efile (-e.elen);
  t.policy.Policy.on_remove (key e);
  unpin e;
  t.slices <- t.slices - Iobuf.Agg.num_slices e.eagg;
  Iobuf.Agg.free e.eagg

(* The bytes of [entries] (adjacent, in offset order, [len] in all) as
   one string, for a demotion or a write-back cluster: each slice is
   copied once, on the host only. The tier and the disk model the cost
   of these moves. *)
let snapshot entries ~len =
  let dst = Bytes.create len in
  ignore
    (List.fold_left
       (fun pos e ->
         Iobuf.Agg.copy_out e.eagg dst ~pos;
         pos + e.elen)
       0 entries);
  Bytes.unsafe_to_string dst

(* A vetoed victim (dirty, uncapturable because its range overlaps an
   in-flight write) used to end the eviction round; instead the policy is
   re-consulted up to this many times with the vetoed keys excluded, so
   one stuck extent cannot stall reclaim for a whole round. *)
let max_evict_retries = 4

let evict_one t =
  let vetoed = ref [] in
  let rec attempt tries =
    let open_ e = not (List.memq e !vetoed) in
    let victim =
      match
        Map.victim t.map t.policy ~eligible:(fun e ->
            open_ e
            && begin
                 incr t.cells.cc_refcheck;
                 !(e.eref_cell) = 0
               end)
      with
      | Some _ as v -> v
      | None ->
        (* All entries are referenced: fall back to the policy's choice
           among them (Section 3.7). *)
        Map.victim t.map t.policy ~eligible:open_
    in
    match victim with
    | None -> 0
    | Some e ->
      (* A dirty victim whose bytes no flush holds yet would lose
         buffered writes: hand the file to the write-back layer first.
         The hook captures the file's dirty clusters (data snapshots —
         see {!collect_dirty}), after which dropping the entry is
         safe. *)
      if e.edirty && not e.ecaptured then begin
        match t.evict_flush with
        | Some hook ->
          incr t.cells.cc_evict_flush;
          hook ~file:e.efile
        | None -> ()
      end;
      if e.edirty && not e.ecaptured then begin
        (* The hook could not capture the victim (its range overlaps an
           in-flight write): dropping it would lose buffered writes.
           Veto it and retry the policy against the remaining
           population; give up the round only when the retry budget is
           spent. *)
        incr t.cells.cc_evict_veto;
        vetoed := e :: !vetoed;
        if tries < max_evict_retries then attempt (tries + 1) else 0
      end
      else begin
        if e.eprefetch then incr t.cells.cc_ra_wasted;
        (* Demotion: hand the victim's bytes (with its dirty generation)
           to the next tier down before they are freed. *)
        (match t.demoter with
        | Some demote when e.elen > 0 && not e.esuperseded ->
          demote ~file:e.efile ~off:e.eoff ~len:e.elen ~gen:e.egen
            ~data:(snapshot [ e ] ~len:e.elen)
        | _ -> ());
        drop_entry t e;
        incr t.cells.cc_eviction;
        (let tr = Iosys.trace t.sys in
         if Trace.enabled tr then
           Trace.instant tr ~cat:"cache" ~name:"evict"
             ~args:[ ("file", Int e.efile); ("bytes", Int e.elen) ]
             ());
        e.elen
      end
  in
  attempt 0

let create ?(policy = Policy.lru ()) ?(register_with_pageout = true) sys () =
  let m = Iosys.metrics sys in
  let t =
    {
      sys;
      policy;
      map =
        Map.create
          ~sentinel:
            (make_entry ~file:(-1) ~off:min_int ~len:0 (Iobuf.Agg.empty ()))
          ();
      fills = Hashtbl.create 16;
      cells =
        {
          cc_probe = Metrics.counter m "cache.probe";
          cc_fastpath = Metrics.counter m "cache.fastpath_hit";
          cc_hit = Metrics.counter m "cache.hit";
          cc_miss = Metrics.counter m "cache.miss";
          cc_insert = Metrics.counter m "cache.insert";
          cc_eviction = Metrics.counter m "cache.eviction";
          cc_refcheck = Metrics.counter m "cache.refcheck";
          cc_refscan = Metrics.counter m "cache.refscan";
          cc_coalesced = Metrics.counter m "cache.fill_coalesced";
          cc_ra_hit = Metrics.counter m "cache.readahead_hit";
          cc_ra_wasted = Metrics.counter m "cache.readahead_wasted";
          cc_superseded = Metrics.counter m "write.superseded";
          cc_evict_flush = Metrics.counter m "cache.evict_flush";
          cc_evict_veto = Metrics.counter m "cache.evict_veto";
        };
      slices = 0;
      capacity = None;
      dirty = 0;
      file_dirty = Hashtbl.create 16;
      gen = 0;
      evict_flush = None;
      demoter = None;
    }
  in
  if register_with_pageout then begin
    let pageout = Iosys.pageout sys in
    Iolite_mem.Pageout.register_segment pageout ~name:"filecache"
      ~is_io_cache:true
      ~resident:(fun () -> Map.total_bytes t.map)
      ~reclaim:(fun _ -> 0);
    Iolite_mem.Pageout.set_entry_evictor pageout (fun () -> evict_one t)
  end;
  t

let set_policy t policy =
  (* Re-register current entries under the new policy. *)
  Map.iter t.map (fun e -> policy.Policy.on_insert (key e) ~size:e.elen);
  t.policy <- policy

let policy_name t = t.policy.Policy.name
let set_capacity t fn = t.capacity <- fn

let enforce_capacity t =
  match t.capacity with
  | None -> ()
  | Some cap_fn ->
    (* The capacity read is hoisted out of the eviction loop: one call
       per enforcement round, re-read between rounds so a capacity
       function that shrinks while we evict still converges. *)
    let continue_ = ref true in
    while !continue_ do
      let cap = cap_fn () in
      if Map.total_bytes t.map <= cap then continue_ := false
      else begin
        let progressing = ref true in
        while !progressing && Map.total_bytes t.map > cap do
          if evict_one t = 0 then begin
            progressing := false;
            continue_ := false
          end
        done
      end
    done

let covered t ~file ~off ~len =
  len = 0
  ||
  (incr t.cells.cc_probe;
   Map.covered t.map ~file ~off ~len)

let trace_note t event ~file ~bytes =
  let tr = Iosys.trace t.sys in
  if Trace.enabled tr then
    Trace.instant tr ~cat:"cache" ~name:event
      ~args:[ ("file", Int file); ("bytes", Int bytes) ]
      ()

let miss t ~file ~len =
  incr t.cells.cc_miss;
  trace_note t "miss" ~file ~bytes:len;
  None

let hit t ~file ~len =
  incr t.cells.cc_hit;
  trace_note t "hit" ~file ~bytes:len

(* An entry serving a hit: tell the policy, and settle a readahead. *)
let touch t e =
  t.policy.Policy.on_access (key e) ~size:e.elen;
  if e.eprefetch then begin
    e.eprefetch <- false;
    incr t.cells.cc_ra_hit
  end

let lookup t ~file ~off ~len =
  incr t.cells.cc_probe;
  let e = Map.floor t.map ~file ~off in
  let e_end = e.eoff + e.elen in
  if e_end > off && off + len <= e_end then begin
    (* One entry covers the whole range: no walk, no recombination. *)
    hit t ~file ~len;
    touch t e;
    if e.eoff = off && e.elen = len then begin
      (* Exact bounds: share the entry's rope outright. *)
      incr t.cells.cc_fastpath;
      Some (Iobuf.Agg.dup e.eagg)
    end
    else Some (Iobuf.Agg.sub e.eagg ~off:(off - e.eoff) ~len)
  end
  else if Map.covered t.map ~file ~off ~len then begin
    hit t ~file ~len;
    let parts =
      List.map
        (fun e ->
          touch t e;
          let lo = max off e.eoff and hi = min (off + len) (e.eoff + e.elen) in
          Iobuf.Agg.sub e.eagg ~off:(lo - e.eoff) ~len:(hi - lo))
        (Map.overlapping t.map ~file ~off ~len)
    in
    let agg = Iobuf.Agg.concat_list parts in
    List.iter Iobuf.Agg.free parts;
    Some agg
  end
  else miss t ~file ~len

(* A fresh dirty generation, or 0 for clean bytes. *)
let next_gen t dirty =
  if dirty then begin
    t.gen <- t.gen + 1;
    t.gen
  end
  else 0

(* Remove the parts of existing entries overlapping [off, off+len),
   keeping trimmed remainders (whose buffers persist — snapshot
   semantics). O(log n + overlapping entries). *)
let carve t ~file ~off ~len =
  if len > 0 then
    List.iter
      (fun e ->
        (* A dirty entry being overwritten before its write-back
           completed is superseded: a parked (uncaptured) delayed write
           simply never reaches the disk (counted here); one already
           captured by an in-flight cluster is counted when the stale
           completion arrives (see {!ack_cluster}). *)
        if e.edirty then begin
          e.esuperseded <- true;
          if not e.ecaptured then incr t.cells.cc_superseded
        end;
        (* The surviving flanks of a dirty entry are still dirty (their
           bytes were not overwritten, and if the original was captured
           the completion will not clean them) — restamp them with a
           fresh generation. Build them before dropping (sub needs the
           live agg); the right flank is admitted first. *)
        let flank ~at ~len =
          if len <= 0 then []
          else
            let agg = Iobuf.Agg.sub e.eagg ~off:(at - e.eoff) ~len in
            [ make_entry ~prefetched:e.eprefetch ~gen:(next_gen t e.edirty)
                ~file ~off:at ~len agg ]
        in
        let left = flank ~at:e.eoff ~len:(off - e.eoff) in
        let right =
          flank ~at:(off + len) ~len:(e.eoff + e.elen - (off + len))
        in
        drop_entry t e;
        List.iter (add_entry t) (right @ left))
      (Map.overlapping t.map ~file ~off ~len)

let insert ?(dirty = false) t ~file ~off agg =
  let len = Iobuf.Agg.length agg in
  if len = 0 then Iobuf.Agg.free agg
  else begin
    carve t ~file ~off ~len;
    add_entry t (make_entry ~gen:(next_gen t dirty) ~file ~off ~len agg);
    incr t.cells.cc_insert;
    trace_note t "insert" ~file ~bytes:len;
    enforce_capacity t
  end

let backfill ?(prefetched = false) t ~file ~off agg =
  let len = Iobuf.Agg.length agg in
  if len = 0 then Iobuf.Agg.free agg
  else begin
    (* Gaps of [off, off+len) not covered by existing (newer) entries. *)
    let gaps = ref [] in
    let cursor = ref off in
    List.iter
      (fun e ->
        if e.eoff > !cursor then gaps := (!cursor, e.eoff - !cursor) :: !gaps;
        cursor := e.eoff + e.elen)
      (Map.overlapping t.map ~file ~off ~len);
    if !cursor < off + len then gaps := (!cursor, off + len - !cursor) :: !gaps;
    List.iter
      (fun (gap_off, gap_len) ->
        let sub = Iobuf.Agg.sub agg ~off:(gap_off - off) ~len:gap_len in
        add_entry t (make_entry ~prefetched ~file ~off:gap_off ~len:gap_len sub))
      (List.rev !gaps);
    Iobuf.Agg.free agg;
    enforce_capacity t
  end

(* Run [fill] (a blocking disk fetch) at most once among concurrent
   callers keyed on [(file, off)]. The first caller leads: it runs
   [fill] and, however it exits, wakes the followers. A follower
   suspends on the leader's ivar, counts as a coalesced miss, and on
   waking re-checks coverage at the call site (the leader may have
   filled a different range, or pressure may have evicted the fill
   already). *)
let fill_single_flight t ~file ?(off = 0) fill =
  let a = Iosys.attrib t.sys in
  let tr = Iosys.trace t.sys in
  let ctx = if Attrib.enabled a || Trace.enabled tr then Attrib.here a else 0 in
  match Hashtbl.find_opt t.fills (file, off) with
  | Some (leader, iv) ->
    incr t.cells.cc_coalesced;
    if Trace.enabled tr then begin
      Trace.instant tr ~cat:"cache" ~name:"fill_coalesced"
        ~args:[ ("file", Int file); ("leader", Int leader) ]
        ();
      if ctx <> 0 then
        Trace.flow_step tr ~id:ctx
          ~args:[ ("at", Str "fill_coalesced"); ("leader", Int leader) ]
          ()
    end;
    (* The follower's whole suspension is time spent waiting on the
       leader's in-flight fill. *)
    Attrib.timed ~leader a Attrib.Coalesced_wait Iolite_sim.Sync.Ivar.read iv;
    false
  | None ->
    let iv = Iolite_sim.Sync.Ivar.create () in
    Hashtbl.replace t.fills (file, off) (abs ctx, iv);
    Fun.protect
      ~finally:(fun () ->
        Hashtbl.remove t.fills (file, off);
        Iolite_sim.Sync.Ivar.fill iv ())
      fill;
    true

let fill_in_flight t ~file ?(off = 0) () = Hashtbl.mem t.fills (file, off)

let invalidate_file t ~file =
  List.iter (drop_entry t) (Map.file_extents t.map ~file)

let file_bytes t ~file = Map.file_bytes t.map ~file

let entries t ~file =
  List.map (fun e -> (e.eoff, e.elen)) (Map.file_extents t.map ~file)

(* ----------------------- delayed write-back ----------------------- *)

let dirty_bytes t = t.dirty

let dirty_files t =
  List.sort compare
    (Hashtbl.fold (fun file _ acc -> file :: acc) t.file_dirty [])

let set_evict_flusher t f = t.evict_flush <- Some f
let set_demoter t f = t.demoter <- Some f

(* A cluster is one contiguous disk request built from a run of adjacent
   dirty extents, with the data captured by value (the entries can be
   carved or evicted while the write is in flight). *)
type cluster = {
  cl_file : int;
  cl_off : int;
  cl_len : int;
  cl_extents : int;
  cl_data : string;
  cl_items : (entry * int) list; (* each captured entry with its gen *)
}

let cluster_file c = c.cl_file
let cluster_off c = c.cl_off
let cluster_len c = c.cl_len
let cluster_extents c = c.cl_extents
let cluster_data c = c.cl_data

(* The newest dirty generation captured in the cluster: the write-ahead
   staging tier tags the staged bytes with it so a later promotion can
   tell these bytes from an older demotion of the same range. *)
let cluster_gen c = List.fold_left (fun acc (_, g) -> max acc g) 0 c.cl_items

(* Walk the file's extents in offset order and merge maximal runs of
   adjacent dirty extents into clusters of at most one pool extent
   ([Iobuf.Pool.max_alloc] bytes; a single larger extent forms its own
   cluster). Captured entries are marked so a concurrent collection — or
   an eviction — does not capture them again. [skip] vetoes whole runs
   without capturing them (they stay dirty for a later collection): the
   write-back layer skips ranges overlapping an in-flight write, since
   two outstanding writes to one range can complete in elevator order —
   not issue order — and land stale bytes last. *)
let collect_dirty ?skip t ~file =
  let clusters = ref [] in
  let run = ref [] in
  let run_len = ref 0 in
  let run_end = ref min_int in
  let close () =
    (match List.rev !run with
    | [] -> ()
    | first :: _ as entries ->
      let vetoed =
        match skip with
        | Some f -> f ~off:first.eoff ~len:!run_len
        | None -> false
      in
      if not vetoed then begin
        List.iter (fun e -> e.ecaptured <- true) entries;
        clusters :=
          {
            cl_file = file;
            cl_off = first.eoff;
            cl_len = !run_len;
            cl_extents = List.length entries;
            cl_data = snapshot entries ~len:!run_len;
            cl_items = List.map (fun e -> (e, e.egen)) entries;
          }
          :: !clusters
      end);
    run := [];
    run_len := 0;
    run_end := min_int
  in
  List.iter
    (fun e ->
      if e.edirty && not e.ecaptured then begin
        if !run_end <> e.eoff || !run_len + e.elen > Iobuf.Pool.max_alloc then
          close ();
        run := e :: !run;
        run_len := !run_len + e.elen;
        run_end := e.eoff + e.elen
      end
      else close ())
    (Map.file_extents t.map ~file);
  close ();
  List.rev !clusters

(* Durable-completion acknowledgement: clear the dirty bit of every
   captured entry whose bytes the completed write actually covered — an
   entry carved away since capture was superseded (newer bytes will be
   flushed by a later cluster; its stale completion only counts). An
   entry evicted since capture is clean in the sense that matters (its
   bytes are durable) but holds no accounting to release. Returns
   (entries cleaned, entries superseded). *)
let ack_cluster t c =
  let cleaned = ref 0 in
  let superseded = ref 0 in
  List.iter
    (fun (e, gen) ->
      if e.esuperseded || (not e.edirty) || e.egen <> gen then begin
        incr superseded;
        (* The carve that superseded a captured entry deferred the count
           to this completion (avoiding double counting). *)
        if e.esuperseded && e.ecaptured then incr t.cells.cc_superseded
      end
      else begin
        incr cleaned;
        e.edirty <- false;
        match Map.find t.map (key e) with
        | Some e' when e' == e -> add_dirty t ~file:e.efile (-e.elen)
        | _ -> ()
      end;
      e.ecaptured <- false)
    c.cl_items;
  (!cleaned, !superseded)

let total_bytes t = Map.total_bytes t.map
let total_slices t = t.slices
let entry_count t = Map.count t.map

let check t =
  Map.check t.map;
  let dirty = Hashtbl.create 16 and slices = ref 0 in
  Map.iter t.map (fun e ->
      slices := !slices + Iobuf.Agg.num_slices e.eagg;
      if e.edirty then
        Hashtbl.replace dirty e.efile
          (e.elen + Option.value ~default:0 (Hashtbl.find_opt dirty e.efile)));
  let sorted h =
    List.sort compare (Hashtbl.fold (fun f n l -> (f, n) :: l) h [])
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (sorted dirty) in
  let per_file = sorted dirty = sorted t.file_dirty in
  if total <> t.dirty || !slices <> t.slices || not per_file then
    Printf.ksprintf failwith
      "dirty %d (walk %d), slices %d (walk %d), per file %s" t.dirty total
      t.slices !slices
      (if per_file then "agree" else "differ")
