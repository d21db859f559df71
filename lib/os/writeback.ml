module Engine = Iolite_sim.Engine
module Sync = Iolite_sim.Sync
module Filecache = Iolite_core.Filecache
module Disk = Iolite_fs.Disk
module Metrics = Iolite_obs.Metrics
module Trace = Iolite_obs.Trace
module Flow = Iolite_obs.Flow

type config = {
  wb_flush_interval : float;
  wb_hi_ratio : float;
  wb_hard_ratio : float;
}

let default_config =
  {
    wb_flush_interval = 0.5;
    wb_hi_ratio = 0.25;
    wb_hard_ratio = 0.5;
  }

(* The (file, off, len) range one clustered write holds from collection
   to durable completion. *)
module Inflight = Iolite_core.Extmap.Make (struct
  type t = int * int * int

  let file (f, _, _) = f
  let off (_, o, _) = o
  let len (_, _, l) = l
end)

let reservation c = Filecache.(cluster_file c, cluster_off c, cluster_len c)

type cells = {
  wc_delayed : int ref; (* write.delayed: writes parked in the cache *)
  wc_flushes : int ref; (* write.flushes: flush rounds submitting >= 1 cluster *)
  wc_cluster_writes : int ref; (* write.cluster_writes: clustered disk requests *)
  wc_clustered : int ref; (* write.clustered: extents riding multi-extent clusters *)
  wc_throttled : int ref; (* write.throttled: writers blocked at the hard limit *)
  wc_fsync : int ref; (* write.fsync *)
}

type t = {
  engine : Engine.t;
  disk : Disk.t;
  cache : Filecache.t;
  trace : Trace.t;
  flow : Flow.t;
  budget : unit -> int;
  cfg : config;
  cells : cells;
  mutable timer : Engine.timer option; (* the armed sync-daemon deadline *)
  mutable kicked : bool; (* an immediate flush fiber is already queued *)
  (* One reservation per clustered write, collected but not yet
     durable: dirty runs overlapping one are vetoed at collection, since
     two outstanding writes to a range can complete in elevator order
     and land stale bytes last. *)
  inflight : Inflight.t;
  durable_cv : Sync.Condvar.t; (* fsync/sync waiters *)
  throttle_cv : Sync.Condvar.t; (* writers parked at the hard limit *)
  (* NVMM write-ahead staging (the second cache tier): each cluster
     payload is copied there before the disk write is submitted and
     unpinned when it completes, so evicted-then-reread dirty data can
     be promoted from the tier instead of refetched from a disk that
     may not have it yet. *)
  mutable tier : Iolite_core.Tier.t option;
}

let create ~engine ~disk ~cache ~metrics ~trace ~flow ~budget cfg =
  {
    engine;
    disk;
    cache;
    trace;
    flow;
    budget;
    cfg;
    cells =
      {
        wc_delayed = Metrics.counter metrics "write.delayed";
        wc_flushes = Metrics.counter metrics "write.flushes";
        wc_cluster_writes = Metrics.counter metrics "write.cluster_writes";
        wc_clustered = Metrics.counter metrics "write.clustered";
        wc_throttled = Metrics.counter metrics "write.throttled";
        wc_fsync = Metrics.counter metrics "write.fsync";
      };
    timer = None;
    kicked = false;
    inflight = Inflight.create ~sentinel:(-1, min_int, 0) ();
    durable_cv = Sync.Condvar.create ();
    throttle_cv = Sync.Condvar.create ();
    tier = None;
  }

let set_tier t tier = t.tier <- Some tier

let hard_limit t = int_of_float (t.cfg.wb_hard_ratio *. float_of_int (t.budget ()))
let hi_limit t = int_of_float (t.cfg.wb_hi_ratio *. float_of_int (t.budget ()))

(* Collection reserves each cluster's range immediately — before any
   submission, which may block on the ring — so no later collection can
   capture an overlapping run until the ack releases it. Reservations
   therefore never overlap, at most one write per byte is ever
   outstanding, and issue order equals capture order: the write-order
   invariant the crash harness checks. Every collect is followed by a
   submit of exactly these clusters. *)
let collect t ~file =
  let clusters =
    Filecache.collect_dirty
      ~skip:(fun ~off ~len ->
        Inflight.overlapping t.inflight ~file ~off ~len <> [])
      t.cache ~file
  in
  List.iter (fun c -> Inflight.add t.inflight (reservation c)) clusters;
  clusters

(* ----------------------- clustered flushing ----------------------- *)

let cancel_timer t =
  match t.timer with
  | Some tm ->
    ignore (Engine.cancel_timer t.engine tm);
    t.timer <- None
  | None -> ()

let rec arm t =
  match t.timer with
  | Some tm when Engine.timer_pending tm -> ()
  | _ ->
    t.timer <-
      Some
        (Engine.schedule_cancelable ~name:"sync-daemon" t.engine
           (Engine.now t.engine +. t.cfg.wb_flush_interval)
           (fun () -> tick t))

(* Ack-side bookkeeping shared by every cluster completion: wake fsync
   waiters, release throttled writers once the backlog is back under
   the hard limit, and keep the daemon armed exactly while dirty bytes
   remain (superseded captures leave re-dirtied flanks behind). *)
and on_durable t =
  Sync.Condvar.broadcast t.durable_cv;
  if Filecache.dirty_bytes t.cache <= hard_limit t then
    Sync.Condvar.broadcast t.throttle_cv;
  if Filecache.dirty_bytes t.cache = 0 then cancel_timer t else arm t

(* Submit one flush round's clusters as a single elevator batch: slots
   are claimed back to back in the daemon fiber, so the requests land
   in the dispatcher's next frozen batch together and the C-SCAN order
   plus the sequential-positioning discount apply across clusters. The
   whole round gets one flow id; completions stitch into it from the
   dispatcher fiber and the last ack finishes it. *)
and submit_clusters t ~reason clusters =
  match clusters with
  | [] -> ()
  | _ ->
    incr t.cells.wc_flushes;
    let n = List.length clusters in
    let fid = if Flow.enabled t.flow then Flow.fresh t.flow else 0 in
    let body () =
      if fid > 0 then
        Trace.flow_start t.trace ~id:fid
          ~args:[ ("at", Trace.Str "wb.flush"); ("reason", Trace.Str reason) ]
          ();
      let remaining = ref n in
      List.iter
        (fun c ->
          let file = Filecache.cluster_file c in
          let off = Filecache.cluster_off c in
          let len = Filecache.cluster_len c in
          let extents = Filecache.cluster_extents c in
          incr t.cells.wc_cluster_writes;
          if extents >= 2 then
            t.cells.wc_clustered := !(t.cells.wc_clustered) + extents;
          if Trace.enabled t.trace then
            Trace.instant t.trace ~cat:"wb" ~name:"cluster"
              ~args:
                [
                  ("file", Trace.Int file);
                  ("off", Trace.Int off);
                  ("bytes", Trace.Int len);
                  ("extents", Trace.Int extents);
                ]
              ();
          (* Write-ahead staging: the payload lands in the persistent
             tier (pinned) before the disk write goes out. *)
          (match t.tier with
          | Some tier ->
            Iolite_core.Tier.stage tier ~file ~off
              ~gen:(Filecache.cluster_gen c)
              (Filecache.cluster_data c)
          | None -> ());
          Disk.submit ~data:(Filecache.cluster_data c)
            ~ctx:(if fid > 0 then Flow.detach fid else 0)
            t.disk ~op:`Write ~file ~off ~bytes:len (fun () ->
              (* Dispatcher-fiber completion: bookkeeping only. *)
              ignore (Filecache.ack_cluster t.cache c);
              (match t.tier with
              | Some tier -> Iolite_core.Tier.unstage tier ~file ~off ~len
              | None -> ());
              Inflight.remove t.inflight (reservation c);
              decr remaining;
              if !remaining = 0 && fid > 0 then
                Trace.flow_finish t.trace ~id:fid
                  ~args:[ ("at", Trace.Str "wb.durable") ]
                  ();
              on_durable t))
        clusters
    in
    if Trace.enabled t.trace then
      Trace.span t.trace ~cat:"wb" ~name:"flush"
        ~args:
          [
            ("reason", Trace.Str reason);
            ("clusters", Trace.Int n);
            ("flow", Trace.Int fid);
          ]
        body
    else body ()

and flush_round t ~reason =
  let clusters =
    List.concat_map
      (fun file -> collect t ~file)
      (Filecache.dirty_files t.cache)
  in
  submit_clusters t ~reason clusters

(* The sync daemon's timed body (AosCaches' [Synchronize], run as a
   cancelable timer rather than a forever-fiber so an idle system's
   event queue drains). Re-arms itself while dirty bytes remain. *)
and tick t =
  t.timer <- None;
  flush_round t ~reason:"timer";
  if Filecache.dirty_bytes t.cache > 0 then arm t

let kick ?(reason = "kick") t =
  if not t.kicked then begin
    t.kicked <- true;
    Engine.spawn ~name:"sync-daemon" t.engine (fun () ->
        t.kicked <- false;
        flush_round t ~reason)
  end

(* Filecache eviction hook: the victim file's dirty clusters must be
   captured before the victim entry is dropped, so the collection runs
   synchronously here; the submission — which may block on the ring —
   moves to its own fiber. The clusters own data snapshots, so the
   deferred submission is safe against any concurrent carve or drop.
   If the victim's own range is vetoed (it overlaps an in-flight
   write), [evict_one] sees it still uncaptured and backs off. *)
let evict_flush t ~file =
  let clusters = collect t ~file in
  if clusters <> [] then
    Engine.spawn ~name:"wb-evict-flush" t.engine (fun () ->
        submit_clusters t ~reason:"evict" clusters)

(* Per-write notification, called by [Fileio.iol_write]
   after the dirty insert: arms the daemon, fires the high-watermark
   early flush, and blocks the writer at the hard limit (the CAWL
   disk-bound regime: above the dirty threshold every writer runs at
   drain speed). *)
let note_write t =
  incr t.cells.wc_delayed;
  arm t;
  let dirty = Filecache.dirty_bytes t.cache in
  if t.cfg.wb_hi_ratio < t.cfg.wb_hard_ratio && dirty >= hi_limit t then
    kick ~reason:"hi-watermark" t;
  let hard = hard_limit t in
  if dirty > hard then begin
    incr t.cells.wc_throttled;
    while Filecache.dirty_bytes t.cache > hard do
      Sync.Condvar.wait t.throttle_cv
    done
  end

(* ------------------------------ syncs ------------------------------ *)

(* Block the caller on this file's in-flight set only: the wait
   predicate reads the file's dirty and reserved bytes, so
   other files' backlogs never delay the caller (the single-flight
   latch shape, with a condvar re-check loop instead of an ivar because
   completions arrive cluster by cluster). *)
let fsync t ~file =
  incr t.cells.wc_fsync;
  let flush () = submit_clusters t ~reason:"fsync" (collect t ~file) in
  flush ();
  while
    Filecache.file_dirty_bytes t.cache ~file > 0
    || Inflight.file_bytes t.inflight ~file > 0
  do
    Sync.Condvar.wait t.durable_cv;
    (* Re-collect: runs vetoed by an in-flight overlap — or written
       while we waited — flush now rather than waiting for the
       daemon. *)
    flush ()
  done

let sync t =
  incr t.cells.wc_fsync;
  flush_round t ~reason:"sync";
  while Filecache.dirty_bytes t.cache > 0 || Inflight.count t.inflight > 0 do
    Sync.Condvar.wait t.durable_cv;
    flush_round t ~reason:"sync"
  done

let quiescent t =
  Filecache.dirty_bytes t.cache = 0 && Inflight.count t.inflight = 0

let inflight_clusters t ~file =
  List.length (Inflight.file_extents t.inflight ~file)
