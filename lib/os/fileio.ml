module Iosys = Iolite_core.Iosys
module Iobuf = Iolite_core.Iobuf
module Filecache = Iolite_core.Filecache
module Transfer = Iolite_core.Transfer
module Filestore = Iolite_fs.Filestore
module Metrics = Iolite_obs.Metrics
module Trace = Iolite_obs.Trace

exception No_such_file of int

let file_size proc ~file =
  let kernel = Process.kernel proc in
  match Filestore.size (Kernel.store kernel) file with
  | size -> size
  | exception Not_found -> raise (No_such_file file)

let stat_size proc ~file =
  let kernel = Process.kernel proc in
  let size = file_size proc ~file in
  Process.charge proc
    (Kernel.cost kernel).Costmodel.metadata_lookup;
  size

let dma_fill kernel ~pool ~bytes fill =
  if bytes = 0 then Iobuf.Agg.empty ()
  else begin
    let sys = Kernel.sys kernel in
    let kd = Iosys.kernel sys in
    let rec build pos acc =
      if pos >= bytes then List.rev acc
      else begin
        let n = min Iobuf.Pool.max_alloc (bytes - pos) in
        let b = Iobuf.Pool.alloc ~paged:true pool ~producer:kd n in
        Iosys.with_fill_mode sys `Dma (fun () -> fill b ~pos);
        Iobuf.Buffer.seal b;
        build (pos + n) (Iobuf.Agg.of_buffer_owned b :: acc)
      end
    in
    let parts = build 0 [] in
    let agg = Iobuf.Agg.concat_list parts in
    List.iter Iobuf.Agg.free parts;
    agg
  end

(* Read [off, off+bytes) of a file from disk into IO-Lite buffers
   allocated from [pool]. The kernel is the producer (trusted: no
   permission toggling); placement is DMA. Returns the caller-owned
   aggregate. The host starts generating the bytes at submission, on
   the helper domain, while the engine simulates other requests; a
   read returns the content function's bytes whenever they are made,
   so nothing simulated depends on when. *)
let disk_fetch_range proc ~pool ~file ~off ~bytes =
  let kernel = Process.kernel proc in
  let contents = Filestore.prefetch ~file ~off ~len:bytes in
  Iolite_fs.Disk.read (Kernel.disk kernel) ~file ~off ~bytes;
  dma_fill kernel ~pool ~bytes (fun b ~pos ->
      Iobuf.Buffer.fill b (Filestore.take contents ~pos))

let disk_fetch proc ~pool ~file ~size =
  disk_fetch_range proc ~pool ~file ~off:0 ~bytes:size

(* Probe the persistent second tier before the disk: a fully covered
   range promotes — the bytes move back up at NVMM speed (pure transfer,
   no positioning) instead of paying a disk refetch. Only the unified
   cache fronts the tier; conventional-cache fills bypass it. Returns
   the caller-owned aggregate, built like a DMA fill. *)
let tier_fetch_range proc cache ~pool ~file ~off ~bytes =
  let kernel = Process.kernel proc in
  match Kernel.tier kernel with
  | Some tier when cache == Kernel.unified_cache kernel -> (
    match Iolite_core.Tier.promote tier ~file ~off ~len:bytes with
    | None -> None
    | Some data ->
      if Iolite_sim.Engine.Proc.running () then
        Iolite_sim.Engine.Proc.sleep
          (Iolite_core.Tier.read_time tier ~bytes);
      Some
        (dma_fill kernel ~pool ~bytes (fun b ~pos ->
             Iobuf.Buffer.blit_string b ~src:data ~src_off:pos ~dst_off:0
               ~len:(Iobuf.Buffer.length b))))
  | _ -> None

(* Admission control: an object bigger than this fraction of the cache
   budget is served uncached — inserting it would wipe out a large slice
   of the working set for a document that is unlikely to be re-referenced
   before eviction. *)
let admission_limit kernel =
  Iolite_mem.Physmem.io_budget
    (Iolite_core.Iosys.physmem (Kernel.sys kernel))
  / 8

(* Run [fill] under the cache's per-range single-flight latch:
   concurrent missing readers coalesce onto one disk read. A follower
   that waited out someone else's fill re-checks [needed] — the leader
   may have filled a different range — and leads at most once itself. *)
let single_flight cache ~file ?(off = 0) ~needed fill =
  if needed () then
    if not (Filecache.fill_single_flight cache ~file ~off fill) then
      if needed () then
        ignore (Filecache.fill_single_flight cache ~file ~off fill)

let ensure_cached proc cache ~pool ~file =
  let kernel = Process.kernel proc in
  let size = file_size proc ~file in
  let needed () =
    size > 0 && size <= admission_limit kernel
    (* O(1) byte-count screen first; the covered probe walks the index. *)
    && Filecache.file_bytes cache ~file < size
    && not (Filecache.covered cache ~file ~off:0 ~len:size)
  in
  single_flight cache ~file ~needed (fun () ->
      match tier_fetch_range proc cache ~pool ~file ~off:0 ~bytes:size with
      | Some agg -> Filecache.backfill cache ~file ~off:0 agg
      | None ->
        let agg = disk_fetch proc ~pool ~file ~size in
        (* Backfill: cache entries may hold writes newer than the disk. *)
        Filecache.backfill cache ~file ~off:0 agg);
  size

(* The unified cache fills from the kernel's world-readable file pool:
   access to cached file data is governed by file permissions (all files
   in this model are world-readable), so any reader of the file may map
   the buffers. The conventional cache fills from the public VM page
   pool (mmap-shared pages). *)
let ensure_unified proc ~file =
  let kernel = Process.kernel proc in
  ensure_cached proc (Kernel.unified_cache kernel) ~pool:(Kernel.file_pool kernel)
    ~file

let ensure_conv proc ~file =
  let kernel = Process.kernel proc in
  ensure_cached proc (Kernel.conv_cache kernel) ~pool:(Kernel.page_pool kernel)
    ~file

let fetch_unified proc ~file = ignore (ensure_unified proc ~file)
let fetch_conv proc ~file = ignore (ensure_conv proc ~file)

let kernel_view proc ~file =
  let kernel = Process.kernel proc in
  let cache = Kernel.conv_cache kernel in
  let size = ensure_conv proc ~file in
  if size = 0 then Iolite_core.Iobuf.Agg.empty ()
  else begin
    match Filecache.lookup cache ~file ~off:0 ~len:size with
    | Some agg -> agg (* kernel access: no user mapping needed *)
    | None -> disk_fetch proc ~pool:(Kernel.page_pool kernel) ~file ~size
  end

let cached_unified proc ~file =
  let kernel = Process.kernel proc in
  let size = file_size proc ~file in
  size = 0
  || Filecache.covered (Kernel.unified_cache kernel) ~file ~off:0 ~len:size

let cached_conv proc ~file =
  let kernel = Process.kernel proc in
  let size = file_size proc ~file in
  size = 0 || Filecache.covered (Kernel.conv_cache kernel) ~file ~off:0 ~len:size

(* Grant the caller access to a cache aggregate; if the cached data's ACL
   excludes the caller (it was fetched into another process's pool), fall
   back to a physical copy into the caller's pool. *)
let deliver proc agg =
  let kernel = Process.kernel proc in
  let sys = Kernel.sys kernel in
  match Transfer.grant sys agg ~to_:(Process.domain proc) with
  | () -> agg
  | exception Iolite_mem.Vm.Protection_fault _ ->
    Metrics.incr (Kernel.metrics kernel) "cache.acl_copy";
    let data = Iobuf.Agg.to_string sys agg in
    Iobuf.Agg.free agg;
    Iobuf.Agg.of_string (Process.pool proc) ~producer:(Process.domain proc) data

(* {2 Extent-granular fills and readahead}

   Small files are cached whole, as before. A file bigger than one
   extent is demand-paged at extent granularity: [IOL_read] ensures only
   the extents under the requested range, and a per-file adaptive window
   prefetches ahead of sequential readers. *)

let extent = Iobuf.Pool.max_alloc
let ra_max_window = 8 (* extents: caps the window at 512 KB *)
let align_down n = n - (n mod extent)
let align_up n = align_down (n + extent - 1)

(* Fetch one extent and backfill it, under the extent's single-flight
   latch; [prefetched] marks readahead products for hit/waste
   accounting. *)
let fill_extent ?(prefetched = false) proc cache ~pool ~file ~size ~lo =
  let hi = min size (lo + extent) in
  let needed () = not (Filecache.covered cache ~file ~off:lo ~len:(hi - lo)) in
  single_flight cache ~file ~off:lo ~needed (fun () ->
      match tier_fetch_range proc cache ~pool ~file ~off:lo ~bytes:(hi - lo) with
      | Some agg -> Filecache.backfill cache ~file ~off:lo agg
      | None ->
        let agg = disk_fetch_range proc ~pool ~file ~off:lo ~bytes:(hi - lo) in
        Filecache.backfill ~prefetched cache ~file ~off:lo agg)

(* Ensure the extent-aligned span covering [off, off+len) is cached.
   Each extent fills under its own latch, so a reader coalescing onto an
   in-flight fill (usually a prefetch) waits for one extent's disk time,
   never a whole readahead window. *)
let ensure_range proc cache ~pool ~file ~size ~off ~len =
  if len > 0 then begin
    let lo = ref (align_down off) in
    let hi = min size (align_up (off + len)) in
    while !lo < hi do
      fill_extent proc cache ~pool ~file ~size ~lo:!lo;
      lo := !lo + extent
    done
  end

(* Adaptive sequential readahead, driven on every large-file IOL_read:
   a read starting exactly where the previous one ended doubles the
   window (up to [ra_max_window] extents); a seek resets it to one. The
   prefetch runs on its own fiber so the demanding read returns without
   waiting for it; prefetched extents enter the cache through the
   interval-index backfill marked as such, so later hits (and wasted
   evictions) are attributable. *)
let readahead proc cache ~pool ~file ~size ~off ~len =
  let kernel = Process.kernel proc in
  let st = Kernel.ra_state kernel ~file in
  if off = st.Kernel.ra_next then
    st.Kernel.ra_window <- min ra_max_window (st.Kernel.ra_window * 2)
  else st.Kernel.ra_window <- 1;
  st.Kernel.ra_next <- off + len;
  (* The window starts past the demanded range; each uncovered,
     not-in-flight extent gets its own fiber and its own extent-sized
     disk request. Issued together they land in one dispatcher batch,
     so the elevator services them as one contiguous sequential run —
     the io_uring shape: N small SQEs, one submission. Per-extent
     requests also mean a demand reader behind the prefetch coalesces
     onto exactly the extent it needs. *)
  let pf_lo = align_up (off + len) in
  let pf_hi = min size (pf_lo + (st.Kernel.ra_window * extent)) in
  if Iolite_sim.Engine.Proc.running () then begin
    let lo = ref pf_lo in
    while !lo < pf_hi do
      let e = !lo in
      if
        (not
           (Filecache.covered cache ~file ~off:e
              ~len:(min extent (size - e))))
        && not (Filecache.fill_in_flight cache ~file ~off:e ())
      then begin
        Metrics.incr (Kernel.metrics kernel) "cache.readahead_issued";
        Iolite_sim.Engine.Proc.spawn ~name:"readahead" (fun () ->
            (* The fiber inherits the demanding request's flow context;
               detach it so the prefetch still stitches into the
               request's flow (abs id) but its waits — concurrent with
               the request, not on its critical path — are never
               charged to the request's decomposition. *)
            let c = Iolite_sim.Engine.Proc.ctx () in
            if c > 0 then
              Iolite_sim.Engine.Proc.set_ctx (Iolite_obs.Flow.detach c);
            fill_extent ~prefetched:true proc cache ~pool ~file ~size ~lo:e)
      end;
      lo := !lo + extent
    done
  end

let iol_read_body ?pool proc ~file ~off ~len =
  let kernel = Process.kernel proc in
  let cache = Kernel.unified_cache kernel in
  let fill_pool =
    match pool with None -> Kernel.file_pool kernel | Some pool -> pool
  in
  let size = file_size proc ~file in
  let len = max 0 (min len (size - off)) in
  if size > extent && size <= admission_limit kernel then begin
    ensure_range proc cache ~pool:fill_pool ~file ~size ~off ~len;
    readahead proc cache ~pool:fill_pool ~file ~size ~off ~len
  end
  else ignore (ensure_cached proc cache ~pool:fill_pool ~file);
  let result =
    if len = 0 then Iobuf.Agg.empty ()
    else begin
      match Filecache.lookup cache ~file ~off ~len with
      | Some agg -> deliver proc agg
      | None ->
        (* Not cached: the file is above the admission limit, or its
           entry was evicted between fill and lookup under pressure.
           Fetch privately into the reader's pool; the kernel produced
           those buffers, so grant the reader its mappings. *)
        Metrics.incr (Kernel.metrics kernel) "cache.refetch";
        let agg = disk_fetch proc ~pool:(Process.pool proc) ~file ~size in
        let sub = Iobuf.Agg.sub agg ~off ~len in
        Iobuf.Agg.free agg;
        deliver proc sub
    end
  in
  Process.charge proc (Kernel.cost kernel).Costmodel.syscall;
  result

let iol_read ?pool proc ~file ~off ~len =
  let tr = Kernel.trace (Process.kernel proc) in
  if Trace.enabled tr then
    Trace.span tr ~cat:"os" ~name:"IOL_read"
      ~args:[ ("file", Trace.Int file); ("len", Trace.Int len) ]
      (fun () ->
        let c = Iolite_sim.Engine.Proc.ctx () in
        if c <> 0 then
          Trace.flow_step tr ~id:c
            ~args:[ ("at", Trace.Str "IOL_read"); ("file", Trace.Int file) ]
            ();
        iol_read_body ?pool proc ~file ~off ~len)
  else iol_read_body ?pool proc ~file ~off ~len

let iol_write_body proc ~file ~off agg =
  let kernel = Process.kernel proc in
  let sys = Kernel.sys kernel in
  let _size = file_size proc ~file in
  let len = Iobuf.Agg.length agg in
  let wb = Kernel.writeback kernel in
  (* The kernel side (filecache, write-back) gains the data by reference;
     repeated writes on the same stream hit the grant-epoch fast path. *)
  Transfer.grant sys agg ~to_:(Iosys.kernel sys);
  (* Whatever the second tier holds for this range is now stale. *)
  (match Kernel.tier kernel with
  | Some tier when len > 0 ->
    Iolite_core.Tier.invalidate tier ~file ~off ~len
  | _ -> ());
  (* Delayed write-back: the extent parks dirty in the cache and
     returns at memory speed; the sync daemon clusters and flushes it
     later (superseded if rewritten first). *)
  Filecache.insert ~dirty:(len > 0) (Kernel.unified_cache kernel) ~file ~off
    agg;
  if len > 0 then Writeback.note_write wb;
  Process.charge proc (Kernel.cost kernel).Costmodel.syscall

let iol_write proc ~file ~off agg =
  let kernel = Process.kernel proc in
  let tr = Kernel.trace kernel in
  if Trace.enabled tr then
    Trace.span tr ~cat:"os" ~name:"IOL_write"
      ~args:
        [ ("file", Trace.Int file); ("len", Trace.Int (Iolite_core.Iobuf.Agg.length agg)) ]
      (fun () -> iol_write_body proc ~file ~off agg)
  else iol_write_body proc ~file ~off agg

let fsync proc ~file =
  let kernel = Process.kernel proc in
  let _size = file_size proc ~file in
  let tr = Kernel.trace kernel in
  let body () = Writeback.fsync (Kernel.writeback kernel) ~file in
  (if Trace.enabled tr then
     Trace.span tr ~cat:"os" ~name:"fsync"
       ~args:[ ("file", Trace.Int file) ]
       (fun () ->
         let c = Iolite_sim.Engine.Proc.ctx () in
         if c <> 0 then
           Trace.flow_step tr ~id:c
             ~args:[ ("at", Trace.Str "fsync"); ("file", Trace.Int file) ]
             ();
         body ())
   else body ());
  Process.charge proc (Kernel.cost kernel).Costmodel.syscall

let sync proc =
  let kernel = Process.kernel proc in
  let tr = Kernel.trace kernel in
  let body () = Writeback.sync (Kernel.writeback kernel) in
  (if Trace.enabled tr then Trace.span tr ~cat:"os" ~name:"sync" body
   else body ());
  Process.charge proc (Kernel.cost kernel).Costmodel.syscall

let read_string proc ~file ~off ~len =
  let kernel = Process.kernel proc in
  let agg = iol_read proc ~file ~off ~len in
  (* Backward-compatible POSIX read: one physical copy into the process's
     private buffer (Section 4.2). *)
  let s = Iobuf.Agg.to_string (Kernel.sys kernel) agg in
  Iobuf.Agg.free agg;
  Process.charge_pending proc;
  s

let write_string proc ~file ~off s =
  let kernel = Process.kernel proc in
  let sys = Kernel.sys kernel in
  (* Copy semantics: the data is copied into kernel-produced IO-Lite
     buffers, after which the write proceeds as IOL_write. *)
  let agg =
    Iosys.with_fill_mode sys `As_copy (fun () ->
        Iobuf.Agg.of_string (Process.pool proc) ~producer:(Iosys.kernel sys) s)
  in
  iol_write proc ~file ~off agg

type mapping = {
  magg : Iobuf.Agg.t;
  mlen : int;
  mutable live : bool;
}

let mmap proc ~file =
  let kernel = Process.kernel proc in
  let cache = Kernel.conv_cache kernel in
  let size = ensure_conv proc ~file in
  let agg =
    if size = 0 then Iobuf.Agg.empty ()
    else begin
      match Filecache.lookup cache ~file ~off:0 ~len:size with
      | Some agg -> deliver proc agg
      | None ->
        disk_fetch proc ~pool:(Kernel.page_pool (Process.kernel proc)) ~file ~size
    end
  in
  (* Establishing the mapping costs page-map work for every page. *)
  let pages = Iolite_mem.Page.pages_of_bytes size in
  Process.charge proc
    ((Kernel.cost kernel).Costmodel.syscall
    +. (float_of_int pages *. (Kernel.cost kernel).Costmodel.page_map));
  { magg = agg; mlen = size; live = true }

let mapping_agg m =
  if not m.live then invalid_arg "Fileio.mapping_agg: unmapped";
  m.magg

let mapping_len m = m.mlen

let munmap proc m =
  if m.live then begin
    m.live <- false;
    Iobuf.Agg.free m.magg;
    (* Tearing down the mapping costs per-page work (PTE removal + TLB
       shootdown), like establishing it did. *)
    let pages = Iolite_mem.Page.pages_of_bytes m.mlen in
    let cost = Kernel.cost (Process.kernel proc) in
    Process.charge proc
      (cost.Costmodel.syscall +. (float_of_int pages *. cost.Costmodel.page_map))
  end
