module Iosys = Iolite_core.Iosys
module Filecache = Iolite_core.Filecache
module Policy = Iolite_core.Policy
module Vm = Iolite_mem.Vm
module Physmem = Iolite_mem.Physmem

type config = {
  mem_capacity : int;
  kernel_overhead : int;
  link_bits_per_sec : float;
  cost : Costmodel.t;
  cksum_cache_enabled : bool;
  cache_policy : Policy.t;
  seed : int64;
  flush_interval : float;
  dirty_hi_ratio : float;
  dirty_hard_ratio : float;
  log_durable_writes : bool;
  (* The persistent second cache tier (NVCache-style NVMM between the
     unified DRAM cache and the disk). Off by default: DRAM-only is the
     recorded baseline, and the tier changes eviction into demotion. *)
  tier_enabled : bool;
  tier_capacity : int option; (* bytes; [None] = 10x the io budget *)
}

let default_config () =
  {
    mem_capacity = 128 * 1024 * 1024;
    kernel_overhead = 8 * 1024 * 1024;
    link_bits_per_sec = 360e6;
    cost = Costmodel.default;
    cksum_cache_enabled = true;
    cache_policy = Policy.lru ();
    seed = 0x10117EL;
    flush_interval = Writeback.default_config.Writeback.wb_flush_interval;
    dirty_hi_ratio = Writeback.default_config.Writeback.wb_hi_ratio;
    dirty_hard_ratio = Writeback.default_config.Writeback.wb_hard_ratio;
    log_durable_writes = false;
    tier_enabled = false;
    tier_capacity = None;
  }

(* Per-file sequential-readahead state (Fileio drives the policy). *)
type ra = {
  mutable ra_next : int; (* offset one past the last sequential read *)
  mutable ra_window : int; (* current prefetch window, in extents *)
}

type net_sites = {
  ns_bytes_sent : Iolite_obs.Metrics.site;
  ns_cksum_bytes : Iolite_obs.Metrics.site;
  ns_cksum_bytes_total : Iolite_obs.Metrics.site;
  ns_cksum_folds : Iolite_obs.Metrics.site;
}

type t = {
  engine : Iolite_sim.Engine.t;
  sys : Iosys.t;
  config : config;
  cpu : Cpu.t;
  disk : Iolite_fs.Disk.t;
  link : Iolite_net.Link.t;
  store : Iolite_fs.Filestore.t;
  unified_cache : Filecache.t;
  conv_cache : Filecache.t;
  cksum_cache : Iolite_net.Cksum.Cache.t;
  filter : Iolite_net.Packetfilter.t;
  page_pool : Iolite_core.Iobuf.Pool.t;
  file_pool : Iolite_core.Iobuf.Pool.t;
  ra : (int, ra) Hashtbl.t;
  writeback : Writeback.t;
  tier : Iolite_core.Tier.t option;
  net_sites : net_sites;
  mutable swap_cursor : int; (* next free swap-partition offset *)
  mutable pending : float;
  mutable next_pid : int;
  mutable metadata_wired : int;
}

(* Distinguished device id for the swap partition (real file ids are
   positive). *)
let swap_file = -2

let create ?config engine =
  let config = match config with Some c -> c | None -> default_config () in
  let sys = Iosys.create ~capacity:config.mem_capacity ~seed:config.seed () in
  Physmem.wire (Iosys.physmem sys) Physmem.Kernel config.kernel_overhead;
  let unified_cache =
    Filecache.create ~policy:config.cache_policy ~register_with_pageout:true sys
      ()
  in
  let conv_cache =
    Filecache.create ~policy:(Policy.lru ()) ~register_with_pageout:false sys ()
  in
  (* The conventional cache competes with wired memory for physical
     pages: its bound follows the io budget with a small reserve for
     transient buffers. *)
  Filecache.set_capacity conv_cache
    (Some
       (fun () ->
         let budget = Physmem.io_budget (Iosys.physmem sys) in
         max 0 (budget - (budget / 16))));
  (* Conventional VM file pages are reclaimed directly by the pageout
     daemon (clean pages are just dropped) — this is how growing wired
     memory squeezes the conventional file cache (Fig. 12). *)
  Iolite_mem.Pageout.register_segment
    (Iosys.pageout sys)
    ~name:"conv_cache" ~is_io_cache:false
    ~resident:(fun () -> Filecache.total_bytes conv_cache)
    ~reclaim:(fun n ->
      let freed = ref 0 in
      let continue = ref true in
      while !continue && !freed < n do
        let got = Filecache.evict_one conv_cache in
        if got = 0 then continue := false else freed := !freed + got
      done;
      !freed);
  let disk =
    Iolite_fs.Disk.create ~trace:(Iosys.trace sys) ~attrib:(Iosys.attrib sys) ()
  in
  if config.log_durable_writes then Iolite_fs.Disk.set_write_log disk true;
  let writeback =
    Writeback.create ~engine ~disk ~cache:unified_cache
      ~metrics:(Iosys.metrics sys) ~trace:(Iosys.trace sys)
      ~flow:(Iosys.flow sys)
      ~budget:(fun () -> Physmem.io_budget (Iosys.physmem sys))
      {
        Writeback.wb_flush_interval = config.flush_interval;
        wb_hi_ratio = config.dirty_hi_ratio;
        wb_hard_ratio = config.dirty_hard_ratio;
      }
  in
  (* A dirty cache victim forces a clustered flush of its file instead
     of silently dropping buffered writes with the page. *)
  Filecache.set_evict_flusher unified_cache (fun ~file ->
      Writeback.evict_flush writeback ~file);
  (* The persistent second tier: DRAM evictions demote into it, the
     write-back stream stages through it, and the DRAM cache's GDS cost
     becomes tier-aware — a miss refetches from the NVMM tier when it
     holds the bytes, from the disk otherwise. *)
  let tier =
    if not config.tier_enabled then None
    else begin
      let tier =
        Iolite_core.Tier.create
          ~policy:
            (Policy.gds
               ~cost:(fun _ ~size -> Iolite_fs.Disk.refetch_time disk ~bytes:size)
               ())
          sys ()
      in
      Iolite_core.Tier.set_capacity tier
        (Some
           (fun () ->
             match config.tier_capacity with
             | Some bytes -> bytes
             | None -> 10 * Physmem.io_budget (Iosys.physmem sys)));
      Filecache.set_demoter unified_cache (fun ~file ~off ~len:_ ~gen ~data ->
          Iolite_core.Tier.demote tier ~file ~off ~gen data);
      Writeback.set_tier writeback tier;
      (match config.cache_policy.Policy.set_cost with
      | Some set ->
        set (fun (file, off) ~size ->
            if Iolite_core.Tier.covered tier ~file ~off ~len:size then
              Iolite_core.Tier.read_time tier ~bytes:size
            else Iolite_fs.Disk.refetch_time disk ~bytes:size)
      | None -> ());
      Some tier
    end
  in
  (* Memory pressure kicks the sync daemon so the dirty backlog drains
     as clustered writes while reclaim proceeds. *)
  Iolite_mem.Pageout.set_pressure_hook (Iosys.pageout sys) (fun ~needed:_ ->
      if Filecache.dirty_bytes unified_cache > 0 then
        Writeback.kick ~reason:"pressure" writeback);
  let t =
    {
      engine;
      sys;
      config;
      cpu =
        Cpu.create ~context_switch:config.cost.Costmodel.context_switch
          ~attrib:(Iosys.attrib sys) ();
      disk;
      link =
        Iolite_net.Link.create ~trace:(Iosys.trace sys)
          ~bits_per_sec:config.link_bits_per_sec ();
      store = Iolite_fs.Filestore.create ();
      unified_cache;
      conv_cache;
      cksum_cache =
        Iolite_net.Cksum.Cache.create ~enabled:config.cksum_cache_enabled ();
      filter = Iolite_net.Packetfilter.create ();
      page_pool =
        Iolite_core.Iobuf.Pool.create sys ~name:"vm_pages" ~acl:Vm.Public;
      file_pool =
        Iolite_core.Iobuf.Pool.create sys ~name:"filecache" ~acl:Vm.Public;
      ra = Hashtbl.create 64;
      writeback;
      tier;
      net_sites =
        (let m = Iosys.metrics sys in
         let site = Iolite_obs.Metrics.site m in
         {
           ns_bytes_sent = site "net.bytes_sent";
           ns_cksum_bytes = site "net.cksum_bytes";
           ns_cksum_bytes_total = site "net.cksum_bytes_total";
           ns_cksum_folds = site "net.cksum_folds";
         });
      swap_cursor = 0;
      pending = 0.0;
      next_pid = 0;
      metadata_wired = 0;
    }
  in
  (* Pageout victim writes and fault swap-ins go to the swap
     partition through the disk. Swap slots are handed out from a
     rotating cursor, so one reclaim round's victims are contiguous
     and batch into (mostly) sequential device traffic. *)
  let module Sync = Iolite_sim.Sync in
  let module Proc = Iolite_sim.Engine.Proc in
  let swap_cv = Sync.Condvar.create () in
  Iolite_mem.Pageout.set_swapper (Iosys.pageout sys)
    {
      Iolite_mem.Pageout.swap_out =
        (fun ~bytes ~on_done ->
          if Proc.running () then begin
            let off = t.swap_cursor in
            t.swap_cursor <- off + bytes;
            Iolite_fs.Disk.submit t.disk ~op:`Write ~file:swap_file ~off
              ~bytes (fun () ->
                on_done ();
                Sync.Condvar.broadcast swap_cv);
            true
          end
          else false);
      swap_wait =
        (fun done_ ->
          while not (done_ ()) do
            Sync.Condvar.wait swap_cv
          done);
    };
  (* Swap-in: a fault on a paged-out chunk reads it back, suspending
     exactly the faulting process. The slot offset is modeled as the
     tail of the swapped region. *)
  Vm.set_pager (Iosys.vm sys) (fun ~pages ->
      if Proc.running () then begin
        let bytes = pages * Iolite_mem.Page.page_size in
        Iolite_obs.Metrics.incr (Iosys.metrics sys) "vm.swap_in";
        (* The faulting request stalls for the swap-in; charge the
           whole read as [Vm_stall] and run it under a detached context
           so the disk layer doesn't also charge its queue and service
           components (the flow still stitches). *)
        let swap_in ctx =
          Proc.with_ctx (Iolite_obs.Flow.detach ctx) (fun () ->
              Iolite_fs.Disk.read t.disk ~file:swap_file
                ~off:(max 0 (t.swap_cursor - bytes))
                ~bytes)
        in
        Iolite_obs.Attrib.timed (Iosys.attrib sys) Iolite_obs.Attrib.Vm_stall
          swap_in (Proc.ctx ())
      end);
  (* VM operations and data touches accumulate CPU work; syscall
     wrappers charge it to the calling process. *)
  Vm.set_on_op (Iosys.vm sys) (fun op ~pages ->
      let c = config.cost in
      let dt =
        match op with
        | Vm.Map_read | Vm.Grant_write | Vm.Revoke_write | Vm.Unmap
        | Vm.Page_alloc ->
          float_of_int pages *. c.Costmodel.page_map
        | Vm.Page_fault -> float_of_int pages *. c.Costmodel.page_fault
      in
      t.pending <- t.pending +. dt);
  (* Size gauges: sampled at snapshot time, so Metrics.diff attributes
     cache growth/shrinkage alongside the event counters. *)
  let m = Iosys.metrics sys in
  Iolite_obs.Metrics.set_gauge m "cache.unified_bytes" (fun () ->
      Filecache.total_bytes unified_cache);
  Iolite_obs.Metrics.set_gauge m "cache.unified_entries" (fun () ->
      Filecache.entry_count unified_cache);
  Iolite_obs.Metrics.set_gauge m "cache.conv_bytes" (fun () ->
      Filecache.total_bytes conv_cache);
  Iolite_obs.Metrics.set_gauge m "cache.dirty_bytes" (fun () ->
      Filecache.dirty_bytes unified_cache);
  (match tier with
  | Some tier ->
    (* NVMM writes (demotion, staging) cost simulated time like any
       other data touch: accumulate and charge the next syscall. *)
    Iolite_core.Tier.set_charge tier
      (Some (fun dt -> t.pending <- t.pending +. dt));
    Iolite_obs.Metrics.set_gauge m "cache.tier_bytes" (fun () ->
        Iolite_core.Tier.total_bytes tier);
    Iolite_obs.Metrics.set_gauge m "cache.tier_entries" (fun () ->
        Iolite_core.Tier.entry_count tier);
    Iolite_obs.Metrics.set_gauge m "cache.tier_staged_bytes" (fun () ->
        Iolite_core.Tier.staged_bytes tier)
  | None -> ());
  Iolite_obs.Metrics.set_gauge m "mem.free_bytes" (fun () ->
      Physmem.free_bytes (Iosys.physmem sys));
  Iolite_obs.Metrics.set_gauge m "vm.pageout_pages" (fun () ->
      Iolite_mem.Pageout.pages_selected (Iosys.pageout sys));
  Iolite_obs.Metrics.set_gauge m "vm.pageout_entry_evictions" (fun () ->
      Iolite_mem.Pageout.entries_evicted (Iosys.pageout sys));
  Iolite_obs.Metrics.set_gauge m "vm.swap_writes" (fun () ->
      Iolite_mem.Pageout.swap_writes (Iosys.pageout sys));
  Iolite_obs.Metrics.set_gauge m "disk.qdepth" (fun () ->
      Iolite_fs.Disk.queue_depth t.disk);
  Iolite_obs.Metrics.set_gauge m "disk.batched" (fun () ->
      Iolite_fs.Disk.batched t.disk);
  Iolite_obs.Metrics.set_gauge m "disk.batches" (fun () ->
      Iolite_fs.Disk.batches t.disk);
  Iosys.set_on_touch sys (fun kind n ->
      let c = config.cost in
      let dt =
        match kind with
        | Iosys.Copy -> Costmodel.copy_time c n
        | Iosys.Fill -> Costmodel.fill_time c n
        | Iosys.Dma -> 0.0
      in
      t.pending <- t.pending +. dt);
  t

let engine t = t.engine
let sys t = t.sys
let config t = t.config
let cost t = t.config.cost
let cpu t = t.cpu
let disk t = t.disk
let writeback t = t.writeback
let link t = t.link
let store t = t.store
let unified_cache t = t.unified_cache
let conv_cache t = t.conv_cache
let tier t = t.tier
let cksum_cache t = t.cksum_cache
let filter t = t.filter
let page_pool t = t.page_pool
let file_pool t = t.file_pool
let now t = Iolite_sim.Engine.now t.engine

let add_pending t dt = t.pending <- t.pending +. dt

let take_pending t =
  let p = t.pending in
  t.pending <- 0.0;
  p

let fresh_pid t =
  t.next_pid <- t.next_pid + 1;
  t.next_pid

let add_file t ~name ~size =
  let id = Iolite_fs.Filestore.add t.store ~name ~size in
  let md = Iolite_fs.Filestore.metadata_bytes t.store in
  let delta = md - t.metadata_wired in
  if delta > 0 then begin
    Physmem.wire (Iosys.physmem t.sys) Physmem.Kernel delta;
    t.metadata_wired <- md
  end;
  id

let metrics t = Iosys.metrics t.sys
let net_sites t = t.net_sites
let trace t = Iosys.trace t.sys

let ra_state t ~file =
  match Hashtbl.find_opt t.ra file with
  | Some st -> st
  | None ->
    let st = { ra_next = 0; ra_window = 1 } in
    Hashtbl.replace t.ra file st;
    st

let flow t = Iosys.flow t.sys
let attrib t = Iosys.attrib t.sys

let observing t = Iolite_obs.Attrib.enabled (Iosys.attrib t.sys)

let enable_attribution t =
  Iolite_obs.Attrib.enable (Iosys.attrib t.sys)
    ~clock:(fun () -> Iolite_sim.Engine.now t.engine)
    ~ctx:(fun () -> Iolite_sim.Engine.ctx t.engine);
  (* Arm request-id allocation at the early-demux point. *)
  Iolite_net.Packetfilter.attach_flow t.filter (Iosys.flow t.sys)

let enable_tracing t =
  Iolite_obs.Trace.enable (Iosys.trace t.sys)
    ~clock:(fun () -> Iolite_sim.Engine.now t.engine)
    ~scope:(fun () -> Iolite_sim.Engine.current_name t.engine);
  (* Flow stitching and wait attribution share the context plumbing;
     arming them together keeps every [disk]/[cache]/[vm] emitter's
     view consistent. *)
  enable_attribution t
