(** The simulated operating-system kernel: one object wiring together the
    simulation engine, physical memory and VM, the disk and file store,
    the network link, the file cache(s), and the checksum cache.

    Two configurations matter to the experiments:
    - [iolite = true]: the unified system. File data lives in the
      IO-Lite file cache (trimmed by the pageout rule); sockets and pipes
      move aggregates by reference; the checksum cache is active (unless
      disabled for ablation).
    - [iolite = false]: the conventional BSD model. The file cache is
      capacity-bounded by what wired memory leaves free; socket sends
      copy into wired mbuf clusters; pipes copy twice.

    Both configurations coexist in one kernel object so ablations can mix
    paths; the server implementations choose per call.

    Both share one storage path: the queued disk ({!Iolite_fs.Disk}),
    per-file sequential readahead on the [IOL_read] miss path (the
    window doubles on sequential hits and resets on seeks), delayed
    clustered write-back ({!Writeback}), and a swap partition on the
    disk that takes pageout victim writes (submitted asynchronously per
    reclaim round, joined at the end) and fault swap-ins (which suspend
    only the faulting process). *)

type config = {
  mem_capacity : int;  (** physical memory, default 128 MB *)
  kernel_overhead : int;  (** wired kernel base footprint *)
  link_bits_per_sec : float;  (** NIC aggregate, default 360 Mb/s *)
  cost : Costmodel.t;
  cksum_cache_enabled : bool;
  cache_policy : Iolite_core.Policy.t;  (** for the unified cache *)
  seed : int64;
  flush_interval : float;  (** sync-daemon period, default 0.5 s *)
  dirty_hi_ratio : float;
      (** dirty-byte fraction of the I/O budget that starts an early
          flush, default 0.25 *)
  dirty_hard_ratio : float;
      (** dirty-byte fraction that write-throttles, default 0.5 *)
  log_durable_writes : bool;
      (** Record completed disk writes in {!Iolite_fs.Disk.write_log}
          (crash-consistency harness support, default [false]). *)
  tier_enabled : bool;
      (** Arm the persistent NVMM second cache tier (default [false]):
          DRAM evictions demote into it, re-references promote back,
          the write-back stream stages through it, and — when
          [cache_policy] supports {!Iolite_core.Policy.t.set_cost} —
          the DRAM replacement cost becomes the refetch-from-next-tier
          latency. *)
  tier_capacity : int option;
      (** Tier byte budget; [None] (default) tracks 10x the I/O
          budget. The transfer rate is fixed at 20 MB/s
          ({!Iolite_core.Tier.create}). *)
}

val default_config : unit -> config

type t

val create : ?config:config -> Iolite_sim.Engine.t -> t

val engine : t -> Iolite_sim.Engine.t
val sys : t -> Iolite_core.Iosys.t
val config : t -> config
val cost : t -> Costmodel.t
val cpu : t -> Cpu.t
val disk : t -> Iolite_fs.Disk.t

val writeback : t -> Writeback.t
(** The delayed write-back layer (sync daemon). Wired to the unified
    cache's dirty-victim hook; {!Fileio.iol_write} routes through it. *)

val link : t -> Iolite_net.Link.t
val store : t -> Iolite_fs.Filestore.t

val unified_cache : t -> Iolite_core.Filecache.t
(** The IO-Lite file cache (pageout-trimmed). *)

val conv_cache : t -> Iolite_core.Filecache.t
(** The conventional VM file cache (bounded by [Physmem.io_budget] minus
    a small reserve). *)

val tier : t -> Iolite_core.Tier.t option
(** The persistent second cache tier, when [tier_enabled]. Unified-cache
    demotions, write-back staging and the tier-aware GDS cost are wired
    at creation; {!Fileio}'s fill paths probe it before the disk. *)

val cksum_cache : t -> Iolite_net.Cksum.Cache.t
val filter : t -> Iolite_net.Packetfilter.t

val page_pool : t -> Iolite_core.Iobuf.Pool.t
(** Public-ACL pool backing conventional VM file pages (mmap-shared
    across processes, unlike IO-Lite pools). *)

val file_pool : t -> Iolite_core.Iobuf.Pool.t
(** Pool backing the unified file cache. World-readable files are cached
    in a public pool — access to file data is governed by file
    permissions, so any process that may read the file may map its
    cached buffers; private pools (per process, per CGI stream) protect
    application-generated data. *)

val now : t -> float

(** {2 Cost plumbing} *)

val add_pending : t -> float -> unit
(** Accumulate CPU work attributable to the operation in progress
    (VM map observers and data-touch observers use this). *)

val take_pending : t -> float
(** Drain the accumulator — every syscall wrapper charges it to the
    calling process. *)

val fresh_pid : t -> int

(** {2 Setup helpers} *)

val add_file : t -> name:string -> size:int -> int
(** Register a file and account its metadata in wired kernel memory. *)

(** {2 Readahead bookkeeping}

    Per-file sequential-access state, owned here so it survives across
    syscalls; {!Fileio} drives the adaptive-window policy. *)

type ra = {
  mutable ra_next : int;  (** offset one past the last sequential read *)
  mutable ra_window : int;  (** current prefetch window, in extents *)
}

val ra_state : t -> file:int -> ra
(** The file's readahead state, created on first use
    ([ra_next = 0], [ra_window = 1]). *)

(** {2 Observability} *)

val metrics : t -> Iolite_obs.Metrics.t
(** The kernel-wide metrics registry (shared with {!Iolite_core.Iosys}):
    every subsystem's counters under a dotted namespace, plus size
    gauges ([cache.unified_bytes], [mem.free_bytes], ...). *)

(** The per-send [net.*] counters, named once per kernel so a send
    bumps them without probing the registry. *)
type net_sites = {
  ns_bytes_sent : Iolite_obs.Metrics.site;  (** [net.bytes_sent] *)
  ns_cksum_bytes : Iolite_obs.Metrics.site;  (** [net.cksum_bytes] *)
  ns_cksum_bytes_total : Iolite_obs.Metrics.site;
      (** [net.cksum_bytes_total] *)
  ns_cksum_folds : Iolite_obs.Metrics.site;  (** [net.cksum_folds] *)
}

val net_sites : t -> net_sites

val trace : t -> Iolite_obs.Trace.t
(** The kernel-wide tracer. Created disabled; see {!enable_tracing}. *)

val flow : t -> Iolite_obs.Flow.t
(** The kernel-wide flow-id allocator (deterministic, per kernel). *)

val attrib : t -> Iolite_obs.Attrib.t
(** The kernel-wide wait-state attribution collector. Created
    disabled; see {!enable_attribution}. *)

val observing : t -> bool
(** [true] once {!enable_attribution} (or {!enable_tracing}) has armed
    the kernel — the guard request-id allocation sites use. *)

val enable_tracing : t -> unit
(** Arm the tracer against this kernel's engine: events are stamped
    with virtual time and the simulated process name
    ({!Iolite_sim.Engine.current_name}). Also arms attribution (the
    two share the flow-context plumbing). *)

val enable_attribution : t -> unit
(** Arm wait-state attribution alone (no event buffering): blocking
    edges charge the running fiber's flow context
    ({!Iolite_sim.Engine.ctx}) with [{queue, disk_service,
    coalesced_wait, vm_stall, cpu}] intervals. Used by perf sweeps
    that want decompositions without paying for a trace buffer. *)
