(** Reproduction harness: one entry point per figure of the paper's
    evaluation (Section 5). Each runner builds a fresh simulated testbed
    (128 MB server, 360 Mb/s aggregate link, 1999 cost model), runs the
    workload, and returns the figure's series; [print_*] renders the
    table and an ASCII plot.

    [scale] trades fidelity for wall-clock time: it scales measurement
    windows and trace-replay lengths (1.0 = the defaults used for the
    recorded results; smaller = quicker, noisier). *)

type point = { x : float; mbps : float }
type series = { label : string; points : point list }

val paper_sizes : int list
(** The file sizes of Figs. 3-6: 500 B ... 200 KB. *)

(** {2 Single-file and CGI bandwidth sweeps (Figs. 3-6)} *)

val fig3 : ?scale:float -> unit -> series list
(** HTTP/1.0, single cached file, 40 clients: Flash-Lite / Flash /
    Apache bandwidth vs. document size. *)

val fig4 : ?scale:float -> unit -> series list
(** Same with persistent (HTTP/1.1) connections. *)

val fig5 : ?scale:float -> unit -> series list
(** FastCGI dynamic documents over non-persistent connections. *)

val fig6 : ?scale:float -> unit -> series list
(** FastCGI over persistent connections. *)

(** {2 Trace workloads (Figs. 7-11)} *)

val fig7 : unit -> (string * string list list) list
(** Trace characteristics tables (one per trace): header rows are
    implicit; each row is [top-N files; %requests; %bytes] plus a
    totals table row. *)

val fig8 : ?scale:float -> unit -> (string * (string * float) list) list
(** Overall trace performance: for each trace, (server, Mb/s) bars;
    64 clients replaying the log. *)

val fig9 : unit -> string list list
(** 150 MB MERGED subtrace characteristics rows. *)

val fig10 : ?scale:float -> unit -> series list
(** MERGED subtrace: bandwidth vs. data-set size (15-150 MB),
    SpecWeb-style random sampling, 64 clients. *)

val fig11 : ?scale:float -> unit -> series list
(** Optimization ablation on the same sweep: Flash-Lite with
    {GDS,LRU} x {checksum cache on,off}, plus Flash. *)

(** {2 WAN effects (Fig. 12)} *)

val fig12 : ?scale:float -> unit -> series list
(** Throughput vs. round-trip delay (LAN, 5..150 ms); clients scale
    64 -> 900 with delay; 120 MB data set. *)

(** {2 Converted applications (Fig. 13)} *)

type app_result = {
  app : string;
  posix_s : float;  (** unmodified runtime, simulated seconds *)
  iolite_s : float;
  verified : bool;  (** both variants produced identical output/counts *)
}

val fig13 : unit -> app_result list
(** Each application once per variant, on its own kernel; the runs are
    fixed-size, so there is no [scale]. *)

(** {2 Extension: the sendfile ablation (Section 6.7)} *)

val ablation_sendfile : ?scale:float -> unit -> series list
(** The Fig. 3 sweep with a third server between Flash and Flash-Lite:
    Flash using the monolithic [sendfile] syscall — copies eliminated,
    checksums still recomputed per transmission. Separates the value of
    copy avoidance from the value of IO-Lite's cross-subsystem checksum
    cache. *)

val ablation_cgi11 : ?scale:float -> unit -> series list
(** CGI 1.1 (fork per request) vs FastCGI, each under IO-Lite and the
    conventional system — quantifying the Section 5.3 remark that
    FastCGI "amortizes the cost of forking" while IO-Lite removes the
    remaining IPC overheads. *)

(** {2 Rendering} *)

val print_series : title:string -> x_label:string -> series list -> unit
val print_fig7 : unit -> unit
val print_fig8 : ?scale:float -> unit -> unit
val print_fig9 : unit -> unit
val print_fig13 : unit -> unit

val run_all : ?scale:float -> unit -> unit
(** Every figure, in order, printed to stdout. *)

val preload_cache :
  Iolite_os.Kernel.t ->
  conv:bool ->
  trace:Trace.t ->
  prefix_ranks:(int, unit) Hashtbl.t option ->
  unit
(** The trace figures' warm start: fill the unified cache (the
    conventional one with [conv]) with the most popular registered files
    of [trace] — only ranks in [prefix_ranks] when given — that fit the
    kernel's admission limit ({!Iolite_os.Fileio.admission_limit}), up
    to 90% of the I/O budget, without disk latency. When the kernel has
    the NVMM tier armed, the same ranks not cached upstairs are then
    demoted into the tier, up to 90% of its capacity. The loading's VM
    work and NVMM writes leave no CPU charge pending for the measured
    run. *)

(** {2 Observability} *)

val set_observability :
  ?metrics:bool -> ?sink:Iolite_obs.Trace.Sink.t -> unit -> unit
(** Configure the harness for subsequent runs: with [metrics] every
    experiment point (figure, sweep, C1M, async, write and tier points,
    and the tier probe; not {!smoke}) prints one block, headed
    [-- metrics: <label> --], with its kernel's registry and, when a
    server measured it, the request-latency summary; with [sink] every
    kernel the harness builds is created with tracing armed and
    registered in the sink under its point's label (write it out after
    the runs). Defaults reset both. *)

type smoke_result = {
  sm_trace : Iolite_obs.Trace.t;  (** the run's events, tracing armed *)
  sm_metrics : (string * int) list;  (** final registry snapshot *)
  sm_cold : (string * int) list;  (** Metrics.diff over the cold phase *)
  sm_warm : (string * int) list;  (** Metrics.diff over the warm phase *)
  sm_latency : Iolite_util.Stats.summary option;
  sm_cksum : int * int * int;  (** Flash.cksum_stats at the end *)
  sm_requests : int;
}

val smoke : unit -> smoke_result
(** A small, fully deterministic Flash-Lite run (static files + FastCGI,
    persistent connections, two measurement phases) with tracing always
    armed: the CI smoke test, the trace-determinism test, and
    [iolite smoke] all run this. Two calls produce byte-identical
    trace JSON. Its kernel, labelled ["smoke"], registers with an
    installed sink but prints no metrics block. *)

(** {2 C1M: connection-scale scaffolding (timer wheel + size classes)} *)

type c1m_point = {
  c1m_conns : int;  (** concurrent persistent connections held open *)
  c1m_requests : int;  (** measured-phase request count *)
  c1m_sim_rps : float;  (** requests per simulated second *)
  c1m_wall_ns_per_req : float;
      (** host wall-clock per request over the measured phase — the
          per-op cost that must stay flat as [conns] grows *)
  c1m_p50 : float;
  c1m_p90 : float;
  c1m_p99 : float;  (** request latency, simulated seconds *)
  c1m_fresh_warm : int;
      (** [pool.fresh] delta across the measured phase: fresh chunks
          allocated after warm-up, ≈ 0 when recycling works *)
  c1m_recycled_warm : int;  (** [pool.recycled] delta, same phase *)
  c1m_timer_ns_per_op : float;
      (** wall-clock per cancel+insert pair at full population — the
          idle-timer re-arm cost (O(1) on the timer wheel) *)
  c1m_peak_timers : int;  (** pending timers at peak, ≈ [conns] *)
  c1m_idle_closed : int;  (** connections reaped by idle expiry (≈ 0) *)
}

val c1m : ?requests:int -> conns:int -> unit -> c1m_point
(** One point of the connection-scale sweep: a Flash-Lite server holds
    [conns] persistent connections (each with a one-hour idle timer on
    the engine's timer wheel; the listener keeps only their count),
    64 driver fibers stream [requests] (default 50k) round-robin over
    the whole population, and the measured phase is bracketed with
    metrics snapshots and wall-clock stamps. Ends with a 100k-op timer
    cancel+insert churn at full population. *)

val print_c1m : c1m_point list -> unit

(** {2 Async disk pipeline: tail latency under memory pressure} *)

type async_point = {
  as_scenario : string;  (** ["warm"] (128MB) or ["pressure"] (24MB) *)
  as_mem_mb : int;
  as_requests : int;  (** responses completed in the measured window *)
  as_p50 : float;
  as_p90 : float;
  as_p99 : float;  (** request latency, simulated seconds *)
  as_disk_util : float;
      (** disk busy time / elapsed simulated time over the client run *)
  as_disk_reads : int;
  as_disk_writes : int;
  as_batches : int;  (** dispatcher rounds *)
  as_batched : int;  (** requests that shared a round with a neighbor *)
  as_coalesced : int;  (** misses that joined an in-flight fill *)
  as_ra_issued : int;
  as_ra_hit : int;
  as_swap_writes : int;  (** swap traffic (writes + faults) *)
  as_seq_read_s : float;
      (** cold 1.75MB sequential read, simulated seconds — the
          readahead-pipelining headline *)
  as_attr_completed : int;
      (** foreground requests with a wait-state decomposition *)
  as_attr_totals : (string * float) list;
      (** [("wall", _)] plus the five causes, summed over the measured
          population ({!Iolite_obs.Attrib.totals}) *)
  as_tail : Iolite_obs.Attrib.record list;
      (** the slowest-K reservoir, slowest first — the tail profiler's
          input *)
}

val async_point : ?scale:float -> pressure:bool -> unit -> async_point
(** One point: a cold 1.75MB sequential read (the readahead headline),
    then foreground-vs-background contention — a scanner process streams
    wc over 24MB of 1MB data files while three workers serve small-file
    requests (70% warmed hot head, 30% cold tail) and are the measured
    latency population. [pressure] shrinks memory to 24MB so the scan
    never fits the io budget and keeps the disk at its knee, so a
    foreground miss pays for queueing behind the scan. *)

val async_sweep : ?scale:float -> unit -> async_point list
(** warm, then pressure. *)

val print_async : async_point list -> unit

val print_async_tail : async_point list -> unit
(** The p99 tail profiler's report: per sweep point, the aggregate
    wait-state decomposition (percent of total wall per cause) and the
    slowest-K table — per retained request its five-way breakdown,
    dominant cause and coverage (components / wall, the >=95%
    contract). *)

(** {2 Clustered delayed write-back: clustering headline and CAWL
    regimes} *)

type write_point = {
  wp_label : string;  (** ["delayed"] / ["F=0.2s"] ... *)
  wp_flush_interval : float;
  wp_burst : int;  (** CAWL burst bytes; 0 for the headline points *)
  wp_x : float;  (** burst / hard dirty limit; 0 for the headline *)
  wp_writes : int;  (** write syscalls issued *)
  wp_bytes : int;
  wp_disk_writes : int;  (** disk write operations *)
  wp_disk_bytes : int;
  wp_cluster_writes : int;  (** clustered requests submitted *)
  wp_clustered : int;  (** dirty extents that rode a >=2-extent cluster *)
  wp_flushes : int;  (** flush rounds that submitted work *)
  wp_superseded : int;  (** parked extents replaced before durable *)
  wp_throttled : int;  (** writes blocked at the dirty hard limit *)
  wp_write_s : float;  (** simulated time inside write syscalls + fsync *)
  wp_mbps : float;  (** bytes / write_s *)
}

val write_seq_point : unit -> write_point
(** The clustering headline: 2 MB of 4 KB sequential writes, a rewrite
    of the first eighth before any flush (superseding the parked
    extents), then [fsync]. Delayed write-back merges adjacent dirty
    extents into extent-sized clusters: compare [wp_writes] with
    [wp_disk_writes]. *)

val write_cawl_point :
  flush_interval:float -> burst:int -> unit -> write_point
(** One CAWL point: 40 bursts of [burst] bytes every 0.1 s against a
    small dirty hard limit (high watermark disabled). Below the knee
    the writer runs at memory speed; when one flush interval's
    accumulation crosses the hard limit, write throughput collapses to
    the drain (disk) speed. *)

val write_cawl_sweep : unit -> write_point list
(** Bursts 128 KB ... 2 MB under flush intervals 0.2 s and 0.8 s: the
    knee's position in [x] shifts by the interval ratio. *)

val print_write : write_point list -> unit

(** {2 NVMM second tier: working-set sweeps and the latency probe} *)

type tier_point = {
  tp_label : string;  (** ["dram-only"] / ["tiered"] *)
  tp_ws_mb : int;  (** working-set target (MB of distinct bytes) *)
  tp_mbps : float;
  tp_dram_hits : int;  (** unified-cache hits during the run *)
  tp_dram_evictions : int;  (** DRAM evictions (the demotion source) *)
  tp_tier_hit : int;
  tp_tier_miss : int;
  tp_tier_demote : int;  (** run-time demotions (preload excluded) *)
  tp_tier_promote : int;
  tp_tier_stage : int;  (** write-ahead cluster stagings *)
  tp_tier_evict : int;
  tp_disk_reads : int;
}

type tier_probe = {
  pr_dram_hit_s : float;  (** warm unified-cache read *)
  pr_tier_hit_s : float;  (** read promoting from the NVMM tier *)
  pr_cold_disk_s : float;  (** cold read through the disk *)
  pr_speedup : float;  (** cold_disk / tier_hit *)
  pr_demote : int;
  pr_promote : int;
  pr_stage : int;
}

val tier_ws_sizes_mb : int list
(** [8; 16; 24; 48; 96; 150] against a 64 MB machine: the
    cache-absorbing regime, the DRAM knee, and the tier-bound tail. *)

val tier_sweep : ?scale:float -> unit -> tier_point list
(** Fig. 10's working-set sweep replayed on a small (64 MB) machine:
    every size DRAM-only ([tp_label = "dram-only"], the recorded
    reference) first, then every size with the tier armed
    ([tp_label = "tiered"]). The tier runs at the kernel defaults: a
    budget of 10x the I/O budget and 20 MB/s. DRAM and tier are
    warm-started by {!preload_cache}, as in {!val-fig10}; the tier's
    warm-up demotions are excluded from [tp_tier_demote]. *)

val tier_probe_run : unit -> tier_probe
(** Deterministic single-request latency exhibit on a 16 MB machine: a
    4 KB file read cold (disk positioning dominates), warm (DRAM), and
    after a forced demotion (pure NVMM transfer) — the warm tier hit
    must land between the DRAM hit and the cold disk fill. Finishes with
    a write + [fsync] so the write-ahead staging path shows up in
    [pr_stage]. *)

val print_tier : tier_point list -> tier_probe -> unit
