(** Clustered delayed write-back — the sync daemon (Section 4.2's
    write path, grown the rest of the way to Unix's [bdwrite]/B_DELWRI
    scheme).

    [IOL_write] no longer spawns a disk fiber per call: the written
    aggregate parks in the file cache as a dirty extent and the writer
    returns at memory speed; a sync daemon — a re-armed cancelable
    timer, so an idle system's event queue still drains — later walks
    the per-file interval index, merges
    runs of adjacent dirty extents into extent-sized contiguous disk
    requests ({!Iolite_core.Filecache.collect_dirty}), and submits the
    whole round back to back through the async ring so the C-SCAN
    elevator services it as one batch. Completion callbacks clear
    dirty bits only on durable completion; a re-write racing a flush
    supersedes the captured bytes by generation stamp and the newer
    data simply rides the next round.

    Three pressure responses keep the scheme honest:
    - the {b high watermark} ([wb_hi_ratio] of the I/O budget) starts
      an early flush without blocking anyone;
    - the {b hard limit} ([wb_hard_ratio]) blocks writers until the
      backlog drains — the CAWL disk-bound regime, where sustained
      write throughput degrades from memory speed to drain speed;
    - a {b dirty cache victim} triggers {!evict_flush} (wired via
      {!Iolite_core.Filecache.set_evict_flusher}), so pageout forces a
      clustered write-back instead of losing buffered writes. *)

type t

type config = {
  wb_flush_interval : float;  (** sync-daemon period, seconds *)
  wb_hi_ratio : float;
      (** dirty/[budget] fraction that starts an early flush; set [>=
          wb_hard_ratio] to disable the watermark (CAWL sweeps do) *)
  wb_hard_ratio : float;  (** dirty fraction that blocks writers *)
}

val default_config : config
(** 0.5 s interval, hi/hard ratios 0.25/0.5. Clusters are capped at one
    pool extent ({!Iolite_core.Filecache.collect_dirty}). *)

val create :
  engine:Iolite_sim.Engine.t ->
  disk:Iolite_fs.Disk.t ->
  cache:Iolite_core.Filecache.t ->
  metrics:Iolite_obs.Metrics.t ->
  trace:Iolite_obs.Trace.t ->
  flow:Iolite_obs.Flow.t ->
  budget:(unit -> int) ->
  config ->
  t
(** [budget] supplies the byte base for the watermark ratios (the
    kernel passes [Physmem.io_budget]). The caller wires
    {!evict_flush} into the cache's evict-flusher hook. *)

val set_tier : t -> Iolite_core.Tier.t -> unit
(** Arm NVMM write-ahead staging: every flushed cluster's payload is
    {!Iolite_core.Tier.stage}d (pinned, tagged with the cluster's
    newest dirty generation) before its disk write is submitted, and
    unstaged when the write completes — the Section 9 flush path
    doubling as the tier's write-ahead log. *)

val note_write : t -> unit
(** Write notification, called after a non-empty dirty insert:
    arms the daemon, kicks an early flush past the high watermark, and
    blocks the caller while dirty bytes exceed the hard limit
    (counting [write.throttled]). Must run inside a simulation
    process. *)

val kick : ?reason:string -> t -> unit
(** Start a flush round now (an engine fiber; coalesced if one is
    already pending). *)

val fsync : t -> file:int -> unit
(** Flush [file]'s dirty extents and block the caller until that
    file's dirty bytes and in-flight writes — only that file's — reach
    zero. Must run inside a simulation process.

    In-flight writes are read from the layer's reservation set: an
    {!Iolite_core.Extmap} holding one extent per cluster from the moment
    it is collected until its disk write completes, so a cluster
    collected but not yet submitted already counts. *)

val sync : t -> unit
(** Flush every file and block until the whole backlog is durable. *)

val evict_flush : t -> file:int -> unit
(** The cache's dirty-victim hook: captures the file's dirty clusters
    synchronously (before the victim entry drops), submits them from a
    fresh fiber. *)

val quiescent : t -> bool
(** No dirty bytes and no in-flight clustered writes. *)

val inflight_clusters : t -> file:int -> int
(** Clustered writes of one file collected and not yet durable (test
    support). *)
