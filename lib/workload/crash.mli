(** Crash-at-any-point consistency harness for the delayed write-back
    path.

    The virtual kernel makes crash injection exact: {!run_workload}
    records a full randomized write/fsync run, then an identical run is
    stopped at an arbitrary virtual time with [Engine.run ~until] — the
    deterministic engine guarantees the crash run executes a strict
    prefix of the recorded one. The disk's durable-write log
    ({!Iolite_fs.Disk.write_log}, appended only when a write's service
    extent completes) is then exactly what the platters would hold, and
    replaying it over the synthetic initial contents reconstructs the
    recovered image.

    The per-offset oracle accepts a recovered byte iff it comes from
    some write to that offset issued before the crash (or the initial
    contents when nothing was fsync'd there), and — the durability
    half — rejects anything older than the newest write covered by an
    acknowledged [fsync]: fsync'd data always survives, and no offset
    ever travels backwards past it (write-order consistency). *)

val byte_for : int -> int -> char
(** [byte_for k off]: the payload byte write [k] stores at absolute
    offset [off] (identifies survivors in the recovered image). *)

type wl_config = {
  nfiles : int;
  file_size : int;
  nwrites : int;
  align : int;  (** write offsets/lengths are multiples of this *)
  max_sectors : int;  (** write length: [align * \[1, max_sectors\]] *)
  fsync_pct : int;  (** chance (percent) of fsync after a write *)
  flush_interval : float;  (** sync-daemon period for the run *)
}

val default_workload : wl_config
(** 2 files x 256 KB, 40 aligned writes of 0.5-16 KB with think time,
    20% fsync, 0.3 s flush interval. *)

type issue = {
  is_k : int;
  is_file : int;
  is_off : int;
  is_len : int;
  is_t : float;
}

type acked_sync = { fs_file : int; fs_t : float; fs_floor : int }

type history = {
  h_end : float;
  h_issues : issue list;
  h_syncs : acked_sync list;
}

val run_workload :
  ?until:float -> seed:int64 -> wl_config -> Iolite_os.Kernel.t * history
(** One seeded run against a fresh kernel with the durable-write log
    enabled; [until] crashes it mid-flight. Equal seeds give identical
    runs. *)

val check :
  history:history ->
  crash_t:float ->
  log:Iolite_fs.Disk.write_record list ->
  wl_config ->
  string list
(** The oracle: failure descriptions (empty = consistent). *)

val run_one : seed:int64 -> frac:float -> int * string list
(** Record a full {!default_workload} run, crash a twin at [frac] of its
    duration. Returns (durable writes at the crash, failures). *)

type result = {
  r_points : int;
  r_failures : string list;
  r_durable_min : int;
  r_durable_max : int;
  r_durable_total : int;
}

val run_many : ?seeds:int -> ?runs:int -> unit -> result
(** Exactly [runs] randomized crash points spread over [seeds] distinct
    workloads (default 1000 over 25; the first [runs mod seeds] seeds
    take one extra point); the recording pass is shared per seed and
    crash fractions sweep (0, 1]. *)

val print : result -> unit
