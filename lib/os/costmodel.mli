(** CPU cost model, calibrated to the paper's testbed: a 333 MHz Pentium
    II running FreeBSD 2.2.6 with 100 Mb/s Ethernets (Section 5).

    All rates are bytes/second of CPU work; all latencies are seconds.
    The simulator executes the real operations (copies, checksums, map
    bookkeeping) on real bytes and charges virtual CPU time according to
    this table, so relative results depend on the operation {e mix} —
    which the code reproduces — while absolute magnitudes depend on this
    calibration. *)

type t = {
  copy_rate : float;  (** memcpy throughput (~60 MB/s on the PII) *)
  fill_rate : float;  (** producing fresh data into a buffer *)
  cksum_rate : float;  (** Internet checksum throughput (~120 MB/s) *)
  cksum_fold : float;  (** folding two cached partial sums (a few cycles) *)
  syscall : float;  (** user/kernel crossing (~5 us) *)
  per_packet : float;  (** protocol + driver work per MTU packet (~8 us) *)
  demux : float;  (** packet-filter classification per packet *)
  page_map : float;  (** map one page into an address space (~10 us) *)
  page_fault : float;  (** fault on a non-resident page *)
  context_switch : float;  (** process switch (~30 us) *)
  tcp_setup : float;  (** accept + handshake processing CPU *)
  tcp_teardown : float;
  metadata_lookup : float;  (** namei/stat work per open *)
  proc_fork : float;  (** fork+exec a process (CGI 1.1 style) *)
}

val default : t
(** The 1999 calibration used by every experiment. *)

val copy_time : t -> int -> float
val fill_time : t -> int -> float
val cksum_time : t -> int -> float

val cksum_fold_time : t -> int -> float
(** CPU time for [n] partial-sum combine steps (the cost of checksum
    algebra over memoized sums — per fold, not per byte). *)

val packets : mtu:int -> int -> int
(** Number of MTU packets needed for a payload. *)

val packet_time : t -> mtu:int -> int -> float
(** Per-packet processing CPU for a payload of the given size. *)
