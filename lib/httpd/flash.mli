open! Import
(** The Flash web server (Pai et al. 1999) and Flash-Lite, its IO-Lite
    port — both event-driven, single-process servers (Section 5).

    - [Conventional] (Flash): files are read with [mmap] (no read copy)
      and mappings are cached; socket writes copy into mbuf clusters and
      checksum every byte. This is the aggressive baseline: the best a
      server can do with standard OS facilities.
    - [Iolite] (Flash-Lite): files are read with [IOL_read] from the
      unified cache, response headers are allocated in IO-Lite space, and
      [IOL_write] passes aggregates to TCP by reference; the Internet
      checksum comes from the checksum cache. The file-cache replacement
      policy is customized to Greedy-Dual-Size (overridable for the
      Fig. 11 ablation).

    Both variants optionally attach a FastCGI application serving the
    path ["/cgi"] with a fixed-size dynamic document. *)

type variant =
  | Conventional
  | Iolite
  | Sendfile
      (** extension: the conventional server using the monolithic
          [sendfile] syscall for static files (Section 6.7) — no copies,
          but checksums recomputed per transmission and no benefit for
          CGI. An ablation point between Flash and Flash-Lite. *)

type t

val start :
  ?variant:variant ->
  ?cgi_doc_size:int ->
  ?cgi_mode:Cgi.mode ->
  ?policy:Iolite_core.Policy.t ->
  ?idle_timeout:float ->
  Kernel.t ->
  port:int ->
  t
(** Spawns the server process; [variant] defaults to [Iolite].
    [cgi_mode] selects FastCGI (default) or fork-per-request CGI 1.1.
    [policy] (default GDS for [Iolite]) customizes the unified cache.
    [idle_timeout] > 0 arms per-connection idle timers (see
    {!Sock.listen}). Each completed request's latency (seconds, request
    arrival to last byte drained) goes to the kernel registry's
    [httpd.request_latency_s] histogram. *)

val listener : t -> Sock.listener
val variant : t -> variant
val requests : t -> int
val response_bytes : t -> int

val cgi_handle : t -> Cgi.t option
(** The attached FastCGI application, if any (for tests and fault
    injection). *)

val cksum_stats : t -> int * int * int
(** [(total, scanned, saved)] checksum bytes on this server's kernel:
    payload bytes that would be summed without any cache, bytes actually
    scanned, and the difference — the checksum-cache contribution to the
    Fig. 11 ablation, re-derivable from counters. *)

val latency_stats : t -> Iolite_util.Stats.summary option
(** p50/p90/p99 (and mean/min/max) of request latency, read from the
    kernel registry's [httpd.request_latency_s]; [None] before the
    first completed request. The registry is per kernel, so this is the
    server's own stream only while it is the one Flash on its kernel,
    and it restarts empty after a [Metrics.reset] of that registry. *)

val request_overhead : float
(** Per-request event-machinery CPU of the Flash design (both
    variants). *)
