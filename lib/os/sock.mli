(** TCP sockets between external clients and server processes.

    A connection carries an RTT (the delay-router setting of Section 5.7)
    and a socket send-buffer size Tss (64 KB in all experiments). Two
    send disciplines reproduce the two systems:

    - {b copying} (conventional BSD): the payload is copied into wired
      mbuf clusters, the Internet checksum is computed over every byte,
      and up to Tss of wired memory is held until the data drains — the
      memory pressure that hurts Flash and Apache in Fig. 12.
    - {b zero-copy} (IO-Lite): the payload aggregate is referenced by the
      mbuf chain (only headers are wired), and checksums come from the
      checksum cache when the same immutable slices are retransmitted.

    Transmission is windowed by Tss: each window occupies the shared
    link and, on WAN paths, waits a round-trip for acknowledgment, so
    per-connection goodput is bounded by Tss/RTT. *)

type listener
type conn

val listen :
  ?reserve_tss:bool ->
  ?idle_timeout:float ->
  Kernel.t ->
  port:int ->
  listener
(** At most one listener per port per kernel in this model.

    [reserve_tss] models the conventional server's socket buffers: every
    accepted connection wires Tss bytes of kernel memory until it is torn
    down, so memory consumption grows with the concurrent connection
    count — the Fig. 12 effect. IO-Lite servers leave it [false]: their
    send queues reference IO-Lite buffers and wire only mbuf headers.

    The listener keeps no table of its connections, only their live
    count: accept increments it and teardown decrements it.
    [idle_timeout] > 0 arms a per-connection idle timer at accept,
    re-armed on every request (O(1) on the engine's timer wheel);
    expiry closes the connection as if the client had, counted by
    [sock.idle_closed]. *)

val port : conn -> int
val rtt : conn -> float

val live_conns : listener -> int
(** Accepted connections not yet torn down (O(1)). *)

(** {2 Client side (driver coroutines, not OS processes)} *)

val connect : ?rtt:float -> Kernel.t -> listener -> conn
(** Blocks 1.5 RTT for the handshake; queues the connection for
    [accept]. *)

val request : conn -> string -> int
(** Send a request and block until the whole response has arrived;
    returns the response length in bytes. Raises [Failure] if the server
    closed the connection. *)

val close : conn -> unit
(** Client-initiated close; the server's next [recv] returns [None]. *)

(** {2 Server side} *)

val accept : Process.t -> listener -> conn
(** Blocks until a connection arrives; charges TCP setup CPU. *)

val recv : Process.t -> conn -> zero_copy:bool -> string option
(** Next request, or [None] once the client closed (charges teardown).
    Charges receive-path CPU: per-packet work plus either packet-filter
    demux (IO-Lite, early demultiplexing) or a delivery copy
    (conventional). *)

val send :
  ?on_complete:(float -> unit) ->
  Process.t ->
  conn ->
  zero_copy:bool ->
  Iolite_core.Iobuf.Agg.t ->
  unit
(** Queue the response (takes ownership of the aggregate). Charges send
    CPU per the discipline; the drain to the client proceeds
    asynchronously. [on_complete] fires with the virtual time at which
    the response has fully drained to the client — the hook request
    latency histograms hang off. *)

val sendfile :
  ?on_complete:(float -> unit) ->
  Process.t ->
  conn ->
  file:int ->
  header:string ->
  int
(** The monolithic [sendfile]/[transmitfile] system call the paper
    discusses as related work (Section 6.7): the kernel splices the
    conventional file cache straight into TCP. No copies and no
    user-space mapping — but, lacking IO-Lite's system-wide buffer
    identity, the Internet checksum is recomputed on every transmission,
    and the interface does not extend to dynamic content. Returns the
    queued byte count (header + file). *)
