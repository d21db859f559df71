(** Shared transmission link (the server's NIC aggregate).

    The paper's testbed attaches five 100 Mb/s Ethernets to the server;
    Flash-Lite saturates them slightly below 400 Mb/s. We model the
    aggregate as a single FIFO store-and-forward resource: a transmission
    occupies the link for [bytes / bandwidth] seconds (plus per-packet
    framing overhead), so concurrent senders share capacity fairly. *)

type t

val create :
  ?links:int ->
  ?trace:Iolite_obs.Trace.t ->
  bits_per_sec:float ->
  unit ->
  t
(** [bits_per_sec] is the {e aggregate} capacity shared by [links]
    parallel interfaces (default 5, like the testbed); each transmission
    occupies one interface at [bits_per_sec / links]. The MTU is 1500
    bytes. [trace] receives a [net]/[tx] span per transmission
    (queueing + wire time) when tracing is enabled. *)

val mtu : t -> int
val bits_per_sec : t -> float
val links : t -> int

val transmit : t -> bytes:int -> unit
(** Must be called from a simulation process: queues FIFO for an
    interface and sleeps for the wire time of [bytes] (including
    per-packet framing overhead of 58 bytes: Ethernet + IP + TCP
    headers). *)

val wire_time : t -> bytes:int -> float
(** The single-interface occupancy [transmit] would sleep, without
    queueing. *)

val bytes_sent : t -> int
val utilization : t -> now:float -> float
(** Fraction of wall-clock time the link has been busy. *)
