(** Packet filter / early demultiplexing (Section 3.6).

    To place incoming data in a buffer with the right ACL {e before}
    storing it, network drivers must determine the destination I/O stream
    from packet headers on arrival. This module models a BPF-style flow
    table: flows (local port keys) are bound to IO-Lite pools; demuxing a
    packet returns the bound pool and counts the classification work.
    Packets with no matching flow land in the kernel's default pool and
    require a copy when later delivered to a process — exactly the cost
    early demux avoids. *)

type t

type verdict =
  | Demuxed of Iolite_core.Iobuf.Pool.t  (** placed copy-free in the flow's pool *)
  | Unmatched  (** no filter: data must be copied at delivery *)

val create : unit -> t
(** One port-keyed table. A flow is a server's listening port, so the
    table holds one entry per bound server, not one per connection. *)

val bind : t -> port:int -> Iolite_core.Iobuf.Pool.t -> unit
(** Install a filter mapping the local port to the pool. Rebinding
    replaces the previous filter. *)

val unbind : t -> port:int -> unit

val classify : t -> port:int -> verdict
(** One classification (counted). *)

val attach_flow : t -> Iolite_obs.Flow.t -> unit
(** Attach the kernel's flow-id allocator: from now on {!demux} stamps
    each classified request with a fresh flow id. The packet filter is
    the earliest point a request is identifiable, so causal traces
    anchor their [ph:"s"] flow event on the id allocated here. *)

val demux : t -> port:int -> verdict * int
(** [classify] plus request-id allocation: returns the verdict and a
    fresh flow id (0 when no allocator is attached — the unobserved
    hot path allocates nothing). *)

val lookups : t -> int
val matched : t -> int
val flow_count : t -> int
