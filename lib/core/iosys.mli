(** The IO-Lite system context.

    Bundles the substrates every IO-Lite operation needs: physical-memory
    accounting, the VM mapping layer, the pageout daemon, and the kernel
    protection domain. Also hosts the data-touch observer through which
    the OS layer charges simulated CPU time for physical copies and
    fills. *)

open Iolite_mem

type touch =
  | Copy  (** redundant data copy (the thing IO-Lite eliminates) *)
  | Fill  (** initial production of data into a buffer *)
  | Dma  (** device-driven placement: no CPU cost *)

val touch_name : touch -> string

(** How buffer-fill operations are charged in the current dynamic
    extent: as genuine data production ([`Fill]), as a physical copy
    ([`As_copy] — e.g. staging data through kernel pipe buffers), or as
    free device DMA ([`Dma] — disk and NIC data placement). *)
type fill_mode = [ `Fill | `As_copy | `Dma ]

type t

val create : ?capacity:int -> ?seed:int64 -> unit -> t
(** [capacity] defaults to 128 MB (the paper's testbed). *)

val physmem : t -> Physmem.t
val vm : t -> Vm.t
val pageout : t -> Pageout.t
val kernel : t -> Pdomain.t

val new_domain : t -> name:string -> Pdomain.t
(** Fresh untrusted protection domain (a user process). *)

val set_on_touch : t -> (touch -> int -> unit) -> unit
(** Observer invoked with the byte count of every physical data touch. *)

val touch : t -> touch -> int -> unit
(** Record a data touch (counters + observer). *)

val with_fill_mode : t -> fill_mode -> (unit -> 'a) -> 'a
(** Run a thunk with fills recharged per the given mode. *)

val metrics : t -> Iolite_obs.Metrics.t
(** The kernel-wide metrics registry: byte counts per touch kind, VM op
    counts, and every subsystem's counters under a dotted namespace. *)

(** Live cells of the [transfer.*] counters, resolved once at system
    creation so the warm-transfer fast path pays plain [int ref] bumps
    instead of per-call registry probes. They feed {!metrics} like any
    other counter. *)
type xfer_cells = {
  xc_sends : int ref;  (** [transfer.send] *)
  xc_bytes : int ref;  (** [transfer.bytes] *)
  xc_warm_hits : int ref;  (** [transfer.warm_hits] *)
  xc_cold_walks : int ref;  (** [transfer.cold_walks] *)
}

val transfer_cells : t -> xfer_cells

val trace : t -> Iolite_obs.Trace.t
(** The kernel-wide tracer (created disabled; armed by the OS layer,
    which owns the virtual clock). *)

val flow : t -> Iolite_obs.Flow.t
(** The kernel-wide flow-id allocator, enabled with {!trace}; flow
    events go through {!trace}. Request ids are per kernel, so
    same-seed runs allocate identically. *)

val attrib : t -> Iolite_obs.Attrib.t
(** The kernel-wide wait-state attribution collector (created
    disabled; armed by the OS layer alongside the tracer). *)
