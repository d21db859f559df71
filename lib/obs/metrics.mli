(** Per-kernel metrics registry.

    One registry per simulated kernel collects every subsystem's
    counters under a dotted namespace ([cache.hits], [net.cksum_bytes],
    [vm.map_read], [disk.reads], ...), plus callback gauges (sampled at
    read time: resident bytes, entry counts) and log-bucketed
    value histograms (latencies, span durations).

    The registry is what makes experiment attribution mechanical:
    {!snapshot} before a phase, snapshot after, and {!diff} names
    exactly which subsystem did what in between — the bookkeeping the
    paper's Section 5/6 tables do by hand.

    Naming scheme: [<subsystem>.<event>[_<unit>]] — subsystems are
    [cache], [pool], [net], [vm], [mem], [disk], [transfer], [bytes]
    (data touches), [httpd]; cumulative byte counters end in [_bytes] or
    are under [bytes.*]. *)

type t

val create : unit -> t

(** {2 Counters} *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
(** Absent counters read 0. *)

val counter : t -> string -> int ref
(** The live cell behind a counter (created at 0 on first use). Hot
    paths resolve a cell once and bump it with a plain [incr]/[:=],
    avoiding the per-event Hashtbl probe of {!add}. Cells stay valid
    across {!reset} (which zeroes them in place). *)

type site
(** A counter named once at a call site and resolved on its first
    {!bump}: until then the key is absent from the registry, exactly as
    if the site used {!add}; afterwards each bump updates the live cell
    with no registry probe. Like {!counter} cells, a resolved site keeps
    feeding the registry across {!reset}. *)

val site : t -> string -> site
val bump : site -> int -> unit
(** [bump s n] is [add t key n] for the site's registry and key. *)

(** {2 Gauges} *)

val set_gauge : t -> string -> (unit -> int) -> unit
(** Register (or replace) a callback gauge; it is sampled by {!gauge},
    {!to_list} and {!snapshot}. *)

val gauge : t -> string -> int

(** {2 Histograms} *)

val observe : t -> string -> float -> unit
(** Record one value into the named histogram (created on first use
    with default bucketing). *)

val hist : t -> string -> Iolite_util.Stats.Hist.t
(** The named histogram, created empty on first use. *)

val find_hist : t -> string -> Iolite_util.Stats.Hist.t option
val hist_list : t -> (string * Iolite_util.Stats.Hist.t) list
(** Sorted by name. *)

(** {2 Snapshots} *)

type snapshot = (string * int) list
(** Counters and sampled gauges, sorted by name. *)

val snapshot : t -> snapshot
val snapshot_get : snapshot -> string -> int

val diff : before:snapshot -> after:snapshot -> (string * int) list
(** Non-zero deltas between two snapshots of the same registry —
    attribution of one experiment phase. *)

(** {2 Listing} *)

val to_list : t -> (string * int) list
(** Counters and sampled gauges, sorted by name. *)

val reset : t -> unit
(** Zeroes counters (in place, so cells from {!counter} stay live) and
    clears histograms; registered gauges survive. *)

val render : ?prefix:string -> t -> string
(** Human-readable dump: non-zero counters/gauges, then histogram
    summaries. *)
