(** The second, persistent cache tier between {!Filecache} (DRAM) and
    the disk — an NVCache-style byte-addressable NVMM pool: ~10x the
    DRAM budget at ~10x the latency in the cost model, with no
    positioning cost (reads pay pure transfer time).

    Three streams feed it:

    - {e demotion}: DRAM evictions land here (via
      {!Filecache.set_demoter}) instead of being dropped;
    - {e write-ahead staging}: the write-back layer copies each cluster
      payload here before submitting it to disk — staged bytes are
      pinned until the disk write completes, then relax into ordinary
      (evictable) residents;
    - {e promotion}: a DRAM miss probes the tier before the disk; a
      fully covered range is {e moved} back up (the covered bytes leave
      the tier — a byte is resident in one tier at a time).

    Entries never overlap within a file (inserts carve what they cover,
    like the DRAM cache, and sit in the same {!Extmap} index) and carry
    the dirty-generation stamp of the bytes, so the model-based tests can state the cross-tier invariant:
    promotion always observes the newest generation written.

    Counters ([cache.tier.{hit,miss,demote,promote,wb_stage,evict}])
    flow through the shared metrics registry; instants under the
    ["tier"] category flow through the shared tracer. *)

type t

val create : ?policy:Policy.t -> Iosys.t -> unit -> t
(** [policy] ranks victims when the tier itself overflows (default
    {!Policy.gds} with uniform cost; the kernel passes a GDS whose cost
    is the disk-refetch latency, making the tier's own replacement
    tier-aware too). The simulated NVMM transfer rate is a constant
    20 MB/s — a fifth of the 1999 memory-copy rate, faster than the
    disk's 12 MB/s streaming rate, and with no positioning penalty: on
    the small-transfer class that dominates the web workloads, where
    the disk's 8 ms seek is the whole story, a tier hit is roughly 10x a
    DRAM hit and a tenth of a disk fill. *)

val set_capacity : t -> (unit -> int) option -> unit
(** Byte budget; evaluated at admission so it can track a live
    memory-pressure signal. [None] (default) = unbounded. *)

val capacity : t -> int option
(** The byte budget as of now; [None] = unbounded. *)

val set_charge : t -> (float -> unit) option -> unit
(** Sink for the simulated seconds each tier write (demote/stage)
    costs; the kernel points this at its pending-CPU accumulator. *)

val read_time : t -> bytes:int -> float
(** Simulated seconds to read [bytes] from the tier: byte-addressable,
    so pure transfer — no positioning term. *)

val write_time : t -> bytes:int -> float

val demote : t -> file:int -> off:int -> gen:int -> string -> unit
(** Admit a DRAM eviction. Carves any overlapping resident bytes
    (unstaged ones; a staged overlap vetoes the admission instead —
    its pinned bytes are at least as new), charges the write cost,
    then evicts under the policy until within capacity. *)

val stage : t -> file:int -> off:int -> gen:int -> string -> unit
(** Write-ahead staging: like {!demote} but the entry is pinned
    (ineligible for eviction) until {!unstage}, and counted as
    [cache.tier.wb_stage]. Capacity may overshoot while writes are in
    flight — staged bytes are never dropped. *)

val unstage : t -> file:int -> off:int -> len:int -> unit
(** The disk write covering [off, off+len) completed: unpin any staged
    entries inside the range (they become ordinary evictable
    residents), then settle any capacity debt. Tolerant of the range
    having been carved or invalidated while the write was in flight. *)

val promote : t -> file:int -> off:int -> len:int -> string option
(** Probe for [off, off+len). Full coverage returns the bytes and
    {e removes} them from the tier ([cache.tier.hit] +
    [cache.tier.promote]; staged entries contribute bytes but stay
    pinned until their disk write acks). When one entry spans exactly
    the range, the result is that entry's stored string, not a copy;
    otherwise one string is assembled from the covering entries.
    Partial or no coverage returns [None] ([cache.tier.miss]) and drops
    any unstaged partial overlap — the caller refills the whole range
    from disk, and keeping a stale fragment alongside the fresh disk
    copy would let two tiers disagree about those bytes. *)

val invalidate : t -> file:int -> off:int -> len:int -> unit
(** A write made [off, off+len) newer than anything resident here: drop
    the overlap (staged entries included — the in-flight cluster holds
    its own payload copy, and its {!unstage} tolerates the gap). *)

val covered : t -> file:int -> off:int -> len:int -> bool
(** Whether [off, off+len) is fully resident (no removal, no counters,
    no allocation) — the tier-aware cost probe of the DRAM policy, run
    on every unified-cache insert and access while the tier is armed. *)

(** {2 Introspection} *)

val total_bytes : t -> int
val staged_bytes : t -> int
val entry_count : t -> int

val entries : t -> file:int -> (int * string * int * bool) list
(** [(off, bytes, gen, staged)] in offset order — the test oracle's
    view. *)

val check : t -> unit
(** Test support: raises [Failure] unless the index passes
    {!Extmap.Make.check} and the staged byte count agrees with a walk of
    the entries. *)
