(** The unified IO-Lite file cache (Sections 3.5 and 3.7).

    A mapping ⟨file-id, offset, length⟩ → buffer aggregate. The cache has
    no statically allocated storage: entries pin ordinary pageable IO-Lite
    buffers. Because the buffers are immutable, a write to a cached range
    {e replaces} the overlapping entries; replaced buffers persist while
    other references exist, which is what gives [IOL_read] its snapshot
    semantics.

    Two trimming regimes are supported:
    - {b unified} (IO-Lite): the cache registers with the pageout daemon;
      entries are evicted when the Section 3.7 rule fires. The cache
      grows on every miss.
    - {b capacity} (conventional file cache model): a byte capacity is
      supplied (usually [Physmem.io_budget]) and enforced on insert —
      used to model the mmap-based servers, whose cache competes with
      wired network buffers.

    Replacement is delegated to a {!Policy.t} (LRU by default; Flash-Lite
    installs GDS). Victims are preferentially entries not currently
    referenced outside the cache — an O(1) check per candidate, kept
    incrementally by buffer reference-transition watchers rather than
    re-walking each entry's slices.

    Entries are indexed by {!Extmap} (a balanced tree per file keyed on
    offset, the same index the NVMM tier and the write-back
    reservations use), so lookup/insert/backfill are O(log n + k) in the
    file's entry count n and overlap size k, and an exact-bounds
    single-entry hit returns without allocating. *)

type t

val create :
  ?policy:Policy.t ->
  ?register_with_pageout:bool ->
  Iosys.t ->
  unit ->
  t
(** [register_with_pageout] defaults to [true] (the unified regime). *)

val set_policy : t -> Policy.t -> unit
(** Swap the replacement policy (application customization). Existing
    entries are re-registered with the new policy. *)

val policy_name : t -> string

val set_capacity : t -> (unit -> int) option -> unit
(** Install a dynamic byte-capacity bound (conventional regime), or
    remove it with [None]. *)

(** {2 Operations} *)

val lookup : t -> file:int -> off:int -> len:int -> Iobuf.Agg.t option
(** On a hit, a fresh aggregate over exactly the requested range (caller
    owns and must free it). [None] when cached entries do not cover
    every byte of the range. A request matching one entry's exact bounds
    is a zero-allocation fast path (a shared rope, counted by the
    [cache.fastpath_hit] metric). *)

val covered : t -> file:int -> off:int -> len:int -> bool
(** Hit test without constructing an aggregate or recording an access. *)

val insert : ?dirty:bool -> t -> file:int -> off:int -> Iobuf.Agg.t -> unit
(** Installs the aggregate as cache contents for
    [off, off + length agg). Takes ownership of the aggregate.
    Overlapping older entries are replaced (trimmed or dropped) — their
    buffers persist while referenced elsewhere. [dirty] (default
    [false]) marks the new entry as a parked delayed write: it holds
    bytes newer than the backing store, counts toward {!dirty_bytes},
    and is stamped with a fresh generation so a re-write before its
    flush supersedes the queued I/O (replacing a dirty entry counts a
    [write.superseded]). *)

val backfill : ?prefetched:bool -> t -> file:int -> off:int -> Iobuf.Agg.t -> unit
(** Like {!insert} but for data arriving from backing store: existing
    entries are {e newer} than the incoming bytes (they may hold writes
    not yet visible on disk), so only the gaps they leave are filled.
    Takes ownership of the aggregate. [prefetched] marks the created
    entries as readahead products: the first {!lookup} touching one
    counts a [cache.readahead_hit] (and clears the mark), while
    evicting one still marked counts a [cache.readahead_wasted]. *)

val fill_single_flight : t -> file:int -> ?off:int -> (unit -> unit) -> bool
(** [fill_single_flight t ~file ?off fill] coalesces concurrent fills of
    one file range, keyed on [(file, off)] ([off] defaults to 0:
    whole-file fills; extent-granular fills pass their aligned start, so
    a demand read waits only for the extent it needs rather than a whole
    readahead window). If no fill of the range is in flight, runs [fill]
    (the leader) and returns [true]. Otherwise blocks the calling
    process until the in-flight fill completes, counts a
    [cache.fill_coalesced], and returns [false] — the caller must then
    re-check coverage, since the leader's fill may have covered a
    different range or already been evicted. Must run inside a
    simulation process. *)

val fill_in_flight : t -> file:int -> ?off:int -> unit -> bool
(** Whether a single-flight fill of [(file, off)] is currently in
    flight. *)

val invalidate_file : t -> file:int -> unit
(** Drop all entries of a file (e.g. file deletion/truncation). *)

val evict_one : t -> int
(** Evict the policy's victim (preferring unreferenced entries, else the
    best referenced one). Returns bytes unpinned, 0 when empty. *)

val file_bytes : t -> file:int -> int
(** Cached bytes for one file. O(1): maintained incrementally per file. *)

(** {2 Delayed write-back (dirty-extent tracking)}

    Dirty entries park in the cache until a write-back layer collects
    them into clusters. A {!cluster} is one contiguous disk request
    built from a run of adjacent dirty extents of one file; its data is
    captured by value at collection time, so the entries may be carved
    by newer writes or evicted while the write is in flight — the
    completion's {!ack_cluster} then tells freshly durable bytes from
    superseded ones by generation stamp. *)

val dirty_bytes : t -> int
(** Total parked dirty bytes (cleared only on durable completion). *)

val file_dirty_bytes : t -> file:int -> int
(** Dirty bytes of one file. O(1). *)

val dirty_files : t -> int list
(** Files with dirty bytes, ascending id (deterministic walk order). *)

type cluster

val collect_dirty :
  ?skip:(off:int -> len:int -> bool) -> t -> file:int -> cluster list
(** Walk the file's extents in offset order and merge maximal runs of
    adjacent, not-yet-captured dirty extents into clusters of at most
    one pool extent ([Iobuf.Pool.max_alloc] bytes; a single larger
    extent forms its own cluster). Captured entries stay dirty — and so count toward
    {!dirty_bytes} — until {!ack_cluster}. [skip] vetoes whole runs
    {e without} capturing them, leaving them dirty for a later
    collection: the write-back layer vetoes ranges overlapping an
    in-flight write, because two outstanding writes to one range may
    complete in elevator order and land stale bytes last (the
    write-order hazard the crash harness checks). *)

val cluster_file : cluster -> int
val cluster_off : cluster -> int
val cluster_len : cluster -> int

val cluster_extents : cluster -> int
(** Dirty extents merged into this cluster. *)

val cluster_data : cluster -> string
(** The captured bytes (the durable-write payload). *)

val cluster_gen : cluster -> int
(** The newest dirty generation among the captured entries — the
    generation the write-ahead staging tier tags the payload with. *)

val ack_cluster : t -> cluster -> int * int
(** Durable-completion acknowledgement: [(cleaned, superseded)] over
    the cluster's captured entries. A captured entry replaced by a
    newer write since collection counts as superseded (and increments
    the [write.superseded] metric); the rest have their dirty bits
    cleared and their bytes released from {!dirty_bytes}. *)

val set_evict_flusher : t -> (file:int -> unit) -> unit
(** Hook called by {!evict_one} before dropping a dirty victim no flush
    has captured yet: the write-back layer must capture the victim
    file's dirty clusters (e.g. {!collect_dirty} + submit), after which
    the drop loses no buffered writes. Counted by [cache.evict_flush].

    A victim the hook could not capture (its range overlaps an
    in-flight write) is vetoed — counted by [cache.evict_veto] — and
    the policy is re-consulted with the vetoed keys excluded, a bounded
    number of times per round, before the round reports no progress. *)

val set_demoter :
  t -> (file:int -> off:int -> len:int -> gen:int -> data:string -> unit) -> unit
(** Hook called by {!evict_one} with a by-value snapshot of each
    victim's bytes (and its dirty generation — 0 for clean entries)
    just before the entry is dropped: the next cache tier down admits
    the victim instead of losing it (demotion). Superseded dirty
    entries are not offered — their bytes are stale by definition. *)

(** {2 Introspection} *)

val total_bytes : t -> int

val total_slices : t -> int
(** Pinned slices across all entries — a fragmentation signal. Kept
    incrementally from the aggregates' O(1) [Agg.num_slices]. *)

val entry_count : t -> int

val entries : t -> file:int -> (int * int) list
(** [(offset, length)] of each cached entry of [file], ascending by
    offset (diagnostic/test support). *)

val verify_ref_tracking : t -> bool
(** Slow cross-check of the O(1) reference counters against a full
    slice walk of every entry (test support). Each walk increments the
    [cache.refscan] metric, which stays at zero on production paths. *)

val check : t -> unit
(** Test support: raises [Failure] unless the index passes
    {!Extmap.Make.check} and the total dirty bytes, per-file dirty bytes
    and slice count agree with a walk of the entries. *)
