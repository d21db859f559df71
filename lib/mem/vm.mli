(** Virtual-memory layer: the IO-Lite window, chunks, and per-domain
    mapping tables.

    IO-Lite buffers live in {e chunks}: 64 KB regions of the globally
    shared IO-Lite window that carry a single access-control list
    (Section 4.5). Mapping state is tracked per (domain, chunk). Mappings
    established by a cross-domain transfer persist after the buffer is
    deallocated, so reusing a recycled buffer on the same I/O stream costs
    no VM operations — the central fbufs-style optimization (Section 3.2).

    Every VM operation is reported through an observer hook so the OS
    layer can charge simulated CPU time for it. *)

type prot = No_access | Read_only | Read_write

type op =
  | Map_read  (** establish read mapping (page remap) *)
  | Grant_write  (** toggle write permission on for an untrusted producer *)
  | Revoke_write  (** toggle write permission off at seal time *)
  | Unmap  (** tear down a mapping (chunk destruction) *)
  | Page_alloc  (** make a non-resident chunk resident again *)
  | Page_fault  (** access to a paged-out chunk *)

val op_name : op -> string

type t
type chunk

(** Chunk access-control list. [Public] models conventional VM file
    pages, which any process may map (used by the non-IO-Lite baseline
    paths); IO-Lite pools always use [Only]. *)
type acl = Public | Only of Pdomain.Set.t

val create :
  ?metrics:Iolite_obs.Metrics.t ->
  ?trace:Iolite_obs.Trace.t ->
  physmem:Physmem.t ->
  unit ->
  t
(** [metrics] is the registry VM op counts accumulate into (a private
    one is created when omitted); [trace] receives a [vm]-category
    instant per operation when tracing is enabled. *)

val set_on_op : t -> (op -> pages:int -> unit) -> unit
(** Observer for cost accounting; defaults to a no-op. *)

val set_pager : t -> (pages:int -> unit) -> unit
(** Swap-in hook, called when a read touches a paged-out chunk (just
    after the [Page_fault] is recorded, before the pages are
    re-allocated). The OS layer installs a blocking disk read here so a
    fault suspends exactly the faulting simulated process. Defaults to
    a no-op. *)

val note_op : t -> op -> pages:int -> unit
(** Record an operation (counters + observer) without changing mapping
    state. The buffer layer uses this to charge write-permission toggles
    at buffer-page granularity: {!grant_write} and {!revoke_write} are
    state transitions whose protection-change cost depends on how many
    pages the producer actually fills, which only the allocator knows. *)

val metrics : t -> Iolite_obs.Metrics.t
(** Registry holding cumulative op counts (keyed by {!op_name}). *)

(** {2 Chunks} *)

val alloc_chunk : t -> label:string -> acl:acl -> chunk
(** Allocates a resident 64 KB chunk charged to the physical-memory
    [Io_data] account (which may trigger pageout). *)

val destroy_chunk : t -> chunk -> unit
(** Frees the chunk's memory and tears down all its mappings. *)

val chunk_id : chunk -> int
val chunk_acl : chunk -> acl
val chunk_resident : chunk -> bool
(** At least one page resident. *)

val resident_pages : chunk -> int
val resident_bytes : chunk -> int

val chunk_generation : chunk -> int
(** Current reuse generation; see {!recycle_chunk}. *)

val bump_generation : t -> chunk -> int
(** Advance and return the chunk's generation without recycling storage.
    Used when a buffer's contents are legitimately modified in place
    (the unshared-buffer optimization): the new generation gives the
    modified contents a fresh system-wide identity, so stale cached
    checksums can never match them. *)

val free_pages : t -> chunk -> pages:int -> int
(** Buffer reclamation at page granularity: an IO-Lite buffer occupies
    an integral number of pages (Section 3.3), so when its reference
    count drops the pages return to the VM immediately — even while
    other buffers keep the rest of the chunk alive. Returns bytes
    freed. *)

val ensure_resident : t -> chunk -> unit
(** Make the whole chunk resident again (charging [Page_alloc] work for
    the missing pages). *)

val recycle_chunk : t -> chunk -> unit
(** Marks the chunk's storage as reusable: bumps the generation number
    (invalidating any cached checksums for buffers that lived there) and
    makes the chunk fully resident again. Mappings are retained. *)

val release_chunk_memory : t -> chunk -> int
(** Pageout support: releases the remaining physical pages of a (clean,
    unused) chunk while retaining its mappings. Returns bytes freed (0
    if already non-resident). *)

(** {2 Mappings} *)

exception Protection_fault of string

val prot : t -> Pdomain.t -> chunk -> prot

val map_read : t -> Pdomain.t -> chunk -> unit
(** Grant the domain read access. Charges a [Map_read] op only when the
    chunk was not already mapped — repeated transfers on a warm stream are
    free. Raises [Protection_fault] if the domain is not on the chunk's
    ACL (trusted domains bypass the check). *)

val grant_write : t -> Pdomain.t -> chunk -> unit
(** Give the producer write permission (state change; the first contact
    with the chunk also establishes the mapping and charges [Map_read]).
    Toggle costs are charged separately via {!note_op} by the allocator;
    trusted domains keep the permission permanently and toggle for free
    (Section 3.2). *)

val revoke_write : t -> Pdomain.t -> chunk -> unit
(** Drop to read-only (state change only; no-op for trusted domains). *)

val restrict_chunk_acl : t -> chunk -> acl -> unit
(** Narrow the chunk's ACL in place (e.g. revoking a consumer's standing
    access to a stream's pool). Mappings held by untrusted domains the
    new ACL excludes are torn down, charging an [Unmap] per evicted
    domain; trusted domains and still-allowed domains keep theirs. *)

val readable : t -> Pdomain.t -> chunk -> bool
val writable : t -> Pdomain.t -> chunk -> bool

val check_readable : t -> Pdomain.t -> chunk -> unit
(** Raises [Protection_fault] when the domain has no read access; also
    simulates the page fault for non-resident chunks (charging
    [Page_fault] + [Page_alloc] and making the chunk resident). *)
