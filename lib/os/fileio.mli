(** File I/O syscalls: the IO-Lite API ([IOL_read]/[IOL_write],
    Section 3.4), the backward-compatible POSIX copy interface
    (Section 4.2), and [mmap] (Section 3.8).

    On a unified-cache miss, small files are fetched whole from the
    simulated disk into IO-Lite buffers allocated from the {e requesting
    process's} pool (the pool determines the ACL of the cached data,
    Section 3.3) but {e produced} by the trusted kernel, so no
    write-permission toggling occurs. Disk placement is DMA: no CPU is
    charged for the fill.

    Files larger than one extent (64 KB) are demand-paged at extent
    granularity with adaptive sequential readahead (window doubles on
    sequential hits up to 8 extents, resets on seeks). All miss fills
    are single-flight per file: concurrent missing readers coalesce onto
    one disk read ([cache.fill_coalesced] counts the followers). *)

exception No_such_file of int

val stat_size : Process.t -> file:int -> int
(** File size; charges a metadata lookup. *)

val admission_limit : Kernel.t -> int
(** The largest file the caches admit: 1/8 of the current I/O budget.
    Bigger files are served uncached. *)

val dma_fill :
  Kernel.t ->
  pool:Iolite_core.Iobuf.Pool.t ->
  bytes:int ->
  (Iolite_core.Iobuf.Buffer.t -> pos:int -> unit) ->
  Iolite_core.Iobuf.Agg.t
(** The caller-owned aggregate of a [bytes]-byte range placed by DMA,
    as a disk or NVMM-tier fill places it: paged buffers from [pool] of
    at most [Pool.max_alloc] bytes each, produced by the kernel (no
    permission toggling), allocated in range order. [fill b ~pos]
    writes buffer [b], which holds the range from offset [pos]; each
    buffer is sealed once filled. *)

(** {2 IO-Lite API} *)

val iol_read :
  ?pool:Iolite_core.Iobuf.Pool.t ->
  Process.t ->
  file:int ->
  off:int ->
  len:int ->
  Iolite_core.Iobuf.Agg.t
(** Returns an aggregate of at most [len] bytes starting at [off]
    (shorter at EOF; empty beyond it). Zero-copy: the aggregate
    references the file cache's buffers; the calling domain is granted
    read mappings (charged only for cold chunks). The caller owns the
    aggregate.

    [pool] is the Section 3.4 extension ("a version of IOL_read allows
    applications to specify an allocation pool"): data fetched from disk
    is placed in buffers from that pool — so its ACL, e.g. a pipe
    stream's, governs the cached data. Data already cached elsewhere is
    returned as-is. *)

val iol_write : Process.t -> file:int -> off:int -> Iolite_core.Iobuf.Agg.t -> unit
(** Replaces the file range with the aggregate's contents (takes
    ownership). The cache entry is replaced — earlier readers keep their
    snapshots. Write-back to disk is delayed: the extent parks dirty in
    the unified cache and the sync daemon later flushes it clustered
    with its neighbours ({!Writeback}). The caller returns at memory
    speed unless write-throttled at the dirty hard limit. *)

val fsync : Process.t -> file:int -> unit
(** Flush [file]'s buffered writes and block until they are durable.
    Waits only on that file's dirty extents and in-flight writes. *)

val sync : Process.t -> unit
(** Flush and await every file's buffered writes. *)

(** {2 POSIX compatibility API (copying)} *)

val read_string : Process.t -> file:int -> off:int -> len:int -> string
(** Conventional [read]: data is copied out of the file cache into the
    process's private memory. *)

val write_string : Process.t -> file:int -> off:int -> string -> unit
(** Conventional [write]: copies into kernel buffers, then behaves like
    {!iol_write}. *)

(** {2 mmap (the conventional high-performance server path)} *)

type mapping

val mmap : Process.t -> file:int -> mapping
(** Map the whole file read-only (conventional cache; disk on miss).
    Charges page-map work for every page. The mapping pins the file's
    buffers until {!munmap}. *)

val mapping_agg : mapping -> Iolite_core.Iobuf.Agg.t
(** Borrowed view of the mapped contents — do not free; valid until
    {!munmap}. *)

val mapping_len : mapping -> int
val munmap : Process.t -> mapping -> unit

(** {2 Cache fetch helpers (used by server models)} *)

val kernel_view : Process.t -> file:int -> Iolite_core.Iobuf.Agg.t
(** Whole-file view of the conventional cache for in-kernel consumers
    (the sendfile path): no user-space mapping is established, so no
    page-map work is charged. Fetches from disk on a miss. Caller owns
    the aggregate. *)

val fetch_unified : Process.t -> file:int -> unit
(** Ensure the file is resident in the unified cache (disk on miss),
    without constructing a return aggregate. *)

val fetch_conv : Process.t -> file:int -> unit
(** Likewise for the conventional cache. *)

val cached_unified : Process.t -> file:int -> bool
val cached_conv : Process.t -> file:int -> bool
