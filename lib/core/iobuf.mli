(** Immutable I/O buffers, slices, and mutable buffer aggregates — the
    core abstractions of IO-Lite (Section 3.1), plus the ACL-tagged
    allocation pools they come from (Section 3.3).

    - A {!Buffer.t} is a contiguous range of an access-control {e chunk}
      with an initial content that may not change once sealed. Its
      identity — (chunk, generation, offset) — is system-wide unique and
      enables cross-subsystem optimizations such as checksum caching
      (Section 3.9).
    - A {!Slice.t} is a ⟨pointer, length⟩ reference to a subrange of one
      buffer.
    - An {!Agg.t} (buffer aggregate, [IOL_Agg]) is an ordered sequence
      of slices, represented as a height-balanced rope whose subtrees
      are shared structurally between aggregates: [concat]/[dup] cost
      O(log n)/O(1), [sub]/[split]/[get] O(log n), traversal O(n). The
      underlying buffers are shared by reference and reclaimed by
      reference counting when the last rope node naming them drains.
    - A {!Pool.t} allocates buffers into chunks that all carry the pool's
      ACL. Freed chunks are recycled on the same pool with their VM
      mappings intact, so steady-state allocation costs no VM
      operations. *)

open Iolite_mem

module Buffer : sig
  type t

  (** System-wide unique identity of the buffer contents: equal [uid]s
      imply bitwise-equal data (immutability + generation numbers). *)
  type uid = { chunk : int; generation : int; offset : int }

  val uid : t -> uid
  val length : t -> int

  val generation : t -> int
  (** The [generation] field of {!uid}, read without building the
      record. *)

  val is_sealed : t -> bool
  val refcount : t -> int
  val chunk : t -> Vm.chunk

  val incr_ref : t -> unit
  val decr_ref : t -> unit
  (** Dropping the last reference returns the buffer's storage to its
      pool; when a whole chunk becomes free it is recycled (generation
      bump). Raises [Invalid_argument] on underflow. *)

  (** Cache pinning bookkeeping, used by {!Filecache} to decide whether
      an entry is "currently referenced" by anything besides the cache
      (Section 3.7). *)

  val incr_cache_ref : t -> unit
  val decr_cache_ref : t -> unit
  val externally_referenced : t -> bool

  val add_ext_watcher : t -> (int -> unit) -> unit
  (** Subscribe to transitions of {!externally_referenced}: the callback
      receives [+1] when the buffer becomes externally referenced and
      [-1] when it stops being so. Registrations carry multiplicity —
      the same closure registered [n] times is called [n] times per
      transition. The subscriber must sample the current status itself
      at registration time; only subsequent transitions are reported.
      Buffers with no watchers pay one load and branch on the refcount
      paths. *)

  val remove_ext_watcher : t -> (int -> unit) -> unit
  (** Remove one registration of the closure (physical equality);
      a no-op when it is not registered. *)

  (** {2 Filling (producer side)} *)

  exception Immutable

  val blit_string : t -> src:string -> src_off:int -> dst_off:int -> len:int -> unit
  (** Write initial contents. Raises {!Immutable} once sealed. Charges a
      [Fill] data touch. *)

  val fill : t -> (Bytes.t -> dst_off:int -> len:int -> unit) -> unit
  (** Fill the whole buffer in one bulk write (used by the simulated disk
      to materialize file contents): [fill b f] calls [f data ~dst_off
      ~len] with the buffer's backing range, which [f] must overwrite and
      not exceed. Charges [Fill]. The bytes are always real: every
      checksum and content check reads them back. *)

  val seal : t -> unit
  (** Freeze the contents. For untrusted producers this revokes the
      producer's write permission on the chunk when no other buffer in it
      is still being filled. Idempotent. *)

  (** {2 Reading} *)

  val get : t -> int -> char
  val view : t -> Bytes.t * int
  (** [(backing, absolute_offset)] of the buffer's first byte; the
      returned bytes must not be mutated. *)

  val sub_string : t -> off:int -> len:int -> string
  (** Copy-free extraction is impossible by definition — this {e copies}
      and charges a [Copy] touch; meant for tests and copy-semantics
      APIs. *)
end

module Slice : sig
  type t

  val make : Buffer.t -> off:int -> len:int -> t
  (** Does {e not} change the buffer's refcount; aggregate constructors
      manage references. Raises [Invalid_argument] when out of range. *)

  val buffer : t -> Buffer.t
  val off : t -> int
  val len : t -> int

  val uid : t -> Buffer.uid * int
  (** Identity of the slice contents: buffer identity adjusted to the
      slice's absolute offset, plus its length. Key for the checksum
      cache. *)

  val view : t -> Bytes.t * int
  (** Backing bytes and absolute offset of the slice's first byte. *)
end

module Pool : sig
  type t

  val create : Iosys.t -> name:string -> acl:Vm.acl -> t
  (** Creates an allocation pool whose chunks are readable exactly by the
      domains in [acl] (plus trusted domains); [Vm.Public] pools model
      conventional shared VM pages. Registers the pool's free-chunk
      memory with the pageout daemon. *)

  val name : t -> string
  val acl : t -> Vm.acl
  val sys : t -> Iosys.t

  val alloc : ?paged:bool -> t -> producer:Pdomain.t -> int -> Buffer.t
  (** A fresh unsealed buffer of exactly the requested size (1 byte to
      one chunk, 64 KB). The producer gains temporary write permission;
      raises [Vm.Protection_fault] if the producer is not on the ACL.
      The returned buffer has refcount 1, owned by the caller.

      Buffers of at least half a page — or any buffer allocated with
      [paged:true], which callers use for file data ("page-aligned and
      page-sized", Section 3.5) — occupy exclusively owned whole pages
      that return to the VM as soon as the buffer is reclaimed. Smaller
      buffers pack together and are recovered when their chunk drains. *)

  val max_alloc : int
  (** Largest single buffer (= chunk size). *)

  val resident_bytes : t -> int
  (** Bytes of chunk memory currently resident. *)

  val chunk_count : t -> int

  val free_chunk_count : t -> int
  (** Drained chunks queued on size-class free lists, pool-wide.

      Allocation is size-classed: each power-of-two class (64 B .. one
      chunk) owns a cursor chunk that bump-allocates uniform slots, and
      drained chunks queue on per-class free lists. A class prefers its
      own free list, steals drained chunks from other classes next
      (chunks are uniform 64 KB), and mints a fresh chunk only when no
      drained chunk exists anywhere — so steady-state serving recycles
      instead of growing the pool. Recycled chunks keep their VM
      mappings {e and} the pool epoch, so warm-transfer coverage
      survives reuse. Counters: [pool.fresh], [pool.recycled],
      [pool.classes], [pool.freelist_reclaimed]. *)

  val reclaim : t -> int -> int
  (** Release up to [n] bytes of free-list chunk memory (retaining
      mappings); returns bytes freed. Installed as a pageout segment. *)

  val destroy : t -> unit
  (** Destroys all chunks. Raises [Invalid_argument] if live buffers
      remain. *)

  (** {2 Grant epochs (warm-transfer fast path, Section 3.4)}

      A pool tracks, per consumer domain, whether the domain is known to
      hold a read mapping on {e every} chunk the pool has ever minted.
      While that record is current, transferring any aggregate drawn from
      the pool to that domain is a single integer comparison — no chunk
      walk, no VM calls. The record is invalidated (by advancing the
      pool's epoch) whenever it could go stale: fresh-chunk allocation,
      ACL narrowing ({!restrict_acl}), {!destroy}, and pageout reclaim. *)

  val epoch : t -> int
  (** Current epoch; starts at 1 and only advances. *)

  val epoch_covers : t -> Pdomain.t -> bool
  (** Whether the domain's coverage record is current — i.e. every chunk
      of the pool was verified readable by the domain and nothing has
      invalidated that verification since. *)

  val note_domain_coverage : t -> Pdomain.t -> unit
  (** Called after a cold transfer walk: if the domain can now read every
      chunk of the pool, record coverage at the current epoch (otherwise
      do nothing — later cold walks will retry). O(1) while the chunk
      that failed the domain's last check stays unreadable; a walk over
      the pool's chunks otherwise. *)

  val restrict_acl : t -> Vm.acl -> unit
  (** Narrow the pool's ACL: applies to all existing chunks (tearing down
      mappings of untrusted domains the new ACL excludes) and to future
      chunks, and invalidates all coverage records. *)
end

module Agg : sig
  type t

  exception Use_after_free

  (** {2 Creation and destruction} *)

  val empty : unit -> t

  val of_buffer : Buffer.t -> t
  (** Shares the buffer (refcount +1). *)

  val of_buffer_owned : Buffer.t -> t
  (** Takes over the caller's reference (no refcount change). *)

  val of_slices : Slice.t list -> t
  (** Shares every referenced buffer. *)

  val of_string : Pool.t -> producer:Pdomain.t -> string -> t
  (** Allocate, fill and seal buffers holding the string (split across
      chunks as needed). *)

  val dup : t -> t
  val free : t -> unit
  (** Releases the aggregate's references. Every aggregate must be freed
      exactly once; further use raises {!Use_after_free}. *)

  (** {2 Shape} *)

  val length : t -> int
  val num_slices : t -> int
  val slices : t -> Slice.t list

  (** {2 Mutation by recombination (the buffers never change)} *)

  val concat : t -> t -> t
  (** [concat a b] is a new aggregate [a ++ b]; [a] and [b] remain
      usable and still owned by the caller. *)

  val concat_list : t list -> t

  val sub : t -> off:int -> len:int -> t
  (** New aggregate over the byte range; raises [Invalid_argument] when
      out of range. *)

  val split : t -> at:int -> t * t

  (** {2 Data access} *)

  val iter_slices : t -> (Slice.t -> unit) -> unit

  val fold_bytes : t -> init:'a -> f:('a -> Bytes.t -> int -> int -> 'a) -> 'a
  (** [f acc backing off len] over each slice view, zero-copy. *)

  val get : t -> int -> char

  val to_string : Iosys.t -> t -> string
  (** Copies out (charges [Copy]). *)

  val blit_to_bytes : Iosys.t -> t -> Bytes.t -> pos:int -> unit
  (** {!copy_out}, charged as a [Copy]. *)

  val copy_out : t -> Bytes.t -> pos:int -> unit
  (** [copy_out t dst ~pos] writes [t]'s bytes into [dst] from [pos]:
      one host copy, {e no} simulated charge. For bytes leaving the
      simulated memory system, whose cost the destination models (a
      demotion to the NVMM tier, a write-back cluster's disk payload).
      Raises [Invalid_argument] when [dst] is too short. *)

  val try_overwrite : Iosys.t -> t -> off:int -> string -> bool
  (** The footnote-2 optimization of Section 3.1: "I/O data can be
      modified in place if they are not currently shared." Succeeds —
      writing the bytes and giving every affected buffer a fresh
      generation (so cached checksums for the old contents can never be
      mistaken for the new) — only when each affected buffer is
      referenced exclusively by this aggregate; otherwise returns
      [false] without touching anything, and the caller must recombine
      through a new buffer instead. *)

  val content_equal : t -> t -> bool
  (** Structural byte equality without charging (test helper). *)

  (** {2 Leaf checksum memos (the sendfile path, Section 4.4)}

      Every rope leaf carries a lazily-filled memo slot for the 16-bit
      partial sum of its slice (as if the slice started on an even byte
      offset). A memo carries the buffer generation it was computed
      under — exactly the checksum cache's
      ⟨chunk, generation, offset, length⟩ key — so buffer reallocation
      and {!try_overwrite} invalidate it for free. Because leaves are
      shared structurally, a memoized leaf answers for {e every}
      aggregate that shares it. The memos serve only the identity-less
      per-packet derivation; the identity-keyed checksum cache lives in
      [Iolite_net.Cksum.Cache]. *)

  val iter_slices_memo :
    t -> (Slice.t -> int option -> (int -> unit) -> unit) -> unit
  (** In-order traversal of [f slice memo set]: [memo] is the leaf's
      valid partial sum if one is cached, [set] stores one (a no-op for
      unsealed buffers). *)

  (** {2 Chunk-set summaries (warm cross-domain transfer, Section 3.4)}

      Every rope node can also cache the set of distinct VM chunks under
      its leaves and the pools they came from. Unlike checksum memos
      this summary needs {e no} invalidation: a node's leaf sequence is
      fixed at construction, and each leaf pins its buffer — hence its
      chunk and pool — for the node's lifetime. Summaries are filled
      bottom-up on first demand and shared structurally, so a repeated
      transfer of a stable rope reads one root field. *)

  val iter_distinct_chunks : t -> (Vm.chunk -> unit) -> unit
  (** Visit each distinct chunk under the aggregate exactly once, in
      chunk-id order — O(distinct chunks) on a summarized rope,
      independent of the slice count. *)

  val pools : t -> Pool.t list
  (** The distinct pools the aggregate's buffers were allocated from
      (unordered, physical identity). *)
end
