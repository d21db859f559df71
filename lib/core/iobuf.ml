open Iolite_mem
module Metrics = Iolite_obs.Metrics

(* A chunkstore is the storage side of a VM chunk: 64 KB of backing bytes
   plus a bump allocator and liveness counters. *)
type chunkstore = {
  vc : Vm.chunk;
  data : Bytes.t;
  mutable bump : int;
  mutable live : int; (* buffers not yet reclaimed *)
  mutable tail_freed : bool; (* unused tail pages returned to the VM *)
  mutable writers : (Pdomain.t * int ref) list; (* producers still filling *)
  mutable cls : int; (* size class currently slicing this chunk; -1 = none *)
}

(* Power-of-two size classes (64 B .. 64 KB). Each class owns a cursor
   chunk ([cls_writer]) that bump-allocates uniform slots, plus a free
   list of drained chunks queued for recycling. Chunks themselves are
   uniform 64 KB, so a drained chunk can be adopted by any class — the
   class is a property of the current fill cycle, not of the chunk. *)
type size_class = {
  cls_slot : int; (* slot size in bytes *)
  mutable cls_writer : chunkstore option;
  mutable cls_free : chunkstore list;
  mutable cls_used : bool; (* has ever held a chunk (metrics) *)
}

type pool_t = {
  sys : Iosys.t;
  pname : string;
  mutable pacl : Vm.acl;
  classes : size_class array;
  mutable all_chunks : chunkstore list;
  (* Grant epochs (the warm-transfer fast path, Section 3.4): [epoch]
     advances whenever the set of chunks a consumer might have to map
     can grow or access can shrink — fresh-chunk allocation, ACL
     narrowing, chunk destruction, pageout reclaim. [grant_epochs.(d)]
     records the epoch at which domain [d] was last verified to hold a
     read mapping on every chunk this pool has ever minted; while the
     pool's epoch still equals that record, any aggregate drawn from the
     pool is transferable to [d] with a single integer comparison. 0
     means "never covered" (epochs start at 1). *)
  mutable epoch : int;
  mutable grant_epochs : int array;
  (* [witnesses.(d)]: the chunk the last coverage walk for domain [d]
     found unreadable. Always a member of [all_chunks] (see
     [note_domain_coverage]). *)
  mutable witnesses : Vm.chunk option array;
}

type buffer_t = {
  store : chunkstore;
  boff : int; (* offset of the buffer within its chunk *)
  blen : int;
  owns_pages : int; (* pages held exclusively (0 for sub-page buffers) *)
  mutable generation : int;
  bpool : pool_t;
  producer : Pdomain.t;
  mutable sealed : bool;
  mutable refs : int;
  mutable cache_refs : int;
  (* External-reference transition subscribers (the file cache's O(1)
     Section 3.7 tracking): called with +1/-1 whenever
     [refs > cache_refs] flips. Empty for buffers no cache entry pins,
     so the refcount hot paths pay one load and branch. *)
  mutable watchers : (int -> unit) list;
}

(* Chunk-set summary of a rope subtree: the distinct VM chunks under its
   leaves (sorted by chunk id) and the distinct pools they came from.
   Unlike checksum memos this needs no invalidation — a node's leaves are
   fixed at construction and each leaf pins its buffer, hence its chunk
   and pool, for the node's whole lifetime. *)
type chunkset = { cs_chunks : Vm.chunk array; cs_pools : pool_t list }

module Buffer = struct
  type t = buffer_t
  type uid = { chunk : int; generation : int; offset : int }

  exception Immutable

  let uid b =
    { chunk = Vm.chunk_id b.store.vc; generation = b.generation; offset = b.boff }

  let length b = b.blen
  let generation (b : t) = b.generation
  let pool_name b = b.bpool.pname
  let is_sealed b = b.sealed
  let refcount b = b.refs
  let chunk b = b.store.vc

  (* The external-reference predicate is [refs > cache_refs]; each
     mutation below detects the one transition it can cause (the counts
     move by exactly 1) and notifies the buffer's watchers. *)
  let notify_watchers b delta = List.iter (fun f -> f delta) b.watchers

  let incr_ref b =
    if b.refs <= 0 then invalid_arg "Buffer.incr_ref: buffer already dead";
    b.refs <- b.refs + 1;
    if b.watchers != [] && b.refs = b.cache_refs + 1 then notify_watchers b 1

  (* Forward-declared hook: Pool installs the chunk-retirement logic. *)
  let on_buffer_dead : (t -> unit) ref = ref (fun _ -> ())

  let decr_ref b =
    if b.refs <= 0 then invalid_arg "Buffer.decr_ref: refcount underflow";
    b.refs <- b.refs - 1;
    if b.watchers != [] && b.refs = b.cache_refs then notify_watchers b (-1);
    if b.refs = 0 then !on_buffer_dead b

  let incr_cache_ref b =
    b.cache_refs <- b.cache_refs + 1;
    if b.watchers != [] && b.refs = b.cache_refs then notify_watchers b (-1)

  let decr_cache_ref b =
    if b.cache_refs <= 0 then invalid_arg "Buffer.decr_cache_ref: underflow";
    b.cache_refs <- b.cache_refs - 1;
    if b.watchers != [] && b.refs = b.cache_refs + 1 then notify_watchers b 1

  let externally_referenced b = b.refs > b.cache_refs

  let add_ext_watcher b f = b.watchers <- f :: b.watchers

  let remove_ext_watcher b f =
    let rec drop_one = function
      | [] -> []
      | g :: rest -> if g == f then rest else g :: drop_one rest
    in
    b.watchers <- drop_one b.watchers

  let writer_cell store producer =
    match
      List.find_opt (fun (d, _) -> Pdomain.equal d producer) store.writers
    with
    | Some (_, r) -> r
    | None ->
      let r = ref 0 in
      store.writers <- (producer, r) :: store.writers;
      r

  let blit_string b ~src ~src_off ~dst_off ~len =
    if b.sealed then raise Immutable;
    if
      len < 0 || src_off < 0 || dst_off < 0
      || src_off + len > String.length src
      || dst_off + len > b.blen
    then invalid_arg "Buffer.blit_string: range";
    Iosys.touch b.bpool.sys Iosys.Fill len;
    Bytes.blit_string src src_off b.store.data (b.boff + dst_off) len

  let fill b f =
    if b.sealed then raise Immutable;
    Iosys.touch b.bpool.sys Iosys.Fill b.blen;
    f b.store.data ~dst_off:b.boff ~len:b.blen

  (* Sealing freezes the buffer. Untrusted producers pay a protection
     toggle over the buffer's own pages (Section 3.2); the chunk's
     write-permission state drops to read-only when its last unsealed
     buffer is sealed. *)
  let seal b =
    if not b.sealed then begin
      b.sealed <- true;
      if not (Pdomain.trusted b.producer) then begin
        let vm = Iosys.vm b.bpool.sys in
        Vm.note_op vm Vm.Revoke_write ~pages:(max 1 b.owns_pages);
        let cell = writer_cell b.store b.producer in
        decr cell;
        if !cell <= 0 then begin
          b.store.writers <-
            List.filter
              (fun (d, _) -> not (Pdomain.equal d b.producer))
              b.store.writers;
          Vm.revoke_write vm b.producer b.store.vc
        end
      end
    end

  let get b i =
    if i < 0 || i >= b.blen then invalid_arg "Buffer.get: index";
    Bytes.get b.store.data (b.boff + i)

  let view b = (b.store.data, b.boff)

  let sub_string b ~off ~len =
    if off < 0 || len < 0 || off + len > b.blen then
      invalid_arg "Buffer.sub_string: range";
    Iosys.touch b.bpool.sys Iosys.Copy len;
    Bytes.sub_string b.store.data (b.boff + off) len
end

module Slice = struct
  type t = { sbuf : Buffer.t; soff : int; slen : int }

  let make b ~off ~len =
    if off < 0 || len < 0 || off + len > b.blen then
      invalid_arg "Slice.make: range";
    { sbuf = b; soff = off; slen = len }

  let buffer s = s.sbuf
  let off s = s.soff
  let len s = s.slen

  let uid s =
    let u = Buffer.uid s.sbuf in
    ({ u with Buffer.offset = u.Buffer.offset + s.soff }, s.slen)

  let view s =
    let data, base = Buffer.view s.sbuf in
    (data, base + s.soff)
end

module Pool = struct
  type t = pool_t

  let max_alloc = Page.chunk_size

  (* Size-class geometry: power-of-two slots from 64 B to a whole
     chunk. Sub-[large_threshold] allocations pack into shared pages;
     larger (or explicitly paged) ones round up to whole pages, so
     their slots are page multiples and reclaim page-granularly. *)
  let class_min_bits = 6

  let class_max_bits =
    let rec go b = if 1 lsl b >= Page.chunk_size then b else go (b + 1) in
    go class_min_bits

  let class_count = class_max_bits - class_min_bits + 1

  let pow2_bits n =
    let rec go b = if 1 lsl b >= n then b else go (b + 1) in
    go 0

  let resident_empty_bytes p =
    Array.fold_left
      (fun acc cls ->
        List.fold_left (fun acc c -> acc + Vm.resident_bytes c.vc) acc
          cls.cls_free)
      0 p.classes

  (* Release resident free-list chunks (across every size class) until
     [n] bytes are freed, stopping at the first chunk that satisfies the
     request instead of scanning all free lists. Recycled chunks on a
     class free list therefore never pin memory against the pageout
     daemon: they lose their resident pages here and pay an
     [ensure_resident] when next adopted. *)
  let release_until p n =
    let vm = Iosys.vm p.sys in
    let freed = ref 0 in
    let reclaimed = ref 0 in
    (try
       Array.iter
         (fun cls ->
           List.iter
             (fun c ->
               if !freed >= n then raise Exit;
               if Vm.chunk_resident c.vc then begin
                 freed := !freed + Vm.release_chunk_memory vm c.vc;
                 incr reclaimed
               end)
             cls.cls_free)
         p.classes
     with Exit -> ());
    if !reclaimed > 0 then
      Metrics.add (Iosys.metrics p.sys) "pool.freelist_reclaimed" !reclaimed;
    (* Conservative: paged-out chunks make the warm-transfer shortcut's
       "no page-fault simulation" assumption worth re-checking, so force
       the next transfer per domain back through the cold walk. *)
    if !freed > 0 then p.epoch <- p.epoch + 1;
    !freed

  let create sys ~name ~acl =
    let p =
      {
        sys;
        pname = name;
        pacl = acl;
        classes =
          Array.init class_count (fun i ->
              {
                cls_slot = 1 lsl (i + class_min_bits);
                cls_writer = None;
                cls_free = [];
                cls_used = false;
              });
        all_chunks = [];
        epoch = 1;
        grant_epochs = [||];
        witnesses = [||];
      }
    in
    (* Pool chunks hold application-produced buffer data with no backing
       file copy, so reclaiming them is a dirty eviction: the pageout
       daemon writes the victims to swap before the round completes. *)
    Pageout.register_segment ~dirty:true (Iosys.pageout sys)
      ~name:("pool:" ^ name)
      ~is_io_cache:false
      ~resident:(fun () -> resident_empty_bytes p)
      ~reclaim:(fun n -> release_until p n);
    p

  let name p = p.pname
  let acl p = p.pacl
  let sys p = p.sys

  let fresh_chunk p =
    let vc = Vm.alloc_chunk (Iosys.vm p.sys) ~label:p.pname ~acl:p.pacl in
    Metrics.incr (Iosys.metrics p.sys) "pool.fresh";
    (* A chunk no consumer has ever mapped: every recorded coverage is
       stale until the next cold walk re-verifies it. *)
    p.epoch <- p.epoch + 1;
    let c =
      {
        vc;
        data = Bytes.create Page.chunk_size;
        bump = 0;
        live = 0;
        tail_freed = false;
        writers = [];
        cls = -1;
      }
    in
    p.all_chunks <- c :: p.all_chunks;
    c

  let recycle p c =
    (* Recycling keeps VM mappings — and, deliberately, the pool epoch:
       a recycled chunk is one every covered consumer already maps, so
       warm-transfer grant epochs survive chunk reuse (the PR 4 rule;
       only fresh chunks, ACL narrowing, destruction and pageout
       reclaim invalidate coverage). *)
    Vm.recycle_chunk (Iosys.vm p.sys) c.vc;
    Metrics.incr (Iosys.metrics p.sys) "pool.recycled";
    (* Untrusted producers pay the write-permission toggle once per
       chunk reuse (Section 3.2); stale grants from the previous fill
       cycle are revoked here so the next fill re-grants. *)
    List.iter
      (fun (d, _) -> Vm.revoke_write (Iosys.vm p.sys) d c.vc)
      c.writers;
    c.writers <- [];
    c.bump <- 0;
    c.tail_freed <- false;
    c

  (* Adopt a chunk for class [idx]: own free list first, then steal a
     drained chunk queued under any other class (chunks are uniform, so
     a chunk that last served 1 KB slots can serve 16 KB slots next),
     and only mint a fresh chunk when no drained chunk exists anywhere.
     Steady-state serving therefore runs entirely on recycled chunks. *)
  let take_chunk p idx =
    let cls = p.classes.(idx) in
    let c =
      match cls.cls_free with
      | c :: rest ->
        cls.cls_free <- rest;
        recycle p c
      | [] -> (
        let stolen = ref None in
        Array.iter
          (fun other ->
            match (!stolen, other.cls_free) with
            | None, c :: rest ->
              other.cls_free <- rest;
              stolen := Some c
            | _ -> ())
          p.classes;
        match !stolen with Some c -> recycle p c | None -> fresh_chunk p)
    in
    if not cls.cls_used then begin
      cls.cls_used <- true;
      Metrics.incr (Iosys.metrics p.sys) "pool.classes"
    end;
    c.cls <- idx;
    c

  (* A chunk that can no longer satisfy allocations keeps live buffers in
     [0, bump) but its tail pages were never used: give them back. Hand-
     off also revokes the producers' write permissions (the buffers are
     all immutable now). With uniform slots a writer normally retires
     exactly full, so the tail is empty; the free is kept for the
     destroy/teardown paths that retire partial writers. *)
  let retire_writer p cls =
    match cls.cls_writer with
    | None -> ()
    | Some c ->
      cls.cls_writer <- None;
      List.iter
        (fun (d, _) -> Vm.revoke_write (Iosys.vm p.sys) d c.vc)
        c.writers;
      c.writers <- [];
      if not c.tail_freed then begin
        c.tail_freed <- true;
        let used_pages = Page.pages_of_bytes c.bump in
        let tail = Page.pages_per_chunk - used_pages in
        if tail > 0 then
          ignore (Vm.free_pages (Iosys.vm p.sys) c.vc ~pages:tail)
      end

  (* Buffers of half a page or more occupy exclusively-owned whole pages
     (IO-Lite buffers are an integral number of contiguous pages,
     Section 3.3), so their memory returns to the VM the moment they are
     reclaimed. Smaller objects share pages within the chunk and are
     recovered when the whole chunk drains. *)
  let large_threshold = Page.page_size / 2

  let class_index ~paged size =
    let bits =
      if paged || size >= large_threshold then
        pow2_bits (Page.round_to_pages size)
      else max class_min_bits (pow2_bits size)
    in
    bits - class_min_bits

  let alloc ?(paged = false) p ~producer size =
    if size <= 0 || size > max_alloc then
      invalid_arg
        (Printf.sprintf "Pool.alloc: size %d out of range (1..%d)" size max_alloc);
    let idx = class_index ~paged size in
    let cls = p.classes.(idx) in
    let slot = cls.cls_slot in
    let store =
      match cls.cls_writer with
      | Some c when c.bump + slot <= Page.chunk_size -> c
      | Some _ | None ->
        retire_writer p cls;
        let c = take_chunk p idx in
        cls.cls_writer <- Some c;
        c
    in
    let boff = store.bump in
    let owns_pages = if slot >= Page.page_size then slot / Page.page_size else 0 in
    let vm = Iosys.vm p.sys in
    Vm.grant_write vm producer store.vc;
    if not (Pdomain.trusted producer) then begin
      (* Temporary write permission over the buffer's pages. *)
      Vm.note_op vm Vm.Grant_write ~pages:(max 1 owns_pages);
      incr (Buffer.writer_cell store producer)
    end;
    let b =
      {
        store;
        boff;
        blen = size;
        owns_pages;
        generation = Vm.chunk_generation store.vc;
        bpool = p;
        producer;
        sealed = false;
        refs = 1;
        cache_refs = 0;
        watchers = [];
      }
    in
    store.bump <- boff + slot;
    store.live <- store.live + 1;
    Metrics.incr (Iosys.metrics p.sys) "pool.alloc";
    b

  let retire_buffer (b : Buffer.t) =
    if not b.sealed then Buffer.seal b;
    let store = b.store in
    let p = b.bpool in
    (* Page-granular reclamation: the buffer's own pages return to the VM
       immediately. *)
    if b.owns_pages > 0 then
      ignore (Vm.free_pages (Iosys.vm p.sys) store.vc ~pages:b.owns_pages);
    store.live <- store.live - 1;
    if store.live = 0 then begin
      (* Fully drained: queue on the owning class's free list for lazy
         recycling (generation bump and repopulation happen at next
         reuse, avoiding charge thrash). *)
      let cls =
        p.classes.(if store.cls >= 0 then store.cls else 0)
      in
      (match cls.cls_writer with
      | Some c when c == store -> cls.cls_writer <- None
      | Some _ | None -> ());
      cls.cls_free <- store :: cls.cls_free
    end

  let () = Buffer.on_buffer_dead := retire_buffer

  let resident_bytes p =
    List.fold_left (fun acc c -> acc + Vm.resident_bytes c.vc) 0 p.all_chunks

  let chunk_count p = List.length p.all_chunks

  let free_chunk_count p =
    Array.fold_left
      (fun acc cls -> acc + List.length cls.cls_free)
      0 p.classes

  let class_slot_sizes p =
    Array.to_list p.classes
    |> List.filter_map (fun cls ->
           if cls.cls_used then Some cls.cls_slot else None)

  let reclaim p n = release_until p n

  let destroy p =
    let live =
      List.fold_left (fun acc c -> acc + c.live) 0 p.all_chunks
    in
    if live > 0 then
      invalid_arg
        (Printf.sprintf "Pool.destroy: %d live buffers remain in pool %s" live
           p.pname);
    List.iter (fun c -> Vm.destroy_chunk (Iosys.vm p.sys) c.vc) p.all_chunks;
    p.all_chunks <- [];
    Array.fill p.witnesses 0 (Array.length p.witnesses) None;
    Array.iter
      (fun cls ->
        cls.cls_writer <- None;
        cls.cls_free <- [])
      p.classes;
    p.epoch <- p.epoch + 1

  (* --- Grant epochs (warm-transfer fast path) ---------------------- *)

  let epoch p = p.epoch

  let epoch_covers p domain =
    let did = Pdomain.id domain in
    did < Array.length p.grant_epochs && p.grant_epochs.(did) = p.epoch

  (* Grow the per-domain arrays to index [did]. *)
  let reserve_domain p did =
    let len = Array.length p.grant_epochs in
    if did >= len then begin
      let n = max (did + 1) (max 8 (2 * len)) in
      let a = Array.make n 0 in
      Array.blit p.grant_epochs 0 a 0 len;
      p.grant_epochs <- a;
      let w = Array.make n None in
      Array.blit p.witnesses 0 w 0 len;
      p.witnesses <- w
    end

  (* Coverage means every chunk in [all_chunks] is readable by the
     domain. A walk that fails keeps the first unreadable chunk as a
     witness; while the witness stays unreadable the answer is still
     "not covered", found in O(1) instead of another walk that would
     stop at the same chunk. This is exact because the witness is
     always in [all_chunks]: that list only grows until [destroy], which
     clears every witness. Once the witness becomes readable, the walk
     runs again and records a new witness or the epoch. *)
  let note_domain_coverage p domain =
    if not (epoch_covers p domain) then begin
      let vm = Iosys.vm p.sys in
      let did = Pdomain.id domain in
      reserve_domain p did;
      match p.witnesses.(did) with
      | Some w when not (Vm.readable vm domain w) -> ()
      | Some _ | None -> (
        match
          List.find_opt (fun c -> not (Vm.readable vm domain c.vc)) p.all_chunks
        with
        | Some c -> p.witnesses.(did) <- Some c.vc
        | None ->
          p.witnesses.(did) <- None;
          p.grant_epochs.(did) <- p.epoch)
    end

  let restrict_acl p acl =
    p.pacl <- acl;
    let vm = Iosys.vm p.sys in
    List.iter (fun c -> Vm.restrict_chunk_acl vm c.vc acl) p.all_chunks;
    p.epoch <- p.epoch + 1
end

module Agg = struct
  (* Aggregates are ropes (Boehm et al.): leaves are slices; internal
     nodes cache the subtree's byte length, slice count, and height.
     Nodes are immutable except for a per-node reference count, so whole
     subtrees are shared structurally between aggregates: [concat] and
     [dup] cost O(log n) / O(1) in refcount traffic instead of one
     buffer-refcount operation per slice.

     Ownership protocol: every node-producing function returns an owned
     reference (already counted in [nrefs]); every node-consuming
     combinator takes over the owned references passed to it. Borrowed
     nodes (obtained by destructuring a parent) must be [keep]ed before
     being handed to a consumer. A leaf holds exactly one reference on
     its slice's buffer, released when the leaf's own refcount drains. *)
  type node = {
    mutable nrefs : int;
    total : int;
    nslices : int;
    height : int;
    kind : kind;
    mutable memo : memo;
    (* Lazily-filled chunk-set summary (see {!chunkset}); permanently
       valid once filled. *)
    mutable cset : chunkset option;
  }

  and kind = Leaf of Slice.t | Cat of node * node

  (* Lazily-filled compositional summary slot (the checksum memo,
     Section 4.4): a node may cache a 16-bit partial sum of its whole
     subtree, as if the subtree started on an even byte offset. The
     subtree's byte parity needs no slot of its own — it is [total land 1].

     Validation: a leaf memo carries the buffer generation it was
     computed under and is dead the moment the generation moves (exactly
     the ⟨chunk, generation, offset, length⟩ keying of the checksum
     cache, for free). An internal memo is filled only when both
     children's summaries were themselves memoizable (every leaf below
     sealed), and is cleared actively by [try_overwrite] along the paths
     to every affected buffer. That active clearing is complete: for a
     live rope the leaves pin their buffers (chunks cannot recycle), so
     generations below a node can only move via a successful
     [try_overwrite] on this very rope — exclusivity guarantees no other
     aggregate can reach the affected buffers. *)
  and memo =
    | No_memo
    | Leaf_memo of int * int (* summary, generation witness *)
    | Node_memo of int

  type t = { mutable root : node option; mutable freed : bool }

  exception Use_after_free

  let check t = if t.freed then raise Use_after_free

  let keep n =
    n.nrefs <- n.nrefs + 1;
    n

  let leaf s =
    Buffer.incr_ref (Slice.buffer s);
    {
      nrefs = 1;
      total = Slice.len s;
      nslices = 1;
      height = 1;
      kind = Leaf s;
      memo = No_memo;
      cset = None;
    }

  (* Consumes the owned references to [l] and [r]. *)
  let cat l r =
    {
      nrefs = 1;
      total = l.total + r.total;
      nslices = l.nslices + r.nslices;
      height = 1 + (if l.height > r.height then l.height else r.height);
      kind = Cat (l, r);
      memo = No_memo;
      cset = None;
    }

  let release n =
    let stack = ref [ n ] in
    let continue = ref true in
    while !continue do
      match !stack with
      | [] -> continue := false
      | n :: rest ->
        stack := rest;
        if n.nrefs <= 0 then invalid_arg "Agg: node refcount underflow";
        n.nrefs <- n.nrefs - 1;
        if n.nrefs = 0 then begin
          match n.kind with
          | Leaf s -> Buffer.decr_ref (Slice.buffer s)
          | Cat (l, r) -> stack := l :: r :: !stack
        end
    done

  (* Height-balanced concatenation, stdlib-Map style: sibling heights
     differ by at most 2, [bal] repairs the difference of 3 a single
     [join] step can introduce. Rotations preserve the in-order leaf
     sequence, hence the byte content. Both consume [l] and [r]. *)
  let bal l r =
    if l.height > r.height + 2 then begin
      match l.kind with
      | Cat (ll, lr) when lr.height <= ll.height ->
        let res = cat (keep ll) (cat (keep lr) r) in
        release l;
        res
      | Cat (ll, lr) -> (
        match lr.kind with
        | Cat (lrl, lrr) ->
          let res = cat (cat (keep ll) (keep lrl)) (cat (keep lrr) r) in
          release l;
          res
        | Leaf _ -> assert false)
      | Leaf _ -> assert false
    end
    else if r.height > l.height + 2 then begin
      match r.kind with
      | Cat (rl, rr) when rl.height <= rr.height ->
        let res = cat (cat l (keep rl)) (keep rr) in
        release r;
        res
      | Cat (rl, rr) -> (
        match rl.kind with
        | Cat (rll, rlr) ->
          let res = cat (cat l (keep rll)) (cat (keep rlr) (keep rr)) in
          release r;
          res
        | Leaf _ -> assert false)
      | Leaf _ -> assert false
    end
    else cat l r

  let rec join l r =
    if l.height > r.height + 2 then begin
      match l.kind with
      | Cat (ll, lr) ->
        let right = join (keep lr) r in
        let res = bal (keep ll) right in
        release l;
        res
      | Leaf _ -> assert false
    end
    else if r.height > l.height + 2 then begin
      match r.kind with
      | Cat (rl, rr) ->
        let left = join l (keep rl) in
        let res = bal left (keep rr) in
        release r;
        res
      | Leaf _ -> assert false
    end
    else cat l r

  (* In-order traversal of the leaves, explicit stack (no list
     materialization). *)
  let iter_leaves root f =
    match root with
    | None -> ()
    | Some n ->
      let stack = ref [ n ] in
      let continue = ref true in
      while !continue do
        match !stack with
        | [] -> continue := false
        | n :: rest -> (
          stack := rest;
          match n.kind with
          | Leaf s -> f s
          | Cat (l, r) -> stack := l :: r :: !stack)
      done

  let empty () = { root = None; freed = false }

  let of_root root = { root; freed = false }

  let of_slices slices =
    match slices with
    | [] -> empty ()
    | _ ->
      (* Perfectly balanced build, O(n). *)
      let arr = Array.of_list slices in
      let rec build lo hi =
        if hi - lo = 1 then leaf arr.(lo)
        else
          let mid = (lo + hi) / 2 in
          cat (build lo mid) (build mid hi)
      in
      of_root (Some (build 0 (Array.length arr)))

  let of_buffer b = of_slices [ Slice.make b ~off:0 ~len:(Buffer.length b) ]

  let of_buffer_owned b =
    (* The caller's reference becomes the aggregate's. *)
    let t = of_buffer b in
    Buffer.decr_ref b;
    t

  let dup t =
    check t;
    of_root (Option.map keep t.root)

  let free t =
    check t;
    t.freed <- true;
    (match t.root with None -> () | Some n -> release n);
    t.root <- None

  let length t =
    check t;
    match t.root with None -> 0 | Some n -> n.total

  let num_slices t =
    check t;
    match t.root with None -> 0 | Some n -> n.nslices

  let slices t =
    check t;
    let acc = ref [] in
    iter_leaves t.root (fun s -> acc := s :: !acc);
    List.rev !acc

  let concat a b =
    check a;
    check b;
    match (a.root, b.root) with
    | None, None -> empty ()
    | Some n, None | None, Some n -> of_root (Some (keep n))
    | Some x, Some y -> of_root (Some (join (keep x) (keep y)))

  let concat_list ts =
    List.iter check ts;
    let root =
      List.fold_left
        (fun acc t ->
          match (acc, t.root) with
          | acc, None -> acc
          | None, Some n -> Some (keep n)
          | Some a, Some n -> Some (join a (keep n)))
        None ts
    in
    of_root root

  let of_string pool ~producer s =
    let n = String.length s in
    if n = 0 then empty ()
    else begin
      let rec build pos acc =
        if pos >= n then List.rev acc
        else begin
          let size = min Pool.max_alloc (n - pos) in
          let b = Pool.alloc pool ~producer size in
          Buffer.blit_string b ~src:s ~src_off:pos ~dst_off:0 ~len:size;
          Buffer.seal b;
          build (pos + size) (Slice.make b ~off:0 ~len:size :: acc)
        end
      in
      let slices = build 0 [] in
      let t = of_slices slices in
      (* [of_slices] took its own references; drop the allocation ones. *)
      List.iter (fun s -> Buffer.decr_ref (Slice.buffer s)) slices;
      t
    end

  (* Owned node holding bytes [off, off+len) of [n] ([n] borrowed,
     len ≥ 1). Shares whole subtrees; O(log n) fresh nodes along the two
     boundary paths. *)
  let rec sub_node n ~off ~len =
    if off = 0 && len = n.total then keep n
    else
      match n.kind with
      | Leaf s -> leaf (Slice.make (Slice.buffer s) ~off:(Slice.off s + off) ~len)
      | Cat (l, r) ->
        if off + len <= l.total then sub_node l ~off ~len
        else if off >= l.total then sub_node r ~off:(off - l.total) ~len
        else
          join
            (sub_node l ~off ~len:(l.total - off))
            (sub_node r ~off:0 ~len:(off + len - l.total))

  let sub t ~off ~len =
    check t;
    if off < 0 || len < 0 || off + len > length t then
      invalid_arg "Agg.sub: range";
    if len = 0 then empty ()
    else of_root (Some (sub_node (Option.get t.root) ~off ~len))

  let split t ~at =
    check t;
    let total = length t in
    if at < 0 || at > total then invalid_arg "Agg.split: position";
    let part ~off ~len =
      if len = 0 then empty ()
      else of_root (Some (sub_node (Option.get t.root) ~off ~len))
    in
    (part ~off:0 ~len:at, part ~off:at ~len:(total - at))

  let iter_slices t f =
    check t;
    iter_leaves t.root f

  let fold_bytes t ~init ~f =
    check t;
    let acc = ref init in
    iter_leaves t.root (fun s ->
        let data, off = Slice.view s in
        acc := f !acc data off (Slice.len s));
    !acc

  let get t i =
    check t;
    if i < 0 || i >= length t then invalid_arg "Agg.get: index";
    let rec walk n i =
      match n.kind with
      | Leaf s -> Buffer.get (Slice.buffer s) (Slice.off s + i)
      | Cat (l, r) -> if i < l.total then walk l i else walk r (i - l.total)
    in
    walk (Option.get t.root) i

  let raw_string t =
    let buf = Stdlib.Buffer.create (length t) in
    iter_leaves t.root (fun s ->
        let data, off = Slice.view s in
        Stdlib.Buffer.add_subbytes buf data off (Slice.len s));
    Stdlib.Buffer.contents buf

  let to_string sys t =
    check t;
    Iosys.touch sys Iosys.Copy (length t);
    raw_string t

  let blit_to_bytes sys t dst ~pos =
    check t;
    let total = length t in
    if pos < 0 || pos + total > Bytes.length dst then
      invalid_arg "Agg.blit_to_bytes: range";
    Iosys.touch sys Iosys.Copy total;
    let cursor = ref pos in
    iter_leaves t.root (fun s ->
        let data, off = Slice.view s in
        Bytes.blit data off dst !cursor (Slice.len s);
        cursor := !cursor + Slice.len s)

  (* Clipped slices of [t] overlapping [off, off+len), in order. *)
  let ranged t ~off ~len =
    let out = ref [] in
    let rec walk n ~off ~len =
      match n.kind with
      | Leaf s ->
        out := Slice.make (Slice.buffer s) ~off:(Slice.off s + off) ~len :: !out
      | Cat (l, r) ->
        if off < l.total then
          walk l ~off ~len:(min len (l.total - off));
        let roff = if off > l.total then off - l.total else 0 in
        let rlen = off + len - l.total - roff in
        if rlen > 0 then walk r ~off:roff ~len:rlen
    in
    (match t.root with
    | None -> ()
    | Some n -> if len > 0 then walk n ~off ~len);
    List.rev !out

  (* --- Chunk-set summaries (warm-transfer support) ----------------- *)

  (* Merge two sorted-by-chunk-id arrays, dropping duplicates; union the
     pool lists by physical identity (aggregates rarely span more than a
     couple of pools). *)
  let merge_csets a b =
    let la = Array.length a.cs_chunks and lb = Array.length b.cs_chunks in
    let tmp = Array.make (la + lb) a.cs_chunks.(0) in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let ca = a.cs_chunks.(!i) and cb = b.cs_chunks.(!j) in
      let ia = Vm.chunk_id ca and ib = Vm.chunk_id cb in
      if ia < ib then begin
        tmp.(!k) <- ca;
        incr i
      end
      else if ib < ia then begin
        tmp.(!k) <- cb;
        incr j
      end
      else begin
        tmp.(!k) <- ca;
        incr i;
        incr j
      end;
      incr k
    done;
    while !i < la do
      tmp.(!k) <- a.cs_chunks.(!i);
      incr i;
      incr k
    done;
    while !j < lb do
      tmp.(!k) <- b.cs_chunks.(!j);
      incr j;
      incr k
    done;
    let pools =
      List.fold_left
        (fun acc p -> if List.memq p acc then acc else p :: acc)
        b.cs_pools a.cs_pools
    in
    { cs_chunks = Array.sub tmp 0 !k; cs_pools = pools }

  (* The subtree's chunk set, filled bottom-up on first demand and shared
     by every aggregate that shares the subtree. Needs no invalidation
     (see {!chunkset}), so repeated transfers of a stable rope reuse the
     root summary outright. *)
  let rec cset_of n =
    match n.cset with
    | Some cs -> cs
    | None ->
      let cs =
        match n.kind with
        | Leaf s ->
          let b = Slice.buffer s in
          { cs_chunks = [| b.store.vc |]; cs_pools = [ b.bpool ] }
        | Cat (l, r) -> merge_csets (cset_of l) (cset_of r)
      in
      n.cset <- Some cs;
      cs

  let iter_distinct_chunks t f =
    check t;
    match t.root with
    | None -> ()
    | Some n -> Array.iter f (cset_of n).cs_chunks

  let distinct_chunk_count t =
    check t;
    match t.root with None -> 0 | Some n -> Array.length (cset_of n).cs_chunks

  let pools t =
    check t;
    match t.root with None -> [] | Some n -> (cset_of n).cs_pools

  (* --- Compositional summaries (checksum memoization) ------------- *)

  let leaf_memo_value n s =
    match n.memo with
    | Leaf_memo (v, gen) when (Slice.buffer s).generation = gen -> Some v
    | Leaf_memo _ | Node_memo _ | No_memo -> None

  (* Summarize [n], reusing valid memos and filling empty slots on the
     way back up. Returns (value, memoizable): a subtree is memoizable
     only when every leaf below is sealed (unsealed buffers can still
     change without a generation bump). *)
  let rec summarize n ~leaf ~combine ~on_memo =
    match n.kind with
    | Leaf s -> (
      match leaf_memo_value n s with
      | Some v ->
        on_memo ~nslices:1;
        (v, true)
      | None ->
        let v = leaf s in
        let b = Slice.buffer s in
        if Buffer.is_sealed b then begin
          n.memo <- Leaf_memo (v, b.generation);
          (v, true)
        end
        else (v, false))
    | Cat (l, r) -> (
      match n.memo with
      | Node_memo v ->
        on_memo ~nslices:n.nslices;
        (v, true)
      | No_memo | Leaf_memo _ ->
        let lv, lok = summarize l ~leaf ~combine ~on_memo in
        let rv, rok = summarize r ~leaf ~combine ~on_memo in
        let v = combine ~llen:l.total lv rv in
        let ok = lok && rok in
        if ok then n.memo <- Node_memo v;
        (v, ok))

  let fold_summary t ~leaf ~combine ~on_memo =
    check t;
    match t.root with
    | None -> None
    | Some n -> Some (fst (summarize n ~leaf ~combine ~on_memo))

  let fold_summary_range t ~off ~len ~leaf ~leaf_part ~combine ~on_memo =
    check t;
    if off < 0 || len < 0 || off + len > length t then
      invalid_arg "Agg.fold_summary_range: range";
    if len = 0 then None
    else begin
      let rec go n ~off ~len =
        if off = 0 && len = n.total then
          fst (summarize n ~leaf ~combine ~on_memo)
        else
          match n.kind with
          | Leaf s -> leaf_part s ~off ~len ~whole:(leaf_memo_value n s)
          | Cat (l, r) ->
            if off + len <= l.total then go l ~off ~len
            else if off >= l.total then go r ~off:(off - l.total) ~len
            else begin
              let llen = l.total - off in
              let lv = go l ~off ~len:llen in
              let rv = go r ~off:0 ~len:(len - llen) in
              combine ~llen lv rv
            end
      in
      Some (go (Option.get t.root) ~off ~len)
    end

  (* In-order leaf traversal exposing each leaf's valid memo (if any) and
     a setter that stores one under the sealed/generation rules. Used by
     the identity-less per-packet checksum derivation. *)
  let iter_slices_memo t f =
    check t;
    let rec go n =
      match n.kind with
      | Leaf s ->
        let set v =
          let b = Slice.buffer s in
          if Buffer.is_sealed b then n.memo <- Leaf_memo (v, b.generation)
        in
        f s (leaf_memo_value n s) set
      | Cat (l, r) ->
        go l;
        go r
    in
    match t.root with None -> () | Some n -> go n

  let memo_stats t =
    check t;
    let memoized = ref 0 and total = ref 0 in
    let rec go n =
      incr total;
      (match n.kind with
      | Leaf s -> if leaf_memo_value n s <> None then incr memoized
      | Cat (l, r) ->
        (match n.memo with Node_memo _ -> incr memoized | _ -> ());
        go l;
        go r)
    in
    (match t.root with None -> () | Some n -> go n);
    (!memoized, !total)

  (* Leaf traversal that also reports whether any node on the leaf's
     path — the leaf included — is structurally shared (nrefs > 1), i.e.
     reachable from some other aggregate or subtree. *)
  let iter_leaves_shared root f =
    match root with
    | None -> ()
    | Some n ->
      let stack = ref [ (n, false) ] in
      let continue = ref true in
      while !continue do
        match !stack with
        | [] -> continue := false
        | (n, sh) :: rest -> (
          stack := rest;
          let sh = sh || n.nrefs > 1 in
          match n.kind with
          | Leaf s -> f s sh
          | Cat (l, r) -> stack := (l, sh) :: (r, sh) :: !stack)
      done

  let try_overwrite sys t ~off data =
    check t;
    let len = String.length data in
    if off < 0 || off + len > length t then
      invalid_arg "Agg.try_overwrite: range";
    if len = 0 then true
    else begin
      (* Footnote 2 of Section 3.1: data may be modified in place only if
         it is not currently shared — every affected buffer must be held
         exclusively by this aggregate. Under structural sharing that
         means: every leaf anywhere in this rope that references an
         affected buffer must be reachable only through unshared nodes
         (otherwise another aggregate can see the bytes through a shared
         subtree), and the buffer's refcount must be fully accounted for
         by those leaves. *)
      let affected = ranged t ~off ~len in
      let affected_buffers =
        List.fold_left
          (fun acc s ->
            let b = Slice.buffer s in
            if List.memq b acc then acc else b :: acc)
          [] affected
      in
      let exclusive b =
        let count = ref 0 in
        let shared = ref false in
        iter_leaves_shared t.root (fun s sh ->
            if Slice.buffer s == b then begin
              incr count;
              if sh then shared := true
            end);
        b.cache_refs = 0 && (not !shared) && b.refs = !count
      in
      if not (List.for_all exclusive affected_buffers) then false
      else begin
        Iosys.touch sys Iosys.Fill len;
        let cursor = ref 0 in
        List.iter
          (fun s ->
            let b = Slice.buffer s in
            let n = Slice.len s in
            let _, abs = Slice.view s in
            Bytes.blit_string data !cursor b.store.data abs n;
            cursor := !cursor + n;
            (* The contents changed: give the buffer a fresh system-wide
               identity so stale cached checksums can never match. *)
            b.generation <-
              Vm.bump_generation (Iosys.vm sys) b.store.vc)
          affected;
        (* Clear summary memos on every path to an affected buffer (leaf
           memos also die via the generation witness; internal memos only
           via this sweep). Exclusivity means no other aggregate can hold
           nodes over these buffers, so sweeping this rope is complete. *)
        let rec clear_memos n =
          match n.kind with
          | Leaf s ->
            if List.memq (Slice.buffer s) affected_buffers then begin
              n.memo <- No_memo;
              true
            end
            else false
          | Cat (l, r) ->
            let cl = clear_memos l in
            let cr = clear_memos r in
            if cl || cr then begin
              n.memo <- No_memo;
              true
            end
            else false
        in
        (match t.root with None -> () | Some n -> ignore (clear_memos n));
        true
      end
    end

  let content_equal a b =
    check a;
    check b;
    length a = length b && String.equal (raw_string a) (raw_string b)

  let pp_shape fmt t =
    if t.freed then Format.fprintf fmt "<freed>"
    else begin
      Format.fprintf fmt "agg[%d:" (length t);
      iter_leaves t.root (fun s ->
          let u, len = Slice.uid s in
          Format.fprintf fmt " c%d.g%d@%d+%d" u.Buffer.chunk u.Buffer.generation
            u.Buffer.offset len);
      Format.fprintf fmt "]"
    end
end
