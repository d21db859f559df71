module Iobuf = Iolite_core.Iobuf
module Vm = Iolite_mem.Vm

(* Fold a 32+-bit accumulator down to 16 bits. *)
let fold_carries acc =
  let acc = ref acc in
  while !acc > 0xFFFF do
    acc := (!acc land 0xFFFF) + (!acc lsr 16)
  done;
  !acc

let sum16 a b = fold_carries (a + b)
let swap16 s = ((s land 0xFF) lsl 8) lor ((s lsr 8) land 0xFF)
let finish s = lnot (fold_carries s) land 0xFFFF

(* Ones'-complement subtraction: [a ⊖ b] adds the ones'-complement
   negation of [b]. Exact modulo 65535; the result may be the 0xFFFF
   representative of the zero class where a direct scan of the bytes
   would produce 0x0000 (the RFC 1624 ±0 ambiguity) — both complement to
   checksums any receiver accepts. *)
let sub16 a b = fold_carries (a + (lnot b land 0xFFFF))

(* Fold a right-hand partial sum that starts [llen] bytes into the
   stream onto [l]: a segment starting at an odd offset contributes its
   sum byte-swapped (RFC 1071). *)
let parity_combine ~llen l r = sum16 l (if llen land 1 = 1 then swap16 r else r)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Little-endian 64-bit load; the range is checked by the caller. *)
let[@inline] load64_le data i =
  let w = get64u data i in
  if Sys.big_endian then bswap64 w else w

(* Whole words at most, per fold of the word accumulator: each word adds
   two 32-bit halves (< 2^33), so 2^28 words stay far below max_int. *)
let max_words = 1 lsl 28

(* RFC 1071 §2, a word at a time: sum the little-endian 16-bit digits of
   8-byte words as two 32-bit halves, deferring every carry into the
   63-bit accumulator, fold its four 16-bit digits, and byte-swap once —
   the little-endian sum swapped is the big-endian sum, modulo 0xFFFF.
   The 0–7 trailing bytes are summed as big-endian words, an odd last
   byte being the high byte of a zero-padded word. Each part folds to
   [1, 0xFFFF] when non-zero and to 0 only over zero bytes, so the result
   is the one representative a byte-at-a-time scan returns: 0 only for
   all-zero input. *)
let of_bytes data ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Cksum.of_bytes: range";
  let i = ref off in
  let words = ref 0 in
  let nwords = ref (len lsr 3) in
  while !nwords > 0 do
    let n = min !nwords max_words in
    let stop = !i + (n lsl 3) in
    let acc = ref 0 in
    while !i < stop do
      let w = load64_le data !i in
      acc :=
        !acc
        + (Int64.to_int w land 0xFFFF_FFFF)
        + Int64.to_int (Int64.shift_right_logical w 32);
      i := !i + 8
    done;
    let a = !acc in
    words :=
      sum16 !words
        ((a land 0xFFFF) + ((a lsr 16) land 0xFFFF) + ((a lsr 32) land 0xFFFF)
        + (a lsr 48));
    nwords := !nwords - n
  done;
  let stop = off + len in
  let tail = ref 0 in
  while !i + 1 < stop do
    tail := !tail + (Bytes.get_uint8 data !i lsl 8) + Bytes.get_uint8 data (!i + 1);
    i := !i + 2
  done;
  if !i < stop then tail := !tail + (Bytes.get_uint8 data !i lsl 8);
  sum16 (swap16 !words) !tail

let of_string s = of_bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let slice_sum_raw s =
  let data, off = Iobuf.Slice.view s in
  of_bytes data ~off ~len:(Iobuf.Slice.len s)

let slice_range_raw s ~off ~len =
  let data, base = Iobuf.Slice.view s in
  of_bytes data ~off:(base + off) ~len

(* Fold per-slice sums into an aggregate sum, tracking byte parity. *)
let fold_slices f agg =
  let acc = ref 0 in
  let parity_even = ref true in
  Iobuf.Agg.iter_slices agg (fun s ->
      let sum = f s in
      let sum = if !parity_even then sum else swap16 sum in
      acc := sum16 !acc sum;
      if Iobuf.Slice.len s land 1 = 1 then parity_even := not !parity_even);
  !acc

let of_agg agg = fold_slices slice_sum_raw agg

type summary = { sum : int; scanned : int; folds : int }
type derivation = { dsums : int array; dscanned : int; dfolds : int }

(* Whole-aggregate sum through the rope memo, without buffer-identity
   caching: only subtrees with no valid memo are descended, and only
   unmemoized leaves are scanned. A warm re-sum of a shared subtree is a
   single memo read; the cold cost seeds every node on the way up. *)
let of_agg_memo agg =
  let scanned = ref 0 in
  let folds = ref 0 in
  let leaf s =
    scanned := !scanned + Iobuf.Slice.len s;
    slice_sum_raw s
  in
  let combine ~llen l r =
    incr folds;
    parity_combine ~llen l r
  in
  match Iobuf.Agg.fold_summary agg ~leaf ~combine ~on_memo:(fun ~nslices:_ -> ())
  with
  | None -> { sum = 0; scanned = 0; folds = 0 }
  | Some sum -> { sum; scanned = !scanned; folds = !folds }

(* Packet boundaries (relative offsets) of a leaf that begins when the
   current packet already holds [fill] bytes: fragments of at most
   [mtu - fill], then mtu, ... covering [0, slen). *)
let leaf_fragments ~mtu ~fill slen =
  let first = min slen (mtu - fill) in
  let rec rest off acc =
    if off >= slen then List.rev acc
    else
      let l = min mtu (slen - off) in
      rest (off + l) ((off, l) :: acc)
  in
  rest first [ (0, first) ]

(* Per-MTU-packet wire checksums, identity-less but structure-aware
   (the Spliced/sendfile concession): whole-leaf sums are memoized in
   the rope, so a leaf falling inside one packet costs nothing warm, and
   a leaf split across packets re-scans all but its final fragment —
   that one is derived by ones'-complement subtraction from the leaf
   memo. Without system-wide buffer identity the per-fragment sums
   themselves cannot be cached, which is exactly why sendfile keeps
   paying a partial re-scan that Flash-Lite does not (Section 4.4). *)
let packet_sums_memo agg ~mtu =
  if mtu <= 0 then invalid_arg "Cksum.packet_sums_memo: mtu";
  let total = Iobuf.Agg.length agg in
  let npkts = if total = 0 then 0 else ((total - 1) / mtu) + 1 in
  let sums = Array.make npkts 0 in
  let scanned = ref 0 and folds = ref 0 in
  let pkt = ref 0 and fill = ref 0 and acc = ref 0 in
  let flush () =
    sums.(!pkt) <- finish !acc;
    acc := 0;
    fill := 0;
    incr pkt
  in
  let add_frag sum len =
    acc := parity_combine ~llen:!fill !acc sum;
    incr folds;
    fill := !fill + len;
    if !fill = mtu then flush ()
  in
  Iobuf.Agg.iter_slices_memo agg (fun s memo set ->
      let slen = Iobuf.Slice.len s in
      if slen > 0 then begin
        match (leaf_fragments ~mtu ~fill:!fill slen, memo) with
        | [ (0, l) ], Some w ->
          (* Leaf wholly inside the current packet, memo valid: free. *)
          add_frag w l
        | [ (0, l) ], None ->
          scanned := !scanned + l;
          let v = slice_sum_raw s in
          set v;
          add_frag v l
        | frags, Some w ->
          (* Scan every fragment but the last; derive the last from the
             whole-leaf memo by subtraction, parity-adjusted to the
             fragment's offset within the leaf. *)
          let rec go prefix = function
            | [] -> ()
            | [ (o, l) ] ->
              let v = sub16 w prefix in
              let v = if o land 1 = 1 then swap16 v else v in
              add_frag v l
            | (o, l) :: rest ->
              scanned := !scanned + l;
              let v = slice_range_raw s ~off:o ~len:l in
              add_frag v l;
              go (parity_combine ~llen:o prefix v) rest
          in
          go 0 frags
        | frags, None ->
          (* Cold: scan fragment-wise (each byte once) and seed the
             whole-leaf memo from the same pass. *)
          let leaf_acc = ref 0 in
          List.iter
            (fun (o, l) ->
              scanned := !scanned + l;
              let v = slice_range_raw s ~off:o ~len:l in
              add_frag v l;
              leaf_acc := parity_combine ~llen:o !leaf_acc v)
            frags;
          set !leaf_acc
      end);
  if !fill > 0 then flush ();
  { dsums = sums; dscanned = !scanned; dfolds = !folds }

module Cache = struct
  (* The identity table is probed once per slice or packet fragment
     checksummed, so it is open addressing over flat int arrays: a probe
     is one hash, an array index and four int compares, with no bucket
     list, boxed key or entry record to follow and nothing allocated.
     Slot [i] holds the key ⟨chunk, generation, offset, length⟩ and the
     sum at [slots.(5i) .. slots.(5i + 4)]; a [vacant] chunk field marks
     an empty slot (chunk ids are positive). Collisions probe linearly,
     deletion shifts the rest of the run back (no tombstones), and the
     table doubles to keep its load at or below one half.

     Eviction is second chance (clock): [refd] holds one reference bit
     per slot, set by a hit, and [ring] queues the keys in insertion
     order. The sweep pops keys, re-queues referenced ones with the bit
     cleared and evicts the first unreferenced one. Hits, misses,
     evictions and resets depend only on that order and on key
     membership, never on where a key sits in [slots]. *)
  let stride = 5
  let vacant = -1
  let initial_slots = 1024

  type t = {
    mutable enabled : bool;
    max_entries : int;
    mutable slots : int array;
    mutable refd : Bytes.t;
    mutable mask : int; (* slot count - 1; the count is a power of two *)
    mutable count : int;
    mutable ring : int array; (* queued keys, 4 ints each, circular *)
    mutable ring_head : int; (* oldest queued key *)
    mutable ring_len : int;
    mutable hits : int;
    mutable misses : int;
    mutable agg_slices : int; (* slices folded via agg_sum, O(1) per agg *)
    mutable memo_slices : int; (* slices answered by subtree memos *)
    mutable evictions : int;
    mutable resets : int;
  }

  let create ?(enabled = true) ?(max_entries = 65536) () =
    {
      enabled;
      max_entries;
      slots = Array.make (initial_slots * stride) vacant;
      refd = Bytes.make initial_slots '\000';
      mask = initial_slots - 1;
      count = 0;
      ring = Array.make (initial_slots * 4) 0;
      ring_head = 0;
      ring_len = 0;
      hits = 0;
      misses = 0;
      agg_slices = 0;
      memo_slices = 0;
      evictions = 0;
      resets = 0;
    }

  let enabled t = t.enabled
  let set_enabled t v = t.enabled <- v

  let hash c g o l =
    let h = (c * 0x9E3779B1) + g in
    let h = (h * 0x85EBCA77) + o in
    let h = (h * 0xC2B2AE3D) + l in
    h lxor (h lsr 29)

  (* The slot holding the key, or [lnot i] for the empty slot [i] that
     ends its probe run (where an insert puts it). *)
  let rec probe slots mask c g o l i =
    let b = i * stride in
    let sc = slots.(b) in
    if sc = vacant then lnot i
    else if sc = c && slots.(b + 1) = g && slots.(b + 2) = o && slots.(b + 3) = l
    then i
    else probe slots mask c g o l ((i + 1) land mask)

  let slot_of t c g o l = probe t.slots t.mask c g o l (hash c g o l land t.mask)

  let grow t =
    let old = t.slots and old_refd = t.refd in
    let n = 2 * (t.mask + 1) in
    t.slots <- Array.make (n * stride) vacant;
    t.refd <- Bytes.make n '\000';
    t.mask <- n - 1;
    for i = 0 to Bytes.length old_refd - 1 do
      let b = i * stride in
      if old.(b) <> vacant then begin
        let j = lnot (slot_of t old.(b) old.(b + 1) old.(b + 2) old.(b + 3)) in
        Array.blit old b t.slots (j * stride) stride;
        Bytes.set t.refd j (Bytes.get old_refd i)
      end
    done

  (* Backward-shift deletion: walk the rest of the probe run and move
     each entry whose home slot does not lie cyclically in (hole, j]
     into the hole, so every remaining key stays reachable from its
     home without tombstones. *)
  let remove_at t i =
    let slots = t.slots and mask = t.mask in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while slots.(!j * stride) <> vacant do
      let b = !j * stride in
      let home = hash slots.(b) slots.(b + 1) slots.(b + 2) slots.(b + 3) land mask in
      if (!j - home) land mask >= (!j - !hole) land mask then begin
        Array.blit slots b slots (!hole * stride) stride;
        Bytes.set t.refd !hole (Bytes.get t.refd !j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    slots.(!hole * stride) <- vacant;
    Bytes.set t.refd !hole '\000';
    t.count <- t.count - 1

  let ring_push t c g o l =
    let cap = Array.length t.ring / 4 in
    if t.ring_len = cap then begin
      (* Full: unroll into a ring twice the size, oldest key first. *)
      let a = Array.make (8 * cap) 0 in
      let h = 4 * t.ring_head in
      Array.blit t.ring h a 0 ((4 * cap) - h);
      Array.blit t.ring 0 a ((4 * cap) - h) h;
      t.ring <- a;
      t.ring_head <- 0
    end;
    let k = 4 * ((t.ring_head + t.ring_len) land ((Array.length t.ring / 4) - 1)) in
    t.ring.(k) <- c;
    t.ring.(k + 1) <- g;
    t.ring.(k + 2) <- o;
    t.ring.(k + 3) <- l;
    t.ring_len <- t.ring_len + 1

  (* Bounded second-chance eviction: pop keys, give referenced entries a
     second life, evict the first unreferenced one. The ring holds
     exactly the cached keys and every sweep step either evicts or
     clears a reference bit, so a non-empty table evicts within one
     rotation. The full-table reset is left for [max_entries = 0]
     (counted, so it cannot hide). *)
  let evict_one t =
    let evicted = ref false in
    let budget = ref (t.ring_len + 1) in
    while (not !evicted) && !budget > 0 && t.ring_len > 0 do
      decr budget;
      let r = t.ring and k = 4 * t.ring_head in
      let c = r.(k) and g = r.(k + 1) and o = r.(k + 2) and l = r.(k + 3) in
      t.ring_head <- (t.ring_head + 1) land ((Array.length r / 4) - 1);
      t.ring_len <- t.ring_len - 1;
      let i = slot_of t c g o l in
      if Bytes.get t.refd i <> '\000' then begin
        Bytes.set t.refd i '\000';
        ring_push t c g o l
      end
      else begin
        remove_at t i;
        t.evictions <- t.evictions + 1;
        evicted := true
      end
    done;
    if (not !evicted) && t.count >= t.max_entries then begin
      Array.fill t.slots 0 (Array.length t.slots) vacant;
      Bytes.fill t.refd 0 (Bytes.length t.refd) '\000';
      t.count <- 0;
      t.ring_head <- 0;
      t.ring_len <- 0;
      t.resets <- t.resets + 1
    end

  (* Cache the sum of a key [find] just missed, unreferenced, and queue
     the key. *)
  let insert t c g o l sum =
    if t.count >= t.max_entries then evict_one t;
    if 2 * (t.count + 1) > t.mask + 1 then grow t;
    let i = lnot (slot_of t c g o l) in
    t.count <- t.count + 1;
    let b = i * stride in
    t.slots.(b) <- c;
    t.slots.(b + 1) <- g;
    t.slots.(b + 2) <- o;
    t.slots.(b + 3) <- l;
    t.slots.(b + 4) <- sum;
    Bytes.set t.refd i '\000';
    ring_push t c g o l

  (* The cached sum, or -1 on a miss (sums are 16-bit); a hit sets the
     slot's reference bit. *)
  let find t c g o l =
    let i = slot_of t c g o l in
    if i < 0 then -1
    else begin
      Bytes.set t.refd i '\001';
      t.hits <- t.hits + 1;
      t.slots.((i * stride) + 4)
    end

  (* A slice's identity is ⟨chunk, generation, offset, length⟩ with the
     offset taken in the chunk's backing bytes — the [Slice.uid] fields,
     read here without building them. *)
  let chunk_of s = Vm.chunk_id (Iobuf.Buffer.chunk (Iobuf.Slice.buffer s))
  let generation_of s = Iobuf.Buffer.generation (Iobuf.Slice.buffer s)

  (* Scan [data[off, off+len)] after a failed probe (or with the cache
     disabled) and, when enabled, cache the sum under ⟨c, g, off, len⟩. *)
  let miss t data c g off len =
    t.misses <- t.misses + 1;
    let sum = of_bytes data ~off ~len in
    if t.enabled then insert t c g off len sum;
    sum

  let slice_sum t s =
    let data, off = Iobuf.Slice.view s in
    let len = Iobuf.Slice.len s in
    let c = chunk_of s and g = generation_of s in
    let sum = if t.enabled then find t c g off len else -1 in
    if sum >= 0 then (sum, true) else (miss t data c g off len, false)

  let agg_sum t agg =
    t.agg_slices <- t.agg_slices + Iobuf.Agg.num_slices agg;
    if not t.enabled then begin
      (* Measurement mode (fig 11 no-cksum bars): every byte scanned,
         no memo reads or writes anywhere. *)
      let computed = ref 0 in
      let sum =
        fold_slices
          (fun s ->
            let sum, _ = slice_sum t s in
            computed := !computed + Iobuf.Slice.len s;
            sum)
          agg
      in
      (sum, !computed)
    end
    else begin
      (* Top-down memo combine: a warm shared subtree is one memo read,
         an unmemoized leaf falls back to the identity table, and only
         table misses touch data. *)
      let computed = ref 0 in
      let leaf s =
        let sum, hit = slice_sum t s in
        if not hit then computed := !computed + Iobuf.Slice.len s;
        sum
      in
      let on_memo ~nslices =
        t.hits <- t.hits + nslices;
        t.memo_slices <- t.memo_slices + nslices
      in
      match
        Iobuf.Agg.fold_summary agg ~leaf ~combine:parity_combine ~on_memo
      with
      | None -> (0, 0)
      | Some sum -> (sum, !computed)
    end

  (* Checksum of [off, off+len) by subtree memos plus ones'-complement
     subtraction at the boundary leaves: a partially-covered leaf probes
     the identity table for the fragment first; on a miss, if the
     whole-leaf memo is valid and the fragment is more than half the
     leaf, the two complement fragments are scanned instead and the
     fragment derived as whole ⊖ prefix ⊖ suffix (parity-adjusted). *)
  let range_sum t agg ~off ~len =
    let scanned = ref 0 and folds = ref 0 in
    if not t.enabled then begin
      let sum =
        match
          Iobuf.Agg.fold_summary_range agg ~off ~len
            ~leaf:(fun s ->
              scanned := !scanned + Iobuf.Slice.len s;
              slice_sum_raw s)
            ~leaf_part:(fun s ~off ~len ~whole:_ ->
              scanned := !scanned + len;
              slice_range_raw s ~off ~len)
            ~combine:(fun ~llen l r ->
              incr folds;
              parity_combine ~llen l r)
            ~on_memo:(fun ~nslices:_ -> ())
        with
        | None -> 0
        | Some sum -> sum
      in
      (* Even disabled, the range fold must not memoize: scanned counts
         every byte. (fold_summary_range fills memos for fully-covered
         subtrees, so the disabled path scans leaf-by-leaf above.) *)
      { sum; scanned = !scanned; folds = !folds }
    end
    else begin
      let leaf s =
        let sum, hit = slice_sum t s in
        if not hit then scanned := !scanned + Iobuf.Slice.len s;
        sum
      in
      let leaf_part s ~off ~len ~whole =
        let slen = Iobuf.Slice.len s in
        let _, base = Iobuf.Slice.view s in
        let c = chunk_of s and g = generation_of s in
        let sum = find t c g (base + off) len in
        if sum >= 0 then sum
        else begin
          t.misses <- t.misses + 1;
          let sum =
            match whole with
            | Some w when slen - len < len ->
              (* Complements are smaller: scan them and subtract. *)
              let p = slice_range_raw s ~off:0 ~len:off in
              let f = slice_range_raw s ~off:(off + len) ~len:(slen - off - len) in
              scanned := !scanned + (slen - len);
              folds := !folds + 2;
              let v = sub16 (sub16 w p) (if (off + len) land 1 = 1 then swap16 f else f) in
              if off land 1 = 1 then swap16 v else v
            | Some _ | None ->
              scanned := !scanned + len;
              slice_range_raw s ~off ~len
          in
          insert t c g (base + off) len sum;
          sum
        end
      in
      let combine ~llen l r =
        incr folds;
        parity_combine ~llen l r
      in
      let on_memo ~nslices =
        t.hits <- t.hits + nslices;
        t.memo_slices <- t.memo_slices + nslices
      in
      match
        Iobuf.Agg.fold_summary_range agg ~off ~len ~leaf ~leaf_part ~combine
          ~on_memo
      with
      | None -> { sum = 0; scanned = 0; folds = 0 }
      | Some sum -> { sum; scanned = !scanned; folds = !folds }
    end

  (* Per-MTU-packet wire checksums in one in-order walk ("during
     segmentation"): each packet's payload is a run of slice fragments
     whose partial sums carry full buffer identity, so a warm resend of
     the same body with the same segmentation derives every packet
     checksum from cached fragment sums without touching a byte — the
     aggregate is never re-walked per packet. *)
  let packet_sums t agg ~mtu =
    if mtu <= 0 then invalid_arg "Cksum.Cache.packet_sums: mtu";
    t.agg_slices <- t.agg_slices + Iobuf.Agg.num_slices agg;
    let total = Iobuf.Agg.length agg in
    let npkts = if total = 0 then 0 else ((total - 1) / mtu) + 1 in
    let sums = Array.make npkts 0 in
    let scanned = ref 0 and folds = ref 0 in
    let pkt = ref 0 and fill = ref 0 and acc = ref 0 in
    let flush () =
      sums.(!pkt) <- finish !acc;
      acc := 0;
      fill := 0;
      incr pkt
    in
    let add_frag sum len =
      acc := parity_combine ~llen:!fill !acc sum;
      incr folds;
      fill := !fill + len;
      if !fill = mtu then flush ()
    in
    Iobuf.Agg.iter_slices agg (fun s ->
        (* A fragment's identity is its slice's, narrowed to the
           fragment's offset and length. *)
        let data, base = Iobuf.Slice.view s in
        let slen = Iobuf.Slice.len s in
        let c = chunk_of s and g = generation_of s in
        let o = ref 0 in
        while !o < slen do
          let l = min (mtu - !fill) (slen - !o) in
          let off = base + !o in
          let sum = if t.enabled then find t c g off l else -1 in
          let sum =
            if sum >= 0 then sum
            else begin
              scanned := !scanned + l;
              miss t data c g off l
            end
          in
          add_frag sum l;
          o := !o + l
        done);
    if !fill > 0 then flush ();
    { dsums = sums; dscanned = !scanned; dfolds = !folds }

  let hits t = t.hits
  let misses t = t.misses
  let slices_summed t = t.agg_slices
  let memo_slices t = t.memo_slices
  let entry_count t = t.count
  let evictions t = t.evictions
  let resets t = t.resets

  let reset_stats t =
    t.hits <- 0;
    t.misses <- 0;
    t.agg_slices <- 0;
    t.memo_slices <- 0;
    t.evictions <- 0;
    t.resets <- 0
end
