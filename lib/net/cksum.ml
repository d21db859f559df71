module Iobuf = Iolite_core.Iobuf

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
  type key = int * int * int * int (* chunk, generation, offset, length *)

  (* The identity table is probed once per slice or fragment checksummed,
     so it hashes and compares its int keys inline: no polymorphic
     [caml_hash]/[compare] call per probe. *)
  module Table = Hashtbl.Make (struct
    type t = key

    let equal ((c, g, o, l) : t) (c', g', o', l') =
      c = c' && g = g' && o = o' && l = l'

    let hash ((c, g, o, l) : t) =
      let h = (c * 0x9E3779B1) + g in
      let h = (h * 0x85EBCA77) + o in
      let h = (h * 0xC2B2AE3D) + l in
      h lxor (h lsr 29)
  end)

  (* Second-chance (clock) entries: a hit sets the reference bit; the
     eviction sweep clears set bits and removes the first clear one. *)
  type entry = { esum : int; mutable refd : bool }

  type t = {
    mutable enabled : bool;
    max_entries : int;
    table : entry Table.t;
    fifo : key Queue.t;
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
      table = Table.create 1024;
      fifo = Queue.create ();
      hits = 0;
      misses = 0;
      agg_slices = 0;
      memo_slices = 0;
      evictions = 0;
      resets = 0;
    }

  let enabled t = t.enabled
  let set_enabled t v = t.enabled <- v

  let key_of_slice s =
    let uid, len = Iobuf.Slice.uid s in
    (uid.Iobuf.Buffer.chunk, uid.Iobuf.Buffer.generation, uid.Iobuf.Buffer.offset, len)

  (* Bounded second-chance eviction: pop keys, give referenced entries a
     second life, evict the first unreferenced one. Every sweep step
     either evicts or clears a reference bit, so the loop is bounded by
     one full rotation; the full-table reset survives only as a
     never-expected fallback (counted, so it cannot hide). *)
  let evict_one t =
    let evicted = ref false in
    let budget = ref (Queue.length t.fifo + 1) in
    while (not !evicted) && !budget > 0 && not (Queue.is_empty t.fifo) do
      decr budget;
      let k = Queue.pop t.fifo in
      match Table.find_opt t.table k with
      | None -> () (* key already gone: stale queue residue *)
      | Some e when e.refd ->
        e.refd <- false;
        Queue.push k t.fifo
      | Some _ ->
        Table.remove t.table k;
        t.evictions <- t.evictions + 1;
        evicted := true
    done;
    if (not !evicted) && Table.length t.table >= t.max_entries then begin
      Table.reset t.table;
      Queue.clear t.fifo;
      t.resets <- t.resets + 1
    end

  let insert t k sum =
    if Table.length t.table >= t.max_entries then evict_one t;
    Table.replace t.table k { esum = sum; refd = false };
    Queue.push k t.fifo

  let find t k =
    match Table.find_opt t.table k with
    | Some e ->
      e.refd <- true;
      t.hits <- t.hits + 1;
      Some e.esum
    | None -> None

  let slice_sum t s =
    if not t.enabled then begin
      t.misses <- t.misses + 1;
      (slice_sum_raw s, false)
    end
    else begin
      let k = key_of_slice s in
      match find t k with
      | Some sum -> (sum, true)
      | None ->
        t.misses <- t.misses + 1;
        let sum = slice_sum_raw s in
        insert t k sum;
        (sum, false)
    end

  (* Sub-slice identity: a fragment of a slice has the same system-wide
     content identity as a slice made over the fragment's range. *)
  let fragment_sum t s ~off ~len ~scanned =
    let frag = Iobuf.Slice.make (Iobuf.Slice.buffer s) ~off:(Iobuf.Slice.off s + off) ~len in
    let k = key_of_slice frag in
    match find t k with
    | Some sum -> sum
    | None ->
      t.misses <- t.misses + 1;
      scanned := !scanned + len;
      let sum = slice_sum_raw frag in
      insert t k sum;
      sum

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
        let frag = Iobuf.Slice.make (Iobuf.Slice.buffer s) ~off:(Iobuf.Slice.off s + off) ~len in
        let k = key_of_slice frag in
        match find t k with
        | Some sum -> sum
        | None ->
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
          insert t k sum;
          sum
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
        let slen = Iobuf.Slice.len s in
        List.iter
          (fun (o, l) ->
            let sum =
              if not t.enabled then begin
                t.misses <- t.misses + 1;
                scanned := !scanned + l;
                slice_range_raw s ~off:o ~len:l
              end
              else if o = 0 && l = slen then begin
                let sum, hit = slice_sum t s in
                if not hit then scanned := !scanned + l;
                sum
              end
              else fragment_sum t s ~off:o ~len:l ~scanned
            in
            add_frag sum l)
          (if slen > 0 then leaf_fragments ~mtu ~fill:!fill slen else []));
    if !fill > 0 then flush ();
    { dsums = sums; dscanned = !scanned; dfolds = !folds }

  let hits t = t.hits
  let misses t = t.misses
  let slices_summed t = t.agg_slices
  let memo_slices t = t.memo_slices
  let entry_count t = Table.length t.table
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
