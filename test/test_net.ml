open Iolite_net
module Engine = Iolite_sim.Engine
module Iobuf = Iolite_core.Iobuf
module Iosys = Iolite_core.Iosys
module Mem = Iolite_mem

let mk () =
  let sys = Iosys.create () in
  let d = Iosys.new_domain sys ~name:"app" in
  let pool =
    Iobuf.Pool.create sys ~name:"net-test"
      ~acl:(Mem.Vm.Only (Mem.Pdomain.Set.singleton d))
  in
  (sys, d, pool)

(* Reference Internet checksum: straightforward RFC 1071 over a string. *)
let reference_cksum s =
  let acc = ref 0 in
  let n = String.length s in
  let i = ref 0 in
  while !i + 1 < n do
    acc := !acc + (Char.code s.[!i] lsl 8) + Char.code s.[!i + 1];
    i := !i + 2
  done;
  if !i < n then acc := !acc + (Char.code s.[!i] lsl 8);
  while !acc > 0xFFFF do
    acc := (!acc land 0xFFFF) + (!acc lsr 16)
  done;
  !acc

let test_cksum_known_vector () =
  (* RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2. *)
  let s = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "rfc sum" 0xddf2 (Cksum.of_string s);
  Alcotest.(check int) "wire checksum" (lnot 0xddf2 land 0xFFFF)
    (Cksum.finish (Cksum.of_string s))

let test_cksum_odd_length () =
  Alcotest.(check int) "odd trailing byte" (reference_cksum "abc")
    (Cksum.of_string "abc")

(* The word-at-a-time scan against the byte-at-a-time reference, from
   every start alignment 0–7 and over every tail length, on random bytes
   and on the extremes: zeros sum to 0, and a non-zero multiple of
   0xFFFF sums to 0xFFFF, never 0. *)
let test_cksum_word_matches_bytes () =
  let rng = Random.State.make [| 1071 |] in
  let random n = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  let lens = List.init 40 Fun.id @ [ 63; 65; 1499; 1500; 4097; 65535; 65536 ] in
  List.iter
    (fun (kind, make) ->
      List.iter
        (fun len ->
          for off = 0 to 7 do
            let data = make (off + len + 5) in
            Alcotest.(check int)
              (Printf.sprintf "%s off %d len %d" kind off len)
              (reference_cksum (Bytes.sub_string data off len))
              (Cksum.of_bytes data ~off ~len)
          done)
        lens)
    [
      ("random", random);
      ("zeros", fun n -> Bytes.make n '\x00');
      ("ones", fun n -> Bytes.make n '\xff');
    ];
  Alcotest.(check int) "all zeros" 0 (Cksum.of_string (String.make 64 '\x00'));
  Alcotest.(check int) "all ones" 0xFFFF (Cksum.of_string (String.make 64 '\xff'));
  Alcotest.(check int) "digits summing to 0xFFFF" 0xFFFF
    (Cksum.of_string "\x12\x34\xed\xcb\x00\x00\x00\x00\x00")

let test_cksum_agg_matches_flat () =
  let sys, d, pool = mk () in
  ignore sys;
  let a = Iobuf.Agg.of_string pool ~producer:d "hello " in
  let b = Iobuf.Agg.of_string pool ~producer:d "world!" in
  let ab = Iobuf.Agg.concat a b in
  Alcotest.(check int) "agg equals flat" (Cksum.of_string "hello world!")
    (Cksum.of_agg ab);
  List.iter Iobuf.Agg.free [ a; b; ab ]

let test_cksum_agg_odd_boundary () =
  (* Odd-length first slice exercises the byte-swap folding rule. *)
  let sys, d, pool = mk () in
  ignore sys;
  let a = Iobuf.Agg.of_string pool ~producer:d "abc" in
  let b = Iobuf.Agg.of_string pool ~producer:d "defgh" in
  let ab = Iobuf.Agg.concat a b in
  Alcotest.(check int) "odd boundary" (Cksum.of_string "abcdefgh")
    (Cksum.of_agg ab);
  List.iter Iobuf.Agg.free [ a; b; ab ]

let prop_cksum_split_invariant =
  QCheck.Test.make ~name:"checksum invariant under slicing" ~count:200
    QCheck.(pair (string_of_size QCheck.Gen.(2 -- 400)) small_nat)
    (fun (s, k) ->
      let _, d, pool = mk () in
      let at = 1 + (k mod (String.length s - 1)) in
      let whole = Iobuf.Agg.of_string pool ~producer:d s in
      let l, r = Iobuf.Agg.split whole ~at in
      let back = Iobuf.Agg.concat l r in
      let ok = Cksum.of_agg back = Cksum.of_string s in
      List.iter Iobuf.Agg.free [ whole; l; r; back ];
      ok)

let test_cksum_cache_hit () =
  let sys, d, pool = mk () in
  ignore sys;
  let cache = Cksum.Cache.create () in
  let a = Iobuf.Agg.of_string pool ~producer:d (String.make 5000 'q') in
  let sum1, computed1 = Cksum.Cache.agg_sum cache a in
  let sum2, computed2 = Cksum.Cache.agg_sum cache a in
  Alcotest.(check int) "same sum" sum1 sum2;
  Alcotest.(check int) "first pass computes" 5000 computed1;
  Alcotest.(check int) "second pass free" 0 computed2;
  Alcotest.(check bool) "hits recorded" true (Cksum.Cache.hits cache > 0);
  Alcotest.(check int) "correct value" (Cksum.of_agg a) sum1;
  Iobuf.Agg.free a

let test_cksum_cache_generation_invalidation () =
  let sys, d, pool = mk () in
  ignore sys;
  let cache = Cksum.Cache.create () in
  let a = Iobuf.Agg.of_string pool ~producer:d (String.make 100 'x') in
  let sum_x, _ = Cksum.Cache.agg_sum cache a in
  Iobuf.Agg.free a;
  (* Reuses the same chunk space under a new generation. *)
  let b = Iobuf.Agg.of_string pool ~producer:d (String.make 100 'y') in
  let sum_y, computed = Cksum.Cache.agg_sum cache b in
  Alcotest.(check bool) "different data, different sum" true (sum_x <> sum_y);
  Alcotest.(check int) "recomputed after generation bump" 100 computed;
  Alcotest.(check int) "matches fresh computation" (Cksum.of_agg b) sum_y;
  Iobuf.Agg.free b

let test_cksum_cache_disabled () =
  let sys, d, pool = mk () in
  ignore sys;
  let cache = Cksum.Cache.create ~enabled:false () in
  let a = Iobuf.Agg.of_string pool ~producer:d (String.make 64 'z') in
  let _, c1 = Cksum.Cache.agg_sum cache a in
  let _, c2 = Cksum.Cache.agg_sum cache a in
  Alcotest.(check int) "always computes" 64 c1;
  Alcotest.(check int) "still computes" 64 c2;
  Alcotest.(check int) "no hits" 0 (Cksum.Cache.hits cache);
  Iobuf.Agg.free a

(* Subtraction-derived sums may land on the 0xFFFF representative of the
   zero class where a direct scan yields 0x0000 (RFC 1624): compare the
   residue modulo 0xFFFF. *)
let norm_sum s = s mod 0xFFFF
let norm_cksum c = (lnot c land 0xFFFF) mod 0xFFFF

let letters n seed =
  String.init n (fun i -> Char.chr (Char.code 'a' + ((seed + (i * 7)) mod 26)))

let prop_cksum_compositional =
  QCheck.Test.make ~name:"compositional memo sum equals flat checksum"
    ~count:150
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 8) (string_of_size Gen.(1 -- 64)))
        (pair small_nat small_nat))
    (fun (parts, (k1, k2)) ->
      let parts = if parts = [] then [ "x" ] else parts in
      let _, d, pool = mk () in
      let aggs = List.map (Iobuf.Agg.of_string pool ~producer:d) parts in
      let whole = Iobuf.Agg.concat_list aggs in
      let flat = String.concat "" parts in
      let n = String.length flat in
      (* Arbitrary (often odd) sub-range exercises the parity-swap rule. *)
      let off = k1 mod n in
      let len = 1 + (k2 mod (n - off)) in
      let view = Iobuf.Agg.sub whole ~off ~len in
      let dup = Iobuf.Agg.dup view in
      let expect = Cksum.of_string (String.sub flat off len) in
      let s1 = (Cksum.of_agg_memo view).Cksum.sum in
      (* Warm re-fold over shared structure must agree and touch no data. *)
      let warm = Cksum.of_agg_memo dup in
      let cache = Cksum.Cache.create () in
      let s3, _ = Cksum.Cache.agg_sum cache view in
      let s4, c4 = Cksum.Cache.agg_sum cache view in
      let ok =
        s1 = expect && warm.Cksum.sum = expect && warm.Cksum.scanned = 0
        && s3 = expect && s4 = expect && c4 = 0
      in
      List.iter Iobuf.Agg.free (view :: dup :: whole :: aggs);
      ok)

let test_memo_overwrite_invalidation () =
  let sys, d, pool = mk () in
  let a = Iobuf.Agg.of_string pool ~producer:d (String.make 2000 'a') in
  Alcotest.(check int) "initial sum"
    (Cksum.of_string (String.make 2000 'a'))
    (Cksum.of_agg_memo a).Cksum.sum;
  Alcotest.(check int) "warm re-sum is scan-free" 0
    (Cksum.of_agg_memo a).Cksum.scanned;
  Alcotest.(check bool) "exclusive overwrite succeeds" true
    (Iobuf.Agg.try_overwrite sys a ~off:101 (String.make 50 'b'));
  let fresh = Cksum.of_agg a in
  let after = Cksum.of_agg_memo a in
  Alcotest.(check int) "memo invalidated: recomputed sum" fresh after.Cksum.sum;
  Alcotest.(check bool) "bytes rescanned after overwrite" true
    (after.Cksum.scanned > 0);
  Iobuf.Agg.free a

let test_of_agg_memo_shared_body () =
  let _, d, pool = mk () in
  let parts = List.init 8 (fun i -> letters 1250 i) in
  let chunks = List.map (Iobuf.Agg.of_string pool ~producer:d) parts in
  let body = Iobuf.Agg.concat_list chunks in
  (* Odd-length first header exercises the parity swap at the join. *)
  let h1 = Iobuf.Agg.of_string pool ~producer:d "HTTP/1.1 200 OK\r\n\r" in
  let r1 = Iobuf.Agg.concat h1 body in
  let cold = Cksum.of_agg_memo r1 in
  Alcotest.(check int) "cold scans everything" (Iobuf.Agg.length r1)
    cold.Cksum.scanned;
  Alcotest.(check int) "cold sum correct" (Cksum.of_agg r1) cold.Cksum.sum;
  (* Second response sharing the body: only the fresh header is data. *)
  let h2 = Iobuf.Agg.of_string pool ~producer:d "HTTP/1.1 200 OK!\r\n\r\n" in
  let r2 = Iobuf.Agg.concat h2 body in
  let warm = Cksum.of_agg_memo r2 in
  Alcotest.(check int) "warm scans header bytes only"
    (Iobuf.Agg.length h2) warm.Cksum.scanned;
  Alcotest.(check int) "warm sum correct" (Cksum.of_agg r2) warm.Cksum.sum;
  Alcotest.(check bool) "combines through memoized subtrees" true
    (warm.Cksum.folds > 0);
  List.iter Iobuf.Agg.free (r1 :: r2 :: h1 :: h2 :: body :: chunks)

let test_second_chance_eviction () =
  let _, d, pool = mk () in
  let cache = Cksum.Cache.create ~max_entries:4 () in
  let keep = ref [] in
  let mk_slice s =
    let a = Iobuf.Agg.of_string pool ~producer:d s in
    keep := a :: !keep;
    List.hd (Iobuf.Agg.slices a)
  in
  let hot = mk_slice "hot-entry" in
  ignore (Cksum.Cache.slice_sum cache hot);
  for i = 1 to 3 do
    ignore (Cksum.Cache.slice_sum cache (mk_slice (Printf.sprintf "cold-%d" i)))
  done;
  (* Touch the hot entry: its reference bit earns it a second chance. *)
  let _, hit = Cksum.Cache.slice_sum cache hot in
  Alcotest.(check bool) "hot entry cached" true hit;
  for i = 1 to 2 do
    ignore (Cksum.Cache.slice_sum cache (mk_slice (Printf.sprintf "new-%d" i)))
  done;
  let _, hot_hit = Cksum.Cache.slice_sum cache hot in
  Alcotest.(check bool) "hot entry survived overflow" true hot_hit;
  Alcotest.(check bool) "cold entries evicted one by one" true
    (Cksum.Cache.evictions cache >= 2);
  Alcotest.(check int) "no full-table resets" 0 (Cksum.Cache.resets cache);
  Alcotest.(check bool) "table stayed bounded" true
    (Cksum.Cache.entry_count cache <= 4);
  List.iter Iobuf.Agg.free !keep

(* Reference second-chance identity table: the [Hashtbl] + [Queue]
   implementation the flat open-addressing table replaced, kept verbatim
   (enabled paths only) so the two can run side by side. *)
module Ref_cache = struct
  type key = int * int * int * int

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

  type entry = { esum : int; mutable refd : bool }

  type t = {
    max_entries : int;
    table : entry Table.t;
    fifo : key Queue.t;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable resets : int;
  }

  let create ~max_entries =
    {
      max_entries;
      table = Table.create 1024;
      fifo = Queue.create ();
      hits = 0;
      misses = 0;
      evictions = 0;
      resets = 0;
    }

  let slice_sum_raw s =
    let data, off = Iobuf.Slice.view s in
    Cksum.of_bytes data ~off ~len:(Iobuf.Slice.len s)

  let key_of_slice s =
    let uid, len = Iobuf.Slice.uid s in
    (uid.Iobuf.Buffer.chunk, uid.Iobuf.Buffer.generation, uid.Iobuf.Buffer.offset, len)

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
    let k = key_of_slice s in
    match find t k with
    | Some sum -> (sum, true)
    | None ->
      t.misses <- t.misses + 1;
      let sum = slice_sum_raw s in
      insert t k sum;
      (sum, false)

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

  let leaf_fragments ~mtu ~fill slen =
    let first = min slen (mtu - fill) in
    let rec rest off acc =
      if off >= slen then List.rev acc
      else
        let l = min mtu (slen - off) in
        rest (off + l) ((off, l) :: acc)
    in
    rest first [ (0, first) ]

  let packet_sums t agg ~mtu =
    let total = Iobuf.Agg.length agg in
    let npkts = if total = 0 then 0 else ((total - 1) / mtu) + 1 in
    let sums = Array.make npkts 0 in
    let scanned = ref 0 in
    let pkt = ref 0 and fill = ref 0 and acc = ref 0 in
    let flush () =
      sums.(!pkt) <- Cksum.finish !acc;
      acc := 0;
      fill := 0;
      incr pkt
    in
    let add_frag sum len =
      acc := Cksum.parity_combine ~llen:!fill !acc sum;
      fill := !fill + len;
      if !fill = mtu then flush ()
    in
    Iobuf.Agg.iter_slices agg (fun s ->
        let slen = Iobuf.Slice.len s in
        List.iter
          (fun (o, l) ->
            let sum =
              if o = 0 && l = slen then begin
                let sum, hit = slice_sum t s in
                if not hit then scanned := !scanned + l;
                sum
              end
              else fragment_sum t s ~off:o ~len:l ~scanned
            in
            add_frag sum l)
          (if slen > 0 then leaf_fragments ~mtu ~fill:!fill slen else []));
    if !fill > 0 then flush ();
    (sums, !scanned)
end

(* One step against both tables: a slice's sum, per-packet sums over a
   concatenation of buffers, or a generation bump — an in-place
   overwrite, or a free and re-allocation that may recycle the chunk. *)
type table_op =
  | T_slice of int * int * int (* buffer, offset, length (both wrapped) *)
  | T_packets of int * int * int (* first buffer, buffer count, mtu *)
  | T_overwrite of int
  | T_realloc of int

let show_table_op = function
  | T_slice (b, o, l) -> Printf.sprintf "slice(%d,%d,%d)" b o l
  | T_packets (b, n, m) -> Printf.sprintf "packets(%d,%d,mtu %d)" b n m
  | T_overwrite b -> Printf.sprintf "overwrite(%d)" b
  | T_realloc b -> Printf.sprintf "realloc(%d)" b

let table_sizes = [| 100; 777; 2048; 3001; 9000; 65536 |]
let table_buffers = Array.length table_sizes

(* Run [ops] through a flat table and the reference, failing on the
   first sum, hit flag or scan count that differs, then on any final
   counter that differs. Returns the flat table for extra checks. *)
let run_against_reference ~max_entries ops =
  let sys, d, pool = mk () in
  let flat = Cksum.Cache.create ~max_entries () in
  let model = Ref_cache.create ~max_entries in
  let alloc i =
    Iobuf.Agg.of_string pool ~producer:d (letters table_sizes.(i) (i * 3))
  in
  let aggs = Array.init table_buffers alloc in
  let buffer i = Iobuf.Slice.buffer (List.hd (Iobuf.Agg.slices aggs.(i))) in
  let step n op =
    let where = Printf.sprintf "step %d %s" n (show_table_op op) in
    match op with
    | T_slice (i, o, l) ->
      let i = i mod table_buffers in
      let size = table_sizes.(i) in
      let off = o mod size in
      let len = 1 + (l mod (size - off)) in
      let s = Iobuf.Slice.make (buffer i) ~off ~len in
      Alcotest.(check (pair int bool)) where (Ref_cache.slice_sum model s)
        (Cksum.Cache.slice_sum flat s)
    | T_packets (i, n, mtu) ->
      let parts = List.init (1 + (n mod 3)) (fun k -> aggs.((i + k) mod table_buffers)) in
      let a = Iobuf.Agg.concat_list parts in
      let dv = Cksum.Cache.packet_sums flat a ~mtu in
      Alcotest.(check (pair (array int) int)) where
        (Ref_cache.packet_sums model a ~mtu)
        (dv.Cksum.dsums, dv.Cksum.dscanned);
      Iobuf.Agg.free a
    | T_overwrite i ->
      let i = i mod table_buffers in
      Alcotest.(check bool) where true
        (Iobuf.Agg.try_overwrite sys aggs.(i) ~off:0 (letters 7 n))
    | T_realloc i ->
      let i = i mod table_buffers in
      Iobuf.Agg.free aggs.(i);
      aggs.(i) <- alloc i
  in
  List.iteri step ops;
  let counters hits misses evictions resets entries =
    [ ("hits", hits); ("misses", misses); ("evictions", evictions);
      ("resets", resets); ("entries", entries) ]
  in
  Alcotest.(check (list (pair string int))) "final counters"
    (counters model.Ref_cache.hits model.Ref_cache.misses
       model.Ref_cache.evictions model.Ref_cache.resets
       (Ref_cache.Table.length model.Ref_cache.table))
    (counters (Cksum.Cache.hits flat) (Cksum.Cache.misses flat)
       (Cksum.Cache.evictions flat) (Cksum.Cache.resets flat)
       (Cksum.Cache.entry_count flat));
  Array.iter Iobuf.Agg.free aggs;
  flat

let gen_table_op =
  QCheck.Gen.(
    frequency
      [
        (* Offsets and lengths from a few values each, so keys repeat
           and hits set reference bits. *)
        ( 8,
          map3
            (fun b o l -> T_slice (b, o, l))
            nat (oneofl [ 0; 1; 2; 100; 1001 ]) (oneofl [ 0; 1; 63; 500; 1447; max_int ]) );
        ( 2,
          map3
            (fun b n m -> T_packets (b, n, m))
            nat nat (oneofl [ 512; 700; 1448; 1460 ]) );
        (1, map (fun b -> T_overwrite b) nat);
        (1, map (fun b -> T_realloc b) nat);
      ])

(* With at least one entry allowed, the ring always queues every cached
   key, so the sweep evicts within one rotation: only [max_entries = 0]
   reaches the reset fallback. *)
let prop_flat_table_matches_reference =
  QCheck.Test.make ~name:"flat identity table matches Hashtbl+Queue reference"
    ~count:150
    QCheck.(
      pair
        (make ~print:string_of_int
           Gen.(frequency [ (1, return 0); (6, int_range 4 64) ]))
        (list_of_size Gen.(1 -- 150)
           (make ~print:show_table_op gen_table_op)))
    (fun (max_entries, ops) ->
      ignore (run_against_reference ~max_entries ops);
      true)

let test_flat_table_sweep_and_reset () =
  let ops = List.init 200 (fun i -> T_slice (i mod 4, i mod 3, i mod 5)) in
  let cycled = run_against_reference ~max_entries:4 ops in
  Alcotest.(check bool) "sweep evicted" true (Cksum.Cache.evictions cycled > 0);
  let reset = run_against_reference ~max_entries:0 ops in
  Alcotest.(check bool) "reset fallback ran" true (Cksum.Cache.resets reset > 0)

(* Thousands of mostly distinct keys against a bound above the initial
   slot count: the table doubles twice and evicts out of long runs. *)
let test_flat_table_growth () =
  let st = Random.State.make [| 14 |] in
  let ops =
    List.init 6000 (fun _ ->
        if Random.State.int st 2 = 0 then
          T_slice (Random.State.int st 2, Random.State.int st 8, Random.State.int st 8)
        else
          T_slice
            (Random.State.int st table_buffers,
             Random.State.int st 65536, Random.State.int st 200))
  in
  let flat = run_against_reference ~max_entries:1500 ops in
  Alcotest.(check int) "held its bound" 1500 (Cksum.Cache.entry_count flat)

let test_packet_sums_reference () =
  let _, d, pool = mk () in
  let cache = Cksum.Cache.create () in
  let parts = [ "abcde"; String.make 700 'x'; "12"; letters 900 3 ] in
  let flat = String.concat "" parts in
  let n = String.length flat in
  let aggs = List.map (Iobuf.Agg.of_string pool ~producer:d) parts in
  let a = Iobuf.Agg.concat_list aggs in
  let mtu = 512 in
  let dv = Cksum.Cache.packet_sums cache a ~mtu in
  Alcotest.(check int) "packet count" (((n - 1) / mtu) + 1)
    (Array.length dv.Cksum.dsums);
  Array.iteri
    (fun i c ->
      let off = i * mtu in
      let len = min mtu (n - off) in
      let expect = Cksum.finish (Cksum.of_string (String.sub flat off len)) in
      Alcotest.(check int) (Printf.sprintf "packet %d checksum" i) expect c)
    dv.Cksum.dsums;
  Alcotest.(check int) "cold scans every byte" n dv.Cksum.dscanned;
  (* Warm resend with the same segmentation: zero data touched. *)
  let dv2 = Cksum.Cache.packet_sums cache a ~mtu in
  Alcotest.(check int) "warm scans nothing" 0 dv2.Cksum.dscanned;
  Alcotest.(check bool) "same wire checksums" true
    (dv.Cksum.dsums = dv2.Cksum.dsums);
  List.iter Iobuf.Agg.free (a :: aggs)

let test_packet_sums_memo_partial_scan () =
  let _, d, pool = mk () in
  (* 999-byte leaves against a 700-byte MTU: leaves straddle packets at
     odd offsets, exercising subtraction-derived fragments with parity
     swaps. *)
  let parts = List.init 4 (fun i -> letters 999 (i * 11)) in
  let flat = String.concat "" parts in
  let n = String.length flat in
  let aggs = List.map (Iobuf.Agg.of_string pool ~producer:d) parts in
  let a = Iobuf.Agg.concat_list aggs in
  let mtu = 700 in
  let dv = Cksum.packet_sums_memo a ~mtu in
  Array.iteri
    (fun i c ->
      let off = i * mtu in
      let len = min mtu (n - off) in
      let expect = Cksum.finish (Cksum.of_string (String.sub flat off len)) in
      Alcotest.(check int) (Printf.sprintf "packet %d class" i)
        (norm_cksum expect) (norm_cksum c))
    dv.Cksum.dsums;
  Alcotest.(check int) "cold scans every byte once" n dv.Cksum.dscanned;
  (* Warm: whole-leaf memos cover single-packet leaves; straddling leaves
     re-scan all fragments but the one derived by subtraction. *)
  let dv2 = Cksum.packet_sums_memo a ~mtu in
  Alcotest.(check bool) "warm scans strictly less" true
    (dv2.Cksum.dscanned > 0 && dv2.Cksum.dscanned < n);
  Alcotest.(check bool) "same packet classes" true
    (Array.for_all2
       (fun x y -> norm_cksum x = norm_cksum y)
       dv.Cksum.dsums dv2.Cksum.dsums);
  List.iter Iobuf.Agg.free (a :: aggs)

let test_range_sum_algebra () =
  let _, d, pool = mk () in
  let cache = Cksum.Cache.create () in
  let s = letters 4096 5 in
  let a = Iobuf.Agg.of_string pool ~producer:d s in
  ignore (Cksum.Cache.agg_sum cache a);
  (* Large odd-offset fragment: the complements (3 + 93 bytes) are
     scanned and the fragment derived from the whole-leaf memo. *)
  let r = Cksum.Cache.range_sum cache a ~off:3 ~len:4000 in
  Alcotest.(check int) "derived range sum class"
    (norm_sum (Cksum.of_string (String.sub s 3 4000)))
    (norm_sum r.Cksum.sum);
  Alcotest.(check int) "scanned only the complements" 96 r.Cksum.scanned;
  (* The derived fragment gained buffer identity: warm repeat is free. *)
  let r2 = Cksum.Cache.range_sum cache a ~off:3 ~len:4000 in
  Alcotest.(check int) "warm repeat scan-free" 0 r2.Cksum.scanned;
  Alcotest.(check int) "stable value" (norm_sum r.Cksum.sum)
    (norm_sum r2.Cksum.sum);
  (* Small fragment: direct scan is cheaper than the complements. *)
  let r3 = Cksum.Cache.range_sum cache a ~off:10 ~len:100 in
  Alcotest.(check int) "small range scans itself" 100 r3.Cksum.scanned;
  Alcotest.(check int) "small range sum"
    (norm_sum (Cksum.of_string (String.sub s 10 100)))
    (norm_sum r3.Cksum.sum);
  Iobuf.Agg.free a

let test_link_wire_time () =
  let l = Link.create ~links:5 ~bits_per_sec:360e6 () in
  (* One 1500-byte packet on a 72 Mb/s interface: (1500+58)*8/72e6. *)
  Alcotest.(check (float 1e-9)) "one packet"
    (float_of_int ((1500 + 58) * 8) /. 72e6)
    (Link.wire_time l ~bytes:1500);
  Alcotest.(check (float 1e-12)) "zero bytes" 0.0 (Link.wire_time l ~bytes:0)

let test_link_parallelism () =
  let l = Link.create ~links:2 ~bits_per_sec:2e6 () in
  (* Each transmission of 125000 bytes at 1 Mb/s per link takes ~1s; two
     run in parallel, the third queues. *)
  let e = Engine.create () in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        Link.transmit l ~bytes:125_000 ;
        done_at := Engine.Proc.now () :: !done_at)
  done;
  Engine.run e;
  match List.rev !done_at with
  | [ a; b; c ] ->
    Alcotest.(check bool) "two in parallel" true (Float.abs (a -. b) < 1e-6);
    Alcotest.(check bool) "third queued" true (c > a +. 0.5)
  | _ -> Alcotest.fail "expected three completions"

let test_link_stats () =
  let l = Link.create ~bits_per_sec:360e6 () in
  let e = Engine.create () in
  Engine.spawn e (fun () -> Link.transmit l ~bytes:10_000);
  Engine.run e;
  Alcotest.(check int) "bytes recorded" 10_000 (Link.bytes_sent l);
  Alcotest.(check bool) "utilization positive" true
    (Link.utilization l ~now:(Engine.now e) > 0.0)

let test_packetfilter () =
  let _, d, pool = mk () in
  ignore d;
  let pf = Packetfilter.create () in
  Packetfilter.bind pf ~port:80 pool;
  (match Packetfilter.classify pf ~port:80 with
  | Packetfilter.Demuxed p ->
    Alcotest.(check string) "right pool" "net-test" (Iobuf.Pool.name p)
  | Packetfilter.Unmatched -> Alcotest.fail "should demux");
  (match Packetfilter.classify pf ~port:81 with
  | Packetfilter.Unmatched -> ()
  | Packetfilter.Demuxed _ -> Alcotest.fail "should not demux");
  Alcotest.(check int) "lookups" 2 (Packetfilter.lookups pf);
  Alcotest.(check int) "matched" 1 (Packetfilter.matched pf);
  Packetfilter.unbind pf ~port:80;
  Alcotest.(check int) "flows" 0 (Packetfilter.flow_count pf)

let test_mbuf_zero_copy_wiring () =
  let _, d, pool = mk () in
  let a = Iobuf.Agg.of_string pool ~producer:d (String.make 10_000 'm') in
  let chain = Mbuf.of_agg_zero_copy a in
  Alcotest.(check int) "payload" 10_000 (Mbuf.length chain);
  Alcotest.(check bool) "wired is only headers" true
    (Mbuf.wired_bytes chain < 1024);
  Mbuf.free chain

let test_mbuf_copied_wiring () =
  let sys, d, pool = mk () in
  let a = Iobuf.Agg.of_string pool ~producer:d (String.make 10_000 'm') in
  let before = Iolite_obs.Metrics.get (Iosys.metrics sys) "bytes.copied" in
  let chain = Mbuf.of_agg_copied sys a in
  let after = Iolite_obs.Metrics.get (Iosys.metrics sys) "bytes.copied" in
  Alcotest.(check int) "copy charged" 10_000 (after - before);
  Alcotest.(check bool) "wired includes payload" true
    (Mbuf.wired_bytes chain > 10_000);
  Alcotest.(check bool) "cluster chain" true (Mbuf.mbuf_count chain > 1);
  Mbuf.free chain;
  Iobuf.Agg.free a

let test_mbuf_carries_packet_cksums () =
  let _, d, pool = mk () in
  let a = Iobuf.Agg.of_string pool ~producer:d (String.make 4000 'p') in
  let sums = [| 0x1234; 0x5678; 0x9abc |] in
  let chain = Mbuf.of_agg_zero_copy ~pkt_cksums:sums a in
  (match Mbuf.packet_cksums chain with
  | Some got -> Alcotest.(check bool) "sums attached" true (got == sums)
  | None -> Alcotest.fail "expected packet checksums");
  let b = Iobuf.Agg.of_string pool ~producer:d "plain" in
  let plain = Mbuf.of_agg_zero_copy b in
  Alcotest.(check bool) "absent by default" true
    (Mbuf.packet_cksums plain = None);
  Mbuf.free chain;
  Mbuf.free plain

let test_mbuf_inline_small () =
  let chain = Mbuf.of_string "tiny" in
  Alcotest.(check int) "one mbuf" 1 (Mbuf.mbuf_count chain);
  Alcotest.(check int) "payload" 4 (Mbuf.length chain);
  Mbuf.free chain

let test_mbuf_zero_copy_owns_agg () =
  let _, d, pool = mk () in
  let a = Iobuf.Agg.of_string pool ~producer:d "payload" in
  let chain = Mbuf.of_agg_zero_copy a in
  Mbuf.free chain;
  (* The chain owned the aggregate: it must now be freed. *)
  Alcotest.check_raises "agg freed with chain" Iobuf.Agg.Use_after_free
    (fun () -> ignore (Iobuf.Agg.length a))

let suites =
  [
    ( "net.cksum",
      [
        Alcotest.test_case "known vector" `Quick test_cksum_known_vector;
        Alcotest.test_case "odd length" `Quick test_cksum_odd_length;
        Alcotest.test_case "word scan matches byte scan" `Quick
          test_cksum_word_matches_bytes;
        Alcotest.test_case "agg matches flat" `Quick test_cksum_agg_matches_flat;
        Alcotest.test_case "odd slice boundary" `Quick test_cksum_agg_odd_boundary;
        QCheck_alcotest.to_alcotest prop_cksum_split_invariant;
      ] );
    ( "net.cksum_cache",
      [
        Alcotest.test_case "hit" `Quick test_cksum_cache_hit;
        Alcotest.test_case "generation invalidation" `Quick
          test_cksum_cache_generation_invalidation;
        Alcotest.test_case "disabled" `Quick test_cksum_cache_disabled;
        Alcotest.test_case "second-chance eviction" `Quick
          test_second_chance_eviction;
        QCheck_alcotest.to_alcotest prop_flat_table_matches_reference;
        Alcotest.test_case "flat table sweep and reset" `Quick
          test_flat_table_sweep_and_reset;
        Alcotest.test_case "flat table growth" `Quick test_flat_table_growth;
      ] );
    ( "net.cksum_memo",
      [
        QCheck_alcotest.to_alcotest prop_cksum_compositional;
        Alcotest.test_case "overwrite invalidation" `Quick
          test_memo_overwrite_invalidation;
        Alcotest.test_case "shared body warm fold" `Quick
          test_of_agg_memo_shared_body;
        Alcotest.test_case "packet sums match reference" `Quick
          test_packet_sums_reference;
        Alcotest.test_case "identity-less packet sums" `Quick
          test_packet_sums_memo_partial_scan;
        Alcotest.test_case "range sum by subtraction" `Quick
          test_range_sum_algebra;
      ] );
    ( "net.link",
      [
        Alcotest.test_case "wire time" `Quick test_link_wire_time;
        Alcotest.test_case "parallel interfaces" `Quick test_link_parallelism;
        Alcotest.test_case "stats" `Quick test_link_stats;
      ] );
    ( "net.packetfilter",
      [ Alcotest.test_case "classify" `Quick test_packetfilter ] );
    ( "net.mbuf",
      [
        Alcotest.test_case "zero-copy wiring" `Quick test_mbuf_zero_copy_wiring;
        Alcotest.test_case "copied wiring" `Quick test_mbuf_copied_wiring;
        Alcotest.test_case "inline small" `Quick test_mbuf_inline_small;
        Alcotest.test_case "carries packet checksums" `Quick
          test_mbuf_carries_packet_cksums;
        Alcotest.test_case "ownership" `Quick test_mbuf_zero_copy_owns_agg;
      ] );
  ]
