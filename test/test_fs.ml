open Iolite_fs
module Engine = Iolite_sim.Engine
module Proc = Engine.Proc

let run_sim f =
  let e = Engine.create () in
  Engine.spawn e f;
  Engine.run e;
  Engine.now e

(* A serial request stream charges the closed-form cost at any ring
   depth: each request is alone in its batch. *)
let test_disk_latency_model () =
  List.iter
    (fun qdepth ->
      let d =
        Disk.create ~qdepth ~positioning_s:0.008
          ~sequential_positioning_s:0.0005 ~bytes_per_sec:12e6 ()
      in
      let elapsed =
        run_sim (fun () ->
            Disk.read d ~file:1 ~off:0 ~bytes:120_000;
            (* Sequential follow-up is cheap. *)
            Disk.read d ~file:1 ~off:120_000 ~bytes:120_000;
            (* Different file seeks again. *)
            Disk.read d ~file:2 ~off:0 ~bytes:0)
      in
      let expect = 0.008 +. 0.01 +. 0.0005 +. 0.01 +. 0.008 in
      Alcotest.(check (float 1e-6)) "latency" expect elapsed;
      Alcotest.(check int) "reads counted" 3 (Disk.reads d);
      Alcotest.(check int) "bytes counted" 240_000 (Disk.bytes_read d))
    [ 1; 64 ]

(* A one-slot ring serves one request per batch, in admission order. *)
let test_disk_fifo_queueing () =
  let d = Disk.create ~qdepth:1 ~positioning_s:0.01 ~bytes_per_sec:1e9 () in
  let order = ref [] in
  let e = Engine.create () in
  for i = 1 to 3 do
    Engine.spawn e (fun () ->
        Disk.read d ~file:i ~off:0 ~bytes:1;
        order := i :: !order)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo service" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check (float 1e-6)) "serialized" 0.03 (Engine.now e)

let test_disk_write_accounting () =
  let d = Disk.create () in
  ignore
    (run_sim (fun () -> Disk.write d ~file:1 ~off:0 ~bytes:5000));
  Alcotest.(check int) "writes" 1 (Disk.writes d);
  Alcotest.(check int) "bytes written" 5000 (Disk.bytes_written d);
  Alcotest.(check bool) "busy time positive" true (Disk.busy_time d > 0.0)

(* Contiguous requests from different fibers, submitted interleaved:
   the elevator sorts them back into file order inside the batch so the
   later half rides the sequential discount. A one-slot ring keeps
   arrival order and pays full positioning for both. *)
let test_disk_elevator_discount () =
  let run qdepth =
    let d =
      Disk.create ~qdepth ~positioning_s:0.01
        ~sequential_positioning_s:0.001 ~bytes_per_sec:1e9 ()
    in
    let e = Engine.create () in
    (* Arrival order: second half first, then an unrelated file, then
       the first half. *)
    Engine.spawn e (fun () -> Disk.read d ~file:1 ~off:1000 ~bytes:1000);
    Engine.spawn e (fun () -> Disk.read d ~file:9 ~off:0 ~bytes:1000);
    Engine.spawn e (fun () -> Disk.read d ~file:1 ~off:0 ~bytes:1000);
    Engine.run e;
    Engine.now e
  in
  let fifo = run 1 and queued = run 64 in
  (* Elevator order is 1:0, 1:1000 (discounted), 9:0. *)
  Alcotest.(check (float 1e-9)) "qdepth 1: three full seeks" 0.030003 fifo;
  Alcotest.(check (float 1e-9)) "queued: one discounted" 0.021003 queued

(* An async submission overlaps the submitter's own compute: total
   elapsed is max(cpu, disk), not the sum. *)
let test_disk_async_overlap () =
  let d = Disk.create ~positioning_s:0.01 ~bytes_per_sec:1e9 () in
  let completed_at = ref nan in
  let elapsed =
    run_sim (fun () ->
        Disk.submit d ~op:`Read ~file:1 ~off:0 ~bytes:1000 (fun () ->
            completed_at := Proc.now ());
        (* Compute while the disk positions and transfers. *)
        Proc.sleep 0.05)
  in
  Alcotest.(check (float 1e-9)) "disk done during compute" 0.010001
    !completed_at;
  Alcotest.(check (float 1e-9)) "total is max, not sum" 0.05 elapsed;
  Alcotest.(check int) "read accounted" 1 (Disk.reads d)

(* qcheck oracle: the 24-slot elevator services exactly the multiset of
   requests a one-slot FIFO ring does (same op/byte totals, every
   completion fires) and never starves — with at most [qdepth] requests
   outstanding, a request admitted while batch [k] is in flight
   completes by batch [k+1]. *)
let test_disk_elevator_oracle =
  let gen =
    QCheck.Gen.(list_size (1 -- 24) (triple (0 -- 4) (0 -- 15) (1 -- 5000)))
  in
  QCheck.Test.make ~count:60 ~name:"elevator services FIFO's multiset"
    (QCheck.make gen) (fun reqs ->
      let serve qdepth =
        let d =
          Disk.create ~qdepth ~positioning_s:0.01
            ~sequential_positioning_s:0.001 ~bytes_per_sec:1e6 ()
        in
        let e = Engine.create () in
        let done_ = ref 0 in
        List.iteri
          (fun i (file, block, bytes) ->
            Engine.spawn e (fun () ->
                (* Stagger some submissions into later batches. *)
                if i mod 3 = 2 then Proc.sleep 0.005;
                let submit_batch = Disk.batches d in
                let op = if i mod 4 = 0 then `Write else `Read in
                Disk.submit d ~op ~file ~off:(block * 4096) ~bytes (fun () ->
                    incr done_;
                    if qdepth > 1 then
                      let turn = Disk.batches d - submit_batch in
                      if turn > 1 then
                        Alcotest.failf "starved: waited %d batch turns" turn)))
          reqs;
        Engine.run e;
        (!done_, Disk.reads d, Disk.writes d, Disk.bytes_read d,
         Disk.bytes_written d)
      in
      serve 24 = serve 1)

let test_filestore_registration () =
  let fs = Filestore.create () in
  let a = Filestore.add fs ~name:"/a" ~size:100 in
  let b = Filestore.add fs ~name:"/b" ~size:2000 in
  Alcotest.(check int) "count" 2 (Filestore.file_count fs);
  Alcotest.(check int) "total" 2100 (Filestore.total_bytes fs);
  Alcotest.(check (option int)) "lookup a" (Some a) (Filestore.lookup fs "/a");
  Alcotest.(check (option int)) "lookup b" (Some b) (Filestore.lookup fs "/b");
  Alcotest.(check (option int)) "lookup missing" None (Filestore.lookup fs "/c");
  Alcotest.(check string) "name" "/b" (Filestore.name fs b);
  Alcotest.(check int) "size" 2000 (Filestore.size fs b);
  Alcotest.(check bool) "metadata grows" true (Filestore.metadata_bytes fs > 0)

let test_filestore_duplicate_rejected () =
  let fs = Filestore.create () in
  ignore (Filestore.add fs ~name:"/a" ~size:1);
  Alcotest.(check bool) "duplicate" true
    (match Filestore.add fs ~name:"/a" ~size:2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_filestore_unknown_id () =
  let fs = Filestore.create () in
  Alcotest.check_raises "unknown id" Not_found (fun () ->
      ignore (Filestore.size fs 42))

let test_content_deterministic () =
  for file = 0 to 3 do
    for off = 0 to 100 do
      Alcotest.(check char) "stable content"
        (Filestore.content_byte ~file ~off)
        (Filestore.content_byte ~file ~off)
    done
  done;
  (* Different files differ somewhere. *)
  let differs = ref false in
  for off = 0 to 63 do
    if Filestore.content_byte ~file:1 ~off <> Filestore.content_byte ~file:2 ~off
    then differs := true
  done;
  Alcotest.(check bool) "files differ" true !differs

let test_content_has_newlines () =
  let newlines = ref 0 in
  for off = 0 to 9999 do
    if Filestore.content_byte ~file:5 ~off = '\n' then incr newlines
  done;
  (* Roughly 1/96 of bytes. *)
  Alcotest.(check bool) "newline density plausible" true
    (!newlines > 40 && !newlines < 250)

let test_fill_buffer_and_check () =
  let sys = Iolite_core.Iosys.create () in
  let d = Iolite_core.Iosys.new_domain sys ~name:"d" in
  let pool =
    Iolite_core.Iobuf.Pool.create sys ~name:"t"
      ~acl:(Iolite_mem.Vm.Only (Iolite_mem.Pdomain.Set.singleton d))
  in
  let fs = Filestore.create () in
  let file = Filestore.add fs ~name:"/x" ~size:10_000 in
  let b = Iolite_core.Iobuf.Pool.alloc pool ~producer:d 512 in
  Filestore.fill_buffer fs b ~file ~off:100;
  Iolite_core.Iobuf.Buffer.seal b;
  let agg = Iolite_core.Iobuf.Agg.of_buffer_owned b in
  let s = Iolite_core.Iobuf.Agg.to_string sys agg in
  Alcotest.(check bool) "contents match generator" true
    (Filestore.check_string ~file ~off:100 s);
  Alcotest.(check bool) "offset matters" false
    (Filestore.check_string ~file ~off:0 s);
  Iolite_core.Iobuf.Agg.free agg

(* A literal copy of the original one-byte-at-a-time content formula:
   the bulk generator must reproduce it exactly. *)
let formula_byte ~file ~off =
  let z = (file * 0x9E3779B9) lxor (off * 0x85EBCA6B) in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 in
  let z = z lxor (z lsr 16) in
  let v = abs z mod 96 in
  if v = 95 then '\n' else Char.chr (32 + v)

let test_bulk_matches_formula () =
  let rng = Random.State.make [| 0xF17E |] in
  (* The long fills, over 16 KB, are generated in blocks claimed by two
     domains; fewer draws keep the case short. *)
  List.iter
    (fun (draws, lens) ->
      for _ = 1 to draws do
        let file = Random.State.bits rng in
        (* Offsets up to 2^40, unaligned in general. *)
        let off = (Random.State.bits rng lsl 10) lor Random.State.int rng 1024 in
        List.iter
          (fun len ->
            let want = String.init len (fun i -> formula_byte ~file ~off:(off + i)) in
            let name = Printf.sprintf "file %d off %d len %d" file off len in
            Alcotest.(check string) name want (Filestore.content ~file ~off ~len);
            (* The blit writes exactly its range. *)
            let dst = Bytes.make (len + 6) '#' in
            Filestore.blit_content ~file ~off dst ~dst_off:3 ~len;
            Alcotest.(check string) name ("###" ^ want ^ "###") (Bytes.to_string dst);
            if len > 0 then
              Alcotest.(check char) name want.[len - 1]
                (Filestore.content_byte ~file ~off:(off + len - 1)))
          lens
      done)
    [
      (200, [ 0; 1; 2; 3; 5; 7; 63; 65; 4095; 4097 ]);
      (10, [ 16_383; 16_384; 16_385; 65_536; 65_537; 131_075 ]);
    ];
  Alcotest.check_raises "range checked once, up front"
    (Invalid_argument "Filestore.blit_content: range") (fun () ->
      Filestore.blit_content ~file:1 ~off:0 (Bytes.create 8) ~dst_off:4 ~len:5)

let expected ~file ~off ~len =
  String.init len (fun i -> formula_byte ~file ~off:(off + i))

let part = Iolite_core.Iobuf.Pool.max_alloc

(* Takes the parts of a prefetch in the given order, each into its own
   buffer between guard bytes, calling [between] before each take.
   Returns the range's bytes as the parts delivered them; a part whose
   guard bytes moved reads as '!', one not taken as '?'. *)
let take_parts ?(between = ignore) pf ~len order =
  let out = Bytes.make len '?' in
  List.iter
    (fun p ->
      between p;
      let pos = p * part in
      let n = min part (len - pos) in
      let dst = Bytes.make (n + 6) '#' in
      Filestore.take pf ~pos dst ~dst_off:3 ~len:n;
      if Bytes.sub_string dst 0 3 <> "###" || Bytes.sub_string dst (n + 3) 3 <> "###"
      then Bytes.fill out pos n '!'
      else Bytes.blit dst 3 out pos n)
    order;
  Bytes.to_string out

let shuffle rng l =
  List.map snd
    (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))

(* A prefetched range, its parts taken in shuffled order with
   synchronous fills in between, is byte for byte the formula's. The
   lengths straddle one block (16 KB) and one part (64 KB); misuse of
   [take] is refused. *)
let test_prefetch_matches_formula () =
  let rng = Random.State.make [| 0x5EED |] in
  List.iter
    (fun len ->
      for _ = 1 to 3 do
        let file = Random.State.bits rng in
        let off = (Random.State.bits rng lsl 10) lor Random.State.int rng 1024 in
        let name = Printf.sprintf "file %d off %d len %d" file off len in
        let pf = Filestore.prefetch ~file ~off ~len in
        let parts = List.init ((len + part - 1) / part) Fun.id in
        (* A synchronous fill of another range between the takes. *)
        let interleave p =
          let flen = 16_385 + (p * 4_099) in
          let dst = Bytes.make (flen + 6) '#' in
          Filestore.blit_content ~file:(file + 1) ~off dst ~dst_off:3 ~len:flen;
          Alcotest.(check string) (name ^ " sync fill")
            ("###" ^ expected ~file:(file + 1) ~off ~len:flen ^ "###")
            (Bytes.to_string dst)
        in
        let got = take_parts ~between:interleave pf ~len (shuffle rng parts) in
        Alcotest.(check string) name (expected ~file ~off ~len) got;
        Alcotest.check_raises (name ^ " past the end")
          (Invalid_argument "Filestore.take: range") (fun () ->
            Filestore.take pf ~pos:(List.length parts * part) (Bytes.create 1)
              ~dst_off:0 ~len:1);
        if len > 0 then begin
          Alcotest.check_raises (name ^ " taken twice")
            (Invalid_argument "Filestore.take: part taken twice") (fun () ->
              Filestore.take pf ~pos:0 (Bytes.create part) ~dst_off:0
                ~len:(min part len));
          Alcotest.check_raises (name ^ " wrong length")
            (Invalid_argument "Filestore.take: range") (fun () ->
              Filestore.take pf ~pos:0 (Bytes.create (part + 1)) ~dst_off:0
                ~len:(min part len + 1))
        end
      done)
    [ 0; 1; 16_383; 16_384; 65_537; 1_048_583 ];
  Alcotest.check_raises "unaligned part"
    (Invalid_argument "Filestore.take: range") (fun () ->
      Filestore.take
        (Filestore.prefetch ~file:1 ~off:0 ~len:(2 * part))
        ~pos:4096 (Bytes.create part) ~dst_off:0 ~len:part)

(* Prefetches that are never taken must not lend their staging blocks to
   later jobs while the helper may still write them. *)
let test_abandoned_prefetch () =
  for i = 0 to 7 do
    ignore (Filestore.prefetch ~file:(1_000 + i) ~off:(i * 777) ~len:(200_000 + i))
  done;
  let wrong = ref [] in
  for i = 0 to 99 do
    let file = 2_000 + i and off = i * 4_099 and len = 65_536 + (i * 97) in
    let want = expected ~file ~off ~len in
    let dst = Bytes.create len in
    Filestore.blit_content ~file ~off dst ~dst_off:0 ~len;
    if Bytes.to_string dst <> want then wrong := Printf.sprintf "sync %d" i :: !wrong;
    let pf = Filestore.prefetch ~file ~off ~len in
    let parts = List.init ((len + part - 1) / part) Fun.id in
    if take_parts pf ~len parts <> want then
      wrong := Printf.sprintf "prefetch %d" i :: !wrong
  done;
  Alcotest.(check (list string)) "fills that did not match" [] !wrong

(* Three domains fill 64 KB buffers at once, each for its own files. The
   two spawned ones alternate synchronous fills with prefetches, one
   taken at once and one a fill later, so jobs of all three queue for
   the helper together. Every buffer must hold exactly its own file's
   bytes. *)
let test_concurrent_callers () =
  let len = 65_536 and fills = 100 in
  let off i = i * 4099 in
  let want =
    Array.init (3 * fills) (fun i -> Filestore.content ~file:i ~off:(off i) ~len)
  in
  let caller k () =
    let dst = Bytes.create len in
    let wrong = ref 0 in
    let pending = ref None in
    let take_pending () =
      Option.iter
        (fun (file, pf) ->
          if take_parts pf ~len [ 0 ] <> want.(file) then incr wrong)
        !pending;
      pending := None
    in
    for j = 0 to fills - 1 do
      let file = (k * fills) + j in
      if k = 0 || j mod 3 = 0 then begin
        Filestore.blit_content ~file ~off:(off file) dst ~dst_off:0 ~len;
        if Bytes.to_string dst <> want.(file) then incr wrong
      end
      else if j mod 3 = 1 then begin
        let pf = Filestore.prefetch ~file ~off:(off file) ~len in
        if take_parts pf ~len [ 0 ] <> want.(file) then incr wrong
      end
      else begin
        take_pending ();
        pending := Some (file, Filestore.prefetch ~file ~off:(off file) ~len)
      end
    done;
    take_pending ();
    !wrong
  in
  let others = List.map (fun k -> Domain.spawn (caller k)) [ 1; 2 ] in
  let mine = caller 0 () in
  Alcotest.(check (list int)) "wrong fills per caller" [ 0; 0; 0 ]
    (mine :: List.map Domain.join others)

let test_check_string_blocks () =
  let file = 11 and off = 4093 in
  let s = Filestore.content ~file ~off ~len:10_000 in
  Alcotest.(check bool) "whole range" true (Filestore.check_string ~file ~off s);
  Alcotest.(check bool) "empty" true (Filestore.check_string ~file ~off "");
  Alcotest.(check bool) "other file" false (Filestore.check_string ~file:12 ~off s);
  Alcotest.(check bool) "shifted" false (Filestore.check_string ~file ~off:(off + 1) s);
  (* A single wrong byte in the first, at either side of a block
     boundary, or in the last position is caught. *)
  List.iter
    (fun pos ->
      let b = Bytes.of_string s in
      Bytes.set b pos (if s.[pos] = 'x' then 'y' else 'x');
      Alcotest.(check bool) (Printf.sprintf "flipped byte %d" pos) false
        (Filestore.check_string ~file ~off (Bytes.to_string b)))
    [ 0; 4095; 4096; 8191; 9_999 ]

(* Digests of content ranges and their checksums from every start offset
   0–7, recorded from the byte-at-a-time generator and checksum scan. *)
let content_goldens =
  [
    (0, 0, 4096, "4d9c5930b38cef7104fa691bf1930270",
     [ 0xdfc4; 0xc4bf; 0xbf9b; 0x9b4d; 0x4d4c; 0x4c18; 0x17e9; 0xe8f7 ]);
    (7, 12345, 1000, "7de66e27043aee03996360787943d831",
     [ 0x0613; 0x12bb; 0xbab1; 0xb192; 0x923a; 0x3a59; 0x58eb; 0xeae9 ]);
    (123456, 2424835, 65537, "e1ca56eab764582e42e5eae867372371",
     [ 0x34e6; 0xe601; 0x0168; 0x678f; 0x8f20; 0x2040; 0x3fee; 0xee15 ]);
    (3, 1, 3, "49ae73b5e9655d9eaf92a4d0787c9c5f", [ 0x8a72; 0x7255; 0x5500; 0x0000 ]);
    (99, 1 lsl 30, 777, "817e6533005cfe1a4606f1b9cc0a900e",
     [ 0x408b; 0x8afa; 0xfa23; 0x2382; 0x8201; 0x0178; 0x7786; 0x8651 ]);
  ]

let test_content_goldens () =
  List.iter
    (fun (file, off, len, digest, sums) ->
      let s = Filestore.content ~file ~off ~len in
      let name = Printf.sprintf "file %d off %d len %d" file off len in
      Alcotest.(check string) name digest (Digest.to_hex (Digest.string s));
      List.iteri
        (fun o sum ->
          Alcotest.(check int) (Printf.sprintf "%s cksum from %d" name o) sum
            (Iolite_net.Cksum.of_bytes (Bytes.of_string s) ~off:o ~len:(len - o)))
        sums)
    content_goldens

let test_iter () =
  let fs = Filestore.create () in
  ignore (Filestore.add fs ~name:"/a" ~size:10);
  ignore (Filestore.add fs ~name:"/b" ~size:20);
  let seen = ref [] in
  Filestore.iter fs (fun id ~name ~size -> seen := (id, name, size) :: !seen);
  Alcotest.(check int) "visited all" 2 (List.length !seen)

let suites =
  [
    ( "fs.disk",
      [
        Alcotest.test_case "latency model" `Quick test_disk_latency_model;
        Alcotest.test_case "fifo queueing" `Quick test_disk_fifo_queueing;
        Alcotest.test_case "write accounting" `Quick test_disk_write_accounting;
        Alcotest.test_case "elevator discount" `Quick test_disk_elevator_discount;
        Alcotest.test_case "async overlap" `Quick test_disk_async_overlap;
        QCheck_alcotest.to_alcotest test_disk_elevator_oracle;
      ] );
    ( "fs.filestore",
      [
        Alcotest.test_case "registration" `Quick test_filestore_registration;
        Alcotest.test_case "duplicate rejected" `Quick test_filestore_duplicate_rejected;
        Alcotest.test_case "unknown id" `Quick test_filestore_unknown_id;
        Alcotest.test_case "deterministic content" `Quick test_content_deterministic;
        Alcotest.test_case "newline density" `Quick test_content_has_newlines;
        Alcotest.test_case "fill buffer" `Quick test_fill_buffer_and_check;
        Alcotest.test_case "bulk matches formula" `Quick test_bulk_matches_formula;
        Alcotest.test_case "concurrent callers" `Quick test_concurrent_callers;
        Alcotest.test_case "prefetch matches formula" `Quick
          test_prefetch_matches_formula;
        Alcotest.test_case "abandoned prefetch" `Quick test_abandoned_prefetch;
        Alcotest.test_case "check_string by blocks" `Quick test_check_string_blocks;
        Alcotest.test_case "content goldens" `Quick test_content_goldens;
        Alcotest.test_case "iter" `Quick test_iter;
      ] );
  ]
