open Iolite_util

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42L in
  let b = Rng.split a in
  let xa = Rng.int64 a and xb = Rng.int64 b in
  Alcotest.(check bool) "streams diverge" true (xa <> xb)

let test_rng_int_range () =
  let r = Rng.create 7L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let r = Rng.create 1L in
  Alcotest.check_raises "nonpositive bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create 9L in
  for _ = 1 to 10_000 do
    let v = Rng.float r 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_uniformity () =
  let r = Rng.create 11L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (frac > 0.08 && frac < 0.12))
    buckets

let test_exponential_mean () =
  let r = Rng.create 3L in
  let acc = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r ~mean:2.0
  done;
  let m = !acc /. float_of_int n in
  Alcotest.(check bool) "mean close to 2" true (Float.abs (m -. 2.0) < 0.1)

let test_shuffle_permutation () =
  let r = Rng.create 5L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_zipf_bounds () =
  let z = Zipf.create ~n:100 ~alpha:1.0 in
  let r = Rng.create 2L in
  for _ = 1 to 10_000 do
    let v = Zipf.sample z r in
    Alcotest.(check bool) "rank in range" true (v >= 0 && v < 100)
  done

let test_zipf_concentration () =
  (* With alpha=1, rank 0 should be about 1/H(100) ~ 19% of the mass, and
     sampling should reflect it. *)
  let z = Zipf.create ~n:100 ~alpha:1.0 in
  let r = Rng.create 13L in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Zipf.sample z r = 0 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  let expected = Zipf.mass z 0 in
  Alcotest.(check bool) "top rank frequency matches mass" true
    (Float.abs (frac -. expected) < 0.02)

let test_zipf_mass_sums_to_one () =
  let z = Zipf.create ~n:500 ~alpha:0.8 in
  let total = ref 0.0 in
  for i = 0 to 499 do
    total := !total +. Zipf.mass z i
  done;
  Alcotest.(check bool) "mass sums to 1" true (Float.abs (!total -. 1.0) < 1e-9)

let test_zipf_monotone () =
  let z = Zipf.create ~n:50 ~alpha:1.2 in
  for i = 1 to 49 do
    Alcotest.(check bool) "mass decreasing in rank" true
      (Zipf.mass z (i - 1) >= Zipf.mass z i)
  done

let test_zipf_invalid () =
  Alcotest.check_raises "n must be positive"
    (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Zipf.create ~n:0 ~alpha:1.0))

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check int) "count" 5 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Stats.p50

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

let test_table_render () =
  let s =
    Table.render ~header:[ "name"; "mbps" ] ~rows:[ [ "flash"; "254" ]; [ "apache"; "180" ] ]
  in
  Alcotest.(check bool) "contains header" true (contains s "name");
  Alcotest.(check bool) "contains row" true (contains s "apache");
  Alcotest.(check bool) "aligned columns" true (contains s "| flash ")

let test_fmt_bytes () =
  Alcotest.(check string) "bytes" "500B" (Table.fmt_bytes 500);
  Alcotest.(check string) "kb" "64KB" (Table.fmt_bytes 65536);
  Alcotest.(check string) "mb" "2MB" (Table.fmt_bytes (2 * 1024 * 1024))

let test_fmt_time () =
  Alcotest.(check string) "us" "50.0us" (Table.fmt_time_s 5e-5);
  Alcotest.(check string) "ms" "23.7ms" (Table.fmt_time_s 0.0237);
  Alcotest.(check string) "s" "4.22s" (Table.fmt_time_s 4.22)

module Hist = Iolite_util.Stats.Hist

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_hist_edge_ranks () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 0.003; 0.04; 0.5; 6.0; 70.0 ];
  (* q=0 and q=1 are exact (min/max ride alongside the buckets). *)
  Alcotest.(check (float 0.0)) "q=0 is exact min" 0.003 (Hist.percentile h 0.0);
  Alcotest.(check (float 0.0)) "q=1 is exact max" 70.0 (Hist.percentile h 1.0);
  (* Interior ranks are quantized but must stay inside the observed
     range and be monotone in q. *)
  let p50 = Hist.percentile h 0.5 and p90 = Hist.percentile h 0.9 in
  Alcotest.(check bool) "interior in range" true
    (p50 >= 0.003 && p50 <= 70.0 && p90 >= 0.003 && p90 <= 70.0);
  Alcotest.(check bool) "monotone in q" true (p50 <= p90)

let test_hist_single_element () =
  let h = Hist.create () in
  Hist.add h 0.125;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%g collapses to the element" q)
        0.125 (Hist.percentile h q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  let s = Hist.summary h in
  Alcotest.(check int) "count" 1 s.Iolite_util.Stats.count;
  Alcotest.(check (float 0.0)) "mean exact" 0.125 s.Iolite_util.Stats.mean;
  Alcotest.(check (float 0.0)) "stddev zero" 0.0 s.Iolite_util.Stats.stddev

let test_hist_invalid () =
  let h = Hist.create () in
  Alcotest.(check bool) "empty percentile raises" true
    (raises_invalid (fun () -> Hist.percentile h 0.5));
  Alcotest.(check bool) "empty summary raises" true
    (raises_invalid (fun () -> Hist.summary h));
  Hist.add h 1.0;
  Alcotest.(check bool) "q < 0 raises" true
    (raises_invalid (fun () -> Hist.percentile h (-0.1)));
  Alcotest.(check bool) "q > 1 raises" true
    (raises_invalid (fun () -> Hist.percentile h 1.1))

let test_hist_resolution () =
  (* Relative quantization error is bounded by the bucket ratio
     (default 20 buckets/decade ~ 12%), independent of magnitude. *)
  let h = Hist.create () in
  for i = 1 to 10_000 do
    Hist.add h (float_of_int i /. 1000.0)
  done;
  List.iter
    (fun (q, exact) ->
      let est = Hist.percentile h q in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within bucket resolution" (q *. 100.))
        true
        (Float.abs (est -. exact) /. exact < 0.13))
    [ (0.5, 5.0); (0.9, 9.0); (0.99, 9.9) ]

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
        Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
      ] );
    ( "util.zipf",
      [
        Alcotest.test_case "bounds" `Quick test_zipf_bounds;
        Alcotest.test_case "concentration" `Quick test_zipf_concentration;
        Alcotest.test_case "mass sums to one" `Quick test_zipf_mass_sums_to_one;
        Alcotest.test_case "monotone" `Quick test_zipf_monotone;
        Alcotest.test_case "invalid" `Quick test_zipf_invalid;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "summary" `Quick test_stats_summary;
      ] );
    ( "util.hist",
      [
        Alcotest.test_case "percentile edge ranks" `Quick test_hist_edge_ranks;
        Alcotest.test_case "single element" `Quick test_hist_single_element;
        Alcotest.test_case "invalid inputs" `Quick test_hist_invalid;
        Alcotest.test_case "bounded resolution" `Quick test_hist_resolution;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "fmt bytes" `Quick test_fmt_bytes;
        Alcotest.test_case "fmt time" `Quick test_fmt_time;
      ] );
  ]
