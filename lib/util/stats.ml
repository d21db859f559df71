type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let stddev a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun s x -> s +. ((x -. m) *. (x -. m))) 0.0 a in
    sqrt (acc /. float_of_int (n - 1))
  end

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let summarize a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summarize: empty array";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  {
    count = n;
    mean = mean a;
    stddev = stddev a;
    min = sorted.(0);
    max = sorted.(n - 1);
    p50 = percentile sorted 0.5;
    p90 = percentile sorted 0.9;
    p99 = percentile sorted 0.99;
  }

module Hist = struct
  (* Log-bucketed histogram: bucket 0 holds values <= [min_value]; bucket
     [i >= 1] covers (min_value * base^(i-1), min_value * base^i] with
     [base = 10^(1/buckets_per_decade)]. Exact count/sum/min/max are kept
     alongside the buckets, so mean and the q=0/q=1 ranks are exact and
     only interior percentiles are quantized to bucket resolution. *)
  let min_value = 1e-9
  let buckets_per_decade = 20

  type t = {
    mutable counts : int array;
    mutable count : int;
    mutable sum : float;
    mutable sumsq : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let create () =
    {
      counts = Array.make 16 0;
      count = 0;
      sum = 0.0;
      sumsq = 0.0;
      vmin = Float.infinity;
      vmax = Float.neg_infinity;
    }

  let bucket_index v =
    if v <= min_value then 0
    else
      1
      + int_of_float
          (Float.floor
             (Float.log10 (v /. min_value) *. float_of_int buckets_per_decade))

  (* Lower edge of bucket [i]; bucket 0 starts at 0. *)
  let bucket_lo i =
    if i = 0 then 0.0
    else
      min_value
      *. Float.pow 10.0 (float_of_int (i - 1) /. float_of_int buckets_per_decade)

  let bucket_hi i =
    if i = 0 then min_value
    else
      min_value *. Float.pow 10.0 (float_of_int i /. float_of_int buckets_per_decade)

  let ensure_capacity t i =
    if i >= Array.length t.counts then begin
      let counts = Array.make (max (i + 1) (2 * Array.length t.counts)) 0 in
      Array.blit t.counts 0 counts 0 (Array.length t.counts);
      t.counts <- counts
    end

  let add t v =
    let i = bucket_index v in
    ensure_capacity t i;
    t.counts.(i) <- t.counts.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    t.sumsq <- t.sumsq +. (v *. v);
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count

  let stddev t =
    if t.count < 2 then 0.0
    else begin
      let n = float_of_int t.count in
      let var = (t.sumsq -. (t.sum *. t.sum /. n)) /. (n -. 1.0) in
      sqrt (Float.max 0.0 var)
    end

  let percentile t q =
    if t.count = 0 then invalid_arg "Stats.Hist.percentile: empty histogram";
    if q < 0.0 || q > 1.0 then invalid_arg "Stats.Hist.percentile: q";
    if q = 0.0 then t.vmin
    else if q = 1.0 then t.vmax
    else begin
      (* Rank in [0, count-1]; walk buckets to the one containing it and
         report that bucket's geometric midpoint, clamped to the observed
         range. *)
      let rank = q *. float_of_int (t.count - 1) in
      let target = int_of_float (Float.floor rank) in
      let rec walk i seen =
        if i >= Array.length t.counts then t.vmax
        else begin
          let seen' = seen + t.counts.(i) in
          if target < seen' then begin
            let lo = bucket_lo i and hi = bucket_hi i in
            let mid = if i = 0 then hi else sqrt (lo *. hi) in
            Float.min t.vmax (Float.max t.vmin mid)
          end
          else walk (i + 1) seen'
        end
      in
      walk 0 0
    end

  let summary t =
    if t.count = 0 then invalid_arg "Stats.Hist.summary: empty histogram";
    {
      count = t.count;
      mean = mean t;
      stddev = stddev t;
      min = t.vmin;
      max = t.vmax;
      p50 = percentile t 0.5;
      p90 = percentile t 0.9;
      p99 = percentile t 0.99;
    }
end
