module Rng = Iolite_util.Rng
module Zipf = Iolite_util.Zipf

type spec = {
  sname : string;
  files : int;
  total_bytes : int;
  paper_requests : int;
  mean_request_bytes : int;
  zipf_alpha : float;
}

(* Aggregate statistics from Figs. 7 and 9 and Section 5.4. *)
let ece =
  {
    sname = "ECE";
    files = 10195;
    total_bytes = 523 * 1024 * 1024;
    paper_requests = 783529;
    mean_request_bytes = 23 * 1024;
    zipf_alpha = 1.0;
  }

let cs =
  {
    sname = "CS";
    files = 26948;
    total_bytes = 933 * 1024 * 1024;
    paper_requests = 3746842;
    mean_request_bytes = 20 * 1024;
    zipf_alpha = 1.0;
  }

let merged =
  {
    sname = "MERGED";
    files = 37703;
    total_bytes = 1418 * 1024 * 1024;
    paper_requests = 2290909;
    mean_request_bytes = 17 * 1024;
    zipf_alpha = 1.0;
  }

type t = {
  spec : spec;
  sizes : int array; (* size by popularity rank *)
  zipf : Zipf.t;
}

(* Draw lognormal sizes (clamped to the few-MB ceiling real university
   web content has) and normalize them to the spec's total. *)
let max_file_size = 4 * 1024 * 1024

let draw_sizes rng spec =
  let sigma = 1.6 in
  let mean = float_of_int spec.total_bytes /. float_of_int spec.files in
  let mu = log mean -. (sigma *. sigma /. 2.0) in
  let sizes =
    Array.init spec.files (fun _ ->
        min max_file_size
          (max 64 (int_of_float (Rng.lognormal rng ~mu ~sigma))))
  in
  let sum = Array.fold_left ( + ) 0 sizes in
  let scale = float_of_int spec.total_bytes /. float_of_int sum in
  Array.map
    (fun s -> min max_file_size (max 64 (int_of_float (float_of_int s *. scale))))
    sizes

let weighted_mean zipf sizes =
  let acc = ref 0.0 in
  Array.iteri (fun i s -> acc := !acc +. (Zipf.mass zipf i *. float_of_int s)) sizes;
  !acc

(* Assign sizes to popularity ranks: interpolate between a fully
   ascending assignment (popular files smallest => smallest mean
   transfer) and a random one, choosing the mix that hits the published
   mean transfer size. *)
let assign rng zipf spec raw =
  let n = Array.length raw in
  let ascending = Array.copy raw in
  Array.sort compare ascending;
  let random = Array.copy raw in
  Rng.shuffle rng random;
  let blend lambda =
    (* Deterministic per-rank choice keeps bisection monotone: rank i
       takes the ascending value when its hash is below lambda. *)
    Array.init n (fun i ->
        let h =
          let z = (i * 0x9E3779B9) land 0x3FFFFFFF in
          float_of_int z /. float_of_int 0x40000000
        in
        if h < lambda then ascending.(i) else random.(i))
  in
  let target = float_of_int spec.mean_request_bytes in
  let lo = ref 0.0 and hi = ref 1.0 in
  (* mean transfer decreases as lambda grows. *)
  let result = ref (blend 1.0) in
  if weighted_mean zipf (blend 1.0) > target then result := blend 1.0
  else if weighted_mean zipf (blend 0.0) < target then result := blend 0.0
  else begin
    for _ = 1 to 24 do
      let mid = (!lo +. !hi) /. 2.0 in
      let cand = blend mid in
      if weighted_mean zipf cand > target then lo := mid else hi := mid
    done;
    result := blend ((!lo +. !hi) /. 2.0)
  end;
  !result

let synthesize ?(seed = 0xACCE55L) spec =
  let rng = Rng.create seed in
  let zipf = Zipf.create ~n:spec.files ~alpha:spec.zipf_alpha in
  let raw = draw_sizes rng spec in
  let sizes = assign rng zipf spec raw in
  { spec; sizes; zipf }

let spec t = t.spec
let file_count t = Array.length t.sizes

let file_size t ~rank =
  if rank < 0 || rank >= Array.length t.sizes then
    invalid_arg "Trace.file_size: rank";
  t.sizes.(rank)

let file_path ~rank = "/doc/r" ^ string_of_int rank

let total_bytes t = Array.fold_left ( + ) 0 t.sizes
let mean_request_bytes t = weighted_mean t.zipf t.sizes
let sample t rng = Zipf.sample t.zipf rng

let request_log t ~seed ~count =
  let rng = Rng.create seed in
  Array.init count (fun _ -> sample t rng)

let prefix_for_dataset t ~log ~target_bytes =
  let seen = Hashtbl.create 4096 in
  let bytes = ref 0 in
  let result = ref (Array.length log) in
  (try
     Array.iteri
       (fun i rank ->
         if not (Hashtbl.mem seen rank) then begin
           Hashtbl.replace seen rank ();
           bytes := !bytes + t.sizes.(rank)
         end;
         if !bytes >= target_bytes then begin
           result := i + 1;
           raise Stdlib.Exit
         end)
       log
   with Stdlib.Exit -> ());
  !result

let distinct_bytes t ~log ~prefix =
  let seen = Hashtbl.create 4096 in
  let bytes = ref 0 in
  for i = 0 to min prefix (Array.length log) - 1 do
    let rank = log.(i) in
    if not (Hashtbl.mem seen rank) then begin
      Hashtbl.replace seen rank ();
      bytes := !bytes + t.sizes.(rank)
    end
  done;
  (Hashtbl.length seen, !bytes)

let cdf_row t ~top =
  let top = min top (Array.length t.sizes) in
  let reqs = Zipf.cumulative t.zipf (top - 1) in
  let bytes = ref 0 in
  for i = 0 to top - 1 do
    bytes := !bytes + t.sizes.(i)
  done;
  (reqs, float_of_int !bytes /. float_of_int (total_bytes t))

let register_files t kernel ~prefix_ranks =
  let bound =
    match prefix_ranks with
    | Some b -> min b (Array.length t.sizes)
    | None -> Array.length t.sizes
  in
  for rank = 0 to bound - 1 do
    ignore
      (Iolite_os.Kernel.add_file kernel ~name:(file_path ~rank)
         ~size:t.sizes.(rank))
  done
