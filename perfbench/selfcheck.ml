(* Determinism self-check: with a 1 s warm-up and a 3 s window, run every workload twice
   untraced and once traced, and require identical simulated metrics and
   an identical digest of the window's metrics diff, with every output
   check passing. Run with [dune build @perfbench/selfcheck]. *)

module H = Harness

let () =
  let seeds = H.seeds_of ~seed:1 ~dataset:0 in
  let bad = ref 0 in
  List.iter
    (fun w ->
      let run traced = H.run ~traced w H.tiny seeds in
      let a = run false in
      let b = run false in
      let t = run true in
      let verdict =
        if a.H.errors <> [] || a.H.failed > 0 then "FAIL (output checks)"
        else if not (H.same a b) then "FAIL (repeat differs)"
        else if not (H.same a t) then "FAIL (traced run differs)"
        else "ok"
      in
      if verdict <> "ok" then incr bad;
      Printf.printf "%-13s %-26s %6d requests  digest %s\n%!" w.H.name verdict
        (Array.length a.H.latencies) a.H.digest)
    H.workloads;
  if !bad > 0 then exit 1
