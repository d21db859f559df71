module Hist = Iolite_util.Stats.Hist

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, unit -> int) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
  }

let cell t key =
  match Hashtbl.find_opt t.counters key with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters key r;
    r

let counter = cell

let add t key n =
  let r = cell t key in
  r := !r + n

let incr t key = add t key 1

(* A site starts on a shared sentinel cell that is never written, and
   swaps in the registry's cell on its first bump. *)
type site = { reg : t; key : string; mutable slot : int ref }

let unresolved = ref 0
let site t key = { reg = t; key; slot = unresolved }

let bump s n =
  let r = s.slot in
  if r != unresolved then r := !r + n
  else begin
    let r = cell s.reg s.key in
    s.slot <- r;
    r := !r + n
  end

let get t key =
  match Hashtbl.find_opt t.counters key with Some r -> !r | None -> 0

let set_gauge t key f = Hashtbl.replace t.gauges key f

let gauge t key =
  match Hashtbl.find_opt t.gauges key with Some f -> f () | None -> 0

let hist t key =
  match Hashtbl.find_opt t.hists key with
  | Some h -> h
  | None ->
    let h = Hist.create () in
    Hashtbl.add t.hists key h;
    h

let observe t key v = Hist.add (hist t key) v

let find_hist t key = Hashtbl.find_opt t.hists key

let hist_list t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_list t =
  let l = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters [] in
  let l = Hashtbl.fold (fun k f acc -> (k, f ()) :: acc) t.gauges l in
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let reset t =
  (* Zero cells in place rather than dropping them: hot paths are allowed
     to hold a counter cell (see {!counter}), and those refs must keep
     feeding the registry across a reset. *)
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  Hashtbl.reset t.hists

(* Snapshots are plain sorted assoc lists: cheap to take mid-experiment,
   diffable after the fact. Gauges are sampled at snapshot time. *)
type snapshot = (string * int) list

let snapshot t : snapshot = to_list t
let snapshot_get (s : snapshot) key =
  match List.assoc_opt key s with Some v -> v | None -> 0

let diff ~before ~after =
  let keys =
    List.sort_uniq String.compare (List.map fst before @ List.map fst after)
  in
  List.filter_map
    (fun k ->
      let d = snapshot_get after k - snapshot_get before k in
      if d = 0 then None else Some (k, d))
    keys

let render ?(prefix = "") t =
  let b = Buffer.create 256 in
  List.iter
    (fun (k, v) ->
      if v <> 0 then Buffer.add_string b (Printf.sprintf "%s%-28s %d\n" prefix k v))
    (to_list t);
  List.iter
    (fun (k, h) ->
      if Hist.count h > 0 then begin
        let s = Hist.summary h in
        Buffer.add_string b
          (Printf.sprintf
             "%s%-28s n=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g\n"
             prefix k s.Iolite_util.Stats.count s.Iolite_util.Stats.mean
             s.Iolite_util.Stats.p50 s.Iolite_util.Stats.p90
             s.Iolite_util.Stats.p99 s.Iolite_util.Stats.max)
      end)
    (hist_list t);
  Buffer.contents b
