(* Hash-sharded flow table: the port key picks a shard, so binds,
   unbinds and classifications touch one small table instead of one
   global one, and per-shard stat counters keep the classify hot path a
   single increment. Aggregate counts are summed at read time. *)

type shard = {
  flows : (int, Iolite_core.Iobuf.Pool.t) Hashtbl.t;
  mutable s_lookups : int;
  mutable s_matched : int;
}

type t = {
  shards : shard array;
  (* Request-id source for early demultiplexing: when a flow allocator
     is attached (observability armed), [demux] stamps every classified
     packet train with a fresh flow id — the packet filter is where a
     request first becomes identifiable, so causal traces are anchored
     here. [None] keeps the classify path allocation-free. *)
  mutable flow : Iolite_obs.Flow.t option;
}

type verdict = Demuxed of Iolite_core.Iobuf.Pool.t | Unmatched

(* A power of two, so the shard index is a mask of the port. *)
let n_shards = 16

let create () =
  {
    shards =
      Array.init n_shards (fun _ ->
          { flows = Hashtbl.create 64; s_lookups = 0; s_matched = 0 });
    flow = None;
  }

let attach_flow t flow = t.flow <- Some (flow : Iolite_obs.Flow.t)

let shard t ~port = t.shards.(port land (n_shards - 1))

let bind t ~port pool = Hashtbl.replace (shard t ~port).flows port pool
let unbind t ~port = Hashtbl.remove (shard t ~port).flows port

let classify t ~port =
  let s = shard t ~port in
  s.s_lookups <- s.s_lookups + 1;
  match Hashtbl.find_opt s.flows port with
  | Some pool ->
    s.s_matched <- s.s_matched + 1;
    Demuxed pool
  | None -> Unmatched

let demux t ~port =
  let v = classify t ~port in
  let rid =
    match t.flow with Some f -> Iolite_obs.Flow.fresh f | None -> 0
  in
  (v, rid)

let lookups t =
  Array.fold_left (fun acc s -> acc + s.s_lookups) 0 t.shards

let matched t =
  Array.fold_left (fun acc s -> acc + s.s_matched) 0 t.shards

let flow_count t =
  Array.fold_left (fun acc s -> acc + Hashtbl.length s.flows) 0 t.shards
