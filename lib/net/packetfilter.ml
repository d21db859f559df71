type t = {
  flows : (int, Iolite_core.Iobuf.Pool.t) Hashtbl.t;
  mutable lookups : int;
  mutable matched : int;
  (* Request-id source for early demultiplexing: when a flow allocator
     is attached (observability armed), [demux] stamps every classified
     packet train with a fresh flow id — the packet filter is where a
     request first becomes identifiable, so causal traces are anchored
     here. [None] keeps the classify path allocation-free. *)
  mutable flow : Iolite_obs.Flow.t option;
}

type verdict = Demuxed of Iolite_core.Iobuf.Pool.t | Unmatched

let create () =
  { flows = Hashtbl.create 16; lookups = 0; matched = 0; flow = None }

let attach_flow t flow = t.flow <- Some (flow : Iolite_obs.Flow.t)

let bind t ~port pool = Hashtbl.replace t.flows port pool
let unbind t ~port = Hashtbl.remove t.flows port

let classify t ~port =
  t.lookups <- t.lookups + 1;
  match Hashtbl.find_opt t.flows port with
  | Some pool ->
    t.matched <- t.matched + 1;
    Demuxed pool
  | None -> Unmatched

let demux t ~port =
  let v = classify t ~port in
  let rid =
    match t.flow with Some f -> Iolite_obs.Flow.fresh f | None -> 0
  in
  (v, rid)

let lookups t = t.lookups
let matched t = t.matched
let flow_count t = Hashtbl.length t.flows
