type t = {
  flows : (int, Iolite_core.Iobuf.Pool.t) Hashtbl.t;
  (* Request-id source for early demultiplexing: when a flow allocator
     is attached (observability armed), [demux] stamps every classified
     packet train with a fresh flow id — the packet filter is where a
     request first becomes identifiable, so causal traces are anchored
     here. [None] keeps the demux path allocation-free. *)
  mutable flow : Iolite_obs.Flow.t option;
}

type verdict = Demuxed of Iolite_core.Iobuf.Pool.t | Unmatched

let create () = { flows = Hashtbl.create 16; flow = None }
let attach_flow t flow = t.flow <- Some (flow : Iolite_obs.Flow.t)
let bind t ~port pool = Hashtbl.replace t.flows port pool

let demux t ~port =
  let v =
    match Hashtbl.find_opt t.flows port with
    | Some pool -> Demuxed pool
    | None -> Unmatched
  in
  let rid =
    match t.flow with Some f -> Iolite_obs.Flow.fresh f | None -> 0
  in
  (v, rid)
