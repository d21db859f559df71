(* Per-kernel request-flow identity. Ids come from a per-kernel counter
   (never a global), so two same-seed runs allocate identical ids and
   the stitched trace JSON stays byte-identical. *)

type t = { tr : Trace.t; mutable next : int }

let create tr = { tr; next = 0 }
let trace t = t.tr
let[@inline] enabled t = Trace.enabled t.tr

let fresh t =
  t.next <- t.next + 1;
  t.next

(* Context conventions (see [Engine.ctx]): a request's flow id is
   carried fiber-locally as a positive int; 0 means "no request";
   negative means detached — stitchable into the flow (abs value) but
   not charged wait attribution. *)
let detach id = -abs id

let start t ~id ?args () = Trace.flow_start t.tr ~id ?args ()
let step t ~id ?args () = Trace.flow_step t.tr ~id ?args ()
let finish t ~id ?args () = Trace.flow_finish t.tr ~id ?args ()
