(* Per-kernel request-flow identity. Ids come from a per-kernel counter
   (never a global), so two same-seed runs allocate identical ids and
   the stitched trace JSON stays byte-identical. *)

type t = { tr : Trace.t; mutable next : int }

let create tr = { tr; next = 0 }
let[@inline] enabled t = Trace.enabled t.tr

let fresh t =
  t.next <- t.next + 1;
  t.next

(* Context conventions (see [Engine.ctx]): a request's flow id is
   carried fiber-locally as a positive int; 0 means "no request";
   negative means detached — stitchable into the flow (abs value) but
   not charged wait attribution. *)
let detach id = -abs id
