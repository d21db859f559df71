module Proc = Iolite_sim.Engine.Proc
module Attrib = Iolite_obs.Attrib

type t = {
  context_switch : float;
  mutable free_at : float; (* end of the last burst handed out *)
  mutable last_owner : int;
  mutable busy : float;
  mutable switches : int;
  attrib : Attrib.t;
}

let create ?(context_switch = 30e-6) ?attrib () =
  {
    context_switch;
    free_at = 0.0;
    last_owner = -1;
    busy = 0.0;
    switches = 0;
    attrib = (match attrib with Some a -> a | None -> Attrib.create ());
  }

(* A FIFO server on the virtual clock: a burst starts when the previous
   one handed out ends (or now, if the CPU is idle), so its end is known
   at request time and the caller sleeps straight to it. The surcharge
   is decided at request too, against the burst queued just before:
   that is the burst that runs just before. The whole sleep — queueing
   behind earlier bursts, context-switch surcharge, and the burn itself
   — is CPU time from the request's point of view. *)
let charge t ~owner dt =
  if dt > 0.0 then begin
    let dt =
      if t.last_owner <> owner && t.last_owner <> -1 then begin
        t.switches <- t.switches + 1;
        dt +. t.context_switch
      end
      else dt
    in
    t.last_owner <- owner;
    let stop = Float.max (Proc.now ()) t.free_at +. dt in
    t.free_at <- stop;
    Attrib.timed t.attrib Cpu Proc.sleep_until stop;
    t.busy <- t.busy +. dt
  end

let busy_time t = t.busy
let switches t = t.switches
let utilization t ~now = if now <= 0.0 then 0.0 else t.busy /. now
