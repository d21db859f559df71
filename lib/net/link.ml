module Sync = Iolite_sim.Sync
module Trace = Iolite_obs.Trace

type t = {
  bits_per_sec : float;
  nlinks : int;
  lock : Sync.Semaphore.t;
  mutable bytes_sent : int;
  mutable busy_time : float;
  trace : Trace.t;
}

let mtu_bytes = 1500 (* Ethernet *)
let frame_overhead = 58 (* Ethernet 14 + IP 20 + TCP 20 + FCS 4 *)

let create ?(links = 5) ?trace ~bits_per_sec () =
  if bits_per_sec <= 0.0 then invalid_arg "Link.create: bandwidth";
  if links <= 0 then invalid_arg "Link.create: links";
  {
    bits_per_sec;
    nlinks = links;
    lock = Sync.Semaphore.create links;
    bytes_sent = 0;
    busy_time = 0.0;
    trace = (match trace with Some tr -> tr | None -> Trace.create ());
  }

let mtu _ = mtu_bytes
let bits_per_sec t = t.bits_per_sec
let links t = t.nlinks

let wire_time t ~bytes =
  if bytes <= 0 then 0.0
  else begin
    let packets = ((bytes - 1) / mtu_bytes) + 1 in
    let total = bytes + (packets * frame_overhead) in
    float_of_int (total * 8) /. (t.bits_per_sec /. float_of_int t.nlinks)
  end

let transmit t ~bytes =
  if bytes > 0 then begin
    let dt = wire_time t ~bytes in
    let occupy () =
      Sync.Semaphore.with_acquired t.lock (fun () ->
          Iolite_sim.Engine.Proc.sleep dt)
    in
    (* The span covers interface queueing plus wire time. *)
    if Trace.enabled t.trace then
      Trace.span t.trace ~cat:"net" ~name:"tx"
        ~args:[ ("bytes", Trace.Int bytes) ]
        occupy
    else occupy ();
    t.bytes_sent <- t.bytes_sent + bytes;
    t.busy_time <- t.busy_time +. dt
  end

let bytes_sent t = t.bytes_sent

let utilization t ~now = if now <= 0.0 then 0.0 else t.busy_time /. now
