module Engine = Iolite_sim.Engine
module Proc = Engine.Proc
module Sock = Iolite_os.Sock
module Kernel = Iolite_os.Kernel
module Http = Iolite_httpd.Http

type config = {
  clients : int;
  rtt : float;
  persistent : bool;
  warmup : float;
  duration : float;
}

let default =
  { clients = 40; rtt = 0.0; persistent = false; warmup = 2.0; duration = 20.0 }

type result = { mbps : float; requests : int; bytes : int; sim_seconds : float }

let run kernel listener config ~pick =
  let engine = Kernel.engine kernel in
  let start = Engine.now engine in
  let window_start = start +. config.warmup in
  let window_end = window_start +. config.duration in
  let bytes = ref 0 in
  let requests = ref 0 in
  let record n =
    let now = Engine.now engine in
    if now >= window_start && now <= window_end then begin
      bytes := !bytes + n;
      incr requests
    end
  in
  for client = 0 to config.clients - 1 do
    Engine.spawn engine
      ~name:(Printf.sprintf "client-%d" client)
      (fun () ->
        if config.persistent then begin
          let conn = Sock.connect ~rtt:config.rtt kernel listener in
          let iter = ref 0 in
          let rec loop () =
            let path = pick ~client ~iter:!iter in
            incr iter;
            let n =
              Sock.request conn (Http.request_string ~keep_alive:true path)
            in
            record n;
            loop ()
          in
          loop ()
        end
        else begin
          let iter = ref 0 in
          let rec loop () =
            let conn = Sock.connect ~rtt:config.rtt kernel listener in
            let path = pick ~client ~iter:!iter in
            incr iter;
            let n = Sock.request conn (Http.request_string path) in
            record n;
            Sock.close conn;
            loop ()
          in
          loop ()
        end)
  done;
  Engine.run ~until:window_end engine;
  (* A point with no completion is a stalled run, not a 0 Mb/s bar. *)
  if !requests = 0 then
    failwith
      (Printf.sprintf
         "Client.run: no response completed in the measurement window [%g, \
          %g] s (%d clients)"
         window_start window_end config.clients);
  {
    mbps = float_of_int (!bytes * 8) /. config.duration /. 1e6;
    requests = !requests;
    bytes = !bytes;
    sim_seconds = Engine.now engine -. start;
  }
