(** Closed-loop HTTP client population (the paper's load generator:
    clients issue a new request as soon as the previous response
    arrives [Banga & Druschel 1999]). *)

type config = {
  clients : int;
  rtt : float;  (** delay-router round-trip time (0 = LAN) *)
  persistent : bool;  (** HTTP/1.1 keep-alive *)
  warmup : float;  (** simulated seconds before measurement starts *)
  duration : float;  (** measured simulated seconds *)
}

val default : config
(** 40 clients, LAN, non-persistent, 2 s warmup, 20 s measurement. *)

type result = {
  mbps : float;  (** aggregate response bandwidth over the window *)
  requests : int;  (** responses completed in the window *)
  bytes : int;
  sim_seconds : float;
}

val run :
  Iolite_os.Kernel.t ->
  Iolite_os.Sock.listener ->
  config ->
  pick:(client:int -> iter:int -> string) ->
  result
(** Spawns the clients, runs the engine until warmup + duration, and
    reports bandwidth measured strictly inside the window. [pick] names
    the path each request fetches. Persistent clients keep one
    connection; non-persistent clients reconnect per request. Raises
    [Failure], naming the window and the client count, when no response
    completes inside the window. *)
