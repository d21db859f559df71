(** The server's CPU: a FIFO server on the simulated clock.

    Work is charged in bursts. When consecutive bursts come from
    different owners a context-switch penalty is added, which is how the
    per-process costs of Apache's process-per-connection model and of CGI
    pipe ping-pong emerge without special-casing.

    The CPU is a virtual-time queue: it remembers when the last burst
    handed out ends, so a new burst's start ([max now free_at]) and end
    are fixed when it is requested, and the caller sleeps straight to
    the end. Bursts run in request order; the owner change, and so the
    surcharge, is decided in that order too. *)

type t

val create :
  ?context_switch:float -> ?attrib:Iolite_obs.Attrib.t -> unit -> t
(** [attrib] charges each burst's full duration — queueing behind
    earlier bursts, context-switch surcharge, and the burn — as [Cpu] on
    the calling fiber's flow context. *)

val charge : t -> owner:int -> float -> unit
(** Queue a burst of the given seconds of simulated time (plus a context
    switch if the previous burst's owner differs) behind every burst
    requested before it, and sleep until it ends. Zero or negative
    charges are free. Must run inside a simulation process. *)

val busy_time : t -> float
val switches : t -> int
val utilization : t -> now:float -> float
