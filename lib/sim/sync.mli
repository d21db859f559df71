(** Process synchronization primitives for the simulation engine.

    All operations must be called from inside a running process (they use
    {!Engine.Proc.suspend}). Waiters are served FIFO, keeping simulations
    deterministic. *)

(** Counting semaphore; models contended resources (disk, NIC). *)
module Semaphore : sig
  type t

  val create : int -> t
  (** [create n] with [n >= 0] initial tokens. *)

  val acquire : ?n:int -> t -> unit
  (** Take [n] tokens (default 1), blocking FIFO until available. *)

  val release : ?n:int -> t -> unit
  (** Return [n] tokens and wake eligible waiters in order. *)

  val waiters : t -> int

  val with_acquired : ?n:int -> t -> (unit -> 'a) -> 'a
  (** Acquire, run, release (also on exception). *)
end

(** Condition variable with an external predicate. *)
module Condvar : sig
  type t

  val create : unit -> t

  val wait : t -> unit
  (** Park until a [signal] or [broadcast]. No spurious wakeups, but a
      waiter must still re-check its predicate in a loop if other
      processes can consume the condition first. *)

  val signal : t -> unit
  (** Wake the oldest waiter, if any. *)

  val broadcast : t -> unit
  (** Wake all current waiters. *)

  val waiters : t -> int
end

(** Unbounded FIFO channel between processes. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t

  val send : 'a t -> 'a -> unit
  (** Never blocks. *)

  val recv : 'a t -> 'a
  (** Blocks until a message is available. *)
end

(** Write-once cell; a future a process can block on. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val read : 'a t -> 'a
  (** Blocks until filled; returns immediately thereafter. *)

  val is_filled : 'a t -> bool
end
