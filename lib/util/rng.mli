(** Deterministic pseudo-random number generation.

    A small, fast, splittable SplitMix64 generator. Every stochastic
    component of the simulator draws from an explicit [t] so that whole
    experiments are reproducible from a single seed. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent snapshot of the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** 62 nonnegative random bits as an [int]. *)

val int : t -> int -> int
(** [int t n] is uniform in \[0, n). Raises [Invalid_argument] if
    [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in \[0, x). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Lognormal sample: [exp (mu + sigma * N(0,1))]. *)

val gaussian : t -> float
(** Standard normal sample (Box-Muller). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
