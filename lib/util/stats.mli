(** Small streaming- and batch-statistics helpers used by the harness. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float array -> summary
(** Batch summary; the input array is not modified. Raises
    [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in \[0,1\]; the array must be sorted
    ascending. Linear interpolation between ranks. *)

val mean : float array -> float
val stddev : float array -> float

(** Log-bucketed histogram: constant-size summary of a value stream
    (request latencies, span durations) with quantile estimates.
    Bucket [i] covers a fixed ratio [10^(1/20)] of range, so relative
    quantization error is bounded regardless of the value magnitude.
    Exact count/sum/min/max ride alongside, making [mean], [q=0] and
    [q=1] exact. *)
module Hist : sig
  type t

  val create : unit -> t
  (** Values up to 1e-9 share the underflow bucket; above it there are
      20 buckets per decade (~12% resolution). *)

  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val stddev : t -> float

  val percentile : t -> float -> float
  (** [percentile t q] with [q] in \[0,1\]. [q=0]/[q=1] return the exact
      observed min/max; interior ranks return the geometric midpoint of
      the rank's bucket, clamped to the observed range. Raises
      [Invalid_argument] on an empty histogram or out-of-range [q]. *)

  val summary : t -> summary
  (** Raises [Invalid_argument] on an empty histogram. *)
end
