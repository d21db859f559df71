(** Offset-keyed balanced (AVL) index — the per-file tree inside
    {!Extmap}, the extent index of the unified file cache, the NVMM tier
    and the write-back reservations (Section 3.5 at trace-replay
    scale).

    A persistent map from integer offsets to values with the
    stdlib-Map balancing invariant. Because cache entries within a file
    never overlap, interval stabbing needs only {!floor_def} (the one
    entry that can straddle a point is the one with the greatest start
    offset not beyond it) plus {!iter_from} over successors — both
    O(log n + visited), replacing the seed's linear list walks. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

val add : 'a t -> key:int -> 'a -> 'a t
(** Insert, replacing any existing binding at [key]. O(log n). *)

val remove : 'a t -> key:int -> 'a t
(** Remove the binding at [key] (no-op when absent). O(log n). *)

val find_opt : 'a t -> key:int -> 'a option

val floor_def : 'a t -> key:int -> 'a -> 'a
(** Value at the greatest key [<= key], or the default when every key is
    greater. Allocation-free — the hot probe of the cache's
    zero-allocation exact-hit path. O(log n). *)

val iter : 'a t -> ('a -> unit) -> unit
(** In-order (ascending key) traversal. *)

val iter_from : 'a t -> key:int -> ('a -> bool) -> unit
(** In-order traversal of values at keys [>= key], stopping the first
    time [f] returns [false]. O(log n + visited). *)

val cardinal : 'a t -> int
(** O(n); diagnostics only. *)

val to_list : 'a t -> 'a list
(** Values in ascending key order. *)

val balanced : 'a t -> bool
(** Whether the AVL invariant holds (test support). *)
