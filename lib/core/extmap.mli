(** Non-overlapping extents per file — the one ⟨file, offset, length⟩
    index (Section 3.5) behind the unified file cache ({!Filecache}),
    the NVMM tier ({!Tier}) and the write-back layer's in-flight
    reservations.

    Each file's extents sit in an {!Itree} keyed by start offset, with
    the file's byte count kept incrementally; a [(file, offset)] table
    resolves policy keys; a caller-supplied sentinel answers floor
    probes that find nothing, so {!floor} and {!covered} never
    allocate. The map only indexes: callers never add an extent that
    overlaps one present (carving is payload-specific and stays with
    each user). *)

module Make (E : sig
  type t

  val file : t -> int
  val off : t -> int
  val len : t -> int (** positive for every indexed extent *)
end) : sig
  type t

  val create : sentinel:E.t -> unit -> t
  (** [sentinel] must cover nothing: offset [min_int], length 0. *)

  val add : t -> E.t -> unit
  (** Index an extent that overlaps none present. O(log n). *)

  val remove : t -> E.t -> unit
  (** Drop an indexed extent. O(log n). *)

  val find : t -> Policy.key -> E.t option

  val floor : t -> file:int -> off:int -> E.t
  (** The extent of [file] with the greatest start not beyond [off] (the
      only one that can contain [off]), else the sentinel. *)

  val overlapping : t -> file:int -> off:int -> len:int -> E.t list
  (** Extents meeting [\[off, off+len)] in offset order; with [len] 0,
      an extent straddling [off]. O(log n + k). *)

  val covered : t -> file:int -> off:int -> len:int -> bool
  (** No byte of [\[off, off+len)] lies outside the extents. O(k log n). *)

  val file_extents : t -> file:int -> E.t list
  (** In offset order. *)

  val file_bytes : t -> file:int -> int
  val total_bytes : t -> int
  val count : t -> int

  val iter : t -> (E.t -> unit) -> unit
  (** In the (deterministic) order of the key table. *)

  val victim : t -> Policy.t -> eligible:(E.t -> bool) -> E.t option
  (** The policy's choice among extents [eligible] accepts, captured at
      its last accepted probe (the {!Policy.t} contract). Not removed. *)

  val check : t -> unit
  (** Test support: raises [Failure] unless every file's extents are
      non-empty, ordered and disjoint in a balanced tree, and the key
      table and the per-file and total counts agree with a walk. *)
end
