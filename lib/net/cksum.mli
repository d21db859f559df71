(** The Internet checksum (RFC 1071) over strings, byte ranges and buffer
    aggregates, plus the IO-Lite checksum cache (Section 3.9).

    The checksum cache exploits IO-Lite's system-wide unique buffer
    identity: a slice's (chunk, generation, offset, length) names its
    contents immutably, so the 16-bit sum computed for it can be reused
    every time the same slice is transmitted — eliminating the last
    data-touching operation when serving cached files. Generation numbers
    invalidate entries automatically when buffer storage is recycled.
    {!Cache} is the one checksum cache: every IO-Lite send probes it once
    per packet fragment ({!Cache.packet_sums}).

    The identity-less sendfile path cannot key sums by buffer identity
    across sends; {!packet_sums_memo} instead keeps whole-leaf partial
    sums in the aggregate's rope leaves (see
    {!Iolite_core.Iobuf.Agg.iter_slices_memo}), validated by the same
    generation numbers. *)

val of_string : string -> int
(** 16-bit ones'-complement Internet checksum of the whole string. *)

val of_bytes : Bytes.t -> off:int -> len:int -> int

val finish : int -> int
(** Ones' complement of a folded sum: the on-the-wire checksum value. *)

val parity_combine : llen:int -> int -> int -> int
(** [parity_combine ~llen l r] folds partial sum [r] — of a segment
    beginning [llen] bytes into the stream — onto [l], byte-swapping [r]
    when [llen] is odd (RFC 1071 byte-order identity). *)

val of_agg : Iolite_core.Iobuf.Agg.t -> int
(** Checksum of an aggregate's contents, slice by slice (uncached
    reference implementation; no memo reads or writes). *)

type derivation = {
  dsums : int array;  (** finished per-packet wire checksums *)
  dscanned : int;  (** data bytes actually touched *)
  dfolds : int;  (** combine steps performed *)
}

val packet_sums_memo : Iolite_core.Iobuf.Agg.t -> mtu:int -> derivation
(** Per-MTU-packet checksums for the identity-less ([Spliced]/sendfile)
    path, derived in one in-order walk: a leaf contained in a single
    packet is served from (or seeds) its rope memo; a leaf split across
    packets scans all fragments but the last, which is derived from the
    whole-leaf memo by ones'-complement subtraction (RFC 1624; exact
    modulo 65535, so a derived checksum may be the 0x0000 representative
    where a direct scan yields 0xFFFF). Warm cost is the
    interior-fragment bytes only — sendfile stops being charged full
    re-scans, but without content identity it cannot reach the
    Flash-Lite zero (Section 4.4). *)

(** Per-slice checksum cache keyed by buffer identity. *)
module Cache : sig
  type t

  val create : ?enabled:bool -> ?max_entries:int -> unit -> t
  (** A disabled cache stores nothing: every sum is computed from the
      data (Fig 11's no-cksum bars). *)

  val enabled : t -> bool

  val slice_sum : t -> Iolite_core.Iobuf.Slice.t -> int * bool
  (** [(partial_sum, was_hit)] for the slice's contents (sum assumes the
      slice starts at even parity). A hit means no data was touched. *)

  val agg_sum :
    t -> Iolite_core.Iobuf.Agg.t -> int * int
  (** Fold a whole aggregate slice by slice through {!slice_sum}:
      [(checksum_sum, bytes_computed)] where [bytes_computed] counts only
      the bytes whose sum was {e not} served from the cache. Sends use
      {!packet_sums} instead; no served path calls this. *)

  val packet_sums :
    t -> Iolite_core.Iobuf.Agg.t -> mtu:int -> derivation
  (** Wire checksums for each MTU-sized packet of the aggregate, computed
      during one segmentation walk (never re-walking the aggregate per
      packet). Every slice fragment is keyed by buffer identity, so a
      warm resend of the same body with the same segmentation touches no
      data at all. *)

  val hits : t -> int
  val misses : t -> int

  val slices_summed : t -> int
  (** Total slices folded through {!agg_sum}/{!packet_sums}, accumulated
      from the aggregates' O(1) [Agg.num_slices] (not by re-counting). *)

  val entry_count : t -> int

  val evictions : t -> int
  (** Entries evicted one-by-one by the second-chance sweep. *)

  val resets : t -> int
  (** Full-table fallback resets (expected to stay 0). *)
end
