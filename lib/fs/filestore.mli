(** On-disk file population with deterministic synthetic contents.

    Files are registered with a name and size; contents are a pure
    function of (file id, offset), so any byte read back — directly, via
    the unified cache, over a pipe, or off a socket — can be checked for
    integrity without storing the data set anywhere. A small inode table
    models file-system metadata; metadata lives in the (separate, "old")
    buffer cache as in the prototype (Section 4.2), accounted as wired
    kernel memory. *)

type t

val create : unit -> t

val add : t -> name:string -> size:int -> int
(** Registers a file, returning its id. Raises [Invalid_argument] on a
    duplicate name or negative size. *)

val lookup : t -> string -> int option
val name : t -> int -> string
val size : t -> int -> int
(** Raise [Not_found] for unknown ids. *)

val file_count : t -> int
val total_bytes : t -> int
val metadata_bytes : t -> int
(** Metadata footprint to wire in kernel memory: 256 bytes per file. *)

val content_byte : file:int -> off:int -> char
(** The defining content function. It is defined for every offset, past
    a file's size too; the bulk functions below produce exactly its
    bytes. *)

val blit_content : file:int -> off:int -> Bytes.t -> dst_off:int -> len:int -> unit
(** [blit_content ~file ~off dst ~dst_off ~len] writes the contents of
    [off, off+len) into [dst] at [dst_off]. Raises [Invalid_argument]
    when the destination range is out of bounds.

    A fill of more than 16 KB is posted as a job to a helper domain, and
    the caller and the helper claim its 16 KB blocks from a shared
    counter. It returns once every block is written, and the bytes are
    the same either way. Safe to call from any domain, several at once
    included. *)

type prefetch
(** A range whose contents the helper domain generates ahead of need. *)

val prefetch : file:int -> off:int -> len:int -> prefetch
(** [prefetch ~file ~off ~len] posts the contents of [off, off+len) to
    the helper domain, which generates them into staging blocks while
    the caller goes on; on a one-core host nothing is posted. The range
    is delivered in parts of {!Iolite_core.Iobuf.Pool.max_alloc} bytes,
    each by one {!take}. A prefetch that is never taken costs the
    helper's work and its staging blocks, which the GC reclaims. Raises
    [Invalid_argument] when [len] is negative. *)

val take : prefetch -> pos:int -> Bytes.t -> dst_off:int -> len:int -> unit
(** [take p ~pos dst ~dst_off ~len] writes the part of [p] that starts
    [pos] bytes into its range into [dst] at [dst_off]: [pos] is a
    multiple of {!Iolite_core.Iobuf.Pool.max_alloc} inside the range,
    and [len] is the part's length, that size or whatever is left of the
    range. Parts may be taken in any order, each once. The first take
    claims every block the helper has not started and generates those
    itself; it waits only for blocks the helper has in progress. So
    [Iobuf.Buffer.fill buf (take p ~pos)] fills a pool buffer with the
    bytes {!blit_content} would write. Raises [Invalid_argument] on any
    other [pos], [len] or destination range, or on a part taken twice.
    Call it from one domain at a time per prefetch. *)

val content : file:int -> off:int -> len:int -> string
(** The contents of [off, off+len) as a fresh string. *)

val fill_buffer : t -> Iolite_core.Iobuf.Buffer.t -> file:int -> off:int -> unit
(** Fill a whole (unsealed) buffer with the file's contents starting at
    [off], charging one [Fill] touch. Nothing stops at EOF: a buffer
    reaching past the file's size gets the content function's bytes
    there, so callers size buffers to the file. Raises [Not_found] for
    an unknown file id. Generates through {!blit_content}, so the helper
    domain may generate some of a large buffer, with the same bytes.
    Callable from any domain; the buffer's own bookkeeping (the [Fill]
    touch) is not synchronized, so calls on one system must not overlap. *)

val check_string : file:int -> off:int -> string -> bool
(** Integrity check: does the string equal the file contents at [off]? *)

val iter : t -> (int -> name:string -> size:int -> unit) -> unit
