(** Pipes and UNIX-domain-socket style IPC (Sections 3.10 and 4.4).

    Two data-transfer disciplines over the same bounded FIFO:

    - {b Copying} — conventional UNIX semantics: the writer's data is
      copied into kernel pipe buffers and copied again into the reader's
      address space, two physical copies per byte. Consumers receive
      fresh buffers allocated from their own pool.
    - {b Zero_copy} — the IO-Lite path: when both endpoints use the
      IO-Lite API, aggregates pass by reference; the receiving domain is
      granted read mappings (cheap after the first, warm transfer) and no
      data is touched.

    The pipe enforces a byte capacity (64 KB, like BSD): writers
    block while the in-flight volume would exceed it, giving
    producer/consumer synchronization — the property plain shared memory
    lacks (Section 6.2). *)

open Iolite_mem

type mode = Copying | Zero_copy

type t

val create :
  ?writer:Pdomain.t ->
  Iolite_core.Iosys.t ->
  mode:mode ->
  reader:Pdomain.t ->
  reader_pool:Iolite_core.Iobuf.Pool.t ->
  unit ->
  t
(** [reader]/[reader_pool]: the consuming domain and, in [Copying] mode,
    the pool from which delivery buffers are allocated. When [writer] is
    given, a {e stream pool} with ACL = \{writer, reader\} is attached —
    the "cached pool of free buffers associated with the I/O stream"
    of Section 3.2, from which producers should allocate data destined
    for this pipe. *)

val stream_pool : t -> Iolite_core.Iobuf.Pool.t
(** The pool associated with this I/O stream ([reader_pool] when no
    writer was declared). *)

val mode : t -> mode

val write : t -> Iolite_core.Iobuf.Agg.t -> unit
(** Takes ownership of the aggregate. Blocks (simulated) while the pipe
    is full. Raises [Invalid_argument] if the write end was closed, or if
    the aggregate alone exceeds the pipe capacity in [Zero_copy] mode
    (in [Copying] mode large writes stream through in capacity-sized
    portions like a real pipe). *)

val write_string :
  t -> producer:Pdomain.t -> pool:Iolite_core.Iobuf.Pool.t -> string -> unit
(** Convenience: wrap and [write]. *)

val write_posix : t -> string -> unit
(** Conventional [write(2)] from the writer's private memory: one copy
    into kernel pipe buffers ([Copying] mode; the reader pays the second
    copy at delivery), or one copy into IO-Lite buffers on a [Zero_copy]
    pipe (the backward-compatibility path, after which the data moves by
    reference). Streams through in capacity-sized portions. *)

val read : t -> Iolite_core.Iobuf.Agg.t option
(** Next message, or [None] after the write end is closed and the pipe
    drained. The caller owns the returned aggregate. Blocks while
    empty. *)

val close_write : t -> unit

val bytes_in_flight : t -> int
val bytes_transferred : t -> int
