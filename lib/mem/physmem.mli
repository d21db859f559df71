(** Physical main-memory accounting.

    The experiments in the paper hinge on where physical memory goes:
    wired kernel memory (mbuf clusters for TCP send buffers, metadata),
    per-process memory, and pageable memory holding I/O data (the file
    cache — IO-Lite buffers in the unified system, VM file pages in the
    conventional one). This module tracks usage per account, computes the
    budget left for caching, and invokes a low-memory hook (the pageout
    daemon) when pageable allocations exceed what is available. *)

type account =
  | Kernel  (** static kernel text/data + metadata cache *)
  | Process  (** process images, stacks, heaps (treated as wired) *)
  | Net_wired  (** copied network send buffers (mbuf clusters) *)
  | Io_data  (** pageable pages holding I/O data (file cache / IO-Lite) *)

type t

val create : capacity:int -> t
(** [capacity] in bytes (the paper's testbed has 128 MB). *)

val capacity : t -> int
val used : t -> account -> int
val total_used : t -> int
val free_bytes : t -> int

val wire : t -> account -> int -> unit
(** Reserve wired (non-pageable) memory. Wiring never fails — but it
    shrinks the budget and triggers the low-memory hook so pageable users
    give memory back. Raises [Invalid_argument] on negative size or if
    the account is [Io_data]. *)

val unwire : t -> account -> int -> unit

val alloc_pageable : t -> int -> unit
(** Account for pageable I/O data pages. May invoke the low-memory hook
    to reclaim; over-commit is permitted if the hook cannot free enough
    (the overflow is visible via {!overcommit}). *)

val free_pageable : t -> int -> unit

val overcommit : t -> int
(** Bytes by which current usage exceeds capacity (0 when fitting). *)

val io_budget : t -> int
(** Memory available for I/O data: capacity minus wired usage. This is
    the quantity that shrinks when TCP send buffers grow in the
    conventional system (Fig. 12). *)

val set_low_memory_hook : t -> (needed:int -> int) -> unit
(** The hook is called with the number of bytes that must be freed and
    returns the number actually freed. It is re-invoked (bounded) while
    progress is being made. *)
