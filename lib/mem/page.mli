(** Page and chunk geometry constants (matching the paper's prototype:
    4 KB VM pages, 64 KB access-control chunks). *)

val page_size : int
(** 4096 bytes. *)

val chunk_size : int
(** 65536 bytes: the fixed-size virtual memory region over which IO-Lite
    performs access control (Section 4.5). *)

val pages_per_chunk : int

val pages_of_bytes : int -> int
(** Number of pages needed to hold [n] bytes (rounds up; 0 for 0). *)

val round_to_pages : int -> int
(** [n] rounded up to a multiple of the page size. *)
