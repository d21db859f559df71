open! Import
(** The Apache 1.3 server model: process-per-connection (Section 5).

    A pool of worker processes each accepts one connection at a time and
    serves it to completion. Workers use [mmap] per request (the paper's
    Apache 1.3.1 "uses mmap to read files and performs substantially
    better than earlier versions") and copying socket writes. The costs
    that separate Apache from Flash emerge from the model: higher
    per-request CPU, a context switch whenever the CPU moves between
    workers, per-request mmap/munmap work, and wired memory per process
    (which shrinks the file cache as the client population grows,
    Fig. 12). *)

type t

val start :
  ?workers:int ->
  ?cgi_doc_size:int ->
  Kernel.t ->
  port:int ->
  t
(** [workers] defaults to 64; size it to the expected concurrent client
    population. Each worker wires a 200 KB footprint. *)

val listener : t -> Sock.listener
val requests : t -> int
val response_bytes : t -> int

val request_overhead : float
(** Per-request CPU of the Apache design beyond the data path. *)
