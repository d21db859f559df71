open! Import
(** FastCGI-style dynamic content application (Sections 3.10 and 5.3).

    A persistent third-party process, fault-isolated from the server in
    its own protection domain, that synthesizes a "dynamic" document of a
    fixed size and sends it to the server over a pipe on every request.
    The document is cached inside the application (a {e caching CGI
    program}), so with IO-Lite the same immutable buffers cross the pipe
    on every request — no copies, and the server-side TCP checksum cache
    keeps hitting.

    In [Zero_copy] mode the application allocates from a pool whose ACL
    names both the application and the server domains (per Section 3.10:
    one pool per CGI instance, shared with the server); in [Copying]
    mode the pipe performs the two conventional copies. *)

type t

(** Invocation discipline (Section 5.3): [Fastcgi] keeps one persistent
    application process whose cached document crosses a long-lived pipe;
    [Cgi11] is the original CGI standard — fork+exec a fresh process per
    request, which pays process creation, regenerates the document (no
    application caching possible), and gets no warm-buffer or
    checksum-cache reuse. *)
type mode = Fastcgi | Cgi11

val start :
  ?mode:mode ->
  Kernel.t ->
  server:Process.t ->
  zero_copy:bool ->
  doc_size:int ->
  t
(** Spawns the application process ([mode] defaults to [Fastcgi]). *)

val mode : t -> mode

val serve : t -> Process.t -> Iolite_core.Iobuf.Agg.t option
(** Called by the server's request handler: asks the application for one
    document and reads it fully from the pipe. Returns the document
    aggregate (caller owns), or [None] if the application has died —
    the fault stays isolated in the CGI process and the server carries
    on (Section 5.3's point against library-based interfaces). *)

val doc_size : t -> int
val requests_served : t -> int

val crash : t -> unit
(** Fault injection: the application aborts immediately (closing its
    pipe mid-stream if a document is in flight). *)

val alive : t -> bool
