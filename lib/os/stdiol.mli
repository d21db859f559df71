(** An IO-Lite version of the stdio buffered-I/O library (Section 3.4).

    The paper converts the ANSI C stdio library to use the IO-Lite API
    internally, so that unmodified applications — linked against the new
    library — stop paying interprocess and file-system copies. This
    module is that library for the simulated OS: buffered channels over
    files and pipes with two access styles per direction:

    - a {e compatible} style ([input_line], [output_string]) that hands
      the application private strings — one residual copy between the
      application and the stdio buffer, as the paper observes for gcc;
    - a {e zero-copy} style ([input_agg], [output_agg]) for applications
      that accept buffer aggregates, which touches no data at all. *)

type in_channel
type out_channel

(** {2 Input} *)

val open_file_in : Process.t -> file:int -> in_channel
(** Buffered reader over a file (IOL_read in 64 KB units). *)

val open_pipe_in : Process.t -> Iolite_ipc.Pipe.t -> in_channel

val input_agg : in_channel -> int -> Iolite_core.Iobuf.Agg.t option
(** Up to [n] bytes as an aggregate, zero-copy ([None] at EOF). Caller
    owns the result. *)

val input_line : in_channel -> string option
(** Next line without its newline, copied into application memory
    (charged). [None] at EOF; a final unterminated line is returned. *)

val input_all_lines : in_channel -> f:(string -> unit) -> int
(** Fold [f] over every line; returns the line count. *)

(** {2 Output} *)

val open_file_out : Process.t -> file:int -> out_channel
(** Buffered writer replacing file contents from offset 0 onward
    (IOL_write per flushed block). *)

val open_pipe_out : Process.t -> Iolite_ipc.Pipe.t -> out_channel

val output_string : out_channel -> string -> unit
(** Append application data: one copy into the stdio buffer (an IO-Lite
    buffer), after which it moves by reference. *)

val output_agg : out_channel -> Iolite_core.Iobuf.Agg.t -> unit
(** Append zero-copy (takes ownership; flushes pending string data
    first to preserve ordering). *)

val flush : out_channel -> unit

val close_out : out_channel -> unit
(** Flushes; closes the pipe's write end if the sink is a pipe. *)
