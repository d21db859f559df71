(** ASCII tables and line charts for the benchmark harness output.

    Every figure reproduced from the paper is printed as a table of the
    figure's series plus, where helpful, a rough ASCII plot so the *shape*
    (who wins, crossovers) is visible directly in terminal output. *)

val render : header:string list -> rows:string list list -> string
(** Boxed, column-aligned table. *)

val print : header:string list -> rows:string list list -> unit

val chart :
  x_label:string ->
  y_label:string ->
  series:(string * (float * float) list) list ->
  string
(** Multi-series ASCII scatter/line chart, 64 columns by 18 rows. Each
    series gets a distinct glyph; a legend is appended. *)

val bar_chart : (string * float) list -> string
(** Horizontal bar chart, 50 columns at the maximum value. *)

val fmt_mbps : float -> string
(** Format a bandwidth in Mb/s with sensible precision. *)

val fmt_bytes : int -> string
(** Human-readable byte count (e.g. "64KB", "1.4MB"). *)

val fmt_time_s : float -> string
(** Human-readable duration from seconds (e.g. "23.7ms", "4.22s"). *)
