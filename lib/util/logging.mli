(** Logging setup for the library (built on [Logs]).

    Subsystems declare sources under the ["iolite."] namespace
    ("iolite.kernel", "iolite.cache", "iolite.httpd", ...). Logging is
    off by default — simulation hot paths pay only a no-op check — and
    is enabled globally by {!setup}, e.g. from the CLI's [-v] flag.
    Individual sources can be raised or silenced independently of the
    global level with {!set_source_level} or [--log]-style directives
    ("iolite.cache=debug"), applied by {!setup} or
    {!apply_directive}. *)

val src : string -> Logs.src
(** [src "kernel"] declares (or returns) the source
    ["iolite.kernel"]. A pending per-source override is applied at
    declaration time. *)

val setup :
  ?level:Logs.level -> ?directives:string list -> unit -> unit
(** Install a stderr reporter and set the level for every iolite source
    (default [Logs.Info]). [directives] are ["SOURCE=LEVEL"] strings
    (see {!apply_directive}); they and any previously applied overrides
    win over [level] for their sources. *)

val set_source_level : string -> Logs.level option -> unit
(** [set_source_level "iolite.cache" (Some Logs.Debug)] raises one
    source's level, now and for sources declared later. The ["iolite."]
    prefix may be omitted. [None] silences the source. *)

val apply_directive : string -> (unit, string) result
(** Parse and apply one ["SOURCE=LEVEL"] directive, e.g.
    ["iolite.cache=debug"] or ["net=off"]. Levels are [Logs] level
    names plus ["off"]/["quiet"]/["none"] for [None]. *)

val parse_directive : string -> (string * Logs.level option, string) result
(** Parse without applying; returns the canonical source name. *)
