(** Protection domains.

    A protection domain is the unit of IO-Lite access control: the kernel
    and every user process each own one. Trusted domains (the kernel) keep
    permanent write access to buffers they produce, avoiding write-
    permission toggling (Section 3.2). *)

type t

val make : ?trusted:bool -> name:string -> unit -> t
(** Fresh domain with a unique id. [trusted] defaults to [false]. *)

val id : t -> int
val name : t -> string
val trusted : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

module Set : Set.S with type elt = t
