(** The VM pageout daemon and the unified cache-eviction trigger rule.

    Section 3.7 of the paper: the pageout daemon picks victim VM pages
    for replacement; each time the victim holds cached I/O data, IO-Lite
    checks whether {e more than half} of the pages selected since the last
    cache-entry eviction were I/O cache pages — if so, one cache entry is
    evicted (unpinning its buffers). Because the cache grows on every
    miss, this feedback keeps the file cache at a size where about half of
    all page replacements affect cache pages.

    Memory segments (buffer pools' empty chunks, the file cache's clean
    pages, process anonymous memory) register themselves; victim pages are
    drawn from segments with probability proportional to their resident
    size, deterministically seeded. *)

type t

val create :
  ?trace:Iolite_obs.Trace.t ->
  ?attrib:Iolite_obs.Attrib.t ->
  physmem:Physmem.t ->
  seed:int64 ->
  unit ->
  t
(** [trace] receives a [vm]/[pageout] instant (args [needed], [freed])
    at the end of every daemon run when tracing is enabled, plus a flow
    step when the run happens inside a request context. [attrib]
    charges each whole reclaim round (selection, victim-write
    backpressure, end-of-round swap join) as one [Vm_stall] interval on
    the request whose allocation triggered it. *)

val register_segment :
  ?dirty:bool ->
  t ->
  name:string ->
  is_io_cache:bool ->
  resident:(unit -> int) ->
  reclaim:(int -> int) ->
  unit
(** [resident ()] reports the segment's current resident bytes;
    [reclaim n] attempts to free up to [n] bytes of them (returning the
    number actually freed; 0 when everything is pinned). [dirty]
    (default [false]) marks a segment whose victims hold data with no
    backing copy — buffer-pool pages of application-produced data —
    so each reclaim from it submits a victim write through the
    installed {!swapper}. Clean segments (file caches, re-fetchable
    from disk) are dropped without I/O. Registration is O(1). *)

val set_entry_evictor : t -> (unit -> int) -> unit
(** Evict one file-cache entry, returning the bytes it unpinned and
    freed. Used when the Section 3.7 rule fires. *)

type swapper = {
  swap_out : bytes:int -> on_done:(unit -> unit) -> bool;
      (** Submit an asynchronous victim write of [bytes] to backing
          store; call [on_done] at its virtual completion time. Returns
          [false] when submission is impossible (no process context),
          in which case the write is skipped and not awaited. *)
  swap_wait : (unit -> bool) -> unit;
      (** Block the calling (reclaiming) process until the predicate
          holds — the end-of-round join. Only invoked after at least
          one successful [swap_out] of the round, so it always runs in
          process context. *)
}
(** The pageout daemon's link to the disk, installed by the OS layer
    (this library cannot see the device). Victim writes for a reclaim
    round are submitted as the round progresses and joined once at the
    end, so one round's writes batch on the device instead of stalling
    the reclaiming process once per victim. *)

val set_swapper : t -> swapper -> unit

val set_pressure_hook : t -> (needed:int -> unit) -> unit
(** Called (non-blocking) at the start of every reclaim round with the
    byte deficit. The OS layer installs the delayed write-back kick
    here, so memory pressure drains the dirty backlog as clustered
    writes and later rounds find clean, directly evictable cache
    entries instead of blindly swapping dirty ones. *)

val run : t -> needed:int -> int
(** Select victims until [needed] bytes are freed or no progress can be
    made. Returns bytes freed. Usually installed as the physical memory
    low-memory hook. *)

val install : t -> unit
(** [install t] wires [run] into the physmem low-memory hook. *)

val pages_selected : t -> int
(** Total victim pages selected (lifetime, diagnostic). *)

val io_pages_selected : t -> int

val entries_evicted : t -> int
(** Number of times the Section 3.7 rule evicted a cache entry. *)

val swap_writes : t -> int
(** Victim writes submitted (lifetime). *)
