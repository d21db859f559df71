module Rng = Iolite_util.Rng
module Trace = Iolite_obs.Trace
module Attrib = Iolite_obs.Attrib

type segment = {
  name : string;
  is_io_cache : bool;
  dirty : bool;
  resident : unit -> int;
  reclaim : int -> int;
}

type swapper = {
  swap_out : bytes:int -> on_done:(unit -> unit) -> bool;
  swap_wait : (unit -> bool) -> unit;
}

type t = {
  physmem : Physmem.t;
  rng : Rng.t;
  trace : Trace.t;
  attrib : Attrib.t;
  segments : segment Queue.t;
  mutable evictor : unit -> int;
  mutable swapper : swapper option;
  mutable pressure : (needed:int -> unit) option;
  (* Counters for the Section 3.7 rule, reset at each entry eviction. *)
  mutable selected_since_evict : int;
  mutable io_selected_since_evict : int;
  (* Lifetime diagnostics. *)
  mutable total_selected : int;
  mutable total_io_selected : int;
  mutable total_evicted : int;
  mutable total_swap_writes : int;
}

let create ?trace ?attrib ~physmem ~seed () =
  {
    physmem;
    rng = Rng.create seed;
    trace = (match trace with Some tr -> tr | None -> Trace.create ());
    attrib = (match attrib with Some a -> a | None -> Attrib.create ());
    segments = Queue.create ();
    evictor = (fun () -> 0);
    swapper = None;
    pressure = None;
    selected_since_evict = 0;
    io_selected_since_evict = 0;
    total_selected = 0;
    total_io_selected = 0;
    total_evicted = 0;
    total_swap_writes = 0;
  }

(* Registration order is observation order (the weighted pick walks it),
   so segments append FIFO — O(1) per registration. *)
let register_segment ?(dirty = false) t ~name ~is_io_cache ~resident ~reclaim =
  Queue.add { name; is_io_cache; dirty; resident; reclaim } t.segments

let set_entry_evictor t f = t.evictor <- f
let set_swapper t sw = t.swapper <- Some sw
let set_pressure_hook t f = t.pressure <- Some f

(* Pick a segment with probability proportional to resident size. *)
let pick_segment t =
  let sizes =
    Queue.fold (fun acc s -> (s, s.resident ()) :: acc) [] t.segments
    |> List.rev
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 sizes in
  if total <= 0 then None
  else begin
    let target = Rng.int t.rng total in
    let rec walk acc = function
      | [] -> None
      | (s, n) :: rest ->
        if target < acc + n then Some s else walk (acc + n) rest
    in
    walk 0 sizes
  end

let run_round t needed =
  (* Memory pressure starts a clustered flush of the dirty backlog (a
     non-blocking kick): dirty cache entries become clean — and so
     evictable without the per-victim flush path — by the time later
     rounds reach them, instead of being blindly swapped out. *)
  (match t.pressure with Some f -> f ~needed | None -> ());
  let freed = ref 0 in
  let stall = ref 0 in
  (* Victim writes for the whole reclaim round are submitted
     asynchronously as the round walks segments; the daemon joins once
     at the end, so a round's writes batch on the device instead of
     stalling the reclaiming process once per victim. *)
  let outstanding = ref 0 in
  let submitted = ref false in
  let swap_victim got =
    match t.swapper with
    | None -> ()
    | Some sw ->
      incr outstanding;
      if sw.swap_out ~bytes:got ~on_done:(fun () -> decr outstanding) then begin
        submitted := true;
        t.total_swap_writes <- t.total_swap_writes + 1
      end
      else decr outstanding
  in
  (* A stall bound keeps the daemon from spinning when everything resident
     is pinned by live references. *)
  while !freed < needed && !stall < 256 do
    match pick_segment t with
    | None -> stall := 256
    | Some s ->
      t.selected_since_evict <- t.selected_since_evict + 1;
      t.total_selected <- t.total_selected + 1;
      if s.is_io_cache then begin
        t.io_selected_since_evict <- t.io_selected_since_evict + 1;
        t.total_io_selected <- t.total_io_selected + 1
      end;
      let got = s.reclaim Page.page_size in
      if got > 0 && s.dirty then swap_victim got;
      freed := !freed + got;
      (* Section 3.7 rule: more than half of recent victims held cached
         I/O data => the file cache is too large; evict one entry. *)
      let unpinned =
        if
          s.is_io_cache
          && 2 * t.io_selected_since_evict > t.selected_since_evict
        then begin
          let unpinned = t.evictor () in
          if unpinned > 0 then begin
            t.total_evicted <- t.total_evicted + 1;
            t.selected_since_evict <- 0;
            t.io_selected_since_evict <- 0
          end;
          unpinned
        end
        else 0
      in
      freed := !freed + unpinned;
      if got = 0 && unpinned = 0 then incr stall else stall := 0
  done;
  ignore t.physmem;
  (* Join: suspend the reclaiming process until every victim write of
     this round has completed. Rounds nest safely — a process that
     faults while we wait runs its own round with its own counters. *)
  (match t.swapper with
  | Some sw when !submitted -> sw.swap_wait (fun () -> !outstanding = 0)
  | _ -> ());
  if Trace.enabled t.trace then
    Trace.instant t.trace ~cat:"vm" ~name:"pageout"
      ~args:[ ("needed", Int needed); ("freed", Int !freed) ]
      ();
  !freed

(* The whole reclaim round — victim selection, submit-ring backpressure
   on the victim writes, and the end-of-round [swap_wait] join — stalls
   the process that hit the low-memory hook, so the round's duration is
   one [Vm_stall] interval on that process's request. Inner disk waits
   are not separately charged: victim writes are submitted
   asynchronously (only blocking reads carry disk attribution). *)
let run t ~needed =
  (if Trace.enabled t.trace then
     let ctx = Attrib.here t.attrib in
     if ctx <> 0 then
       Trace.flow_step t.trace ~id:ctx ~args:[ ("at", Str "pageout") ] ());
  Attrib.timed t.attrib Vm_stall (run_round t) needed

let install t =
  Physmem.set_low_memory_hook t.physmem (fun ~needed -> run t ~needed)

let pages_selected t = t.total_selected
let io_pages_selected t = t.total_io_selected
let entries_evicted t = t.total_evicted
let swap_writes t = t.total_swap_writes
