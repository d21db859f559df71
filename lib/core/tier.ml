module Metrics = Iolite_obs.Metrics
module Trace = Iolite_obs.Trace

(* A resident extent: bytes by value (the tier is its own pool — nothing
   here pins DRAM buffers), with the dirty-generation stamp of the bytes
   and the write-ahead pin. Entries never overlap within a file. *)
type entry = {
  zfile : int;
  zoff : int;
  zlen : int;
  zdata : string;
  zgen : int;
  mutable zstaged : bool;
}

module Map = Extmap.Make (struct
  type t = entry

  let file e = e.zfile
  let off e = e.zoff
  let len e = e.zlen
end)

type cells = {
  tc_hit : int ref;
  tc_miss : int ref;
  tc_demote : int ref;
  tc_promote : int ref;
  tc_stage : int ref;
  tc_evict : int ref;
}

type t = {
  sys : Iosys.t;
  policy : Policy.t;
  map : Map.t;
  cells : cells;
  mutable staged : int;
  mutable capacity : (unit -> int) option;
  mutable charge : (float -> unit) option;
}

(* The simulated NVMM transfer rate, both directions. *)
let bytes_per_sec = 20e6

let create ?(policy = Policy.gds ()) sys () =
  let m = Iosys.metrics sys in
  {
    sys;
    policy;
    map =
      Map.create
        ~sentinel:
          { zfile = -1; zoff = min_int; zlen = 0; zdata = ""; zgen = 0;
            zstaged = false }
        ();
    cells =
      {
        tc_hit = Metrics.counter m "cache.tier.hit";
        tc_miss = Metrics.counter m "cache.tier.miss";
        tc_demote = Metrics.counter m "cache.tier.demote";
        tc_promote = Metrics.counter m "cache.tier.promote";
        tc_stage = Metrics.counter m "cache.tier.wb_stage";
        tc_evict = Metrics.counter m "cache.tier.evict";
      };
    staged = 0;
    capacity = None;
    charge = None;
  }

let set_capacity t cap = t.capacity <- cap
let capacity t = Option.map (fun f -> f ()) t.capacity
let set_charge t f = t.charge <- f
let read_time _ ~bytes = float_of_int bytes /. bytes_per_sec
let write_time _ ~bytes = float_of_int bytes /. bytes_per_sec

let total_bytes t = Map.total_bytes t.map
let staged_bytes t = t.staged
let entry_count t = Map.count t.map

let trace_instant t ~name ~file ~bytes =
  let tr = Iosys.trace t.sys in
  if Trace.enabled tr then
    Trace.instant tr ~cat:"tier" ~name
      ~args:[ ("file", Trace.Int file); ("bytes", Trace.Int bytes) ]
      ()

let add_entry t e =
  Map.add t.map e;
  if e.zstaged then t.staged <- t.staged + e.zlen;
  t.policy.Policy.on_insert (e.zfile, e.zoff) ~size:e.zlen

let drop_entry t e =
  Map.remove t.map e;
  t.policy.Policy.on_remove (e.zfile, e.zoff);
  if e.zstaged then t.staged <- t.staged - e.zlen

(* Remove [off, off+len) from the overlapping entries, re-admitting any
   flanks outside the range (same bytes, same generation). [keep_staged]
   leaves pinned entries whole — the promote path must not disturb a
   write-ahead copy whose disk write is still in flight. *)
let remove_range ?(keep_staged = false) t ~file ~off ~len =
  List.iter
    (fun e ->
      if not (keep_staged && e.zstaged) then begin
        drop_entry t e;
        if e.zoff < off then
          add_entry t
            {
              e with
              zlen = off - e.zoff;
              zdata = String.sub e.zdata 0 (off - e.zoff);
            };
        let e_end = e.zoff + e.zlen in
        if e_end > off + len then
          add_entry t
            {
              e with
              zoff = off + len;
              zlen = e_end - (off + len);
              zdata =
                String.sub e.zdata (off + len - e.zoff) (e_end - (off + len));
            }
      end)
    (Map.overlapping t.map ~file ~off ~len)

let covered t ~file ~off ~len = len > 0 && Map.covered t.map ~file ~off ~len

(* Evict under the policy until within the byte budget; staged entries
   are pinned (their bytes back an in-flight disk write). *)
let enforce_capacity t =
  match t.capacity with
  | None -> ()
  | Some cap ->
    let budget = cap () in
    let progress = ref true in
    while total_bytes t > budget && !progress do
      match Map.victim t.map t.policy ~eligible:(fun e -> not e.zstaged) with
      | Some e ->
        drop_entry t e;
        incr t.cells.tc_evict;
        trace_instant t ~name:"evict" ~file:e.zfile ~bytes:e.zlen
      | None -> progress := false
    done

let admit t ~staged ~file ~off ~gen data =
  let len = String.length data in
  if len > 0 then begin
    (* A staged overlap is at least as new as the incoming bytes and its
       pin must not be disturbed: veto the admission. (The staging path
       itself never overlaps a staged range — the write-back layer's
       in-flight reservation serializes clusters per range.) *)
    let staged_overlap =
      List.exists (fun e -> e.zstaged) (Map.overlapping t.map ~file ~off ~len)
    in
    if not staged_overlap then begin
      remove_range t ~file ~off ~len;
      add_entry t
        { zfile = file; zoff = off; zlen = len; zdata = data; zgen = gen;
          zstaged = staged };
      (match t.charge with
      | Some f -> f (write_time t ~bytes:len)
      | None -> ());
      if staged then begin
        incr t.cells.tc_stage;
        trace_instant t ~name:"wb_stage" ~file ~bytes:len
      end
      else begin
        incr t.cells.tc_demote;
        trace_instant t ~name:"demote" ~file ~bytes:len
      end;
      if not staged then enforce_capacity t
    end
  end

let demote t ~file ~off ~gen data = admit t ~staged:false ~file ~off ~gen data
let stage t ~file ~off ~gen data = admit t ~staged:true ~file ~off ~gen data

let unstage t ~file ~off ~len =
  List.iter
    (fun e ->
      if e.zstaged && e.zoff >= off && e.zoff + e.zlen <= off + len then begin
        e.zstaged <- false;
        t.staged <- t.staged - e.zlen
      end)
    (Map.overlapping t.map ~file ~off ~len);
  enforce_capacity t

let promote t ~file ~off ~len =
  if not (covered t ~file ~off ~len) then begin
    incr t.cells.tc_miss;
    (* The caller will refill the whole range from disk; a stale
       fragment left behind could then disagree with the fresh copy
       above it, so drop any unstaged partial overlap. *)
    remove_range ~keep_staged:true t ~file ~off ~len;
    None
  end
  else begin
    let e = Map.floor t.map ~file ~off in
    let data =
      if e.zoff = off && e.zlen = len then
        (* One entry is the whole range: hand its string over uncopied.
           Strings are immutable, and the entry leaves the tier below
           (or stays pinned, bytes unchanged, if staged). *)
        e.zdata
      else begin
        let buf = Bytes.create len in
        List.iter
          (fun e ->
            let start = max off e.zoff in
            let stop = min (off + len) (e.zoff + e.zlen) in
            Bytes.blit_string e.zdata (start - e.zoff) buf (start - off)
              (stop - start))
          (Map.overlapping t.map ~file ~off ~len);
        Bytes.unsafe_to_string buf
      end
    in
    (* Exclusive tiering: the promoted bytes move up — remove them here
       (staged entries excepted; their pin outlives the promotion). *)
    remove_range ~keep_staged:true t ~file ~off ~len;
    incr t.cells.tc_hit;
    incr t.cells.tc_promote;
    trace_instant t ~name:"promote" ~file ~bytes:len;
    Some data
  end

let invalidate t ~file ~off ~len =
  if len > 0 then begin
    (* Newer bytes exist above: staged copies are dropped too — the
       in-flight cluster owns its own payload, and [unstage] tolerates
       the gap. Fix the pin accounting before the generic removal. *)
    List.iter
      (fun e ->
        if e.zstaged then begin
          e.zstaged <- false;
          t.staged <- t.staged - e.zlen
        end)
      (Map.overlapping t.map ~file ~off ~len);
    remove_range t ~file ~off ~len
  end

let entries t ~file =
  List.map
    (fun e -> (e.zoff, e.zdata, e.zgen, e.zstaged))
    (Map.file_extents t.map ~file)

let check t =
  Map.check t.map;
  let staged = ref 0 in
  Map.iter t.map (fun e -> if e.zstaged then staged := !staged + e.zlen);
  if !staged <> t.staged then
    Printf.ksprintf failwith "staged %d bytes counted, %d walked" t.staged
      !staged
