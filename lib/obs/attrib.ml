type cause = Queue | Disk_service | Coalesced_wait | Vm_stall | Cpu

type record = {
  ar_id : int;
  ar_tag : string;
  ar_start : float;
  mutable ar_end : float;
  mutable ar_queue : float;
  mutable ar_disk : float;
  mutable ar_coalesced : float;
  mutable ar_vm : float;
  mutable ar_cpu : float;
  mutable ar_coalesced_on : int; (* leader flow id of the last coalesced wait *)
}

(* Size of the slowest-request reservoir. *)
let retain = 16

type t = {
  mutable enabled : bool;
  mutable clock : unit -> float;
  mutable ctx : unit -> int;
  active : (int, record) Hashtbl.t;
  mutable slowest : record list; (* sorted slowest-first, length <= retain *)
  mutable completed : int;
  (* Aggregates over every completed request, not just the retained
     tail. *)
  mutable tot_wall : float;
  mutable tot_queue : float;
  mutable tot_disk : float;
  mutable tot_coalesced : float;
  mutable tot_vm : float;
  mutable tot_cpu : float;
}

let create () =
  {
    enabled = false;
    clock = (fun () -> 0.0);
    ctx = (fun () -> 0);
    active = Hashtbl.create 64;
    slowest = [];
    completed = 0;
    tot_wall = 0.0;
    tot_queue = 0.0;
    tot_disk = 0.0;
    tot_coalesced = 0.0;
    tot_vm = 0.0;
    tot_cpu = 0.0;
  }

let[@inline] enabled t = t.enabled

let enable t ~clock ~ctx =
  t.clock <- clock;
  t.ctx <- ctx;
  t.enabled <- true

let now t = t.clock ()
let here t = t.ctx ()

let begin_request t ~ctx ~tag =
  if t.enabled && ctx > 0 then
    Hashtbl.replace t.active ctx
      {
        ar_id = ctx;
        ar_tag = tag;
        ar_start = t.clock ();
        ar_end = nan;
        ar_queue = 0.0;
        ar_disk = 0.0;
        ar_coalesced = 0.0;
        ar_vm = 0.0;
        ar_cpu = 0.0;
        ar_coalesced_on = 0;
      }

let wall r = r.ar_end -. r.ar_start

let total r =
  r.ar_queue +. r.ar_disk +. r.ar_coalesced +. r.ar_vm +. r.ar_cpu

let covered r =
  let w = wall r in
  if w <= 0.0 then 1.0 else total r /. w

let components r =
  [
    ("queue", r.ar_queue);
    ("disk_service", r.ar_disk);
    ("coalesced_wait", r.ar_coalesced);
    ("vm_stall", r.ar_vm);
    ("cpu", r.ar_cpu);
  ]

let dominant r =
  List.fold_left
    (fun ((_, bv) as best) ((_, v) as c) -> if v > bv then c else best)
    ("cpu", neg_infinity) (components r)

(* Slowest-first, ties broken by lower request id: a total order, so
   the retained set is independent of completion interleaving. *)
let record_order a b =
  match compare (wall b) (wall a) with 0 -> compare a.ar_id b.ar_id | c -> c

let rec insert_sorted r = function
  | [] -> [ r ]
  | x :: _ as l when record_order r x <= 0 -> r :: l
  | x :: rest -> x :: insert_sorted r rest

let rec truncate n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: truncate (n - 1) rest

let end_request t ~ctx =
  if t.enabled && ctx > 0 then
    match Hashtbl.find_opt t.active ctx with
    | None -> ()
    | Some r ->
      Hashtbl.remove t.active ctx;
      r.ar_end <- t.clock ();
      t.completed <- t.completed + 1;
      t.tot_wall <- t.tot_wall +. wall r;
      t.tot_queue <- t.tot_queue +. r.ar_queue;
      t.tot_disk <- t.tot_disk +. r.ar_disk;
      t.tot_coalesced <- t.tot_coalesced +. r.ar_coalesced;
      t.tot_vm <- t.tot_vm +. r.ar_vm;
      t.tot_cpu <- t.tot_cpu +. r.ar_cpu;
      t.slowest <- truncate retain (insert_sorted r t.slowest)

let note ?(leader = 0) t ~ctx cause dt =
  if t.enabled && ctx > 0 && dt > 0.0 then
    match Hashtbl.find_opt t.active ctx with
    | None -> ()
    | Some r -> (
      match cause with
      | Queue -> r.ar_queue <- r.ar_queue +. dt
      | Disk_service -> r.ar_disk <- r.ar_disk +. dt
      | Coalesced_wait ->
        r.ar_coalesced <- r.ar_coalesced +. dt;
        if leader <> 0 then r.ar_coalesced_on <- leader
      | Vm_stall -> r.ar_vm <- r.ar_vm +. dt
      | Cpu -> r.ar_cpu <- r.ar_cpu +. dt)

let timed ?leader t cause f x =
  if not t.enabled then f x
  else
    let ctx = t.ctx () in
    if ctx <= 0 then f x
    else begin
      let t0 = t.clock () in
      let v = f x in
      note ?leader t ~ctx cause (t.clock () -. t0);
      v
    end

let slowest t = t.slowest
let completed t = t.completed

let totals t =
  [
    ("wall", t.tot_wall);
    ("queue", t.tot_queue);
    ("disk_service", t.tot_disk);
    ("coalesced_wait", t.tot_coalesced);
    ("vm_stall", t.tot_vm);
    ("cpu", t.tot_cpu);
  ]
