module Sync = Iolite_sim.Sync
module Iobuf = Iolite_core.Iobuf
module Iosys = Iolite_core.Iosys
open Iolite_mem

type mode = Copying | Zero_copy

(* Queued messages: [Direct] aggregates pass by reference (zero-copy);
   [Staged] strings model data sitting in kernel pipe buffers, copied
   into the reader's pool at delivery. *)
type item = Direct of Iobuf.Agg.t | Staged of string

(* Byte capacity, as BSD's pipes. *)
let capacity = 65536

type t = {
  sys : Iosys.t;
  mode : mode;
  reader : Pdomain.t;
  reader_pool : Iobuf.Pool.t;
  spool : Iobuf.Pool.t; (* the I/O stream's buffer pool *)
  queue : item Queue.t;
  mutable in_flight : int;
  mutable transferred : int;
  mutable write_closed : bool;
  readable : Sync.Condvar.t;
  writable : Sync.Condvar.t;
}

let item_len = function
  | Direct agg -> Iobuf.Agg.length agg
  | Staged s -> String.length s

let create ?writer sys ~mode ~reader ~reader_pool () =
  let spool =
    match writer with
    | None -> reader_pool
    | Some w ->
      Iobuf.Pool.create sys ~name:"pipe.stream"
        ~acl:(Iolite_mem.Vm.Only (Pdomain.Set.of_list [ w; reader ]))
  in
  {
    sys;
    mode;
    reader;
    reader_pool;
    spool;
    queue = Queue.create ();
    in_flight = 0;
    transferred = 0;
    write_closed = false;
    readable = Sync.Condvar.create ();
    writable = Sync.Condvar.create ();
  }

let mode t = t.mode
let stream_pool t = t.spool

let enqueue t item =
  Queue.push item t.queue;
  t.in_flight <- t.in_flight + item_len item;
  Sync.Condvar.signal t.readable

let rec wait_for_room t needed =
  if t.write_closed then invalid_arg "Pipe.write: write end closed";
  if t.in_flight + needed > capacity && t.in_flight > 0 then begin
    Sync.Condvar.wait t.writable;
    wait_for_room t needed
  end

(* Copying discipline: copy the writer's bytes into kernel pipe buffers
   (first copy), in at most capacity-sized portions. The second copy
   happens at [read] when the data moves into the reader's pool. *)
let write_copying t agg =
  let len = Iobuf.Agg.length agg in
  let pos = ref 0 in
  while !pos < len do
    let portion = min capacity (len - !pos) in
    wait_for_room t portion;
    let part = Iobuf.Agg.sub agg ~off:!pos ~len:portion in
    (* First copy: user -> kernel pipe buffer. *)
    let data = Iobuf.Agg.to_string t.sys part in
    Iobuf.Agg.free part;
    enqueue t (Staged data);
    pos := !pos + portion
  done;
  Iobuf.Agg.free agg

let write_zero_copy t agg =
  let len = Iobuf.Agg.length agg in
  if len > capacity then
    invalid_arg "Pipe.write: aggregate exceeds pipe capacity";
  wait_for_room t len;
  (* Grant the reader access; warm streams cost no VM work. *)
  Iolite_core.Transfer.grant t.sys agg ~to_:t.reader;
  enqueue t (Direct agg)

let write t agg =
  if t.write_closed then invalid_arg "Pipe.write: write end closed";
  let len = Iobuf.Agg.length agg in
  if len = 0 then Iobuf.Agg.free agg
  else begin
    match t.mode with
    | Copying -> write_copying t agg
    | Zero_copy -> write_zero_copy t agg
  end

(* POSIX writer: the data starts in the writer's private memory. In
   copying mode the kernel copies it into pipe buffers; on an IO-Lite
   pipe the backward-compatible write copies it once into IO-Lite
   buffers, after which it travels by reference. *)
let write_posix t s =
  if t.write_closed then invalid_arg "Pipe.write: write end closed";
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let portion = min capacity (len - !pos) in
    wait_for_room t portion;
    let part = String.sub s !pos portion in
    (match t.mode with
    | Copying ->
      Iosys.touch t.sys Iosys.Copy portion;
      enqueue t (Staged part)
    | Zero_copy ->
      let agg =
        Iosys.with_fill_mode t.sys `As_copy (fun () ->
            Iobuf.Agg.of_string t.spool ~producer:(Iosys.kernel t.sys) part)
      in
      Iolite_core.Transfer.grant t.sys agg ~to_:t.reader;
      enqueue t (Direct agg));
    pos := !pos + portion
  done

let write_string t ~producer ~pool s =
  write t (Iobuf.Agg.of_string pool ~producer s)

let rec read t =
  match Queue.take_opt t.queue with
  | Some item ->
    let len = item_len item in
    t.in_flight <- t.in_flight - len;
    t.transferred <- t.transferred + len;
    Sync.Condvar.broadcast t.writable;
    let agg =
      match item with
      | Direct agg ->
        (* Consumer-side enforcement before the reader touches the bytes;
           on a warm stream this is the epoch comparison, not a walk. *)
        Iolite_core.Transfer.check_readable t.sys t.reader agg;
        agg
      | Staged data ->
        (* Second copy: kernel pipe buffer -> the reader's pool. *)
        Iosys.with_fill_mode t.sys `As_copy (fun () ->
            Iobuf.Agg.of_string t.reader_pool ~producer:(Iosys.kernel t.sys)
              data)
    in
    Some agg
  | None ->
    if t.write_closed then None
    else begin
      Sync.Condvar.wait t.readable;
      read t
    end

let close_write t =
  t.write_closed <- true;
  Sync.Condvar.broadcast t.readable

let bytes_in_flight t = t.in_flight
let bytes_transferred t = t.transferred
