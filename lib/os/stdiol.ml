module Iobuf = Iolite_core.Iobuf
module Iosys = Iolite_core.Iosys
module Pipe = Iolite_ipc.Pipe

let unit_size = 65536

(* ------------------------------ input ----------------------------- *)

type source = Src_file of { file : int; mutable pos : int } | Src_pipe of Pipe.t

type in_channel = {
  iproc : Process.t;
  src : source;
  mutable current : Iobuf.Agg.t option;
  mutable cur_off : int; (* consumed prefix of [current] *)
  mutable ieof : bool;
  carry : Buffer.t; (* partial line across refills *)
}

let open_file_in proc ~file =
  ignore (Fileio.stat_size proc ~file);
  {
    iproc = proc;
    src = Src_file { file; pos = 0 };
    current = None;
    cur_off = 0;
    ieof = false;
    carry = Buffer.create 256;
  }

let open_pipe_in proc pipe =
  {
    iproc = proc;
    src = Src_pipe pipe;
    current = None;
    cur_off = 0;
    ieof = false;
    carry = Buffer.create 256;
  }

(* Ensure [current] holds unconsumed data; false at EOF. *)
let rec refill ic =
  match ic.current with
  | Some agg when ic.cur_off < Iobuf.Agg.length agg -> true
  | Some agg ->
    Iobuf.Agg.free agg;
    ic.current <- None;
    ic.cur_off <- 0;
    refill ic
  | None ->
    if ic.ieof then false
    else begin
      (match ic.src with
      | Src_file f ->
        let agg = Fileio.iol_read ic.iproc ~file:f.file ~off:f.pos ~len:unit_size in
        if Iobuf.Agg.length agg = 0 then begin
          Iobuf.Agg.free agg;
          ic.ieof <- true
        end
        else begin
          f.pos <- f.pos + Iobuf.Agg.length agg;
          ic.current <- Some agg
        end
      | Src_pipe p -> (
        match Pipe.read p with
        | None -> ic.ieof <- true
        | Some agg ->
          Process.charge ic.iproc
            (Kernel.cost (Process.kernel ic.iproc)).Costmodel.syscall;
          ic.current <- Some agg));
      refill ic
    end

let input_agg ic n =
  if n <= 0 then invalid_arg "Stdiol.input_agg: size";
  if not (refill ic) then None
  else begin
    match ic.current with
    | None -> None
    | Some agg ->
      let remaining = Iobuf.Agg.length agg - ic.cur_off in
      let take = min n remaining in
      let piece = Iobuf.Agg.sub agg ~off:ic.cur_off ~len:take in
      ic.cur_off <- ic.cur_off + take;
      Some piece
  end

(* Index of the first '\n' in [agg] at or after [from]. *)
let find_newline agg ~from =
  let result = ref None in
  let pos = ref 0 in
  (try
     Iobuf.Agg.iter_slices agg (fun s ->
         let data, off = Iobuf.Slice.view s in
         let len = Iobuf.Slice.len s in
         let start = max 0 (from - !pos) in
         for i = start to len - 1 do
           if Bytes.get data (off + i) = '\n' && !result = None then begin
             result := Some (!pos + i);
             raise Stdlib.Exit
           end
         done;
         pos := !pos + len)
   with Stdlib.Exit -> ());
  !result

(* Copy [off, off+len) of [agg] into [buf] (the app-side copy, charged). *)
let append_range ic agg ~off ~len buf =
  if len > 0 then begin
    let piece = Iobuf.Agg.sub agg ~off ~len in
    Buffer.add_string buf (Iobuf.Agg.to_string (Kernel.sys (Process.kernel ic.iproc)) piece);
    Iobuf.Agg.free piece;
    Process.charge_pending ic.iproc
  end

let rec input_line ic =
  if not (refill ic) then begin
    if Buffer.length ic.carry > 0 then begin
      let line = Buffer.contents ic.carry in
      Buffer.clear ic.carry;
      Some line
    end
    else None
  end
  else begin
    match ic.current with
    | None -> None
    | Some agg -> (
      match find_newline agg ~from:ic.cur_off with
      | Some i ->
        append_range ic agg ~off:ic.cur_off ~len:(i - ic.cur_off) ic.carry;
        ic.cur_off <- i + 1;
        let line = Buffer.contents ic.carry in
        Buffer.clear ic.carry;
        Some line
      | None ->
        let len = Iobuf.Agg.length agg - ic.cur_off in
        append_range ic agg ~off:ic.cur_off ~len ic.carry;
        ic.cur_off <- Iobuf.Agg.length agg;
        input_line ic)
  end

let input_all_lines ic ~f =
  let count = ref 0 in
  let rec loop () =
    match input_line ic with
    | None -> ()
    | Some line ->
      incr count;
      f line;
      loop ()
  in
  loop ();
  !count

(* ------------------------------ output ---------------------------- *)

type sink = Snk_file of { file : int; mutable pos : int } | Snk_pipe of Pipe.t

type out_channel = {
  oproc : Process.t;
  snk : sink;
  obuf : Buffer.t;
}

let open_file_out proc ~file =
  ignore (Fileio.stat_size proc ~file);
  { oproc = proc; snk = Snk_file { file; pos = 0 }; obuf = Buffer.create unit_size }

let open_pipe_out proc pipe =
  { oproc = proc; snk = Snk_pipe pipe; obuf = Buffer.create unit_size }

let deliver oc agg =
  let kernel = Process.kernel oc.oproc in
  match oc.snk with
  | Snk_pipe p ->
    Pipe.write p agg;
    Process.charge oc.oproc (Kernel.cost kernel).Costmodel.syscall
  | Snk_file f ->
    let len = Iobuf.Agg.length agg in
    Fileio.iol_write oc.oproc ~file:f.file ~off:f.pos agg;
    f.pos <- f.pos + len

let stdio_pool oc =
  let kernel = Process.kernel oc.oproc in
  match oc.snk with
  | Snk_pipe p -> Pipe.stream_pool p
  | Snk_file _ -> Kernel.file_pool kernel

let flush oc =
  if Buffer.length oc.obuf > 0 then begin
    let data = Buffer.contents oc.obuf in
    Buffer.clear oc.obuf;
    let sys = Kernel.sys (Process.kernel oc.oproc) in
    (* Emit in unit-sized blocks (a pipe accepts at most its capacity per
       message). The app->stdio copy was charged at output_string;
       materializing the stdio buffer as an IO-Lite buffer is free. *)
    let len = String.length data in
    let pos = ref 0 in
    while !pos < len do
      let n = min unit_size (len - !pos) in
      let agg =
        Iosys.with_fill_mode sys `Dma (fun () ->
            Iobuf.Agg.of_string (stdio_pool oc) ~producer:(Iosys.kernel sys)
              (String.sub data !pos n))
      in
      deliver oc agg;
      pos := !pos + n
    done
  end

let output_string oc s =
  (* Application data enters the stdio buffer: the residual copy the
     paper observes for relinked programs. *)
  let sys = Kernel.sys (Process.kernel oc.oproc) in
  Iosys.touch sys Iosys.Copy (String.length s);
  Process.charge_pending oc.oproc;
  Buffer.add_string oc.obuf s;
  if Buffer.length oc.obuf >= unit_size then flush oc

let output_agg oc agg =
  flush oc;
  deliver oc agg

let close_out oc =
  flush oc;
  match oc.snk with Snk_pipe p -> Pipe.close_write p | Snk_file _ -> ()
