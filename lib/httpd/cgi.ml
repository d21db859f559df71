open! Import
module Sync = Iolite_sim.Sync
module Iobuf = Iolite_core.Iobuf
module Pipe = Iolite_ipc.Pipe
module Pdomain = Iolite_mem.Pdomain
module Vm = Iolite_mem.Vm

type msg = Produce | Quit

type mode = Fastcgi | Cgi11

type t = {
  kernel : Kernel.t;
  cmode : mode;
  zero_copy : bool;
  server : Process.t;
  dsize : int;
  requests : msg Sync.Mailbox.t;
  pipe : Pipe.t;
  lock : Sync.Semaphore.t; (* serializes concurrent handlers on the pipe *)
  mutable served : int;
  mutable dead : bool;
}

exception Crashed

let portion = 65536

let start ?(mode = Fastcgi) kernel ~server ~zero_copy ~doc_size =
  let sys = Kernel.sys kernel in
  let pipe =
    Pipe.create sys
      ~mode:(if zero_copy then Pipe.Zero_copy else Pipe.Copying)
      ~reader:(Process.domain server) ~reader_pool:(Process.pool server) ()
  in
  let t =
    {
      kernel;
      cmode = mode;
      zero_copy;
      server;
      dsize = doc_size;
      requests = Sync.Mailbox.create ();
      pipe;
      lock = Sync.Semaphore.create 1;
      served = 0;
      dead = false;
    }
  in
  if mode = Cgi11 then t (* processes are forked per request in serve *)
  else
  let _app =
    Process.spawn kernel ~name:"cgi-app" (fun proc ->
        (* Stream pool shared between the CGI app and the server
           (Section 3.10: per-instance pool, ACL = {app, server}). *)
        let stream_pool =
          Iobuf.Pool.create sys ~name:"cgi.stream"
            ~acl:
              (Vm.Only
                 (Pdomain.Set.of_list
                    [ Process.domain proc; Process.domain server ]))
        in
        (* Synthesize the document once and cache it (caching CGI). *)
        let doc =
          Iobuf.Agg.of_string stream_pool ~producer:(Process.domain proc)
            (String.init doc_size (fun i -> Char.chr (33 + ((i * 7) mod 90))))
        in
        Process.charge_pending proc;
        let rec loop () =
          match Sync.Mailbox.recv t.requests with
          | Quit -> ()
          | Produce ->
            if not t.dead then begin
              t.served <- t.served + 1;
              (* Send the cached document down the pipe in pipe-capacity
                 portions, one write syscall each. A crash mid-stream
                 abandons the document. *)
              let len = Iobuf.Agg.length doc in
              (try
                 let pos = ref 0 in
                 while !pos < len do
                   if t.dead then raise Crashed;
                   let n = min portion (len - !pos) in
                   let part = Iobuf.Agg.sub doc ~off:!pos ~len:n in
                   Pipe.write t.pipe part;
                   Process.charge proc (Kernel.cost kernel).Costmodel.syscall;
                   pos := !pos + n
                 done
               with Crashed | Invalid_argument _ -> ());
              loop ()
            end
        in
        loop ();
        t.dead <- true;
        Iobuf.Agg.free doc;
        Pipe.close_write t.pipe)
  in
  t

(* CGI 1.1: fork+exec a fresh process for this one request. The document
   is synthesized from scratch (no application cache survives the
   process), the pipe and its pool are cold (mapping costs), and nothing
   is reusable by the checksum cache afterwards. *)
let serve_cgi11 t server_proc =
  Process.charge server_proc (Kernel.cost t.kernel).Costmodel.proc_fork;
  let sys = Kernel.sys t.kernel in
  let pipe =
    Pipe.create sys
      ~mode:(if t.zero_copy then Pipe.Zero_copy else Pipe.Copying)
      ~reader:(Process.domain t.server)
      ~reader_pool:(Process.pool t.server) ()
  in
  let _app =
    Process.spawn t.kernel ~name:"cgi11" (fun proc ->
        let stream_pool =
          Iobuf.Pool.create sys ~name:"cgi11.stream"
            ~acl:
              (Vm.Only
                 (Pdomain.Set.of_list
                    [ Process.domain proc; Process.domain t.server ]))
        in
        let doc =
          Iobuf.Agg.of_string stream_pool ~producer:(Process.domain proc)
            (String.init t.dsize (fun i -> Char.chr (33 + ((i * 7) mod 90))))
        in
        Process.charge_pending proc;
        t.served <- t.served + 1;
        let len = Iobuf.Agg.length doc in
        let pos = ref 0 in
        while !pos < len do
          let n = min portion (len - !pos) in
          Pipe.write pipe (Iobuf.Agg.sub doc ~off:!pos ~len:n);
          Process.charge proc (Kernel.cost t.kernel).Costmodel.syscall;
          pos := !pos + n
        done;
        Iobuf.Agg.free doc;
        Pipe.close_write pipe)
  in
  let parts = ref [] in
  let got = ref 0 in
  let aborted = ref false in
  while (not !aborted) && !got < t.dsize do
    match Pipe.read pipe with
    | None -> aborted := true
    | Some agg ->
      Process.charge server_proc (Kernel.cost t.kernel).Costmodel.syscall;
      got := !got + Iobuf.Agg.length agg;
      parts := agg :: !parts
  done;
  let parts = List.rev !parts in
  if !aborted then begin
    List.iter Iobuf.Agg.free parts;
    None
  end
  else begin
    let doc = Iobuf.Agg.concat_list parts in
    List.iter Iobuf.Agg.free parts;
    Some doc
  end

let serve t server_proc =
  (let tr = Kernel.trace t.kernel in
   if Iolite_obs.Trace.enabled tr then
     Iolite_obs.Trace.instant tr ~cat:"httpd" ~name:"cgi"
       ~args:[ ("bytes", Iolite_obs.Trace.Int t.dsize) ]
       ());
  if t.cmode = Cgi11 then
    Sync.Semaphore.with_acquired t.lock (fun () ->
        if t.dead then None else serve_cgi11 t server_proc)
  else
  Sync.Semaphore.with_acquired t.lock (fun () ->
      if t.dead then None
      else begin
        Sync.Mailbox.send t.requests Produce;
        (* Read the whole document from the pipe; an early EOF means the
           application died — fault isolation: clean up and report. *)
        let parts = ref [] in
        let got = ref 0 in
        let aborted = ref false in
        while (not !aborted) && !got < t.dsize do
          match Pipe.read t.pipe with
          | None -> aborted := true
          | Some agg ->
            Process.charge server_proc (Kernel.cost t.kernel).Costmodel.syscall;
            got := !got + Iobuf.Agg.length agg;
            parts := agg :: !parts
        done;
        let parts = List.rev !parts in
        if !aborted then begin
          List.iter Iobuf.Agg.free parts;
          None
        end
        else begin
          let doc = Iobuf.Agg.concat_list parts in
          List.iter Iobuf.Agg.free parts;
          Some doc
        end
      end)

let doc_size t = t.dsize
let requests_served t = t.served

let crash t =
  if not t.dead then begin
    t.dead <- true;
    (* The dying process's pipe end closes abruptly. *)
    Pipe.close_write t.pipe;
    (* Unblock the application loop so its coroutine terminates. *)
    Sync.Mailbox.send t.requests Quit
  end

let alive t = not t.dead

let mode t = t.cmode
