module Sync = Iolite_sim.Sync
module Proc = Iolite_sim.Engine.Proc
module Iobuf = Iolite_core.Iobuf
module Iosys = Iolite_core.Iosys
module Physmem = Iolite_mem.Physmem
module Mbuf = Iolite_net.Mbuf
module Cksum = Iolite_net.Cksum
module Metrics = Iolite_obs.Metrics
module Trace = Iolite_obs.Trace

type msg = Req of string | Fin

(* Socket send-buffer size Tss: 64 KB in all experiments (Section 5.7). *)
let tss = 65536

type listener = {
  lkernel : Kernel.t;
  lport : int;
  reserve_tss : bool;
  incoming : conn Sync.Mailbox.t;
  mutable llive : int;
  lidle : float; (* idle timeout armed at accept; 0 = off *)
}

and conn = {
  ckernel : Kernel.t;
  cport : int;
  crtt : float;
  to_server : msg Sync.Mailbox.t;
  to_client : int Sync.Mailbox.t;
  mutable client_closed : bool;
  mutable reserved : int; (* wired socket-buffer reservation *)
  mutable chome : listener option; (* counted in chome's [llive] *)
  mutable cidle : float;
  mutable ctimer : Iolite_sim.Engine.timer option;
}

let listen ?(reserve_tss = false) ?(idle_timeout = 0.0) kernel ~port =
  {
    lkernel = kernel;
    lport = port;
    reserve_tss;
    incoming = Sync.Mailbox.create ();
    llive = 0;
    lidle = idle_timeout;
  }

let port c = c.cport
let rtt c = c.crtt

let live_conns l = l.llive

let connect ?(rtt = 0.0) kernel listener =
  (* Three-way handshake: SYN, SYN-ACK, ACK. *)
  if rtt > 0.0 then Proc.sleep (1.5 *. rtt);
  let c =
    {
      ckernel = kernel;
      cport = listener.lport;
      crtt = rtt;
      to_server = Sync.Mailbox.create ();
      to_client = Sync.Mailbox.create ();
      client_closed = false;
      reserved = 0;
      chome = None;
      cidle = 0.0;
      ctimer = None;
    }
  in
  Sync.Mailbox.send listener.incoming c;
  c

let request c req =
  if c.client_closed then failwith "Sock.request: connection closed";
  if c.crtt > 0.0 then Proc.sleep (c.crtt /. 2.0);
  Sync.Mailbox.send c.to_server (Req req);
  Sync.Mailbox.recv c.to_client

let close c =
  if not c.client_closed then begin
    c.client_closed <- true;
    Sync.Mailbox.send c.to_server Fin
  end

(* Idle-timeout machinery. Timers live on the engine's timer wheel:
   arming, re-arming on every request and cancelling at teardown are
   all O(1), which is what lets a 10^6-connection population carry one
   coarse timeout each. Expiry behaves like a client-initiated close. *)
let disarm_idle c =
  match c.ctimer with
  | None -> ()
  | Some tm ->
    c.ctimer <- None;
    ignore (Iolite_sim.Engine.cancel_timer (Kernel.engine c.ckernel) tm)

let expire_idle c =
  c.ctimer <- None;
  if not c.client_closed then begin
    Metrics.incr (Kernel.metrics c.ckernel) "sock.idle_closed";
    c.client_closed <- true;
    Sync.Mailbox.send c.to_server Fin
  end

let arm_idle c =
  if c.cidle > 0.0 && not c.client_closed then begin
    let engine = Kernel.engine c.ckernel in
    c.ctimer <-
      Some
        (Iolite_sim.Engine.schedule_cancelable ~name:"sock.idle" engine
           (Iolite_sim.Engine.now engine +. c.cidle)
           (fun () -> expire_idle c))
  end

let rearm_idle c =
  if c.cidle > 0.0 then begin
    Metrics.incr (Kernel.metrics c.ckernel) "sock.idle_rearm";
    disarm_idle c;
    arm_idle c
  end

let register l c =
  c.chome <- Some l;
  l.llive <- l.llive + 1

let unregister c =
  match c.chome with
  | None -> ()
  | Some l ->
    c.chome <- None;
    l.llive <- l.llive - 1

let accept proc listener =
  let c = Sync.Mailbox.recv listener.incoming in
  Process.charge proc (Kernel.cost listener.lkernel).Costmodel.tcp_setup;
  if listener.reserve_tss then begin
    (* Conventional socket: the send buffer is wired kernel memory for
       the connection's lifetime (Section 5.7). *)
    c.reserved <- tss;
    Physmem.wire
      (Iosys.physmem (Kernel.sys listener.lkernel))
      Physmem.Net_wired c.reserved
  end;
  register listener c;
  c.cidle <- listener.lidle;
  arm_idle c;
  c

let release_reservation c =
  if c.reserved > 0 then begin
    Physmem.unwire
      (Iosys.physmem (Kernel.sys c.ckernel))
      Physmem.Net_wired c.reserved;
    c.reserved <- 0
  end

let recv proc c ~zero_copy =
  match Sync.Mailbox.recv c.to_server with
  | Fin ->
    Process.charge proc (Kernel.cost c.ckernel).Costmodel.tcp_teardown;
    release_reservation c;
    disarm_idle c;
    unregister c;
    None
  | Req s ->
    rearm_idle c;
    let kernel = Process.kernel proc in
    let cost = Kernel.cost kernel in
    let len = String.length s in
    let mtu = Iolite_net.Link.mtu (Kernel.link kernel) in
    let pkts = Costmodel.packets ~mtu len in
    (let tr = Kernel.trace kernel in
     if Trace.enabled tr then
       Trace.instant tr ~cat:"net" ~name:"recv"
         ~args:[ ("bytes", Trace.Int len) ]
         ());
    let flow = Kernel.flow kernel in
    let path_cost, rid =
      if zero_copy then begin
        (* Early demultiplexing: the packet filter classifies each packet
           to the server's pool; data is placed copy-free by the driver.
           The filter is also where a request first becomes identifiable,
           so it doubles as the flow-id allocation point. *)
        let verdict, rid =
          Iolite_net.Packetfilter.demux (Kernel.filter kernel) ~port:c.cport
        in
        (match verdict with
        | Iolite_net.Packetfilter.Demuxed _ -> ()
        | Iolite_net.Packetfilter.Unmatched ->
          (* Fall back to a delivery copy, as a conventional system. *)
          Kernel.add_pending kernel (Costmodel.copy_time cost len));
        (float_of_int pkts *. cost.Costmodel.demux, rid)
      end
      else
        (* Conventional delivery bypasses the filter; the accept-side
           demux allocates the id instead. *)
        ( Costmodel.copy_time cost len,
          if Kernel.observing kernel then Iolite_obs.Flow.fresh flow else 0 )
    in
    if rid > 0 then begin
      (* Install the request's flow context on the serving fiber: it
         rides every suspension and spawn from here (syscalls, cache
         fills, disk waits, the TCP drain). *)
      Proc.set_ctx rid;
      (* The port is the demux key. *)
      if Iolite_obs.Flow.enabled flow then
        Iolite_obs.Flow.start flow ~id:rid
          ~args:[ ("port", Trace.Int c.cport) ]
          ()
    end;
    Process.charge proc
      (cost.Costmodel.syscall
      +. Costmodel.packet_time cost ~mtu len
      +. path_cost);
    Some s

(* Asynchronous drain of a queued response: windows of at most Tss
   occupy the shared link and wait a round trip for acknowledgment. *)
let drain kernel c ~wired ~len ~chain ~on_complete =
  let link = Kernel.link kernel in
  let tr = Kernel.trace kernel in
  let a = Kernel.attrib kernel in
  (* The drain fiber inherited the request's flow context at spawn, so
     link-queue residency and window round trips charge the request. *)
  let ctx = if Iolite_obs.Attrib.enabled a then Iolite_obs.Attrib.here a else 0 in
  let t0 = if Trace.enabled tr || ctx > 0 then Proc.now () else 0.0 in
  if ctx <> 0 && Trace.enabled tr then
    Trace.flow_step tr ~id:ctx ~args:[ ("at", Trace.Str "drain") ] ();
  let rec loop remaining =
    if remaining > 0 then begin
      let window = min tss remaining in
      Iolite_net.Link.transmit link ~bytes:window;
      if c.crtt > 0.0 then Proc.sleep c.crtt;
      loop (remaining - window)
    end
  in
  loop len;
  if wired > 0 then
    Physmem.unwire (Iosys.physmem (Kernel.sys kernel)) Physmem.Net_wired wired;
  Mbuf.free chain;
  if ctx > 0 then
    Iolite_obs.Attrib.note a ~ctx Iolite_obs.Attrib.Queue (Proc.now () -. t0);
  if Trace.enabled tr then
    Trace.complete tr ~cat:"net" ~name:"drain" ~ts:t0
      ~dur:(Proc.now () -. t0)
      ~args:[ ("bytes", Trace.Int len) ]
      ();
  (match on_complete with Some f -> f (Proc.now ()) | None -> ());
  Sync.Mailbox.send c.to_client len

type send_mode =
  | Copied  (** conventional write(2): copy + full checksum *)
  | Zero_copy  (** IO-Lite: by reference, checksum cache *)
  | Spliced  (** sendfile(2): by reference, but full checksum *)

let send_mode ?on_complete proc c mode agg =
  let kernel = Process.kernel proc in
  let sys = Kernel.sys kernel in
  let cost = Kernel.cost kernel in
  let len = Iobuf.Agg.length agg in
  let mtu = Iolite_net.Link.mtu (Kernel.link kernel) in
  let chain, cksum_bytes, cksum_folds =
    match mode with
    | Zero_copy ->
      (* The data passes by reference: enforce that the caller can read
         what it is sending before the NIC does. On a warm stream (same
         pool, same domain) this is the grant-epoch comparison, not a
         chunk walk. Copied mode has copy semantics (the kernel copies
         out of staging buffers the caller may never have mapped), and
         Spliced bodies come from the kernel's own cache view, so neither
         is subject to this check. *)
      Iolite_core.Transfer.check_readable sys (Process.domain proc) agg;
      (* Per-packet checksums derived during segmentation from cached
         fragment sums: a warm resend touches no payload bytes. *)
      let d = Cksum.Cache.packet_sums (Kernel.cksum_cache kernel) agg ~mtu in
      (Mbuf.of_agg_zero_copy ~pkt_cksums:d.Cksum.dsums agg, d.Cksum.dscanned, d.Cksum.dfolds)
    | Spliced ->
      (* No copy and no buffer-identity cache, but the rope memo still
         lets whole-leaf sums be reused structurally: warm sendfile
         re-scans only the fragments that straddle packet boundaries. *)
      if Cksum.Cache.enabled (Kernel.cksum_cache kernel) then begin
        let d = Cksum.packet_sums_memo agg ~mtu in
        (Mbuf.of_agg_zero_copy ~pkt_cksums:d.Cksum.dsums agg, d.Cksum.dscanned, d.Cksum.dfolds)
      end
      else begin
        ignore (Cksum.of_agg agg);
        (Mbuf.of_agg_zero_copy agg, len, 0)
      end
    | Copied ->
      (* Conventional: copy into mbuf clusters, checksum the whole copy. *)
      let chain = Mbuf.of_agg_copied sys agg in
      Iobuf.Agg.free agg;
      (chain, len, 0)
  in
  let ns = Kernel.net_sites kernel in
  Metrics.bump ns.Kernel.ns_bytes_sent len;
  Metrics.bump ns.Kernel.ns_cksum_bytes cksum_bytes;
  Metrics.bump ns.Kernel.ns_cksum_bytes_total len;
  Metrics.bump ns.Kernel.ns_cksum_folds cksum_folds;
  (let tr = Kernel.trace kernel in
   if Trace.enabled tr then
     let mode_name =
       match mode with
       | Copied -> "copied"
       | Zero_copy -> "zero_copy"
       | Spliced -> "spliced"
     in
     Trace.instant tr ~cat:"net" ~name:"send"
       ~args:[ ("bytes", Trace.Int len); ("mode", Trace.Str mode_name) ]
       ());
  (* Wired socket-buffer memory: a conventional connection's copied data
     lives inside its Tss reservation (taken at accept); an IO-Lite
     connection wires only mbuf headers for the duration of the drain. *)
  let wired =
    if c.reserved > 0 then 0
    else min (Mbuf.wired_bytes chain) (tss + (4 * Mbuf.mbuf_header_size))
  in
  if wired > 0 then Physmem.wire (Iosys.physmem sys) Physmem.Net_wired wired;
  Process.charge proc
    (cost.Costmodel.syscall
    +. Costmodel.cksum_time cost cksum_bytes
    +. Costmodel.cksum_fold_time cost cksum_folds
    +. Costmodel.packet_time cost ~mtu len);
  Iolite_sim.Engine.spawn ~name:"tcp" (Kernel.engine kernel) (fun () ->
      drain kernel c ~wired ~len ~chain ~on_complete)

let send ?on_complete proc c ~zero_copy agg =
  send_mode ?on_complete proc c (if zero_copy then Zero_copy else Copied) agg

let sendfile ?on_complete proc c ~file ~header =
  let kernel = Process.kernel proc in
  let body = Fileio.kernel_view proc ~file in
  let header_agg =
    (* The response header is supplied by the caller and copied into
       kernel space by the syscall. *)
    Iolite_core.Iosys.with_fill_mode (Kernel.sys kernel) `As_copy (fun () ->
        Iobuf.Agg.of_string (Kernel.page_pool kernel)
          ~producer:(Iolite_core.Iosys.kernel (Kernel.sys kernel))
          header)
  in
  let resp = Iobuf.Agg.concat header_agg body in
  Iobuf.Agg.free header_agg;
  Iobuf.Agg.free body;
  let len = Iobuf.Agg.length resp in
  send_mode ?on_complete proc c Spliced resp;
  len
