open! Import
module Sync = Iolite_sim.Sync
module Proc = Iolite_sim.Engine.Proc
module Iobuf = Iolite_core.Iobuf
module Filecache = Iolite_core.Filecache
module Policy = Iolite_core.Policy
module Physmem = Iolite_mem.Physmem
module Iosys = Iolite_core.Iosys
module Filestore = Iolite_fs.Filestore
module Metrics = Iolite_obs.Metrics
module Trace = Iolite_obs.Trace
module Hist = Iolite_util.Stats.Hist

type variant = Conventional | Iolite | Sendfile

let log = Iolite_util.Logging.src "httpd"

let request_overhead = 45e-6

(* LRU cache of mmapped files, bounded by a dynamic byte budget (Flash
   caches file mappings aggressively and releases them under memory
   pressure). *)
module Mapcache = struct
  type t = {
    entries : (int, Fileio.mapping) Hashtbl.t;
    policy : Policy.t;
    budget : unit -> int;
    mutable bytes : int;
  }

  let create ~budget =
    { entries = Hashtbl.create 256; policy = Policy.lru (); budget; bytes = 0 }

  let trim t proc =
    while
      t.bytes > t.budget ()
      &&
      match t.policy.Policy.choose ~eligible:(fun (f, _) -> Hashtbl.mem t.entries f) with
      | Some (file, _) -> (
        match Hashtbl.find_opt t.entries file with
        | Some m ->
          Hashtbl.remove t.entries file;
          t.policy.Policy.on_remove (file, 0);
          t.bytes <- t.bytes - Fileio.mapping_len m;
          Fileio.munmap proc m;
          true
        | None -> false)
      | None -> false
    do
      ()
    done

  let get t proc ~file =
    let m =
      match Hashtbl.find_opt t.entries file with
      | Some m ->
        t.policy.Policy.on_access (file, 0) ~size:(Fileio.mapping_len m);
        m
      | None ->
        let m = Fileio.mmap proc ~file in
        Hashtbl.replace t.entries file m;
        t.policy.Policy.on_insert (file, 0) ~size:(Fileio.mapping_len m);
        t.bytes <- t.bytes + Fileio.mapping_len m;
        m
    in
    (* The budget is dynamic (it tracks wired memory growth), so re-check
       on every access, not just on insertion. *)
    trim t proc;
    m
end

type t = {
  kernel : Kernel.t;
  listener : Sock.listener;
  variant : variant;
  mutable requests : int;
  mutable response_bytes : int;
  mutable cgi : Cgi.t option;
}

let header_agg proc ~keep_alive ~len =
  let header = Http.response_header ~keep_alive ~content_length:len () in
  Iobuf.Agg.of_string (Process.pool proc) ~producer:(Process.domain proc) header

(* Concurrent fetches of the same file (Flash's helper processes
   coalescing on a miss) are deduplicated by the file cache's per-file
   single-flight fill latch, inside fetch_conv/fetch_unified. *)
let send_static_conv _t proc conn mapcache ~on_complete ~keep_alive ~file =
  if not (Fileio.cached_conv proc ~file) then Fileio.fetch_conv proc ~file;
  let m = Mapcache.get mapcache proc ~file in
  let body = Iobuf.Agg.dup (Fileio.mapping_agg m) in
  let header = header_agg proc ~keep_alive ~len:(Iobuf.Agg.length body) in
  let resp = Iobuf.Agg.concat header body in
  Iobuf.Agg.free header;
  Iobuf.Agg.free body;
  let len = Iobuf.Agg.length resp in
  Sock.send ~on_complete proc conn ~zero_copy:false resp;
  len

let send_static_iolite _t proc conn ~on_complete ~keep_alive ~file =
  if not (Fileio.cached_unified proc ~file) then Fileio.fetch_unified proc ~file;
  let size = Fileio.stat_size proc ~file in
  let body = Fileio.iol_read proc ~file ~off:0 ~len:size in
  let header = header_agg proc ~keep_alive ~len:(Iobuf.Agg.length body) in
  let resp = Iobuf.Agg.concat header body in
  Iobuf.Agg.free header;
  Iobuf.Agg.free body;
  let len = Iobuf.Agg.length resp in
  Sock.send ~on_complete proc conn ~zero_copy:true resp;
  len

let send_static_sendfile _t proc conn ~on_complete ~keep_alive ~file =
  if not (Fileio.cached_conv proc ~file) then Fileio.fetch_conv proc ~file;
  let size = Fileio.stat_size proc ~file in
  let header = Http.response_header ~keep_alive ~content_length:size () in
  Sock.sendfile ~on_complete proc conn ~file ~header

let send_not_found proc conn ~on_complete ~keep_alive ~zero_copy =
  let body = Http.not_found_body in
  let header =
    Http.response_header ~status:404 ~keep_alive
      ~content_length:(String.length body) ()
  in
  let resp =
    Iobuf.Agg.of_string (Process.pool proc) ~producer:(Process.domain proc)
      (header ^ body)
  in
  let len = Iobuf.Agg.length resp in
  Sock.send ~on_complete proc conn ~zero_copy resp;
  len

let send_bad_gateway proc conn ~on_complete ~zero_copy =
  (* The CGI process died: the server answers 502 and keeps running —
     fault isolation between server and third-party code. *)
  let body = "<html><body><h1>502 Bad Gateway</h1></body></html>" in
  let header =
    Http.response_header ~status:502 ~keep_alive:false
      ~content_length:(String.length body) ()
  in
  let resp =
    Iobuf.Agg.of_string (Process.pool proc) ~producer:(Process.domain proc)
      (header ^ body)
  in
  let len = Iobuf.Agg.length resp in
  Sock.send ~on_complete proc conn ~zero_copy resp;
  len

let send_cgi t proc conn ~on_complete ~keep_alive cgi =
  let zero_copy =
    match t.variant with Iolite -> true | Conventional | Sendfile -> false
  in
  match Cgi.serve cgi proc with
  | None -> send_bad_gateway proc conn ~on_complete ~zero_copy
  | Some body ->
    let header = header_agg proc ~keep_alive ~len:(Iobuf.Agg.length body) in
    let resp = Iobuf.Agg.concat header body in
    Iobuf.Agg.free header;
    Iobuf.Agg.free body;
    let len = Iobuf.Agg.length resp in
    Sock.send ~on_complete proc conn ~zero_copy resp;
    len

let handle t proc mapcache conn =
  let zero_copy =
    match t.variant with Iolite -> true | Conventional | Sendfile -> false
  in
  let rec loop () =
    match Sock.recv proc conn ~zero_copy with
    | None -> ()
    | Some raw ->
      let parsed = Http.parse_request raw in
      let rpath =
        match parsed with
        | Some { Http.path; _ } -> path
        | None -> "<malformed>"
      in
      (* The flow context was installed by [Sock.recv] at the demux
         point; open the request's wait-state decomposition before any
         CPU is charged so every edge lands in it. *)
      let rid = Proc.ctx () in
      let a = Kernel.attrib t.kernel in
      if rid > 0 then Iolite_obs.Attrib.begin_request a ~ctx:rid ~tag:rpath;
      Process.charge proc request_overhead;
      (* Latency is measured request-arrival to last-byte-drained: the
         completion hook fires from the asynchronous TCP drain, so the
         response bytes are captured through a cell it closes over. *)
      let t0 = Proc.now () in
      let sent_cell = ref 0 in
      let on_complete t_end =
        let dt = t_end -. t0 in
        Metrics.observe (Kernel.metrics t.kernel) "httpd.request_latency_s" dt;
        let tr = Kernel.trace t.kernel in
        if Trace.enabled tr then begin
          Trace.complete tr ~cat:"httpd" ~name:"request" ~ts:t0 ~dur:dt
            ~args:
              [ ("path", Trace.Str rpath); ("bytes", Trace.Int !sent_cell) ]
            ();
          if rid > 0 then
            Iolite_obs.Flow.finish (Kernel.flow t.kernel) ~id:rid
              ~args:[ ("path", Trace.Str rpath) ]
              ()
        end;
        if rid > 0 then Iolite_obs.Attrib.end_request a ~ctx:rid
      in
      let sent =
        match parsed with
        | None ->
          send_not_found proc conn ~on_complete ~keep_alive:false ~zero_copy
        | Some { Http.path; keep_alive } -> (
          match (t.cgi, path) with
          | Some cgi, "/cgi" -> send_cgi t proc conn ~on_complete ~keep_alive cgi
          | _, _ -> (
            let store = Kernel.store t.kernel in
            match Filestore.lookup store path with
            | None -> send_not_found proc conn ~on_complete ~keep_alive ~zero_copy
            | Some file -> (
              match t.variant with
              | Conventional ->
                send_static_conv t proc conn mapcache ~on_complete ~keep_alive
                  ~file
              | Sendfile ->
                send_static_sendfile t proc conn ~on_complete ~keep_alive ~file
              | Iolite ->
                send_static_iolite t proc conn ~on_complete ~keep_alive ~file)))
      in
      sent_cell := sent;
      t.requests <- t.requests + 1;
      t.response_bytes <- t.response_bytes + sent;
      (* The response is now the drain fiber's business (it carries the
         flow context); the handler is idle until the next request. *)
      if rid <> 0 then Proc.set_ctx 0;
      loop ()
  in
  loop ()

let start ?(variant = Iolite) ?cgi_doc_size ?cgi_mode ?policy ?idle_timeout
    kernel ~port =
  let reserve_tss =
    match variant with Conventional | Sendfile -> true | Iolite -> false
  in
  let listener = Sock.listen ~reserve_tss ?idle_timeout kernel ~port in
  let t =
    { kernel; listener; variant; requests = 0; response_bytes = 0; cgi = None }
  in
  Logs.info ~src:log (fun m ->
      m "starting %s on port %d%s"
        (match variant with
        | Iolite -> "Flash-Lite"
        | Conventional -> "Flash"
        | Sendfile -> "Flash (sendfile)")
        port
        (match cgi_doc_size with
        | Some n -> Printf.sprintf " with a %d-byte FastCGI app" n
        | None -> ""));
  let _server =
    Process.spawn kernel ~name:"flash" (fun proc ->
        (match variant with
        | Iolite ->
          (* Customize the unified cache replacement policy (GDS). *)
          let policy =
            match policy with Some p -> p | None -> Policy.gds ()
          in
          Filecache.set_policy (Kernel.unified_cache kernel) policy;
          (* Early demultiplexing: bind the listening port to the server
             pool so incoming data lands copy-free with the right ACL. *)
          Iolite_net.Packetfilter.bind (Kernel.filter kernel) ~port
            (Process.pool proc)
        | Conventional | Sendfile -> ());
        (match cgi_doc_size with
        | Some doc_size ->
          let zero_copy =
            match variant with Iolite -> true | Conventional | Sendfile -> false
          in
          t.cgi <-
            Some (Cgi.start ?mode:cgi_mode kernel ~server:proc ~zero_copy ~doc_size)
        | None -> ());
        let mapcache =
          Mapcache.create ~budget:(fun () ->
              Physmem.io_budget (Iosys.physmem (Kernel.sys kernel)) * 7 / 8)
        in
        let rec accept_loop () =
          let conn = Sock.accept proc listener in
          (* Event-driven: handlers are coroutines of the single server
             process; all CPU is charged to one pid (and all trace
             events to one simulated thread). *)
          Proc.spawn ~name:"flash" (fun () -> handle t proc mapcache conn);
          accept_loop ()
        in
        accept_loop ())
  in
  t

let listener t = t.listener
let variant t = t.variant
let requests t = t.requests
let response_bytes t = t.response_bytes

let cgi_handle t = t.cgi

let cksum_stats t =
  let m = Kernel.metrics t.kernel in
  let total = Metrics.get m "net.cksum_bytes_total" in
  let scanned = Metrics.get m "net.cksum_bytes" in
  (total, scanned, total - scanned)

let latency_stats t =
  match
    Metrics.find_hist (Kernel.metrics t.kernel) "httpd.request_latency_s"
  with
  | Some h when Hist.count h > 0 -> Some (Hist.summary h)
  | Some _ | None -> None
