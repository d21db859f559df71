open! Import
module Iobuf = Iolite_core.Iobuf
module Filestore = Iolite_fs.Filestore

let request_overhead = 420e-6

type t = {
  kernel : Kernel.t;
  listener : Sock.listener;
  mutable requests : int;
  mutable response_bytes : int;
  mutable cgi : Cgi.t option;
}

let header_agg proc ~keep_alive ~len =
  let header = Http.response_header ~keep_alive ~content_length:len () in
  Iobuf.Agg.of_string (Process.pool proc) ~producer:(Process.domain proc) header

let send_static t proc conn ~keep_alive ~file =
  ignore t;
  (* Apache maps the file for this request and unmaps afterwards. *)
  let m = Fileio.mmap proc ~file in
  let body = Iobuf.Agg.dup (Fileio.mapping_agg m) in
  let header = header_agg proc ~keep_alive ~len:(Iobuf.Agg.length body) in
  let resp = Iobuf.Agg.concat header body in
  Iobuf.Agg.free header;
  Iobuf.Agg.free body;
  let len = Iobuf.Agg.length resp in
  Sock.send proc conn ~zero_copy:false resp;
  Fileio.munmap proc m;
  len

let send_not_found proc conn ~keep_alive =
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
  Sock.send proc conn ~zero_copy:false resp;
  len

let send_cgi t proc conn ~keep_alive cgi =
  ignore t;
  match Cgi.serve cgi proc with
  | None ->
    (* The CGI process died: 502, and the worker keeps serving. *)
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
    Sock.send proc conn ~zero_copy:false resp;
    len
  | Some body ->
    let header = header_agg proc ~keep_alive ~len:(Iobuf.Agg.length body) in
    let resp = Iobuf.Agg.concat header body in
    Iobuf.Agg.free header;
    Iobuf.Agg.free body;
    let len = Iobuf.Agg.length resp in
    Sock.send proc conn ~zero_copy:false resp;
    len

let handle t proc conn =
  let rec loop () =
    match Sock.recv proc conn ~zero_copy:false with
    | None -> ()
    | Some raw ->
      Process.charge proc request_overhead;
      let sent =
        match Http.parse_request raw with
        | None -> send_not_found proc conn ~keep_alive:false
        | Some { Http.path; keep_alive } -> (
          match (t.cgi, path) with
          | Some cgi, "/cgi" -> send_cgi t proc conn ~keep_alive cgi
          | _, _ -> (
            match Filestore.lookup (Kernel.store t.kernel) path with
            | None -> send_not_found proc conn ~keep_alive
            | Some file -> send_static t proc conn ~keep_alive ~file))
      in
      t.requests <- t.requests + 1;
      t.response_bytes <- t.response_bytes + sent;
      loop ()
  in
  loop ()

let worker_footprint = 200 * 1024

let start ?(workers = 64) ?cgi_doc_size kernel ~port =
  let listener = Sock.listen ~reserve_tss:true kernel ~port in
  let t =
    { kernel; listener; requests = 0; response_bytes = 0; cgi = None }
  in
  (* The FastCGI application is shared by all workers (requests to it are
     serialized by the Cgi module's pipe lock). Its pipe reads with the
     first worker's domain; delivery copies work for every worker. *)
  for i = 1 to workers do
    ignore
      (Process.spawn ~footprint:worker_footprint kernel
         ~name:(Printf.sprintf "apache-%d" i) (fun proc ->
           (match (i, cgi_doc_size) with
           | 1, Some doc_size ->
             t.cgi <-
               Some (Cgi.start kernel ~server:proc ~zero_copy:false ~doc_size)
           | _, _ -> ());
           let rec accept_loop () =
             let conn = Sock.accept proc listener in
             handle t proc conn;
             accept_loop ()
           in
           accept_loop ()))
  done;
  t

let listener t = t.listener
let requests t = t.requests
let response_bytes t = t.response_bytes
