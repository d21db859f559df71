module Engine = Iolite_sim.Engine
module Kernel = Iolite_os.Kernel
module Sock = Iolite_os.Sock
module Flash = Iolite_httpd.Flash
module Apache = Iolite_httpd.Apache
module Http = Iolite_httpd.Http
module Counter = Iolite_obs.Metrics
module Cksum = Iolite_net.Cksum
module Cgi = Iolite_httpd.Cgi

let mk () =
  let engine = Engine.create () in
  let kernel = Kernel.create engine in
  (engine, kernel)

let test_parse_request () =
  (match Http.parse_request (Http.request_string "/x/y.html") with
  | Some { Http.path; keep_alive } ->
    Alcotest.(check string) "path" "/x/y.html" path;
    Alcotest.(check bool) "1.0 not keep alive" false keep_alive
  | None -> Alcotest.fail "parse failed");
  (match Http.parse_request (Http.request_string ~keep_alive:true "/k") with
  | Some { Http.keep_alive; _ } ->
    Alcotest.(check bool) "1.1 keep alive" true keep_alive
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check bool) "garbage rejected" true
    (Http.parse_request "NONSENSE\r\n" = None)

let test_response_header () =
  let h = Http.response_header ~content_length:1234 () in
  Alcotest.(check bool) "mentions length" true
    (let needle = "Content-Length: 1234" in
     let rec scan i =
       i + String.length needle <= String.length h
       && (String.sub h i (String.length needle) = needle || scan (i + 1))
     in
     scan 0);
  Alcotest.(check bool) "reasonable size" true
    (String.length h > 150 && String.length h < 300)

(* The Printf-based message code the concatenating versions replaced,
   kept verbatim as the reference: the new code must agree byte for
   byte. *)
module Printf_http = struct
  let request_string ?(keep_alive = false) path =
    Printf.sprintf
      "GET %s HTTP/1.%d\r\nHost: server.example.edu\r\nUser-Agent: \
       repro-client/1.0\r\nAccept: */*\r\n%s\r\n"
      path
      (if keep_alive then 1 else 0)
      (if keep_alive then "Connection: keep-alive\r\n" else "")

  let parse_request s =
    match String.index_opt s '\r' with
    | None -> None
    | Some eol -> (
      let line = String.sub s 0 eol in
      match String.split_on_char ' ' line with
      | [ "GET"; path; proto ] ->
        let keep_alive =
          String.equal proto "HTTP/1.1"
          ||
          (* Cheap header scan; enough for the simulated clients. *)
          let rec contains i =
            i >= 0
            &&
            (String.length s - i >= 10 && String.sub s i 10 = "keep-alive"
            || contains (i - 1))
          in
          contains (String.length s - 10)
        in
        Some { Http.path; keep_alive }
      | _ -> None)

  let response_header ?(status = 200) ?(keep_alive = false) ~content_length
      () =
    Printf.sprintf
      "HTTP/1.%d %d %s\r\nDate: Thu, 04 Feb 1999 21:00:00 GMT\r\nServer: \
       Flash/0.1 (FreeBSD 2.2.6)\r\nContent-Type: text/html\r\nLast-Modified: \
       Mon, 01 Feb 1999 09:00:00 GMT\r\nContent-Length: %d\r\nConnection: \
       %s\r\n\r\n"
      (if keep_alive then 1 else 0)
      status
      (match status with
      | 200 -> "OK"
      | 404 -> "Not Found"
      | 502 -> "Bad Gateway"
      | _ -> "Unknown")
      content_length
      (if keep_alive then "keep-alive" else "close")
end

(* Request-like strings: pieces of real requests glued at random, so
   the generator hits missing '\r', extra and missing spaces, empty
   paths, other methods, both protocol versions and "keep-alive" (and
   near misses) anywhere in the string. *)
let gen_request_like =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        oneofl
          [
            "GET"; "GET "; "POST "; "GE"; " "; "  "; "/"; "/doc"; "/doc/r17";
            "HTTP/1.0"; "HTTP/1.1"; "HTTP/1.10"; " HTTP/1.1"; "\r"; "\n";
            "\r\n"; "keep-alive"; "keep-aliv"; "kkeep-alive"; "k";
            "Connection: keep-alive\r\n"; "Host: a b\r\n"; "";
          ];
        string_size ~gen:(oneofl [ 'k'; 'e'; 'p'; '-'; 'a'; ' '; '\r'; 'G' ])
          (int_range 0 12);
      ]
  in
  let glued = map (String.concat "") (list_size (int_range 0 10) piece) in
  let real =
    map2
      (fun keep_alive path -> Http.request_string ~keep_alive path)
      bool
      (oneofl [ ""; "/"; "/doc"; "/a b"; "/keep-alive" ])
  in
  frequency [ (4, glued); (1, real) ]

let prop_parse_request_matches_printf =
  QCheck.Test.make ~count:2000 ~name:"parse_request matches the reference"
    (QCheck.make ~print:String.escaped gen_request_like)
    (fun s -> Http.parse_request s = Printf_http.parse_request s)

let test_parse_request_directed () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (String.escaped s) true
        (Http.parse_request s = Printf_http.parse_request s))
    [
      ""; "GET"; "GET\r"; "GET \r"; "GET  \r"; "GET / HTTP/1.1";
      "GET / HTTP/1.1\r\n"; "GET  HTTP/1.0\r\n"; "GET /  HTTP/1.0\r\n";
      " GET / HTTP/1.0\r\n"; "GET / HTTP/1.0 \r\n"; "GET /a\r\n";
      "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
      "GET /keep-alive HTTP/1.0\r\n"; "keep-alive"; "GET / x\rkeep-alive";
      "GET / x\rkeep-aliv"; "GET / HTTP/1.1x\r";
    ]

let test_messages_match_printf () =
  List.iter
    (fun keep_alive ->
      List.iter
        (fun status ->
          List.iter
            (fun content_length ->
              Alcotest.(check string)
                (Printf.sprintf "header %d %b %d" status keep_alive
                   content_length)
                (Printf_http.response_header ~status ~keep_alive
                   ~content_length ())
                (Http.response_header ~status ~keep_alive ~content_length ()))
            [ 0; 9; 10; 12345; max_int; -42; min_int ])
        [ 200; 404; 502; 500 ];
      List.iter
        (fun path ->
          Alcotest.(check string)
            (Printf.sprintf "request %S %b" path keep_alive)
            (Printf_http.request_string ~keep_alive path)
            (Http.request_string ~keep_alive path))
        [ ""; "/"; "/doc/r42"; "/a b"; "/keep-alive" ])
    [ false; true ];
  Alcotest.(check string) "defaults"
    (Printf_http.response_header ~content_length:7 ())
    (Http.response_header ~content_length:7 ());
  Alcotest.(check string) "request default"
    (Printf_http.request_string "/x")
    (Http.request_string "/x")

(* Drive one request against a server and return (status bytes, total). *)
let one_request kernel listener ~path =
  let result = ref 0 in
  Engine.spawn (Kernel.engine kernel) (fun () ->
      let conn = Sock.connect kernel listener in
      result := Sock.request conn (Http.request_string path);
      Sock.close conn);
  Engine.run (Kernel.engine kernel);
  !result

let test_flash_lite_serves_file () =
  let _, kernel = mk () in
  let _file = Kernel.add_file kernel ~name:"/doc" ~size:12_345 in
  let server = Flash.start ~variant:Flash.Iolite kernel ~port:80 in
  let n = one_request kernel (Flash.listener server) ~path:"/doc" in
  Alcotest.(check bool) "response = header + body" true
    (n > 12_345 && n < 12_345 + 400);
  Alcotest.(check int) "server counted request" 1 (Flash.requests server);
  Alcotest.(check int) "zero payload copies" 0
    (Counter.get (Kernel.metrics kernel) "bytes.copied")

let test_flash_conv_serves_file () =
  let _, kernel = mk () in
  let _file = Kernel.add_file kernel ~name:"/doc" ~size:12_345 in
  let server = Flash.start ~variant:Flash.Conventional kernel ~port:80 in
  let n = one_request kernel (Flash.listener server) ~path:"/doc" in
  Alcotest.(check bool) "served" true (n > 12_345);
  (* Conventional send copies the response payload into mbufs. *)
  Alcotest.(check bool) "payload copied" true
    (Counter.get (Kernel.metrics kernel) "bytes.copied" >= 12_345)

let test_apache_serves_file () =
  let _, kernel = mk () in
  let _file = Kernel.add_file kernel ~name:"/doc" ~size:9_999 in
  let server = Apache.start ~workers:4 kernel ~port:80 in
  let n = one_request kernel (Apache.listener server) ~path:"/doc" in
  Alcotest.(check bool) "served" true (n > 9_999);
  Alcotest.(check int) "counted" 1 (Apache.requests server)

let test_404 () =
  let _, kernel = mk () in
  let server = Flash.start ~variant:Flash.Iolite kernel ~port:80 in
  let n = one_request kernel (Flash.listener server) ~path:"/missing" in
  Alcotest.(check bool) "small 404 response" true (n > 0 && n < 400)

let test_keep_alive_multiple () =
  let _, kernel = mk () in
  ignore (Kernel.add_file kernel ~name:"/doc" ~size:500);
  let server = Flash.start ~variant:Flash.Iolite kernel ~port:80 in
  let total = ref 0 in
  Engine.spawn (Kernel.engine kernel) (fun () ->
      let conn = Sock.connect kernel (Flash.listener server) in
      for _ = 1 to 7 do
        total := !total + Sock.request conn (Http.request_string ~keep_alive:true "/doc")
      done;
      Sock.close conn);
  Engine.run (Kernel.engine kernel);
  Alcotest.(check int) "seven responses" 7 (Flash.requests server);
  Alcotest.(check bool) "bytes flowed" true (!total > 7 * 500)

let test_flash_lite_checksum_cache_effect () =
  let _, kernel = mk () in
  ignore (Kernel.add_file kernel ~name:"/doc" ~size:50_000);
  let server = Flash.start ~variant:Flash.Iolite kernel ~port:80 in
  Engine.spawn (Kernel.engine kernel) (fun () ->
      let conn = Sock.connect kernel (Flash.listener server) in
      for _ = 1 to 5 do
        ignore (Sock.request conn (Http.request_string ~keep_alive:true "/doc"))
      done;
      Sock.close conn);
  Engine.run (Kernel.engine kernel);
  let computed = Counter.get (Kernel.metrics kernel) "net.cksum_bytes" in
  let sent = Counter.get (Kernel.metrics kernel) "net.bytes_sent" in
  (* File checksummed once (~50KB) + one ~200B header per response; far
     less than the ~250KB transmitted. *)
  Alcotest.(check bool) "checksum cache effective" true
    (computed < 53_000 && sent > 245_000);
  Alcotest.(check bool) "cache recorded hits" true
    (Cksum.Cache.hits (Kernel.cksum_cache kernel) > 0);
  (* Exactly: the body is scanned once (first transmission) and each
     subsequent warm request touches only its fresh header bytes. *)
  let h =
    String.length (Http.response_header ~keep_alive:true ~content_length:50_000 ())
  in
  Alcotest.(check int) "warm requests scan header bytes only"
    (50_000 + (5 * h)) computed;
  let total, scanned, saved = Flash.cksum_stats server in
  Alcotest.(check int) "total covers every payload byte" sent total;
  Alcotest.(check int) "scanned matches the counter" computed scanned;
  Alcotest.(check int) "fig11 cache contribution re-derivable"
    (total - scanned) saved

let test_flash_conv_checksums_everything () =
  let _, kernel = mk () in
  ignore (Kernel.add_file kernel ~name:"/doc" ~size:50_000);
  let server = Flash.start ~variant:Flash.Conventional kernel ~port:80 in
  Engine.spawn (Kernel.engine kernel) (fun () ->
      let conn = Sock.connect kernel (Flash.listener server) in
      for _ = 1 to 5 do
        ignore (Sock.request conn (Http.request_string ~keep_alive:true "/doc"))
      done;
      Sock.close conn);
  Engine.run (Kernel.engine kernel);
  let computed = Counter.get (Kernel.metrics kernel) "net.cksum_bytes" in
  Alcotest.(check bool) "checksummed every transmission" true
    (computed > 245_000)

let test_cgi_roundtrip_zero_copy () =
  let _, kernel = mk () in
  let server =
    Flash.start ~variant:Flash.Iolite ~cgi_doc_size:30_000 kernel ~port:80
  in
  let n1 = one_request kernel (Flash.listener server) ~path:"/cgi" in
  Alcotest.(check bool) "dynamic doc served" true (n1 > 30_000);
  Alcotest.(check int) "no copies through pipe or socket" 0
    (Counter.get (Kernel.metrics kernel) "bytes.copied")

let test_cgi_roundtrip_copying () =
  let _, kernel = mk () in
  let server =
    Flash.start ~variant:Flash.Conventional ~cgi_doc_size:30_000 kernel ~port:80
  in
  let n1 = one_request kernel (Flash.listener server) ~path:"/cgi" in
  Alcotest.(check bool) "dynamic doc served" true (n1 > 30_000);
  (* Pipe (2 copies) + socket send (1 copy) at minimum. *)
  Alcotest.(check bool) "copies through pipe and socket" true
    (Counter.get (Kernel.metrics kernel) "bytes.copied" >= 90_000)

let test_cgi_repeated_requests_reuse_buffers () =
  let _, kernel = mk () in
  let server =
    Flash.start ~variant:Flash.Iolite ~cgi_doc_size:20_000 kernel ~port:80
  in
  Engine.spawn (Kernel.engine kernel) (fun () ->
      let conn = Sock.connect kernel (Flash.listener server) in
      for _ = 1 to 4 do
        ignore (Sock.request conn (Http.request_string ~keep_alive:true "/cgi"))
      done;
      Sock.close conn);
  Engine.run (Kernel.engine kernel);
  (* The caching CGI sends the same immutable buffers every time: the
     checksum cache keeps hitting on dynamic content too. *)
  let computed = Counter.get (Kernel.metrics kernel) "net.cksum_bytes" in
  Alcotest.(check bool) "dynamic content checksummed once" true
    (computed < 22_000)

let test_cgi11_fork_per_request () =
  let _, kernel = mk () in
  let server =
    Flash.start ~variant:Flash.Iolite ~cgi_doc_size:15_000
      ~cgi_mode:Iolite_httpd.Cgi.Cgi11 kernel ~port:80
  in
  let sizes = ref [] in
  Engine.spawn (Kernel.engine kernel) (fun () ->
      let conn = Sock.connect kernel (Flash.listener server) in
      for _ = 1 to 3 do
        sizes :=
          Sock.request conn (Http.request_string ~keep_alive:true "/cgi")
          :: !sizes
      done;
      Sock.close conn);
  Engine.run (Kernel.engine kernel);
  Alcotest.(check int) "three responses" 3 (List.length !sizes);
  List.iter
    (fun n -> Alcotest.(check bool) "full doc each time" true (n > 15_000))
    !sizes;
  (match Flash.cgi_handle server with
  | Some cgi ->
    Alcotest.(check int) "three processes forked" 3 (Cgi.requests_served cgi)
  | None -> Alcotest.fail "no cgi");
  (* No caching across processes: every byte was regenerated, and the
     checksum cache could not help across requests. *)
  let computed = Counter.get (Kernel.metrics kernel) "net.cksum_bytes" in
  Alcotest.(check bool) "checksummed every response" true (computed > 45_000)

let test_cgi11_slower_than_fastcgi () =
  let time mode =
    let _, kernel = mk () in
    let server =
      Flash.start ~variant:Flash.Iolite ~cgi_doc_size:2_000 ~cgi_mode:mode
        kernel ~port:80
    in
    let t_done = ref 0.0 in
    Engine.spawn (Kernel.engine kernel) (fun () ->
        let conn = Sock.connect kernel (Flash.listener server) in
        for _ = 1 to 10 do
          ignore (Sock.request conn (Http.request_string ~keep_alive:true "/cgi"))
        done;
        Sock.close conn;
        t_done := Engine.Proc.now ());
    Engine.run (Kernel.engine kernel);
    !t_done
  in
  let fast = time Iolite_httpd.Cgi.Fastcgi in
  let old = time Iolite_httpd.Cgi.Cgi11 in
  Alcotest.(check bool) "fork cost dominates small dynamic docs" true
    (old > 3.0 *. fast)

let test_concurrent_clients () =
  let _, kernel = mk () in
  ignore (Kernel.add_file kernel ~name:"/doc" ~size:2_000);
  let server = Flash.start ~variant:Flash.Iolite kernel ~port:80 in
  let completed = ref 0 in
  for _ = 1 to 25 do
    Engine.spawn (Kernel.engine kernel) (fun () ->
        let conn = Sock.connect kernel (Flash.listener server) in
        ignore (Sock.request conn (Http.request_string "/doc"));
        Sock.close conn;
        incr completed)
  done;
  Engine.run (Kernel.engine kernel);
  Alcotest.(check int) "all clients served" 25 !completed

let test_apache_parallel_workers () =
  let _, kernel = mk () in
  ignore (Kernel.add_file kernel ~name:"/doc" ~size:1_000);
  let server = Apache.start ~workers:8 kernel ~port:80 in
  let completed = ref 0 in
  for _ = 1 to 20 do
    Engine.spawn (Kernel.engine kernel) (fun () ->
        let conn = Sock.connect kernel (Apache.listener server) in
        ignore (Sock.request conn (Http.request_string "/doc"));
        Sock.close conn;
        incr completed)
  done;
  Engine.run (Kernel.engine kernel);
  Alcotest.(check int) "all served" 20 !completed;
  Alcotest.(check int) "request count" 20 (Apache.requests server)

let test_flash_lite_faster_than_flash_large_file () =
  (* The headline claim, as a directional end-to-end property. *)
  let time_server variant =
    let _, kernel = mk () in
    ignore (Kernel.add_file kernel ~name:"/doc" ~size:200_000);
    let server = Flash.start ~variant kernel ~port:80 in
    let t_done = ref 0.0 in
    Engine.spawn (Kernel.engine kernel) (fun () ->
        let conn = Sock.connect kernel (Flash.listener server) in
        for _ = 1 to 10 do
          ignore (Sock.request conn (Http.request_string ~keep_alive:true "/doc"))
        done;
        Sock.close conn;
        t_done := Engine.Proc.now ());
    Engine.run (Kernel.engine kernel);
    !t_done
  in
  let t_iolite = time_server Flash.Iolite in
  let t_conv = time_server Flash.Conventional in
  Alcotest.(check bool) "IO-Lite serves faster" true (t_iolite < t_conv)

(* Sharding must be invisible to the simulation: the same deterministic
   workload against a 1-shard and an 8-shard server produces identical
   request streams, and the merged latency histogram must equal the
   unsharded one field for field. *)
let test_latency_shards_merge_exact () =
  let run ~shards =
    let _, kernel = mk () in
    ignore (Kernel.add_file kernel ~name:"/doc" ~size:4_000);
    let server =
      Flash.start ~variant:Flash.Iolite ~lat_shards:shards ~conn_shards:shards
        kernel ~port:80
    in
    for c = 1 to 6 do
      Engine.spawn (Kernel.engine kernel) (fun () ->
          let conn = Sock.connect kernel (Flash.listener server) in
          for _ = 1 to 3 + (c mod 3) do
            ignore
              (Sock.request conn (Http.request_string ~keep_alive:true "/doc"))
          done;
          Sock.close conn)
    done;
    Engine.run (Kernel.engine kernel);
    ( Flash.latency_shard_count server,
      Flash.requests server,
      Flash.latency_stats server )
  in
  let n1, r1, s1 = run ~shards:1 in
  let n8, r8, s8 = run ~shards:8 in
  Alcotest.(check int) "unsharded baseline" 1 n1;
  Alcotest.(check int) "eight shards" 8 n8;
  Alcotest.(check int) "same requests" r1 r8;
  match (s1, s8) with
  | Some a, Some b ->
    let open Iolite_util.Stats in
    Alcotest.(check int) "same count" a.count b.count;
    List.iter
      (fun (name, x, y) -> Alcotest.(check (float 0.0)) name x y)
      [
        ("p50", a.p50, b.p50);
        ("p90", a.p90, b.p90);
        ("p99", a.p99, b.p99);
        ("min", a.min, b.min);
        ("max", a.max, b.max);
      ];
    (* The mean is a running float sum: per-shard accumulation changes
       the addition order, so allow last-ulp noise there. *)
    Alcotest.(check (float 1e-12)) "mean" a.mean b.mean
  | _ -> Alcotest.fail "latency stats missing"

let suites =
  [
    ( "httpd.http",
      [
        Alcotest.test_case "parse request" `Quick test_parse_request;
        Alcotest.test_case "response header" `Quick test_response_header;
        QCheck_alcotest.to_alcotest prop_parse_request_matches_printf;
        Alcotest.test_case "parse edge cases" `Quick
          test_parse_request_directed;
        Alcotest.test_case "messages match printf" `Quick
          test_messages_match_printf;
      ] );
    ( "httpd.static",
      [
        Alcotest.test_case "flash-lite serves" `Quick test_flash_lite_serves_file;
        Alcotest.test_case "flash serves" `Quick test_flash_conv_serves_file;
        Alcotest.test_case "apache serves" `Quick test_apache_serves_file;
        Alcotest.test_case "404" `Quick test_404;
        Alcotest.test_case "keep alive" `Quick test_keep_alive_multiple;
        Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
        Alcotest.test_case "apache workers" `Quick test_apache_parallel_workers;
        Alcotest.test_case "iolite faster" `Quick test_flash_lite_faster_than_flash_large_file;
        Alcotest.test_case "latency shards merge exact" `Quick
          test_latency_shards_merge_exact;
      ] );
    ( "httpd.cksum",
      [
        Alcotest.test_case "flash-lite caches checksums" `Quick
          test_flash_lite_checksum_cache_effect;
        Alcotest.test_case "flash recomputes" `Quick test_flash_conv_checksums_everything;
      ] );
    ( "httpd.cgi",
      [
        Alcotest.test_case "zero-copy roundtrip" `Quick test_cgi_roundtrip_zero_copy;
        Alcotest.test_case "copying roundtrip" `Quick test_cgi_roundtrip_copying;
        Alcotest.test_case "buffer reuse" `Quick test_cgi_repeated_requests_reuse_buffers;
        Alcotest.test_case "cgi11 fork per request" `Quick test_cgi11_fork_per_request;
        Alcotest.test_case "cgi11 slower" `Quick test_cgi11_slower_than_fastcgi;
      ] );
  ]
