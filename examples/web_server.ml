(* A complete simulated web-serving scenario: boot the 1999 testbed,
   populate a small site, start Flash-Lite (IO-Lite) and Flash
   (conventional) side by side, and drive each with a client population —
   then explain where the difference comes from using the kernels' own
   operation counters.

   Run with: dune exec examples/web_server.exe *)

module Engine = Iolite_sim.Engine
module Kernel = Iolite_os.Kernel
module Flash = Iolite_httpd.Flash
module Client = Iolite_workload.Client
module Counter = Iolite_obs.Metrics
module Table = Iolite_util.Table

let site kernel =
  (* A small static site: a heavy landing page, some images, a few
     documents. *)
  ignore (Kernel.add_file kernel ~name:"/index.html" ~size:18_000);
  ignore (Kernel.add_file kernel ~name:"/logo.gif" ~size:9_500);
  ignore (Kernel.add_file kernel ~name:"/paper.ps" ~size:180_000);
  ignore (Kernel.add_file kernel ~name:"/photo.jpg" ~size:64_000);
  for i = 1 to 20 do
    ignore
      (Kernel.add_file kernel
         ~name:(Printf.sprintf "/doc%d.html" i)
         ~size:(3_000 + (i * 811)))
  done

let pages = [| "/index.html"; "/logo.gif"; "/paper.ps"; "/photo.jpg"; "/doc7.html" |]

let drive variant =
  let engine = Engine.create () in
  let kernel = Kernel.create engine in
  site kernel;
  let server = Flash.start ~variant kernel ~port:80 in
  let rng = Iolite_util.Rng.create 11L in
  let config =
    { Client.default with Client.clients = 32; warmup = 1.0; duration = 10.0 }
  in
  let r =
    Client.run kernel (Flash.listener server) config
      ~pick:(fun ~client:_ ~iter:_ ->
        pages.(Iolite_util.Rng.int rng (Array.length pages)))
  in
  (kernel, r)

let () =
  Printf.printf
    "Booting two 333MHz/128MB servers with the same site and 32 LAN \
     clients...\n\n";
  let k_lite, r_lite = drive Flash.Iolite in
  let k_conv, r_conv = drive Flash.Conventional in
  let row name (k, r) =
    let c = Kernel.metrics k in
    [
      name;
      Printf.sprintf "%.1f Mb/s" r.Client.mbps;
      string_of_int r.Client.requests;
      Table.fmt_bytes (Counter.get c "bytes.copied");
      Table.fmt_bytes (Counter.get c "net.cksum_bytes");
      Table.fmt_bytes (Counter.get c "net.bytes_sent");
    ]
  in
  Table.print
    ~header:
      [ "server"; "bandwidth"; "requests"; "bytes copied"; "bytes checksummed"; "bytes sent" ]
    ~rows:[ row "Flash-Lite (IO-Lite)" (k_lite, r_lite); row "Flash (conventional)" (k_conv, r_conv) ];
  Printf.printf
    "\nDisk pipeline: %d reads in %d batches, %d requests batched with\n\
     neighbors, %d concurrent misses coalesced onto in-flight fills.\n"
    (Iolite_fs.Disk.reads (Kernel.disk k_lite))
    (Iolite_fs.Disk.batches (Kernel.disk k_lite))
    (Iolite_fs.Disk.batched (Kernel.disk k_lite))
    (Counter.get (Kernel.metrics k_lite) "cache.fill_coalesced");
  Printf.printf
    "\nFlash-Lite moved %s over the wire while copying %s and checksumming \
     only %s\n(headers, plus each document once — the checksum cache covers \
     retransmissions).\nFlash copied and checksummed every byte it sent: \
     that CPU time is the\nbandwidth difference of %.0f%%.\n"
    (Table.fmt_bytes (Counter.get (Kernel.metrics k_lite) "net.bytes_sent"))
    (Table.fmt_bytes (Counter.get (Kernel.metrics k_lite) "bytes.copied"))
    (Table.fmt_bytes (Counter.get (Kernel.metrics k_lite) "net.cksum_bytes"))
    (100.0 *. (r_lite.Client.mbps -. r_conv.Client.mbps) /. r_conv.Client.mbps)
