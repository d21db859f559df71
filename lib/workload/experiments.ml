module Engine = Iolite_sim.Engine
module Kernel = Iolite_os.Kernel
module Process = Iolite_os.Process
module Policy = Iolite_core.Policy
module Flash = Iolite_httpd.Flash
module Apache = Iolite_httpd.Apache
module Table = Iolite_util.Table
module Rng = Iolite_util.Rng

type point = { x : float; mbps : float }
type series = { label : string; points : point list }

let paper_sizes =
  [ 500; 1024; 2048; 3072; 5120; 7168; 10240; 15360; 20480; 51200; 102400; 153600; 204800 ]

type server_kind = Flash_lite | Flash_conv | Flash_sendfile | Apache_srv

let kind_label = function
  | Flash_lite -> "Flash-Lite"
  | Flash_conv -> "Flash"
  | Flash_sendfile -> "Flash+sendfile"
  | Apache_srv -> "Apache"

(* ------------------------------------------------------------------ *)
(* The testbed: every experiment builds its kernels with [make_kernel], *)
(* which arms tracing and registers the kernel when a trace sink is     *)
(* installed, and ends each point with [report], which dumps the        *)
(* kernel's registry (and its server's latency) when metrics are on.    *)
(* ------------------------------------------------------------------ *)

let obs_metrics = ref false
let obs_sink : Iolite_obs.Trace.Sink.t option ref = ref None

let set_observability ?(metrics = false) ?sink () =
  obs_metrics := metrics;
  obs_sink := sink

(* The paper's server machine: the kernel defaults with the unified
   cache under GDS. *)
let testbed_config () =
  { (Kernel.default_config ()) with Kernel.cache_policy = Policy.gds () }

let make_kernel ?(config = testbed_config ()) ~label () =
  let kernel = Kernel.create ~config (Engine.create ()) in
  Option.iter
    (fun sink ->
      Kernel.enable_tracing kernel;
      Iolite_obs.Trace.Sink.absorb sink ~label (Kernel.trace kernel))
    !obs_sink;
  kernel

type server = {
  srv_listener : Iolite_os.Sock.listener;
  srv_latency : unit -> Iolite_util.Stats.summary option;
}

(* Flash-Lite installs the kernel's own cache-policy instance: with the
   tier armed, the kernel gave that instance the tier-aware refetch
   cost. *)
let start_server ?cgi_doc_size ?cgi_mode ?(workers = 64) kind kernel =
  let flash variant =
    let f =
      Flash.start ~variant ~policy:(Kernel.config kernel).Kernel.cache_policy
        ?cgi_doc_size ?cgi_mode kernel ~port:80
    in
    {
      srv_listener = Flash.listener f;
      srv_latency = (fun () -> Flash.latency_stats f);
    }
  in
  match kind with
  | Flash_lite -> flash Flash.Iolite
  | Flash_conv -> flash Flash.Conventional
  | Flash_sendfile -> flash Flash.Sendfile
  | Apache_srv ->
    let a = Apache.start ~workers ?cgi_doc_size kernel ~port:80 in
    { srv_listener = Apache.listener a; srv_latency = (fun () -> None) }

let report ~label ?server kernel =
  if !obs_metrics then begin
    Printf.printf "\n-- metrics: %s --\n%s" label
      (Iolite_obs.Metrics.render (Kernel.metrics kernel));
    (match Option.bind server (fun s -> s.srv_latency ()) with
    | Some s ->
      Printf.printf
        "   request latency: p50=%.4fs p90=%.4fs p99=%.4fs mean=%.4fs (n=%d)\n"
        s.Iolite_util.Stats.p50 s.Iolite_util.Stats.p90 s.Iolite_util.Stats.p99
        s.Iolite_util.Stats.mean s.Iolite_util.Stats.count
    | None -> ());
    Stdlib.flush Stdlib.stdout
  end

(* ------------------------------------------------------------------ *)
(* Figs. 3-6: single-file and CGI bandwidth sweeps                     *)
(* ------------------------------------------------------------------ *)

(* One series per server, one point per paper size: 40 clients fetch a
   document of that size, the file /doc or, with [cgi], the response of
   the server's CGI application (FastCGI unless [cgi_mode] says
   otherwise) at /cgi. *)
let size_sweep ~cgi ~persistent ~scale servers =
  let path = if cgi then "/cgi" else "/doc" in
  List.map
    (fun (name, kind, cgi_mode) ->
      {
        label = name;
        points =
          List.map
            (fun size ->
              let label =
                Printf.sprintf "%s%s %dB" name (if cgi then " cgi" else "") size
              in
              let kernel = make_kernel ~label () in
              if not cgi then ignore (Kernel.add_file kernel ~name:"/doc" ~size);
              let cgi_doc_size = if cgi then Some size else None in
              let server = start_server ?cgi_doc_size ?cgi_mode kind kernel in
              let config =
                {
                  Client.default with
                  persistent;
                  warmup = 1.0;
                  duration = Float.max 1.0 (8.0 *. scale);
                }
              in
              let r =
                Client.run kernel server.srv_listener config
                  ~pick:(fun ~client:_ ~iter:_ -> path)
              in
              report ~label ~server kernel;
              { x = float_of_int size /. 1024.0; mbps = r.Client.mbps })
            paper_sizes;
      })
    servers

let named kinds = List.map (fun kind -> (kind_label kind, kind, None)) kinds
let paper_servers = named [ Flash_lite; Flash_conv; Apache_srv ]

let fig3 ?(scale = 1.0) () =
  size_sweep ~cgi:false ~persistent:false ~scale paper_servers

let fig4 ?(scale = 1.0) () =
  size_sweep ~cgi:false ~persistent:true ~scale paper_servers

let fig5 ?(scale = 1.0) () =
  size_sweep ~cgi:true ~persistent:false ~scale paper_servers

let fig6 ?(scale = 1.0) () =
  size_sweep ~cgi:true ~persistent:true ~scale paper_servers

(* Extension: the sendfile ablation. *)
let ablation_sendfile ?(scale = 1.0) () =
  size_sweep ~cgi:false ~persistent:false ~scale
    (named [ Flash_lite; Flash_sendfile; Flash_conv ])

(* Extension: CGI 1.1 vs FastCGI. *)
let ablation_cgi11 ?(scale = 1.0) () =
  let module Cgi = Iolite_httpd.Cgi in
  size_sweep ~cgi:true ~persistent:false ~scale
    [
      ("Flash-Lite FastCGI", Flash_lite, Some Cgi.Fastcgi);
      ("Flash FastCGI", Flash_conv, Some Cgi.Fastcgi);
      ("Flash-Lite CGI1.1", Flash_lite, Some Cgi.Cgi11);
      ("Flash CGI1.1", Flash_conv, Some Cgi.Cgi11);
    ]

(* ------------------------------------------------------------------ *)
(* Figs. 7 and 9: trace characteristics                                *)
(* ------------------------------------------------------------------ *)

let trace_table trace =
  let spec = Trace.spec trace in
  let n = Trace.file_count trace in
  let rows = ref [] in
  List.iter
    (fun top ->
      if top <= n then begin
        let reqs, bytes = Trace.cdf_row trace ~top in
        rows :=
          [
            string_of_int top;
            Printf.sprintf "%.1f%%" (100.0 *. reqs);
            Printf.sprintf "%.1f%%" (100.0 *. bytes);
          ]
          :: !rows
      end)
    [ 100; 1000; 5000; 10000; 20000; n ];
  let totals =
    [
      Printf.sprintf "(totals: %d paper-requests)" spec.Trace.paper_requests;
      Printf.sprintf "%d files" n;
      Printf.sprintf "%s, mean transfer %s"
        (Table.fmt_bytes (Trace.total_bytes trace))
        (Table.fmt_bytes (int_of_float (Trace.mean_request_bytes trace)));
    ]
  in
  List.rev (totals :: !rows)

let fig7 () =
  List.map
    (fun spec ->
      let trace = Trace.synthesize spec in
      (spec.Trace.sname, trace_table trace))
    [ Trace.ece; Trace.cs; Trace.merged ]

(* ------------------------------------------------------------------ *)
(* The trace testbed (Figs. 8, 10-12 and the tier sweep)               *)
(* ------------------------------------------------------------------ *)

(* Warm-start: the paper measures hour-long steady-state runs; fetching
   ~110 MB through the simulated disk would consume the whole (much
   shorter) measurement window. Pre-populate the file cache with the
   most popular documents the kernel would admit, without disk latency,
   up to 90% of the I/O budget; then, when the NVMM tier is armed,
   demote the popular files that did not fit (or were not admitted)
   upstairs straight into the tier, up to 90% of its capacity. The run
   starts from (approximately) steady state and the policies evolve it
   from there. Contents come from the defining content function, so
   promoted bytes pass integrity checks. The loading's VM work and the
   demotions' NVMM writes are set-up, not measured traffic: their
   pending CPU charge is dropped, so the first measured syscall starts
   clean. *)
let preload_cache kernel ~conv ~trace ~prefix_ranks =
  let module Filecache = Iolite_core.Filecache in
  let module Filestore = Iolite_fs.Filestore in
  let module Iobuf = Iolite_core.Iobuf in
  let module Iosys = Iolite_core.Iosys in
  let module Tier = Iolite_core.Tier in
  let sys = Kernel.sys kernel in
  let cache =
    if conv then Kernel.conv_cache kernel else Kernel.unified_cache kernel
  in
  let pool = if conv then Kernel.page_pool kernel else Kernel.file_pool kernel in
  let store = Kernel.store kernel in
  let kd = Iosys.kernel sys in
  (* Ranks eligible for preloading, most popular first. *)
  let ranks =
    match prefix_ranks with
    | Some set ->
      let l = Hashtbl.fold (fun r () acc -> r :: acc) set [] in
      List.sort compare l
    | None -> List.init (Trace.file_count trace) Fun.id
  in
  (* Offer each registered, non-empty file to [load] until [full]. *)
  let walk ~full load =
    let rec go = function
      | rank :: rest when not (full ()) ->
        (match Filestore.lookup store (Trace.file_path ~rank) with
        | Some file ->
          let size = Filestore.size store file in
          if size > 0 then load file size
        | None -> ());
        go rest
      | _ -> ()
    in
    go ranks
  in
  let budget =
    Iolite_mem.Physmem.io_budget (Iosys.physmem sys) * 9 / 10
  in
  let limit = Iolite_os.Fileio.admission_limit kernel in
  walk
    ~full:(fun () -> Filecache.total_bytes cache >= budget)
    (fun file size ->
      if size <= limit && not (Filecache.covered cache ~file ~off:0 ~len:size)
      then begin
        let rec build pos acc =
          if pos >= size then List.rev acc
          else begin
            let n = min Iobuf.Pool.max_alloc (size - pos) in
            let b = Iobuf.Pool.alloc ~paged:true pool ~producer:kd n in
            Iosys.with_fill_mode sys `Dma (fun () ->
                Filestore.fill_buffer store b ~file ~off:pos);
            Iobuf.Buffer.seal b;
            build (pos + n) (Iobuf.Agg.of_buffer_owned b :: acc)
          end
        in
        let parts = build 0 [] in
        let agg = Iobuf.Agg.concat_list parts in
        List.iter Iobuf.Agg.free parts;
        Filecache.insert cache ~file ~off:0 agg
      end);
  Option.iter
    (fun tier ->
      let budget =
        match Tier.capacity tier with Some c -> c * 9 / 10 | None -> max_int
      in
      walk
        ~full:(fun () -> Tier.total_bytes tier >= budget)
        (fun file size ->
          if
            (not (Filecache.covered cache ~file ~off:0 ~len:size))
            && not (Tier.covered tier ~file ~off:0 ~len:size)
          then
            Tier.demote tier ~file ~off:0 ~gen:0
              (Filestore.content ~file ~off:0 ~len:size)))
    (Kernel.tier kernel);
  ignore (Kernel.take_pending kernel)

(* The distinct ranks the log's first [prefix] requests name. *)
let prefix_ranks ~log ~prefix =
  let set = Hashtbl.create 4096 in
  for i = 0 to prefix - 1 do
    Hashtbl.replace set log.(i) ()
  done;
  set

(* Register every file of [trace], start [kind], then warm the caches
   from [prefix_ranks] (every rank when [None]). *)
let trace_testbed ?config ?workers ~label ~trace ~prefix_ranks kind =
  let kernel = make_kernel ?config ~label () in
  Trace.register_files trace kernel ~prefix_ranks:None;
  let server = start_server ?workers kind kernel in
  preload_cache kernel ~conv:(kind <> Flash_lite) ~trace ~prefix_ranks;
  (kernel, server)

(* Replay [pick] against a testbed: [clients] on non-persistent
   connections with round-trip [rtt], a warm-up of [warm] x [scale] and
   a window of 20 x [scale] simulated seconds, each at least [floor].
   Returns the window's bandwidth. *)
let replay ~label ?(clients = 64) ?(rtt = 0.0) ?(floor = 2.0) ?(warm = 8.0)
    ~scale ~pick (kernel, server) =
  let config =
    {
      Client.clients;
      rtt;
      persistent = false;
      warmup = Float.max floor (warm *. scale);
      duration = Float.max floor (20.0 *. scale);
    }
  in
  let r = Client.run kernel server.srv_listener config ~pick in
  report ~label ~server kernel;
  r.Client.mbps

(* SpecWeb-style sampling: uniform picks from the log's first [prefix]
   requests (Section 5.5). *)
let sample_prefix ~seed ~log ~prefix =
  let rng = Rng.create seed in
  fun ~client:_ ~iter:_ -> Trace.file_path ~rank:log.(Rng.int rng prefix)

(* ------------------------------------------------------------------ *)
(* Fig. 8: full trace replay                                           *)
(* ------------------------------------------------------------------ *)

let fig8 ?(scale = 1.0) () =
  List.map
    (fun spec ->
      let trace = Trace.synthesize spec in
      let log_len = 200_000 in
      let log = Trace.request_log trace ~seed:0x10C5EEDL ~count:log_len in
      ( spec.Trace.sname,
        List.map
          (fun kind ->
            let label = kind_label kind in
            (* The paper's replay: clients share the log and issue the
               next unsent request. *)
            let cursor = ref 0 in
            let pick ~client:_ ~iter:_ =
              let i = !cursor in
              cursor := (i + 1) mod log_len;
              Trace.file_path ~rank:log.(i)
            in
            ( label,
              replay ~label ~scale ~pick
                (trace_testbed ~label ~trace ~prefix_ranks:None kind) ))
          [ Flash_lite; Flash_conv; Apache_srv ] ))
    [ Trace.ece; Trace.cs; Trace.merged ]

(* ------------------------------------------------------------------ *)
(* Figs. 9-11: the MERGED subtrace                                     *)
(* ------------------------------------------------------------------ *)

let subtrace_log_len = 400_000

let merged_subtrace () =
  let trace = Trace.synthesize Trace.merged in
  let log = Trace.request_log trace ~seed:0x50B74ACEL ~count:subtrace_log_len in
  (trace, log)

let fig9 () =
  let trace, log = merged_subtrace () in
  let prefix = Trace.prefix_for_dataset trace ~log ~target_bytes:(150 * 1024 * 1024) in
  let files, bytes = Trace.distinct_bytes trace ~log ~prefix in
  [
    [ "prefix requests"; string_of_int prefix ];
    [ "distinct files"; string_of_int files ];
    [ "data set size"; Table.fmt_bytes bytes ];
    [ "paper"; "28403 requests, 5459 files, 150MB" ];
  ]

let dataset_sizes_mb = [ 15; 30; 60; 90; 120; 150 ]

(* One series of the data-set sweep: a fresh testbed per size, each
   kernel built from its own [config ()]. *)
let dataset_sweep ~trace ~log ~scale (name, kind, config) =
  {
    label = name;
    points =
      List.map
        (fun mb ->
          let prefix =
            Trace.prefix_for_dataset trace ~log ~target_bytes:(mb * 1024 * 1024)
          in
          let label = Printf.sprintf "%s %dMB" name mb in
          let bed =
            trace_testbed ~config:(config ()) ~label ~trace
              ~prefix_ranks:(Some (prefix_ranks ~log ~prefix))
              kind
          in
          let pick = sample_prefix ~seed:0x5BEC99L ~log ~prefix in
          { x = float_of_int mb; mbps = replay ~label ~scale ~pick bed })
        dataset_sizes_mb;
  }

let fig10 ?(scale = 1.0) () =
  let trace, log = merged_subtrace () in
  List.map
    (fun kind ->
      dataset_sweep ~trace ~log ~scale (kind_label kind, kind, testbed_config))
    [ Flash_lite; Flash_conv; Apache_srv ]

let fig11 ?(scale = 1.0) () =
  let trace, log = merged_subtrace () in
  let flash_lite (label, gds, cksum) =
    ( label,
      Flash_lite,
      fun () ->
        {
          (Kernel.default_config ()) with
          Kernel.cksum_cache_enabled = cksum;
          cache_policy = (if gds then Policy.gds () else Policy.lru ());
        } )
  in
  List.map
    (dataset_sweep ~trace ~log ~scale)
    (List.map flash_lite
       [
         ("Flash-Lite (GDS)", true, true);
         ("Flash-Lite LRU", false, true);
         ("Flash-Lite no-cksum", true, false);
         ("Flash-Lite LRU no-cksum", false, false);
       ]
    @ [ ("Flash", Flash_conv, testbed_config) ])

(* ------------------------------------------------------------------ *)
(* Fig. 12: WAN delays                                                 *)
(* ------------------------------------------------------------------ *)

let fig12 ?(scale = 1.0) () =
  let trace, log = merged_subtrace () in
  let prefix =
    Trace.prefix_for_dataset trace ~log ~target_bytes:(120 * 1024 * 1024)
  in
  let ranks = prefix_ranks ~log ~prefix in
  let delays_ms = [ 0.0; 5.0; 50.0; 100.0; 150.0 ] in
  let clients_for delay = 64 + int_of_float (delay /. 150.0 *. float_of_int (900 - 64)) in
  List.map
    (fun kind ->
      {
        label = kind_label kind;
        points =
          List.map
            (fun delay_ms ->
              let clients = clients_for delay_ms in
              let label =
                Printf.sprintf "%s rtt=%.0fms" (kind_label kind) delay_ms
              in
              (* [workers] sizes Apache 1.3's process pool (Flash has
                 none); extra processes are the memory cost the paper
                 highlights. *)
              let bed =
                trace_testbed ~workers:(min clients 256) ~label ~trace
                  ~prefix_ranks:(Some ranks) kind
              in
              let pick = sample_prefix ~seed:0x44E11AL ~log ~prefix in
              {
                x = delay_ms;
                mbps =
                  replay ~label ~clients ~rtt:(delay_ms /. 1000.0) ~floor:3.0
                    ~warm:10.0 ~scale ~pick bed;
              })
            delays_ms;
      })
    [ Flash_lite; Flash_conv; Apache_srv ]

(* ------------------------------------------------------------------ *)
(* Fig. 13: converted applications                                     *)
(* ------------------------------------------------------------------ *)

type app_result = {
  app : string;
  posix_s : float;
  iolite_s : float;
  verified : bool;
}

module Apps = struct
  module Wc = Iolite_apps.Wc
  module Cat = Iolite_apps.Cat
  module Grep = Iolite_apps.Grep
  module Permute = Iolite_apps.Permute
  module Gccpipe = Iolite_apps.Gccpipe
  module Pipe = Iolite_ipc.Pipe
  module Ivar = Iolite_sim.Sync.Ivar

  let wc_file_size = 1792 * 1024 (* the paper's 1.75 MB file *)

  (* Run [body] in a fresh kernel; returns (elapsed, value). *)
  let timed ~label ?warm_file body =
    let kernel = make_kernel ~label () in
    let engine = Kernel.engine kernel in
    let file =
      Option.map (fun size -> Kernel.add_file kernel ~name:"/data" ~size) warm_file
    in
    (* Warm the unified cache so the runs measure I/O structure, not the
       initial disk fetch (the paper reads cached files). *)
    (match file with
    | Some f ->
      let warmed = Ivar.create () in
      ignore
        (Process.spawn kernel ~name:"warm" (fun proc ->
             Iolite_os.Fileio.fetch_unified proc ~file:f;
             Ivar.fill warmed ()));
      Engine.run engine
    | None -> ());
    let t0 = Engine.now engine in
    let result = ref None in
    Engine.spawn engine (fun () -> result := Some (body kernel file));
    Engine.run engine;
    report ~label kernel;
    (Engine.now engine -. t0, Option.get !result)

  let wc ~label ~iolite =
    timed ~label ~warm_file:wc_file_size
      (fun kernel file ->
        let file = Option.get file in
        let out = Ivar.create () in
        ignore
          (Process.spawn kernel ~name:"wc" (fun proc ->
               Ivar.fill out
                 (if iolite then Wc.run_iolite proc ~file
                  else Wc.run_posix proc ~file)));
        Ivar.read out)

  let cat_grep ~label ~iolite =
    timed ~label ~warm_file:wc_file_size
      (fun kernel file ->
        let file = Option.get file in
        let out = Ivar.create () in
        ignore
          (Process.spawn kernel ~name:"grep" (fun grep_proc ->
               let pipe =
                 Pipe.create (Kernel.sys kernel)
                   ~mode:(if iolite then Pipe.Zero_copy else Pipe.Copying)
                   ~reader:(Process.domain grep_proc)
                   ~reader_pool:(Process.pool grep_proc) ()
               in
               ignore
                 (Process.spawn kernel ~name:"cat" (fun cat_proc ->
                      Cat.run cat_proc ~file ~out:pipe ~iolite));
               Ivar.fill out (Grep.run_pipe grep_proc pipe ~pattern:"the" ~iolite)));
        Ivar.read out)

  let permute_wc ~label ~iolite =
    timed ~label (fun kernel _ ->
        let out = Ivar.create () in
        let wc_proc = Process.make kernel ~name:"wc" in
        let perm_proc = Process.make kernel ~name:"permute" in
        (* The pipe's stream pool names both endpoints, so the producer
           allocates buffers the consumer may map (Section 3.2). *)
        let pipe =
          Pipe.create (Kernel.sys kernel)
            ~mode:(if iolite then Pipe.Zero_copy else Pipe.Copying)
            ~writer:(Process.domain perm_proc)
            ~reader:(Process.domain wc_proc)
            ~reader_pool:(Process.pool wc_proc) ()
        in
        let engine = Kernel.engine kernel in
        Engine.spawn engine (fun () ->
            Permute.run perm_proc ~out:pipe ~words:Permute.default_words ~iolite;
            Process.exit perm_proc);
        Engine.spawn engine (fun () ->
            Ivar.fill out (Wc.run_pipe wc_proc pipe);
            Process.exit wc_proc);
        Ivar.read out)

  let gcc ~label ~iolite =
    let kernel = make_kernel ~label () in
    let elapsed = Gccpipe.run_blocking kernel Gccpipe.default_spec ~iolite in
    report ~label kernel;
    (elapsed, ())
end

(* [app] once unmodified and once converted to IO-Lite; the two runs
   must produce the same output. *)
let run_app app run =
  let posix_s, posix = run ~label:(app ^ " unmodified") ~iolite:false in
  let iolite_s, iolite = run ~label:(app ^ " IO-Lite") ~iolite:true in
  { app; posix_s; iolite_s; verified = posix = iolite }

let fig13 () =
  let wc = run_app "wc" Apps.wc in
  let cat_grep = run_app "cat|grep" Apps.cat_grep in
  let permute_wc = run_app "permute|wc" Apps.permute_wc in
  let gcc = run_app "gcc" Apps.gcc in
  [ wc; cat_grep; permute_wc; gcc ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let print_series ~title ~x_label series_list =
  Printf.printf "\n== %s ==\n" title;
  let xs =
    match series_list with
    | [] -> []
    | s :: _ -> List.map (fun p -> p.x) s.points
  in
  let header = "x" :: List.map (fun s -> s.label) series_list in
  let rows =
    List.mapi
      (fun i x ->
        Printf.sprintf "%.1f" x
        :: List.map
             (fun s -> Table.fmt_mbps (List.nth s.points i).mbps)
             series_list)
      xs
  in
  Table.print ~header ~rows;
  let chart_series =
    List.map
      (fun s -> (s.label, List.map (fun p -> (p.x, p.mbps)) s.points))
      series_list
  in
  print_string
    (Table.chart ~x_label ~y_label:"Mb/s" ~series:chart_series)

let print_fig7 () =
  List.iter
    (fun (name, rows) ->
      Printf.printf "\n== Fig 7: %s trace characteristics ==\n" name;
      Table.print ~header:[ "top-N files"; "% of requests"; "% of bytes" ] ~rows)
    (fig7 ())

let print_fig8 ?scale () =
  Printf.printf "\n== Fig 8: overall trace performance (Mb/s) ==\n";
  List.iter
    (fun (trace_name, bars) ->
      Printf.printf "%s:\n%s" trace_name (Table.bar_chart bars))
    (fig8 ?scale ())

let print_fig9 () =
  Printf.printf "\n== Fig 9: 150MB subtrace characteristics ==\n";
  Table.print ~header:[ "metric"; "value" ] ~rows:(fig9 ())

let print_fig13 () =
  Printf.printf "\n== Fig 13: application runtimes ==\n";
  let rows =
    List.map
      (fun r ->
        [
          r.app;
          Table.fmt_time_s r.posix_s;
          Table.fmt_time_s r.iolite_s;
          Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. (r.iolite_s /. r.posix_s)));
          (if r.verified then "yes" else "NO");
        ])
      (fig13 ())
  in
  Table.print
    ~header:[ "application"; "unmodified"; "IO-Lite"; "reduction"; "output verified" ]
    ~rows

let run_all ?(scale = 1.0) () =
  (* Collect between phases: each experiment retires a whole simulated
     machine. Flush stdout so progress is visible when redirected. *)
  let phase f =
    f ();
    Stdlib.flush Stdlib.stdout;
    Gc.full_major ()
  in
  phase (fun () ->
      print_series ~title:"Fig 3: HTTP single-file, non-persistent"
        ~x_label:"KB" (fig3 ~scale ()));
  phase (fun () ->
      print_series ~title:"Fig 4: HTTP single-file, persistent" ~x_label:"KB"
        (fig4 ~scale ()));
  phase (fun () -> print_series ~title:"Fig 5: FastCGI" ~x_label:"KB" (fig5 ~scale ()));
  phase (fun () ->
      print_series ~title:"Fig 6: FastCGI, persistent" ~x_label:"KB"
        (fig6 ~scale ()));
  phase (fun () -> print_fig7 ());
  phase (fun () -> print_fig8 ~scale ());
  phase (fun () -> print_fig9 ());
  phase (fun () ->
      print_series ~title:"Fig 10: MERGED subtrace sweep" ~x_label:"dataset MB"
        (fig10 ~scale ()));
  phase (fun () ->
      print_series ~title:"Fig 11: optimization contributions"
        ~x_label:"dataset MB" (fig11 ~scale ()));
  phase (fun () ->
      print_series ~title:"Fig 12: WAN delay" ~x_label:"RTT ms" (fig12 ~scale ()));
  phase (fun () -> print_fig13 ());
  phase (fun () ->
      print_series ~title:"Extension: sendfile ablation" ~x_label:"KB"
        (ablation_sendfile ~scale ()));
  phase (fun () ->
      print_series ~title:"Extension: CGI 1.1 vs FastCGI" ~x_label:"KB"
        (ablation_cgi11 ~scale ()))

(* ------------------------------------------------------------------ *)
(* Smoke: a small deterministic Flash-Lite run with tracing armed      *)
(* ------------------------------------------------------------------ *)

type smoke_result = {
  sm_trace_json : string;
  sm_metrics : (string * int) list;
  sm_cold : (string * int) list;
  sm_warm : (string * int) list;
  sm_latency : Iolite_util.Stats.summary option;
  sm_cksum : int * int * int;
  sm_requests : int;
}

let smoke () =
  let kernel = make_kernel ~label:"smoke" () in
  Kernel.enable_tracing kernel;
  List.iteri
    (fun i size ->
      ignore (Kernel.add_file kernel ~name:(Printf.sprintf "/doc%d" i) ~size))
    [ 4096; 16384; 65536 ];
  let flash =
    Flash.start ~variant:Flash.Iolite ~cgi_doc_size:2048 kernel ~port:80
  in
  let listener = Flash.listener flash in
  let paths = [| "/doc0"; "/doc1"; "/doc2"; "/cgi" |] in
  let pick ~client ~iter = paths.((client + iter) mod Array.length paths) in
  let m = Kernel.metrics kernel in
  let run_phase () =
    let config =
      {
        Client.default with
        Client.clients = 4;
        persistent = true;
        warmup = 0.2;
        duration = 1.0;
      }
    in
    ignore (Client.run kernel listener config ~pick)
  in
  let s0 = Iolite_obs.Metrics.snapshot m in
  run_phase ();
  let s1 = Iolite_obs.Metrics.snapshot m in
  run_phase ();
  let s2 = Iolite_obs.Metrics.snapshot m in
  {
    sm_trace_json =
      Iolite_obs.Trace.to_json ~label:"smoke" (Kernel.trace kernel);
    sm_metrics = s2;
    sm_cold = Iolite_obs.Metrics.diff ~before:s0 ~after:s1;
    sm_warm = Iolite_obs.Metrics.diff ~before:s1 ~after:s2;
    sm_latency = Flash.latency_stats flash;
    sm_cksum = Flash.cksum_stats flash;
    sm_requests = Flash.requests flash;
  }

(* ------------------------------------------------------------------ *)
(* C1M: connection-scale scaffolding sweep                             *)
(* ------------------------------------------------------------------ *)

type c1m_point = {
  c1m_conns : int;
  c1m_requests : int;
  c1m_sim_rps : float;
  c1m_wall_ns_per_req : float;
  c1m_p50 : float;
  c1m_p90 : float;
  c1m_p99 : float;
  c1m_fresh_warm : int;
  c1m_recycled_warm : int;
  c1m_timer_ns_per_op : float;
  c1m_peak_timers : int;
  c1m_idle_closed : int;
}

let c1m ?(requests = 50_000) ~conns () =
  let module Http = Iolite_httpd.Http in
  let module Sock = Iolite_os.Sock in
  let label = Printf.sprintf "c1m %d conns" conns in
  let kernel = make_kernel ~label () in
  let engine = Kernel.engine kernel in
  let nfiles = 64 in
  let sizes = [| 512; 1024; 2048; 4096; 8192; 16384 |] in
  for i = 0 to nfiles - 1 do
    ignore
      (Kernel.add_file kernel
         ~name:(Printf.sprintf "/f%d" i)
         ~size:sizes.(i mod Array.length sizes))
  done;
  let flash =
    Flash.start ~variant:Flash.Iolite ~idle_timeout:3600.0 kernel ~port:80
  in
  let listener = Flash.listener flash in
  let reqs =
    Array.init nfiles (fun i ->
        Http.request_string ~keep_alive:true (Printf.sprintf "/f%d" i))
  in
  let warm_requests = max 2_000 (min 10_000 (requests / 4)) in
  let m = Kernel.metrics kernel in
  let s1 = ref (Iolite_obs.Metrics.snapshot m) in
  let s2 = ref !s1 in
  let v1 = ref 0.0 and v2 = ref 0.0 in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  let peak_timers = ref 0 in
  let churn_ns = ref 0.0 in
  let conns_arr = ref [||] in
  (* A fixed pool of worker fibers pulls request indices off a shared
     counter, so concurrency stays bounded while the request stream
     round-robins over the whole connection population — every request
     re-arms that connection's idle timer at full population. *)
  let workers = 64 in
  let next = ref 0 and finished = ref 0 and limit = ref 0 in
  let run_workers total k =
    next := 0;
    finished := 0;
    limit := total;
    for w = 0 to workers - 1 do
      Engine.spawn ~name:(Printf.sprintf "c1m.worker%d" w) engine (fun () ->
          let arr = !conns_arr in
          let n = Array.length arr in
          let rec loop () =
            let i = !next in
            if i < !limit then begin
              incr next;
              ignore (Sock.request arr.(i mod n) reqs.(i mod nfiles));
              loop ()
            end
          in
          loop ();
          incr finished;
          if !finished = workers then k ())
    done
  in
  Engine.spawn ~name:"c1m.driver" engine (fun () ->
      let c0 = Sock.connect ~rtt:1e-4 kernel listener in
      let arr = Array.make conns c0 in
      for i = 1 to conns - 1 do
        arr.(i) <- Sock.connect ~rtt:1e-4 kernel listener
      done;
      conns_arr := arr;
      run_workers warm_requests (fun () ->
          s1 := Iolite_obs.Metrics.snapshot m;
          v1 := Engine.now engine;
          t1 := Unix.gettimeofday ();
          run_workers requests (fun () ->
              s2 := Iolite_obs.Metrics.snapshot m;
              v2 := Engine.now engine;
              t2 := Unix.gettimeofday ();
              peak_timers := Engine.pending_timers engine;
              (* Timer churn at full population: the cancel+insert pair
                 every idle-timer re-arm performs, measured in isolation
                 while the wheel holds [conns] pending timeouts. *)
              let ops = 100_000 in
              let due = Engine.now engine +. 1800.0 in
              let ct0 = Unix.gettimeofday () in
              for _ = 1 to ops do
                let tm = Engine.schedule_cancelable engine due (fun () -> ()) in
                ignore (Engine.cancel_timer engine tm)
              done;
              churn_ns :=
                (Unix.gettimeofday () -. ct0) *. 1e9 /. float_of_int ops;
              Array.iter Sock.close arr)));
  Engine.run engine;
  report ~label kernel;
  let d = Iolite_obs.Metrics.diff ~before:!s1 ~after:!s2 in
  let dval key =
    match List.assoc_opt key d with Some v -> v | None -> 0
  in
  let p50, p90, p99 =
    match Flash.latency_stats flash with
    | Some s -> Iolite_util.Stats.(s.p50, s.p90, s.p99)
    | None -> (0.0, 0.0, 0.0)
  in
  {
    c1m_conns = conns;
    c1m_requests = requests;
    c1m_sim_rps = float_of_int requests /. Float.max 1e-9 (!v2 -. !v1);
    c1m_wall_ns_per_req =
      (!t2 -. !t1) *. 1e9 /. float_of_int (max 1 requests);
    c1m_p50 = p50;
    c1m_p90 = p90;
    c1m_p99 = p99;
    c1m_fresh_warm = dval "pool.fresh";
    c1m_recycled_warm = dval "pool.recycled";
    c1m_timer_ns_per_op = !churn_ns;
    c1m_peak_timers = !peak_timers;
    c1m_idle_closed = Iolite_obs.Metrics.get m "sock.idle_closed";
  }

let print_c1m points =
  let rows =
    List.map
      (fun p ->
        [
          string_of_int p.c1m_conns;
          string_of_int p.c1m_requests;
          Printf.sprintf "%.0f" p.c1m_sim_rps;
          Printf.sprintf "%.0f" p.c1m_wall_ns_per_req;
          Printf.sprintf "%.4f" p.c1m_p50;
          Printf.sprintf "%.4f" p.c1m_p90;
          Printf.sprintf "%.4f" p.c1m_p99;
          string_of_int p.c1m_fresh_warm;
          Printf.sprintf "%.0f" p.c1m_timer_ns_per_op;
          string_of_int p.c1m_peak_timers;
        ])
      points
  in
  Table.print
    ~header:
      [
        "conns"; "reqs"; "sim req/s"; "wall ns/req"; "p50 s"; "p90 s";
        "p99 s"; "fresh(warm)"; "timer ns/op"; "peak timers";
      ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Async disk pipeline: tail latency under memory pressure             *)
(* ------------------------------------------------------------------ *)

type async_point = {
  as_scenario : string;
  as_mem_mb : int;
  as_requests : int;
  as_p50 : float;
  as_p90 : float;
  as_p99 : float;
  as_disk_util : float;
  as_disk_reads : int;
  as_disk_writes : int;
  as_batches : int;
  as_batched : int;
  as_coalesced : int;
  as_ra_issued : int;
  as_ra_hit : int;
  as_swap_writes : int;
  as_seq_read_s : float;
  (* Wait-state attribution over the measured (foreground) population:
     the aggregate decomposition and the slowest-K tail reservoir. *)
  as_attr_completed : int;
  as_attr_totals : (string * float) list;
  as_tail : Iolite_obs.Attrib.record list;
}

let seq_file_size = 1_792 * 1024

let async_point ?(scale = 1.0) ~pressure () =
  let scenario = if pressure then "pressure" else "warm" in
  let mem_mb = if pressure then 24 else 128 in
  let label = "async " ^ scenario in
  let kernel =
    make_kernel ~label
      ~config:
        {
          (Kernel.default_config ()) with
          Kernel.mem_capacity = mem_mb * 1024 * 1024;
        }
      ()
  in
  let engine = Kernel.engine kernel in
  (* Arm wait-state attribution (no trace buffer): each foreground job
     below runs under a fresh flow id, so its latency decomposes into
     {queue, disk_service, coalesced_wait, vm_stall, cpu} and the
     slowest land in the tail reservoir. *)
  Kernel.enable_attribution kernel;
  (* Site: a hot set of small documents plus a cold tail of 1MB data
     files consumed incrementally (the converted-utility shape: wc reads
     64KB units with per-byte compute between them). Under pressure the
     data set exceeds the io budget, so big jobs keep missing; at 128MB
     everything fits after the cold pass. *)
  (* The document population has a hot head (32 files, warmed below)
     and a long cold tail: foreground requests to the tail are
     compulsory misses, and what a miss costs under scan pressure is
     what this point measures. *)
  let nsmall = 256 and nhot = 32 and nbig = 24 in
  let small =
    Array.init nsmall (fun i ->
        Kernel.add_file kernel
          ~name:(Printf.sprintf "/s%d.html" i)
          ~size:(16_000 + (977 * i mod 32_000)))
  in
  let big =
    Array.init nbig (fun i ->
        Kernel.add_file kernel
          ~name:(Printf.sprintf "/b%d.bin" i)
          ~size:(1024 * 1024))
  in
  (* Phase 1: one cold sequential reader (the headline number): the
     readahead pipeline hides disk time behind the consumer. *)
  let seq_file = Kernel.add_file kernel ~name:"/seq.bin" ~size:seq_file_size in
  let seq_t = ref 0.0 in
  ignore
    (Process.spawn kernel ~name:"seqread" (fun proc ->
         let t0 = Engine.now engine in
         ignore (Iolite_apps.Wc.run_iolite proc ~file:seq_file);
         seq_t := Engine.now engine -. t0));
  Engine.run engine;
  (* Warm-up: one pass over the whole site. At 128MB everything fits,
     so the measured phase's scanners run from cache and the foreground
     sees pure hits; at 24MB the big files exceed the io budget, so the
     scanners keep thrashing and the hot set keeps getting evicted. *)
  ignore
    (Process.spawn kernel ~name:"warmup" (fun proc ->
         Array.iter
           (fun file -> ignore (Iolite_apps.Wc.run_iolite proc ~file))
           big;
         for i = 0 to nhot - 1 do
           ignore (Iolite_apps.Wc.run_iolite proc ~file:small.(i))
         done));
  Engine.run engine;
  (* Phase 2: foreground vs. background. Two scanner processes stream
     wc over the big files in a loop — under pressure their extents
     flood the cache, evicting the hot set and keeping the disk near
     its knee. Three foreground workers serve small-file requests (the
     interactive class) and are the measured latency population. Scans
     are extent-granular, so the elevator slips a foreground miss into
     the next batch, and pageout never blocks the reader. *)
  let rng = Rng.create 42L in
  let jobs = max 40 (int_of_float (200.0 *. scale)) in
  let workers = 3 and scanners = 1 in
  let think = 0.02 in
  let next = ref 0 and completed = ref 0 in
  let stop = ref false in
  let latencies = ref [] in
  let busy0 = Iolite_fs.Disk.busy_time (Kernel.disk kernel) in
  let now0 = Engine.now engine in
  let busy1 = ref busy0 and now1 = ref now0 in
  for s = 0 to scanners - 1 do
    ignore
      (Process.spawn kernel
         ~name:(Printf.sprintf "scanner%d" s)
         (fun proc ->
           let j = ref s in
           while not !stop do
             ignore (Iolite_apps.Wc.run_iolite proc ~file:big.(!j mod nbig));
             j := !j + scanners;
             (* A short breath between files: the scan sits at the
                knee, not past it; the readahead pipeline keeps the
                disk streaming through each scan's compute. *)
             Iolite_sim.Engine.Proc.sleep 0.01
           done))
  done;
  for w = 0 to workers - 1 do
    ignore
      (Process.spawn kernel
         ~name:(Printf.sprintf "analyst%d" w)
         (fun proc ->
           let rec loop () =
             if !next < jobs then begin
               incr next;
               (* 70% hot head, 30% cold tail. *)
               let file =
                 if Rng.int rng 10 < 7 then small.(Rng.int rng nhot)
                 else small.(nhot + Rng.int rng (nsmall - nhot))
               in
               let t0 = Engine.now engine in
               let rid = Iolite_obs.Flow.fresh (Kernel.flow kernel) in
               Iolite_sim.Engine.Proc.set_ctx rid;
               Iolite_obs.Attrib.begin_request (Kernel.attrib kernel) ~ctx:rid
                 ~tag:(Printf.sprintf "/s%d" file);
               ignore (Iolite_apps.Wc.run_iolite proc ~file);
               Iolite_obs.Attrib.end_request (Kernel.attrib kernel) ~ctx:rid;
               Iolite_sim.Engine.Proc.set_ctx 0;
               latencies := (Engine.now engine -. t0) :: !latencies;
               incr completed;
               if !completed >= jobs && not !stop then begin
                 (* Last foreground job: close the measurement window
                    before the scanners drain. *)
                 stop := true;
                 busy1 := Iolite_fs.Disk.busy_time (Kernel.disk kernel);
                 now1 := Engine.now engine
               end;
               Iolite_sim.Engine.Proc.sleep think;
               loop ()
             end
           in
           loop ()))
  done;
  Engine.run engine;
  report ~label kernel;
  let busy1 = !busy1 and now1 = !now1 in
  let p50, p90, p99 =
    match !latencies with
    | [] -> (0.0, 0.0, 0.0)
    | l ->
      let s = Iolite_util.Stats.summarize (Array.of_list l) in
      Iolite_util.Stats.(s.p50, s.p90, s.p99)
  in
  let m = Kernel.metrics kernel in
  let disk = Kernel.disk kernel in
  {
    as_scenario = scenario;
    as_mem_mb = mem_mb;
    as_requests = List.length !latencies;
    as_p50 = p50;
    as_p90 = p90;
    as_p99 = p99;
    as_disk_util = (busy1 -. busy0) /. Float.max 1e-9 (now1 -. now0);
    as_disk_reads = Iolite_fs.Disk.reads disk;
    as_disk_writes = Iolite_fs.Disk.writes disk;
    as_batches = Iolite_fs.Disk.batches disk;
    as_batched = Iolite_fs.Disk.batched disk;
    as_coalesced = Iolite_obs.Metrics.get m "cache.fill_coalesced";
    as_ra_issued = Iolite_obs.Metrics.get m "cache.readahead_issued";
    as_ra_hit = Iolite_obs.Metrics.get m "cache.readahead_hit";
    as_swap_writes = Iolite_obs.Metrics.get m "vm.swap_in" + Iolite_mem.Pageout.swap_writes (Iolite_core.Iosys.pageout (Kernel.sys kernel));
    as_seq_read_s = !seq_t;
    as_attr_completed = Iolite_obs.Attrib.completed (Kernel.attrib kernel);
    as_attr_totals = Iolite_obs.Attrib.totals (Kernel.attrib kernel);
    as_tail = Iolite_obs.Attrib.slowest (Kernel.attrib kernel);
  }

let async_sweep ?(scale = 1.0) () =
  [
    async_point ~scale ~pressure:false ();
    async_point ~scale ~pressure:true ();
  ]

let print_async points =
  let rows =
    List.map
      (fun p ->
        [
          p.as_scenario;
          string_of_int p.as_mem_mb;
          string_of_int p.as_requests;
          Printf.sprintf "%.4f" p.as_p50;
          Printf.sprintf "%.4f" p.as_p90;
          Printf.sprintf "%.4f" p.as_p99;
          Printf.sprintf "%.0f%%" (100.0 *. p.as_disk_util);
          Printf.sprintf "%d/%d" p.as_batched p.as_batches;
          string_of_int p.as_coalesced;
          Printf.sprintf "%d/%d" p.as_ra_hit p.as_ra_issued;
          Printf.sprintf "%.1f" (p.as_seq_read_s *. 1e3);
        ])
      points
  in
  Table.print
    ~header:
      [
        "scenario"; "MB"; "reqs"; "p50 s"; "p90 s"; "p99 s"; "disk util";
        "batched"; "coalesced"; "ra hit/issued"; "seq ms";
      ]
    ~rows

(* The tail profiler: per sweep point, the aggregate wait-state
   decomposition and the slowest-K reservoir with per-request cause
   breakdown, dominant cause and coverage (the >=95% contract). *)
let print_async_tail points =
  let module Attrib = Iolite_obs.Attrib in
  let ms v = Printf.sprintf "%.2f" (v *. 1e3) in
  List.iter
    (fun p ->
      Printf.printf "\n%s: wait-state attribution over %d requests\n"
        p.as_scenario p.as_attr_completed;
      (match p.as_attr_totals with
      | ("wall", wall) :: causes when wall > 0.0 ->
        Printf.printf "  aggregate:%s\n"
          (String.concat ""
             (List.map
                (fun (c, v) ->
                  Printf.sprintf " %s=%.1f%%" c (100.0 *. v /. wall))
                causes))
      | _ -> ());
      if p.as_tail <> [] then begin
        Printf.printf "  slowest %d:\n" (List.length p.as_tail);
        let rows =
          List.map
            (fun r ->
              let dom, _ = Attrib.dominant r in
              [
                string_of_int r.Attrib.ar_id;
                r.Attrib.ar_tag;
                ms (Attrib.wall r);
                ms r.Attrib.ar_queue;
                ms r.Attrib.ar_disk;
                ms r.Attrib.ar_coalesced;
                ms r.Attrib.ar_vm;
                ms r.Attrib.ar_cpu;
                dom;
                Printf.sprintf "%.0f%%" (100.0 *. Attrib.covered r);
              ])
            p.as_tail
        in
        Table.print
          ~header:
            [
              "req"; "tag"; "wall ms"; "queue"; "disk"; "coalesced"; "vm";
              "cpu"; "dominant"; "covered";
            ]
          ~rows
      end)
    points

(* ------------------------------------------------------------------ *)
(* Clustered delayed write-back: clustering headline + CAWL regimes    *)
(* ------------------------------------------------------------------ *)

type write_point = {
  wp_label : string;
  wp_flush_interval : float;
  wp_burst : int;
  wp_x : float;
  wp_writes : int;
  wp_bytes : int;
  wp_disk_writes : int;
  wp_disk_bytes : int;
  wp_cluster_writes : int;
  wp_clustered : int;
  wp_flushes : int;
  wp_superseded : int;
  wp_throttled : int;
  wp_write_s : float;
  wp_mbps : float;
}

let write_metrics kernel ~label ~flush_interval ~burst ~x ~writes ~bytes
    ~write_s =
  let m = Kernel.metrics kernel in
  let disk = Kernel.disk kernel in
  {
    wp_label = label;
    wp_flush_interval = flush_interval;
    wp_burst = burst;
    wp_x = x;
    wp_writes = writes;
    wp_bytes = bytes;
    wp_disk_writes = Iolite_fs.Disk.writes disk;
    wp_disk_bytes = Iolite_fs.Disk.bytes_written disk;
    wp_cluster_writes = Iolite_obs.Metrics.get m "write.cluster_writes";
    wp_clustered = Iolite_obs.Metrics.get m "write.clustered";
    wp_flushes = Iolite_obs.Metrics.get m "write.flushes";
    wp_superseded = Iolite_obs.Metrics.get m "write.superseded";
    wp_throttled = Iolite_obs.Metrics.get m "write.throttled";
    wp_write_s = write_s;
    wp_mbps = float_of_int bytes /. 1048576.0 /. Float.max 1e-9 write_s;
  }

(* The clustering headline: 2 MB of small sequential writes plus a
   rewrite of the first eighth (issued before any flush, so the parked
   extents are superseded in place), then fsync. Write-back merges
   adjacent dirty extents into extent-sized clusters; writes per disk
   operation is the figure (write-through would pay one each). *)
let write_seq_point () =
  let label = "write delayed" in
  let kernel = make_kernel ~config:(Kernel.default_config ()) ~label () in
  let engine = Kernel.engine kernel in
  let size = 2 * 1024 * 1024 in
  let chunk = 4096 in
  let file = Kernel.add_file kernel ~name:"/wlog.dat" ~size in
  let writes = ref 0 and bytes = ref 0 and write_s = ref 0.0 in
  ignore
    (Process.spawn kernel ~name:"seq-writer" (fun proc ->
         let data = String.make chunk 'w' in
         let do_write off =
           let t0 = Engine.now engine in
           Iolite_os.Fileio.write_string proc ~file ~off data;
           write_s := !write_s +. (Engine.now engine -. t0);
           incr writes;
           bytes := !bytes + chunk
         in
         for i = 0 to (size / chunk) - 1 do
           do_write (i * chunk)
         done;
         (* Rewrite before the first flush: supersedes parked extents. *)
         for i = 0 to (size / 8 / chunk) - 1 do
           do_write (i * chunk)
         done;
         let t0 = Engine.now engine in
         Iolite_os.Fileio.fsync proc ~file;
         write_s := !write_s +. (Engine.now engine -. t0)));
  Engine.run engine;
  report ~label kernel;
  write_metrics kernel ~label:"delayed"
    ~flush_interval:(Kernel.config kernel).Kernel.flush_interval ~burst:0
    ~x:0.0 ~writes:!writes ~bytes:!bytes ~write_s:!write_s

(* One CAWL point: bursts of [burst] bytes every 0.1 s against a small
   dirty hard limit, high watermark disabled. Below the knee the writer
   runs at memory (copy) speed; once a flush interval's accumulation
   crosses the hard limit the writer blocks on the drain — write
   throughput collapses to disk speed. The knee's position in
   [x = burst / hard] moves with the flush interval. *)
let write_cawl_point ~flush_interval ~burst () =
  let config =
    {
      (Kernel.default_config ()) with
      Kernel.mem_capacity = 32 * 1024 * 1024;
      flush_interval;
      dirty_hi_ratio = 1.0;
      dirty_hard_ratio = 0.05;
    }
  in
  let label = Printf.sprintf "cawl F=%.1fs %dKB" flush_interval (burst / 1024) in
  let kernel = make_kernel ~config ~label () in
  let engine = Kernel.engine kernel in
  let hard =
    int_of_float
      (config.Kernel.dirty_hard_ratio
      *. float_of_int
           (Iolite_mem.Physmem.io_budget
              (Iolite_core.Iosys.physmem (Kernel.sys kernel))))
  in
  let size = 8 * 1024 * 1024 in
  let file = Kernel.add_file kernel ~name:"/cawl.dat" ~size in
  let period = 0.1 in
  let bursts = 40 in
  let writes = ref 0 and bytes = ref 0 and write_s = ref 0.0 in
  ignore
    (Process.spawn kernel ~name:"burst-writer" (fun proc ->
         let data = String.make burst 'b' in
         for b = 0 to bursts - 1 do
           let start = Engine.now engine in
           let off = b * burst mod size in
           Iolite_os.Fileio.write_string proc ~file ~off data;
           write_s := !write_s +. (Engine.now engine -. start);
           incr writes;
           bytes := !bytes + burst;
           let elapsed = Engine.now engine -. start in
           if elapsed < period then
             Iolite_sim.Engine.Proc.sleep (period -. elapsed)
         done));
  Engine.run engine;
  report ~label kernel;
  write_metrics kernel
    ~label:(Printf.sprintf "F=%.1fs" flush_interval)
    ~flush_interval ~burst
    ~x:(float_of_int burst /. float_of_int hard)
    ~writes:!writes ~bytes:!bytes ~write_s:!write_s

let write_cawl_sweep () =
  let ks = [ 128; 256; 512; 1024; 2048 ] in
  List.concat_map
    (fun flush_interval ->
      List.map
        (fun k -> write_cawl_point ~flush_interval ~burst:(k * 1024) ())
        ks)
    [ 0.2; 0.8 ]

let print_write points =
  let rows =
    List.map
      (fun p ->
        [
          p.wp_label;
          (if p.wp_burst = 0 then "-"
           else Printf.sprintf "%d" (p.wp_burst / 1024));
          (if p.wp_x = 0.0 then "-" else Printf.sprintf "%.2f" p.wp_x);
          string_of_int p.wp_writes;
          Printf.sprintf "%.1f" (float_of_int p.wp_bytes /. 1048576.0);
          string_of_int p.wp_disk_writes;
          string_of_int p.wp_cluster_writes;
          string_of_int p.wp_clustered;
          string_of_int p.wp_flushes;
          string_of_int p.wp_superseded;
          string_of_int p.wp_throttled;
          Printf.sprintf "%.4f" p.wp_write_s;
          Printf.sprintf "%.1f" p.wp_mbps;
        ])
      points
  in
  Table.print
    ~header:
      [
        "point"; "burst KB"; "x"; "writes"; "MB"; "disk ops"; "clusters";
        "clustered"; "flushes"; "superseded"; "throttled"; "write s";
        "MB/s";
      ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Fig. 10 revisited: working-set sweeps across the NVMM second tier   *)
(* ------------------------------------------------------------------ *)

type tier_point = {
  tp_label : string;
  tp_ws_mb : int;
  tp_mbps : float;
  tp_dram_hits : int;
  tp_dram_evictions : int;
  tp_tier_hit : int;
  tp_tier_miss : int;
  tp_tier_demote : int;
  tp_tier_promote : int;
  tp_tier_stage : int;
  tp_tier_evict : int;
  tp_disk_reads : int;
}

type tier_probe = {
  pr_dram_hit_s : float;
  pr_tier_hit_s : float;
  pr_cold_disk_s : float;
  pr_speedup : float;
  pr_demote : int;
  pr_promote : int;
  pr_stage : int;
}

(* A small machine under GDS, the tier armed when [tiered]. *)
let tier_config ~mem_mb ~tiered () =
  {
    (testbed_config ()) with
    Kernel.mem_capacity = mem_mb * 1024 * 1024;
    tier_enabled = tiered;
  }

let tier_point ~tiered ~trace ~log ~scale mb =
  let prefix =
    Trace.prefix_for_dataset trace ~log ~target_bytes:(mb * 1024 * 1024)
  in
  let variant = if tiered then "tiered" else "dram-only" in
  let label = Printf.sprintf "%s %dMB" variant mb in
  let ((kernel, _) as bed) =
    trace_testbed ~config:(tier_config ~mem_mb:64 ~tiered ()) ~label ~trace
      ~prefix_ranks:(Some (prefix_ranks ~log ~prefix))
      Flash_lite
  in
  let m = Kernel.metrics kernel in
  let get k = Iolite_obs.Metrics.get m k in
  let module F = Iolite_core.Filecache in
  let uc = Kernel.unified_cache kernel in
  let disk = Kernel.disk kernel in
  (* Preload demotions are warm-start plumbing, not measured traffic. *)
  let demote0 = get "cache.tier.demote" in
  let hits0 = F.hits uc and evictions0 = F.evictions uc in
  let reads0 = Iolite_fs.Disk.reads disk in
  let pick = sample_prefix ~seed:0x5BEC99L ~log ~prefix in
  let mbps = replay ~label ~scale ~pick bed in
  {
    tp_label = variant;
    tp_ws_mb = mb;
    tp_mbps = mbps;
    tp_dram_hits = F.hits uc - hits0;
    tp_dram_evictions = F.evictions uc - evictions0;
    tp_tier_hit = get "cache.tier.hit";
    tp_tier_miss = get "cache.tier.miss";
    tp_tier_demote = get "cache.tier.demote" - demote0;
    tp_tier_promote = get "cache.tier.promote";
    tp_tier_stage = get "cache.tier.wb_stage";
    tp_tier_evict = get "cache.tier.evict";
    tp_disk_reads = Iolite_fs.Disk.reads disk - reads0;
  }

let tier_ws_sizes_mb = [ 8; 16; 24; 48; 96; 150 ]

let tier_sweep ?(scale = 1.0) () =
  let trace, log = merged_subtrace () in
  List.concat_map
    (fun tiered ->
      List.map (tier_point ~tiered ~trace ~log ~scale) tier_ws_sizes_mb)
    [ false; true ]

(* The latency exhibit: one small file read cold (disk: positioning +
   transfer), warm (DRAM hit), and from the tier (demotion forced by
   draining the DRAM cache, so the next read promotes: pure NVMM
   transfer). A small file keeps the disk's positioning term dominant —
   that is exactly the cost the byte-addressable tier deletes. *)
let tier_probe_run () =
  let size = 4096 in
  let label = "tier probe" in
  let kernel =
    make_kernel ~config:(tier_config ~mem_mb:16 ~tiered:true ()) ~label ()
  in
  let engine = Kernel.engine kernel in
  let file = Kernel.add_file kernel ~name:"/probe.dat" ~size in
  let tier =
    match Kernel.tier kernel with Some t -> t | None -> assert false
  in
  let uc = Kernel.unified_cache kernel in
  let module F = Iolite_core.Filecache in
  let cold = ref 0.0 and warm = ref 0.0 and thit = ref 0.0 in
  ignore
    (Process.spawn kernel ~name:"tier-probe" (fun proc ->
         let timed cell =
           let t0 = Engine.now engine in
           let s = Iolite_os.Fileio.read_string proc ~file ~off:0 ~len:size in
           cell := Engine.now engine -. t0;
           assert (Iolite_fs.Filestore.check_string ~file ~off:0 s)
         in
         timed cold;
         timed warm;
         (* Push the probe downstairs: evict until the tier holds it. *)
         let guard = ref 0 in
         while
           (not (Iolite_core.Tier.covered tier ~file ~off:0 ~len:size))
           && !guard < 64
         do
           incr guard;
           ignore (F.evict_one uc)
         done;
         timed thit;
         (* A write staged ahead of its disk ack exercises wb_stage. *)
         Iolite_os.Fileio.write_string proc ~file ~off:0
           (Iolite_fs.Filestore.content ~file ~off:0 ~len:2048);
         Iolite_os.Fileio.fsync proc ~file));
  Engine.run engine;
  report ~label kernel;
  let m = Kernel.metrics kernel in
  let get k = Iolite_obs.Metrics.get m k in
  {
    pr_dram_hit_s = !warm;
    pr_tier_hit_s = !thit;
    pr_cold_disk_s = !cold;
    pr_speedup = !cold /. Float.max 1e-9 !thit;
    pr_demote = get "cache.tier.demote";
    pr_promote = get "cache.tier.promote";
    pr_stage = get "cache.tier.wb_stage";
  }

let print_tier points pr =
  let rows =
    List.map
      (fun p ->
        [
          p.tp_label;
          string_of_int p.tp_ws_mb;
          Printf.sprintf "%.1f" p.tp_mbps;
          string_of_int p.tp_dram_hits;
          string_of_int p.tp_dram_evictions;
          string_of_int p.tp_tier_hit;
          string_of_int p.tp_tier_miss;
          string_of_int p.tp_tier_demote;
          string_of_int p.tp_tier_promote;
          string_of_int p.tp_tier_stage;
          string_of_int p.tp_tier_evict;
          string_of_int p.tp_disk_reads;
        ])
      points
  in
  Table.print
    ~header:
      [
        "variant"; "WS MB"; "MB/s"; "dram hit"; "dram evict"; "tier hit";
        "tier miss"; "demote"; "promote"; "wb_stage"; "tier evict";
        "disk reads";
      ]
    ~rows;
  Printf.printf
    "\nprobe (4KB): dram hit %.6fs | tier hit %.6fs | cold disk %.6fs | speedup %.1fx | demote=%d promote=%d wb_stage=%d\n"
    pr.pr_dram_hit_s pr.pr_tier_hit_s pr.pr_cold_disk_s pr.pr_speedup
    pr.pr_demote pr.pr_promote pr.pr_stage
