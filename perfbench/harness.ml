(* One benchmark repetition: build a Flash-Lite testbed from the MERGED
   subtrace, warm its caches, drive it with 64 closed-loop clients for a
   fixed simulated window, check every response, and collect the
   simulated-clock and host-clock numbers. Only the public interfaces of
   the iolite libraries are used. *)

module Engine = Iolite_sim.Engine
module Kernel = Iolite_os.Kernel
module Process = Iolite_os.Process
module Fileio = Iolite_os.Fileio
module Sock = Iolite_os.Sock
module Cpu = Iolite_os.Cpu
module Flash = Iolite_httpd.Flash
module Http = Iolite_httpd.Http
module Trace = Iolite_workload.Trace
module Filestore = Iolite_fs.Filestore
module Disk = Iolite_fs.Disk
module Filecache = Iolite_core.Filecache
module Iobuf = Iolite_core.Iobuf
module Iosys = Iolite_core.Iosys
module Policy = Iolite_core.Policy
module Tier = Iolite_core.Tier
module Physmem = Iolite_mem.Physmem
module Metrics = Iolite_obs.Metrics
module Attrib = Iolite_obs.Attrib
module Rng = Iolite_util.Rng
module Stats = Iolite_util.Stats

type workload = {
  name : string;
  data_mb : int;  (** distinct bytes of the MERGED prefix the clients pick from *)
  mem_mb : int;  (** physical memory of the simulated machine *)
  tiered : bool;  (** arm the NVMM tier and warm it *)
  updater : bool;  (** run the IOL_write/fsync updater beside the clients *)
}

let workloads =
  [
    { name = "merged-hot"; data_mb = 60; mem_mb = 128; tiered = false; updater = false };
    { name = "merged-disk"; data_mb = 150; mem_mb = 128; tiered = false; updater = false };
    { name = "merged-write"; data_mb = 60; mem_mb = 128; tiered = false; updater = true };
    { name = "merged-tier"; data_mb = 150; mem_mb = 64; tiered = true; updater = false };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* Simulated seconds of warm-up and of measured window. *)
type sizing = { warmup : int; window : int }

let full = { warmup = 5; window = 20 }
let tiny = { warmup = 1; window = 3 }

let clients = 64
let log_len = 400_000
let update_period = 0.010
let update_max = 16 * 1024
let fsync_every = 8
let verify_deadline = 600.0

let mbytes mb = mb * 1024 * 1024

(* One seed drives every random input; the program sees only what these
   generate. A run measures several data sets, each with its own seeds. *)
type seeds = {
  trace_seed : int64;  (** file sizes and popularity *)
  log_seed : int64;  (** the request log the prefix is cut from *)
  pick_seed : int64;  (** the clients' random picks from the prefix *)
  update_seed : int64;  (** the updater's files and bytes *)
}

let seeds_of ~seed ~dataset =
  let r = Rng.create (Int64.of_int seed) in
  for _ = 1 to 4 * dataset do
    ignore (Rng.int64 r)
  done;
  let trace_seed = Rng.int64 r in
  let log_seed = Rng.int64 r in
  let pick_seed = Rng.int64 r in
  let update_seed = Rng.int64 r in
  { trace_seed; log_seed; pick_seed; update_seed }

(* Benchmark-side spans on the host clock, kept in memory and written out
   when the run ends. *)
module Spans = struct
  type t = { id : int; name : string; start : float; stop : float; parent : int }

  let recorded = ref []
  let next = ref 0

  let within ?(parent = 0) name f =
    incr next;
    let id = !next in
    let start = Unix.gettimeofday () in
    let r = f id in
    let stop = Unix.gettimeofday () in
    recorded := { id; name; start; stop; parent } :: !recorded;
    (r, stop -. start)

  let to_json () =
    let one s =
      Printf.sprintf
        {|{"id": %d, "name": %S, "start": %.6f, "end": %.6f, "parent": %d}|}
        s.id s.name s.start s.stop s.parent
    in
    "[\n  " ^ String.concat ",\n  " (List.rev_map one !recorded) ^ "\n]\n"
end

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type testbed = {
  kernel : Kernel.t;
  flash : Flash.t;
  trace : Trace.t;
  log : int array;
  prefix : int;  (** clients pick uniformly from [log.(0 .. prefix-1)] *)
}

(* Distinct files of the prefix, most popular first. *)
let prefix_files kernel log prefix =
  let seen = Hashtbl.create 4096 in
  for i = 0 to prefix - 1 do
    Hashtbl.replace seen log.(i) ()
  done;
  let ranks = List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) seen []) in
  let store = Kernel.store kernel in
  List.filter_map (fun rank -> Filestore.lookup store (Trace.file_path ~rank)) ranks

(* Warm DRAM up to 90% of the I/O budget, admitting only files the
   kernel's cache would admit (at most an eighth of the budget). *)
let preload_dram kernel files ~fill =
  let sys = Kernel.sys kernel in
  let cache = Kernel.unified_cache kernel in
  let pool = Kernel.file_pool kernel in
  let store = Kernel.store kernel in
  let producer = Iosys.kernel sys in
  let budget = Physmem.io_budget (Iosys.physmem sys) * 9 / 10 in
  let load file =
    let size = Filestore.size store file in
    if
      size > 0
      && size <= budget / 8
      && not (Filecache.covered cache ~file ~off:0 ~len:size)
    then begin
      let rec parts pos =
        if pos >= size then []
        else begin
          let n = min Iobuf.Pool.max_alloc (size - pos) in
          let b = Iobuf.Pool.alloc ~paged:true pool ~producer n in
          Iosys.with_fill_mode sys `Dma (fun () ->
              fill (fun () -> Filestore.fill_buffer store b ~file ~off:pos));
          Iobuf.Buffer.seal b;
          let part = Iobuf.Agg.of_buffer_owned b in
          part :: parts (pos + n)
        end
      in
      let parts = parts 0 in
      let agg = Iobuf.Agg.concat_list parts in
      List.iter Iobuf.Agg.free parts;
      Filecache.insert cache ~file ~off:0 agg
    end
  in
  List.iter (fun file -> if Filecache.total_bytes cache < budget then load file) files

(* Warm the tier with the prefix files DRAM did not take, up to 90% of
   its capacity. *)
let preload_tier kernel files ~fill =
  match Kernel.tier kernel with
  | None -> ()
  | Some tier ->
    let cache = Kernel.unified_cache kernel in
    let store = Kernel.store kernel in
    let capacity =
      match (Kernel.config kernel).Kernel.tier_capacity with
      | Some c -> c
      | None -> 10 * Physmem.io_budget (Iosys.physmem (Kernel.sys kernel))
    in
    let budget = capacity * 9 / 10 in
    List.iter
      (fun file ->
        let size = Filestore.size store file in
        if
          Tier.total_bytes tier < budget
          && size > 0
          && (not (Filecache.covered cache ~file ~off:0 ~len:size))
          && not (Tier.covered tier ~file ~off:0 ~len:size)
        then
          Tier.demote tier ~file ~off:0 ~gen:0
            (fill (fun () ->
                 String.init size (fun off -> Filestore.content_byte ~file ~off))))
      files

type setup = {
  bed : testbed;
  setup_s : float;
  phases : (string * float) list;  (** host seconds per set-up phase *)
}

let setup ~traced ~parent w seeds =
  let start = Unix.gettimeofday () in
  let fill_s = ref 0.0 in
  let fill f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    fill_s := !fill_s +. (Unix.gettimeofday () -. t0);
    r
  in
  let (trace, log, prefix), trace_s =
    Spans.within ~parent "setup.trace" (fun _ ->
        let trace = Trace.synthesize ~seed:seeds.trace_seed Trace.merged in
        let log = Trace.request_log trace ~seed:seeds.log_seed ~count:log_len in
        let prefix =
          Trace.prefix_for_dataset trace ~log ~target_bytes:(mbytes w.data_mb)
        in
        (trace, log, prefix))
  in
  let (kernel, flash), kernel_s =
    Spans.within ~parent "setup.kernel" (fun _ ->
        let config =
          {
            (Kernel.default_config ()) with
            Kernel.mem_capacity = mbytes w.mem_mb;
            cache_policy = Policy.gds ();
            tier_enabled = w.tiered;
          }
        in
        let kernel = Kernel.create ~config (Engine.create ()) in
        if traced then Kernel.enable_attribution kernel;
        Trace.register_files trace kernel ~prefix_ranks:None;
        (kernel, Flash.start ~policy:config.Kernel.cache_policy kernel ~port:80))
  in
  let files = prefix_files kernel log prefix in
  let (), preload_s =
    Spans.within ~parent "setup.preload" (fun _ -> preload_dram kernel files ~fill)
  in
  let (), tier_preload_s =
    Spans.within ~parent "setup.tier_preload" (fun _ ->
        preload_tier kernel files ~fill)
  in
  (* The warm-start's VM and NVMM work is not the measured run's. *)
  ignore (Kernel.take_pending kernel);
  {
    bed = { kernel; flash; trace; log; prefix };
    setup_s = Unix.gettimeofday () -. start;
    phases =
      [
        ("setup.trace_s", trace_s);
        ("setup.kernel_s", kernel_s);
        ("setup.preload_s", preload_s);
        ("setup.tier_preload_s", tier_preload_s);
        ("fs.fill_s", !fill_s);
      ];
  }

(* ------------------------------------------------------------------ *)
(* The measured run                                                    *)
(* ------------------------------------------------------------------ *)

(* Layer counters read at the window's edges. *)
type sample = {
  counters : Metrics.snapshot;
  cpu_busy : float;
  disk_busy : float;
  disk_reads : int;
  disk_writes : int;
  disk_bytes_read : int;
  disk_batched : int;
  waits : (string * float) list;
}

let sample kernel =
  let disk = Kernel.disk kernel in
  {
    counters = Metrics.snapshot (Kernel.metrics kernel);
    cpu_busy = Cpu.busy_time (Kernel.cpu kernel);
    disk_busy = Disk.busy_time disk;
    disk_reads = Disk.reads disk;
    disk_writes = Disk.writes disk;
    disk_bytes_read = Disk.bytes_read disk;
    disk_batched = Disk.batched disk;
    waits = Attrib.totals (Kernel.attrib kernel);
  }

type result = {
  attempted : int;  (** requests and writes issued over the whole run *)
  failed : int;  (** failed or wrong-length responses *)
  errors : string list;  (** output checks that did not hold *)
  window_bytes : int;  (** response bytes completed in the window *)
  latencies : float array;  (** sorted client latencies in the window, s *)
  write_bytes : int;  (** updater bytes written in the window *)
  write_time : float;  (** simulated seconds inside its iol_write and fsync *)
  fsyncs : float array;  (** sorted fsync latencies in the window, s *)
  layer : (string * float) list;  (** simulated per-layer numbers *)
  waits : (string * float) list;  (** wait-state totals, traced runs only *)
  host : (string * float) list;  (** host-clock numbers of this repetition *)
  digest : string;  (** of the window's [Kernel.metrics] diff *)
}

(* Equal simulated runs: what a seed must reproduce exactly. *)
let same a b =
  a.window_bytes = b.window_bytes
  && a.latencies = b.latencies
  && a.write_bytes = b.write_bytes
  && a.write_time = b.write_time
  && a.fsyncs = b.fsyncs
  && a.layer = b.layer
  && a.digest = b.digest

exception Stall of string

(* On a shared machine host speed swings by tens of percent, over
   seconds and over minutes, and all CPU-bound work slows together. The
   simulation therefore runs one simulated second at a time, and a fixed
   hashing-and-allocation loop is timed after each second: each second's
   host cost per request is scaled by [calibration_ref_s] over the loop's
   time, so the swing cancels, and [host_us_per_req] is the median over
   the seconds. The loop takes about 15 ms on a 2-core x86-64 VM. *)
let calibration_ref_s = 0.015

let calibrate () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 16 in
  for i = 0 to 50_000 do
    Hashtbl.replace h (i * 7919) (string_of_int i)
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h));
  Unix.gettimeofday () -. t0

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let ratio a b = if b = 0.0 then 0.0 else a /. b

let run ?(traced = false) ?(parent = 0) w sizing seeds =
  Gc.compact ();
  let s = setup ~traced ~parent w seeds in
  let bed = s.bed in
  let kernel = bed.kernel in
  let engine = Kernel.engine kernel in
  let store = Kernel.store kernel in
  let listener = Flash.listener bed.flash in
  let t_start = Engine.now engine in
  let seconds = sizing.warmup + sizing.window in
  let w0 = t_start +. float_of_int sizing.warmup in
  let w1 = t_start +. float_of_int seconds in
  let in_window t = t >= w0 && t <= w1 in
  let per_second = Array.make seconds 0 in
  let completed = ref 0 and attempted = ref 0 and failed = ref 0 in
  let window_bytes = ref 0 and latencies = ref [] in
  let errors = ref [] in
  let pick = Rng.create seeds.pick_seed in
  (* Closed loop: each client sends its next request only after the
     previous response has drained. *)
  let client () =
    while Engine.now engine < w1 do
      let rank = bed.log.(Rng.int pick bed.prefix) in
      let size = Trace.file_size bed.trace ~rank in
      let expect = String.length (Http.response_header ~content_length:size ()) + size in
      let t0 = Engine.now engine in
      let conn = Sock.connect kernel listener in
      let got =
        match Sock.request conn (Http.request_string (Trace.file_path ~rank)) with
        | n -> n
        | exception Failure _ -> -1
      in
      let t1 = Engine.now engine in
      Sock.close conn;
      incr attempted;
      if got <> expect then begin
        incr failed;
        (* A server failing every request must not spin the clock in place. *)
        Engine.Proc.sleep 0.001
      end
      else begin
        incr completed;
        let sec = int_of_float (t1 -. t_start) in
        if sec < seconds then per_second.(sec) <- per_second.(sec) + 1;
        if in_window t1 then begin
          window_bytes := !window_bytes + got;
          latencies := (t1 -. t0) :: !latencies
        end
      end
    done
  in
  for id = 0 to clients - 1 do
    Engine.spawn engine ~name:(Printf.sprintf "client-%d" id) client
  done;
  (* The updater rewrites the head of a prefix file every period and
     fsyncs every [fsync_every]-th write; [written] keeps the last bytes
     each file received. *)
  let written = Hashtbl.create 256 in
  let write_bytes = ref 0 and write_time = ref 0.0 in
  let fsyncs = ref [] in
  if w.updater then begin
    let rng = Rng.create seeds.update_seed in
    let pattern = String.init 65536 (fun _ -> Char.chr (Rng.int rng 256)) in
    ignore
      (Process.spawn kernel ~name:"updater" (fun proc ->
           let n = ref 0 in
           Engine.Proc.sleep update_period;
           while Engine.now engine < w1 do
             let rank = bed.log.(Rng.int rng bed.prefix) in
             let file = Option.get (Filestore.lookup store (Trace.file_path ~rank)) in
             let len = min update_max (Filestore.size store file) in
             let data = String.sub pattern (!n * 4099 mod (65536 - update_max)) len in
             incr n;
             incr attempted;
             let t0 = Engine.now engine in
             Fileio.iol_write proc ~file ~off:0
               (Iobuf.Agg.of_string (Process.pool proc)
                  ~producer:(Process.domain proc) data);
             Hashtbl.replace written file data;
             let t1 = Engine.now engine in
             let sync = !n mod fsync_every = 0 in
             if sync then Fileio.fsync proc ~file;
             let t2 = Engine.now engine in
             if t0 >= w0 then begin
               write_bytes := !write_bytes + len;
               write_time := !write_time +. (t2 -. t0);
               if sync then fsyncs := (t2 -. t1) :: !fsyncs
             end;
             Engine.Proc.sleep update_period
           done))
  end;
  let gc0 = Gc.quick_stat () in
  let run_s = ref 0.0 and calibration_words = ref 0.0 in
  let costs = Array.make seconds 0.0 and calibrations = Array.make seconds 0.0 in
  let before, _ =
    Spans.within ~parent "sim.run" (fun _ ->
        let before = ref None in
        for sec = 1 to seconds do
          let c0 = !completed and h0 = Unix.gettimeofday () in
          Engine.run ~until:(t_start +. float_of_int sec) engine;
          let dt = Unix.gettimeofday () -. h0 in
          let words = Gc.minor_words () in
          let cal = calibrate () in
          calibration_words := !calibration_words +. (Gc.minor_words () -. words);
          run_s := !run_s +. dt;
          calibrations.(sec - 1) <- cal;
          costs.(sec - 1) <-
            dt /. float_of_int (max 1 (!completed - c0)) *. calibration_ref_s /. cal;
          if sec = sizing.warmup then before := Some (sample kernel)
        done;
        Option.get !before)
  in
  let after = sample kernel in
  let run_s = !run_s in
  let gc1 = Gc.quick_stat () in
  (* After a final sync every rewritten head must read back as the last
     bytes written and every tail as the file's original contents. *)
  if w.updater then begin
    let finished = ref false in
    let check proc (file, data) =
      let len = String.length data in
      let size = Filestore.size store file in
      if Fileio.read_string proc ~file ~off:0 ~len <> data then
        errors := Printf.sprintf "file %d: head does not read back" file :: !errors;
      let tail = Fileio.read_string proc ~file ~off:len ~len:(size - len) in
      if not (Filestore.check_string ~file ~off:len tail) then
        errors := Printf.sprintf "file %d: tail corrupted" file :: !errors
    in
    ignore
      (Process.spawn kernel ~name:"verifier" (fun proc ->
           Fileio.sync proc;
           Hashtbl.fold (fun f d acc -> (f, d) :: acc) written []
           |> List.sort compare
           |> List.iter (check proc);
           finished := true));
    while (not !finished) && Engine.now engine < w1 +. verify_deadline do
      Engine.run ~until:(Engine.now engine +. 1.0) engine
    done;
    if not !finished then errors := "read-back did not finish" :: !errors
  end;
  let lat = sorted_array !latencies in
  if Array.length lat = 0 then raise (Stall "no request completed in the window");
  Array.iteri
    (fun sec n ->
      if n = 0 then
        raise (Stall (Printf.sprintf "no request completed in simulated second %d" sec)))
    per_second;
  let diff = Metrics.diff ~before:before.counters ~after:after.counters in
  let get k = float_of_int (Option.value ~default:0 (List.assoc_opt k diff)) in
  let window = float_of_int sizing.window in
  let reqs = float_of_int (Array.length lat) in
  let flash_p99 =
    match Flash.latency_stats bed.flash with
    | Some st -> 1000.0 *. st.Stats.p99
    | None -> 0.0
  in
  let link_bps = (Kernel.config kernel).Kernel.link_bits_per_sec in
  let disk_ops = after.disk_reads - before.disk_reads + after.disk_writes - before.disk_writes in
  let layer =
    [
      ("client.requests", reqs);
      ("client.failed_frac", ratio (float_of_int !failed) (float_of_int !attempted));
      ("flash.p99_ms", flash_p99);
      ("cpu.util", (after.cpu_busy -. before.cpu_busy) /. window);
      ("cpu.busy_us_per_req", 1e6 *. ratio (after.cpu_busy -. before.cpu_busy) reqs);
      ("net.cksum_scanned_frac", ratio (get "net.cksum_bytes") (get "net.cksum_bytes_total"));
      ("link.util", get "net.bytes_sent" *. 8.0 /. link_bps /. window);
      ( "transfer.warm_frac",
        ratio (get "transfer.warm_hits") (get "transfer.warm_hits" +. get "transfer.cold_walks") );
      ("transfer.cold_walks", get "transfer.cold_walks");
      ("vm.map_read_per_req", ratio (get "vm.map_read") reqs);
      ("vm.page_alloc_per_req", ratio (get "vm.page_alloc") reqs);
      ("pool.fresh", get "pool.fresh");
      ("pool.recycled", get "pool.recycled");
      ("cache.hit_frac", ratio (get "cache.hit") (get "cache.hit" +. get "cache.miss"));
      ("cache.eviction", get "cache.eviction");
      ("cache.fill_coalesced", get "cache.fill_coalesced");
      ("cache.readahead_acc", ratio (get "cache.readahead_hit") (get "cache.readahead_issued"));
      ("cache.acl_copy", get "cache.acl_copy");
      ("bytes.copied", get "bytes.copied");
      ("disk.util", (after.disk_busy -. before.disk_busy) /. window);
      ("disk.reads", float_of_int (after.disk_reads - before.disk_reads));
      ("disk.bytes_read", float_of_int (after.disk_bytes_read - before.disk_bytes_read));
      ("disk.writes", float_of_int (after.disk_writes - before.disk_writes));
      ( "disk.batched_frac",
        ratio (float_of_int (after.disk_batched - before.disk_batched)) (float_of_int disk_ops) );
      ("vm.pageout_pages", get "vm.pageout_pages");
      ("vm.swap_writes", get "vm.swap_writes");
      ("vm.swap_in", get "vm.swap_in");
      ("write.cluster_writes", get "write.cluster_writes");
      ("write.clustered", get "write.clustered");
      ("write.superseded", get "write.superseded");
      ("write.throttled", get "write.throttled");
      ("write.fsync", get "write.fsync");
      ( "tier.hit_frac",
        ratio (get "cache.tier.hit") (get "cache.tier.hit" +. get "cache.tier.miss") );
      ("cache.tier.promote", get "cache.tier.promote");
      ("cache.tier.demote", get "cache.tier.demote");
      ("cache.tier.evict", get "cache.tier.evict");
    ]
  in
  let waits =
    List.map2
      (fun (k, a) (_, b) -> ("wait." ^ k ^ "_s", a -. b))
      after.waits before.waits
    |> List.filter (fun (k, _) -> k <> "wait.wall_s")
  in
  let host =
    s.phases
    @ [
        ("setup_s", s.setup_s);
        ("host_us_per_req", 1e6 *. median costs);
        ("host.calibration_s", median calibrations);
        ("sim.run_s", run_s);
        ("sim.host_s_per_sim_s", run_s /. float_of_int seconds);
        ( "gc.minor_mw",
          (gc1.Gc.minor_words -. gc0.Gc.minor_words -. !calibration_words) /. 1e6 );
        ("gc.major", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ]
  in
  let digest =
    List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) diff
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  {
    attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    window_bytes = !window_bytes;
    latencies = lat;
    write_bytes = !write_bytes;
    write_time = !write_time;
    fsyncs = sorted_array !fsyncs;
    layer;
    waits;
    host;
    digest;
  }
