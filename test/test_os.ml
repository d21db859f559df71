open Iolite_os
module Engine = Iolite_sim.Engine
module Sync = Iolite_sim.Sync
module Iobuf = Iolite_core.Iobuf
module Iosys = Iolite_core.Iosys
module Filecache = Iolite_core.Filecache
module Counter = Iolite_obs.Metrics

let mk () =
  let engine = Engine.create () in
  let kernel = Kernel.create engine in
  (engine, kernel)

let in_proc kernel f =
  let out = ref None in
  ignore
    (Process.spawn kernel ~name:"test" (fun proc -> out := Some (f proc)));
  Engine.run (Kernel.engine kernel);
  Option.get !out

let agg_str agg =
  let buf = Buffer.create 16 in
  Iobuf.Agg.iter_slices agg (fun sl ->
      let data, off = Iobuf.Slice.view sl in
      Buffer.add_subbytes buf data off (Iobuf.Slice.len sl));
  Buffer.contents buf

let agg_str_free agg =
  let s = agg_str agg in
  Iobuf.Agg.free agg;
  s

(* --------------------------- CPU --------------------------------- *)

let test_cpu_serializes_and_switches () =
  let cpu = Cpu.create ~context_switch:0.001 () in
  let e = Engine.create () in
  Engine.spawn e (fun () -> Cpu.charge cpu ~owner:1 0.01);
  Engine.spawn e (fun () -> Cpu.charge cpu ~owner:2 0.01);
  Engine.spawn e (fun () -> Cpu.charge cpu ~owner:1 0.01);
  Engine.run e;
  (* 3 bursts + 2 switches (1->2, 2->1). *)
  Alcotest.(check (float 1e-9)) "elapsed" 0.032 (Engine.now e);
  Alcotest.(check int) "switches" 2 (Cpu.switches cpu);
  Alcotest.(check (float 1e-9)) "busy" 0.032 (Cpu.busy_time cpu)

let test_cpu_same_owner_no_switch () =
  let cpu = Cpu.create ~context_switch:0.001 () in
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      for _ = 1 to 5 do
        Cpu.charge cpu ~owner:7 0.01
      done);
  Engine.run e;
  Alcotest.(check int) "no switches" 0 (Cpu.switches cpu);
  Alcotest.(check (float 1e-9)) "elapsed" 0.05 (Engine.now e)

(* The CPU as it was before the virtual-time queue, kept verbatim as the
   oracle: a FIFO semaphore acquired per burst, with the burn as a
   relative sleep while holding it. *)
module Semaphore_cpu = struct
  module Proc = Iolite_sim.Engine.Proc
  module Attrib = Iolite_obs.Attrib

  type t = {
    context_switch : float;
    lock : Sync.Semaphore.t;
    mutable last_owner : int;
    mutable busy : float;
    mutable switches : int;
    attrib : Attrib.t;
  }

  let create ?(context_switch = 30e-6) ?attrib () =
    {
      context_switch;
      lock = Sync.Semaphore.create 1;
      last_owner = -1;
      busy = 0.0;
      switches = 0;
      attrib = (match attrib with Some a -> a | None -> Attrib.create ());
    }

  let charge_locked t ~owner dt =
    Sync.Semaphore.with_acquired t.lock (fun () ->
        let dt =
          if t.last_owner <> owner && t.last_owner <> -1 then begin
            t.switches <- t.switches + 1;
            dt +. t.context_switch
          end
          else dt
        in
        t.last_owner <- owner;
        Proc.sleep dt;
        t.busy <- t.busy +. dt)

  let charge t ~owner dt =
    if dt > 0.0 then begin
      let a = t.attrib in
      if Attrib.enabled a then begin
        let ctx = Attrib.here a in
        if ctx > 0 then begin
          let t0 = Attrib.now a in
          charge_locked t ~owner dt;
          Attrib.note a ~ctx Cpu (Attrib.now a -. t0)
        end
        else charge_locked t ~owner dt
      end
      else charge_locked t ~owner dt
    end

  let busy_time t = t.busy
  let switches t = t.switches
end

(* A CPU scenario: fibers arriving by [spawn_at] that each run a script
   of bursts (on one owner) and think times, beside unrelated sleepers.
   Every float is drawn from a continuous range, never a round value: an
   exact same-time tie between a burst's end and another event is the
   one case where the two models may order events differently (the
   queue creates a burst's wake event at request, the semaphore at
   hand-off, so their sequence numbers differ), and it is not what this
   property is about. *)
type cpu_step = Burn of float | Think of float

type cpu_scenario = {
  cs_switch : float;
  cs_jobs : (float * int * cpu_step list) list; (* arrival, owner, script *)
  cs_sleepers : (float * float list) list; (* arrival, sleeps *)
}

let gen_cpu_scenario =
  let open QCheck.Gen in
  let dur = float_range 1e-6 1e-3 in
  let arrival = oneof [ return 0.0; float_range 0.0 2e-3 ] in
  let step = frequency [ (3, map (fun d -> Burn d) dur); (1, map (fun d -> Think d) dur) ] in
  int_range 1 4 >>= fun owners ->
  map3
    (fun cs_switch cs_jobs cs_sleepers -> { cs_switch; cs_jobs; cs_sleepers })
    (float_range 1e-6 1e-4)
    (list_size (int_range 1 8)
       (triple arrival (int_range 0 (owners - 1)) (list_size (int_range 1 6) step)))
    (list_size (int_range 0 4) (pair arrival (list_size (int_range 1 4) dur)))

let print_cpu_scenario sc =
  let step = function
    | Burn d -> Printf.sprintf "B%h" d
    | Think d -> Printf.sprintf "T%h" d
  in
  Printf.sprintf "switch %h\n%s\n%s" sc.cs_switch
    (String.concat "\n"
       (List.map
          (fun (a, o, steps) ->
            Printf.sprintf "job @%h owner %d: %s" a o
              (String.concat " " (List.map step steps)))
          sc.cs_jobs))
    (String.concat "\n"
       (List.map
          (fun (a, ds) ->
            Printf.sprintf "sleeper @%h: %s" a
              (String.concat " " (List.map (Printf.sprintf "%h") ds)))
          sc.cs_sleepers))

(* Runs a scenario against one CPU model; returns the log of burst
   completions and sleeper wakes in the order they happened, with their
   exact times, and the final clock. *)
let run_cpu_scenario sc ~charge =
  let e = Engine.create () in
  let log = ref [] in
  let note tag = log := (tag, Engine.Proc.now ()) :: !log in
  List.iteri
    (fun j (arrival, owner, steps) ->
      Engine.spawn_at e arrival (fun () ->
          List.iteri
            (fun i -> function
              | Burn d ->
                charge ~owner d;
                note (Printf.sprintf "job %d burst %d" j i)
              | Think d -> Engine.Proc.sleep d)
            steps))
    sc.cs_jobs;
  List.iteri
    (fun k (arrival, sleeps) ->
      Engine.spawn_at e arrival (fun () ->
          List.iteri
            (fun i d ->
              Engine.Proc.sleep d;
              note (Printf.sprintf "sleeper %d wake %d" k i))
            sleeps))
    sc.cs_sleepers;
  Engine.run e;
  (List.rev !log, Engine.now e)

let prop_cpu_matches_semaphore_oracle =
  QCheck.Test.make ~count:300
    ~name:"virtual-time cpu matches the semaphore oracle"
    (QCheck.make ~print:print_cpu_scenario gen_cpu_scenario)
    (fun sc ->
      let cpu = Cpu.create ~context_switch:sc.cs_switch () in
      let oracle = Semaphore_cpu.create ~context_switch:sc.cs_switch () in
      let log, clock = run_cpu_scenario sc ~charge:(Cpu.charge cpu) in
      let olog, oclock =
        run_cpu_scenario sc ~charge:(Semaphore_cpu.charge oracle)
      in
      (* Exact float equality throughout: same completion order, same
         completion times. *)
      log = olog && clock = oclock
      && Cpu.busy_time cpu = Semaphore_cpu.busy_time oracle
      && Cpu.switches cpu = Semaphore_cpu.switches oracle)

(* --------------------------- Kernel ------------------------------ *)

let test_kernel_memory_layout () =
  let _, kernel = mk () in
  let pm = Iosys.physmem (Kernel.sys kernel) in
  Alcotest.(check int) "capacity" (128 * 1024 * 1024)
    (Iolite_mem.Physmem.capacity pm);
  let kernel_wired = Iolite_mem.Physmem.used pm Iolite_mem.Physmem.Kernel in
  Alcotest.(check bool) "kernel overhead wired" true
    (kernel_wired >= 8 * 1024 * 1024);
  ignore (Kernel.add_file kernel ~name:"/f" ~size:1000);
  Alcotest.(check bool) "metadata wired" true
    (Iolite_mem.Physmem.used pm Iolite_mem.Physmem.Kernel > kernel_wired)

let test_process_memory_wired () =
  let _, kernel = mk () in
  let pm = Iosys.physmem (Kernel.sys kernel) in
  let before = Iolite_mem.Physmem.used pm Iolite_mem.Physmem.Process in
  let p = Process.make ~footprint:123_000 kernel ~name:"p" in
  Alcotest.(check int) "footprint wired" (before + 123_000)
    (Iolite_mem.Physmem.used pm Iolite_mem.Physmem.Process);
  Process.exit p;
  Alcotest.(check int) "released" before
    (Iolite_mem.Physmem.used pm Iolite_mem.Physmem.Process)

(* --------------------------- File I/O ----------------------------- *)

let test_iol_read_correct_and_zero_copy () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/data" ~size:20_000 in
  let s =
    in_proc kernel (fun proc ->
        let agg = Fileio.iol_read proc ~file ~off:500 ~len:1000 in
        let s = agg_str agg in
        Iobuf.Agg.free agg;
        s)
  in
  Alcotest.(check int) "length" 1000 (String.length s);
  Alcotest.(check bool) "contents" true
    (Iolite_fs.Filestore.check_string ~file ~off:500 s);
  Alcotest.(check int) "no copies on the IOL path" 0
    (Counter.get (Kernel.metrics kernel) "bytes.copied")

let test_iol_read_short_at_eof () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/data" ~size:100 in
  in_proc kernel (fun proc ->
      let agg = Fileio.iol_read proc ~file ~off:80 ~len:1000 in
      Alcotest.(check int) "short read" 20 (Iobuf.Agg.length agg);
      Iobuf.Agg.free agg;
      let empty = Fileio.iol_read proc ~file ~off:200 ~len:10 in
      Alcotest.(check int) "past eof" 0 (Iobuf.Agg.length empty);
      Iobuf.Agg.free empty)

let test_read_string_charges_copy () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/data" ~size:10_000 in
  in_proc kernel (fun proc ->
      let s = Fileio.read_string proc ~file ~off:0 ~len:10_000 in
      Alcotest.(check bool) "contents" true
        (Iolite_fs.Filestore.check_string ~file ~off:0 s));
  Alcotest.(check int) "posix read copies" 10_000
    (Counter.get (Kernel.metrics kernel) "bytes.copied")

let test_iol_write_snapshot_semantics () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/data" ~size:10_000 in
  in_proc kernel (fun proc ->
      let before = Fileio.iol_read proc ~file ~off:0 ~len:26 in
      let update =
        Iobuf.Agg.of_string (Process.pool proc)
          ~producer:(Process.domain proc) "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
      in
      Fileio.iol_write proc ~file ~off:0 update;
      (* The earlier read is an unchanged snapshot... *)
      Alcotest.(check bool) "snapshot intact" true
        (Iolite_fs.Filestore.check_string ~file ~off:0 (agg_str before));
      (* ...while new readers see the write. *)
      let after = Fileio.iol_read proc ~file ~off:0 ~len:26 in
      Alcotest.(check string) "new data visible" "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        (agg_str after);
      Iobuf.Agg.free before;
      Iobuf.Agg.free after)

let test_write_string_roundtrip () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/data" ~size:1000 in
  in_proc kernel (fun proc ->
      Fileio.write_string proc ~file ~off:100 "patched!";
      let s = Fileio.read_string proc ~file ~off:98 ~len:12 in
      Alcotest.(check string) "write visible with surroundings"
        (String.init 2 (fun i ->
             Iolite_fs.Filestore.content_byte ~file ~off:(98 + i))
        ^ "patched!"
        ^ String.init 2 (fun i ->
              Iolite_fs.Filestore.content_byte ~file ~off:(108 + i)))
        s)

let test_mmap_borrows_and_munmap () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/data" ~size:8192 in
  in_proc kernel (fun proc ->
      let m = Fileio.mmap proc ~file in
      Alcotest.(check int) "mapping length" 8192 (Fileio.mapping_len m);
      let s = agg_str (Fileio.mapping_agg m) in
      Alcotest.(check bool) "mapped contents" true
        (Iolite_fs.Filestore.check_string ~file ~off:0 s);
      Fileio.munmap proc m;
      Alcotest.(check bool) "unmapped view rejected" true
        (match Fileio.mapping_agg m with
        | _ -> false
        | exception Invalid_argument _ -> true))

let test_admission_limit () =
  let _, kernel = mk () in
  (* Budget ~ 110MB; admission limit ~ 14MB. A 20MB file must be served
     without entering the cache. *)
  let big = Kernel.add_file kernel ~name:"/big" ~size:(20 * 1024 * 1024) in
  let small = Kernel.add_file kernel ~name:"/small" ~size:4096 in
  in_proc kernel (fun proc ->
      let a = Fileio.iol_read proc ~file:big ~off:0 ~len:1000 in
      Iobuf.Agg.free a;
      let b = Fileio.iol_read proc ~file:small ~off:0 ~len:1000 in
      Iobuf.Agg.free b);
  let cache = Kernel.unified_cache kernel in
  Alcotest.(check int) "big file not cached" 0
    (Filecache.file_bytes cache ~file:big);
  Alcotest.(check int) "small file cached whole" 4096
    (Filecache.file_bytes cache ~file:small)

(* A file above the admission limit never enters the cache, so every
   IOL_read of it fetches privately; the kernel produces those buffers,
   and the reader must still be able to map what it was handed. *)
let test_uncached_read_is_readable () =
  let engine = Engine.create () in
  let kernel =
    Kernel.create
      ~config:{ (Kernel.default_config ()) with Kernel.mem_capacity = 32 * 1024 * 1024 }
      engine
  in
  let admission_limit =
    Iolite_mem.Physmem.io_budget (Iosys.physmem (Kernel.sys kernel)) / 8
  in
  let size = admission_limit + 100_000 in
  let file = Kernel.add_file kernel ~name:"/big" ~size in
  in_proc kernel (fun proc ->
      let a = Fileio.iol_read proc ~file ~off:70_000 ~len:5_000 in
      Iolite_core.Transfer.check_readable (Kernel.sys kernel) (Process.domain proc) a;
      Alcotest.(check bool) "contents" true
        (Iolite_fs.Filestore.check_string ~file ~off:70_000 (agg_str a));
      Iobuf.Agg.free a);
  Alcotest.(check int) "not cached" 0
    (Filecache.file_bytes (Kernel.unified_cache kernel) ~file);
  Alcotest.(check int) "private fetch counted" 1
    (Counter.get (Kernel.metrics kernel) "cache.refetch")

let test_stat_and_missing_file () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/data" ~size:777 in
  in_proc kernel (fun proc ->
      Alcotest.(check int) "stat size" 777 (Fileio.stat_size proc ~file);
      Alcotest.(check bool) "missing file raises" true
        (match Fileio.stat_size proc ~file:999 with
        | _ -> false
        | exception Fileio.No_such_file 999 -> true
        | exception _ -> false))

let test_disk_only_on_miss () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/data" ~size:50_000 in
  in_proc kernel (fun proc ->
      let a = Fileio.iol_read proc ~file ~off:0 ~len:50_000 in
      Iobuf.Agg.free a;
      let reads_after_first = Iolite_fs.Disk.reads (Kernel.disk kernel) in
      let b = Fileio.iol_read proc ~file ~off:0 ~len:50_000 in
      Iobuf.Agg.free b;
      Alcotest.(check int) "second read hits cache" reads_after_first
        (Iolite_fs.Disk.reads (Kernel.disk kernel));
      Alcotest.(check int) "one disk read total" 1 reads_after_first)

(* ------------------ Async pipeline: single-flight ----------------- *)

(* Sixteen readers share 48 files, a third under one 64 KB part and the
   rest over it, on a kernel whose cache is smaller than their total, so
   reads miss, coalesce and evict throughout. The first run stops at a
   deadline with disk reads in flight, whose contents the helper domain
   may already be generating; host-side fills run before the engine goes
   on. Every byte each reader gets must be its file's. *)
let test_disk_fills_end_to_end () =
  let config =
    { (Kernel.default_config ()) with Kernel.mem_capacity = 16 * 1024 * 1024 }
  in
  let kernel = Kernel.create ~config (Engine.create ()) in
  let files =
    Array.init 48 (fun i ->
        let size = if i mod 3 = 0 then 9_001 + (997 * i) else 150_001 + (4_099 * i) in
        (Kernel.add_file kernel ~name:(Printf.sprintf "/e%d" i) ~size, size))
  in
  let reads_each = 12 in
  let reads = ref 0 and bad = ref [] in
  for r = 0 to 15 do
    ignore
      (Process.spawn kernel ~name:(Printf.sprintf "r%d" r) (fun proc ->
           for k = 0 to reads_each - 1 do
             let file, size = files.(((r * 7) + (k * 5)) mod Array.length files) in
             let off, len =
               if k mod 2 = 0 then (0, size) else ((size / 3) lor 1, size / 2)
             in
             let s = agg_str_free (Fileio.iol_read proc ~file ~off ~len) in
             incr reads;
             if String.length s <> len || not (Iolite_fs.Filestore.check_string ~file ~off s)
             then bad := Printf.sprintf "file %d [%d,+%d)" file off len :: !bad
           done))
  done;
  let engine = Kernel.engine kernel in
  Engine.run ~until:0.05 engine;
  Alcotest.(check bool) "stopped mid-run" true (!reads > 0 && !reads < 16 * reads_each);
  Alcotest.(check bool) "disk reads in flight" true
    (Iolite_fs.Disk.queue_depth (Kernel.disk kernel) > 0);
  for i = 0 to 9 do
    let len = 100_000 + i in
    let dst = Bytes.create len in
    Iolite_fs.Filestore.blit_content ~file:(500 + i) ~off:i dst ~dst_off:0 ~len;
    if not (Iolite_fs.Filestore.check_string ~file:(500 + i) ~off:i (Bytes.to_string dst))
    then bad := Printf.sprintf "host fill %d" i :: !bad
  done;
  Engine.run engine;
  Alcotest.(check int) "every read completed" (16 * reads_each) !reads;
  Alcotest.(check (list string)) "every byte matches its file" [] !bad;
  Alcotest.(check bool) "the cache evicted" true
    (Counter.get (Kernel.metrics kernel) "cache.eviction" > 0);
  Alcotest.(check bool) "readers coalesced" true
    (Counter.get (Kernel.metrics kernel) "cache.fill_coalesced" > 0)

let test_single_flight_coalesces () =
  let _, kernel = mk () in
  let file = Kernel.add_file kernel ~name:"/data" ~size:8_000 in
  let done_ = ref 0 in
  for i = 1 to 5 do
    ignore
      (Process.spawn kernel
         ~name:(Printf.sprintf "r%d" i)
         (fun proc ->
           let a = Fileio.iol_read proc ~file ~off:0 ~len:8_000 in
           Alcotest.(check int) "full read" 8_000 (Iobuf.Agg.length a);
           Iobuf.Agg.free a;
           incr done_))
  done;
  Engine.run (Kernel.engine kernel);
  Alcotest.(check int) "all readers finished" 5 !done_;
  Alcotest.(check int) "one disk read for five concurrent misses" 1
    (Iolite_fs.Disk.reads (Kernel.disk kernel));
  Alcotest.(check int) "four followers coalesced" 4
    (Counter.get (Kernel.metrics kernel) "cache.fill_coalesced")

(* Invariant: no matter how reader arrivals interleave with the fill,
   each distinct (small) file is read from disk exactly once — arrivals
   during the fill coalesce onto it, arrivals after it hit the cache. *)
let test_single_flight_qcheck =
  let gen =
    QCheck.Gen.(list_size (int_range 1 12) (pair (int_range 0 2) (int_range 0 5)))
  in
  QCheck.Test.make ~count:30
    ~name:"single-flight: one disk read per distinct file"
    (QCheck.make gen)
    (fun readers ->
      let _, kernel = mk () in
      let files =
        Array.init 3 (fun i ->
            Kernel.add_file kernel
              ~name:(Printf.sprintf "/f%d" i)
              ~size:(4_000 * (i + 1)))
      in
      List.iteri
        (fun i (fi, delay) ->
          ignore
            (Process.spawn kernel
               ~name:(Printf.sprintf "r%d" i)
               (fun proc ->
                 if delay > 0 then
                   Engine.Proc.sleep (float_of_int delay *. 0.001);
                 let a =
                   Fileio.iol_read proc ~file:files.(fi) ~off:0 ~len:100
                 in
                 Iobuf.Agg.free a)))
        readers;
      Engine.run (Kernel.engine kernel);
      let distinct = List.sort_uniq compare (List.map fst readers) in
      Iolite_fs.Disk.reads (Kernel.disk kernel) = List.length distinct)

(* --------------------- Async pipeline: readahead ------------------- *)

let extent = Iolite_core.Iobuf.Pool.max_alloc

let test_readahead_window_grow_reset () =
  let _, kernel = mk () in
  let size = 16 * extent in
  let file = Kernel.add_file kernel ~name:"/big" ~size in
  in_proc kernel (fun proc ->
      let read off =
        let a = Fileio.iol_read proc ~file ~off ~len:extent in
        Iobuf.Agg.free a
      in
      read 0;
      let st = Kernel.ra_state kernel ~file in
      Alcotest.(check int) "doubles on first sequential read" 2
        st.Kernel.ra_window;
      read extent;
      Alcotest.(check int) "doubles again" 4 st.Kernel.ra_window;
      read (2 * extent);
      Alcotest.(check int) "caps at 8 extents" 8 st.Kernel.ra_window;
      read (3 * extent);
      Alcotest.(check int) "stays capped" 8 st.Kernel.ra_window;
      read (10 * extent);
      Alcotest.(check int) "seek resets to 1" 1 st.Kernel.ra_window);
  Alcotest.(check bool) "readahead issued" true
    (Counter.get (Kernel.metrics kernel) "cache.readahead_issued" > 0)

let test_readahead_hits_counted () =
  let _, kernel = mk () in
  let size = 8 * extent in
  let file = Kernel.add_file kernel ~name:"/big" ~size in
  in_proc kernel (fun proc ->
      let off = ref 0 in
      while !off < size do
        let a = Fileio.iol_read proc ~file ~off:!off ~len:extent in
        off := !off + Iobuf.Agg.length a;
        Iobuf.Agg.free a
      done);
  Alcotest.(check bool) "prefetched extents were hit" true
    (Counter.get (Kernel.metrics kernel) "cache.readahead_hit" > 0);
  (* Per-extent requests: exactly one disk read per extent — the scan
     never re-reads an extent the prefetcher already fetched. *)
  Alcotest.(check int) "one disk read per extent" 8
    (Iolite_fs.Disk.reads (Kernel.disk kernel))

(* ------------- Async pipeline: trace-level overlap ----------------- *)

(* Extract (cat, name, ts, dur) from the "X" (complete-span) events of a
   Chrome trace-event JSON dump. *)
let complete_events json =
  let has seg sub =
    let n = String.length sub and m = String.length seg in
    let rec go i = i + n <= m && (String.sub seg i n = sub || go (i + 1)) in
    go 0
  in
  let str_field seg key =
    let k = Printf.sprintf "\"%s\":\"" key in
    let kl = String.length k in
    let rec find i =
      if i + kl > String.length seg then None
      else if String.sub seg i kl = k then
        let j = String.index_from seg (i + kl) '"' in
        Some (String.sub seg (i + kl) (j - (i + kl)))
      else find (i + 1)
    in
    find 0
  in
  let float_field seg key =
    let k = Printf.sprintf "\"%s\":" key in
    let kl = String.length k in
    let rec find i =
      if i + kl > String.length seg then None
      else if String.sub seg i kl = k then begin
        let j = ref (i + kl) in
        let buf = Buffer.create 8 in
        while
          !j < String.length seg
          &&
          match seg.[!j] with
          | '0' .. '9' | '.' | '-' | '+' | 'e' -> true
          | _ -> false
        do
          Buffer.add_char buf seg.[!j];
          incr j
        done;
        float_of_string_opt (Buffer.contents buf)
      end
      else find (i + 1)
    in
    find 0
  in
  String.split_on_char '{' json
  |> List.filter_map (fun seg ->
         if not (has seg "\"ph\":\"X\"") then None
         else
           match
             ( str_field seg "cat",
               str_field seg "name",
               float_field seg "ts",
               float_field seg "dur" )
           with
           | Some c, Some n, Some ts, Some dur -> Some (c, n, ts, dur)
           | _ -> None)

let test_trace_disk_span_overlaps_cpu () =
  let _, kernel = mk () in
  Kernel.enable_tracing kernel;
  let file = Kernel.add_file kernel ~name:"/data" ~size:40_000 in
  ignore
    (Process.spawn kernel ~name:"reader" (fun proc ->
         let a = Fileio.iol_read proc ~file ~off:0 ~len:40_000 in
         Iobuf.Agg.free a));
  Engine.spawn ~name:"cruncher" (Kernel.engine kernel) (fun () ->
      Iolite_obs.Trace.span (Kernel.trace kernel) ~cat:"os" ~name:"compute"
        (fun () -> Cpu.charge (Kernel.cpu kernel) ~owner:999 0.05));
  Engine.run (Kernel.engine kernel);
  let evs =
    complete_events (Iolite_obs.Trace.to_json (Kernel.trace kernel))
  in
  let disk = List.filter (fun (c, _, _, _) -> c = "disk") evs in
  let compute = List.filter (fun (_, n, _, _) -> n = "compute") evs in
  Alcotest.(check bool) "disk span traced" true (disk <> []);
  Alcotest.(check bool) "compute span traced" true (compute <> []);
  (* The queued disk services the reader's fill while the cruncher's
     CPU burst is in progress: the spans overlap. *)
  let overlaps =
    List.exists
      (fun (_, _, ts, dur) ->
        List.exists
          (fun (_, _, ts', dur') -> ts < ts' +. dur' && ts' < ts +. dur)
          compute)
      disk
  in
  Alcotest.(check bool) "disk span overlaps concurrent CPU span" true overlaps

(* --------------------------- Sockets ------------------------------ *)

let sock_roundtrip ~zero_copy ~rtt =
  let _, kernel = mk () in
  let listener = Sock.listen ~reserve_tss:(not zero_copy) kernel ~port:80 in
  let got = ref "" in
  let server_saw = ref "" in
  ignore
    (Process.spawn kernel ~name:"server" (fun proc ->
         let conn = Sock.accept proc listener in
         let rec loop () =
           match Sock.recv proc conn ~zero_copy with
           | None -> ()
           | Some req ->
             server_saw := req;
             let resp =
               Iobuf.Agg.of_string (Process.pool proc)
                 ~producer:(Process.domain proc)
                 (String.make 5000 'R')
             in
             Sock.send proc conn ~zero_copy resp;
             loop ()
         in
         loop ()));
  Engine.spawn (Kernel.engine kernel) (fun () ->
      let conn = Sock.connect ~rtt kernel listener in
      let n = Sock.request conn "GET /x" in
      got := string_of_int n;
      Sock.close conn);
  Engine.run (Kernel.engine kernel);
  (kernel, !server_saw, !got)

let test_sock_roundtrip_zero_copy () =
  let _, saw, got = sock_roundtrip ~zero_copy:true ~rtt:0.0 in
  Alcotest.(check string) "request delivered" "GET /x" saw;
  Alcotest.(check string) "response size" "5000" got

let test_sock_roundtrip_copying () =
  let kernel, saw, got = sock_roundtrip ~zero_copy:false ~rtt:0.0 in
  Alcotest.(check string) "request delivered" "GET /x" saw;
  Alcotest.(check string) "response size" "5000" got;
  Alcotest.(check bool) "send copied payload" true
    (Counter.get (Kernel.metrics kernel) "bytes.copied" >= 5000)

let test_sock_zero_copy_no_payload_copies () =
  let kernel, _, _ = sock_roundtrip ~zero_copy:true ~rtt:0.0 in
  Alcotest.(check int) "no copies" 0
    (Counter.get (Kernel.metrics kernel) "bytes.copied")

let test_sock_rtt_delays_response () =
  let t0 =
    let _, kernel = mk () in
    ignore kernel;
    0.0
  in
  ignore t0;
  let run rtt =
    let _, kernel = mk () in
    let listener = Sock.listen kernel ~port:80 in
    ignore
      (Process.spawn kernel ~name:"server" (fun proc ->
           let conn = Sock.accept proc listener in
           match Sock.recv proc conn ~zero_copy:true with
           | Some _ ->
             Sock.send proc conn ~zero_copy:true
               (Iobuf.Agg.of_string (Process.pool proc)
                  ~producer:(Process.domain proc) "ok")
           | None -> ()));
    let finished = ref 0.0 in
    Engine.spawn (Kernel.engine kernel) (fun () ->
        let conn = Sock.connect ~rtt kernel listener in
        ignore (Sock.request conn "r");
        finished := Engine.Proc.now ());
    Engine.run (Kernel.engine kernel);
    !finished
  in
  let lan = run 0.0 and wan = run 0.1 in
  Alcotest.(check bool) "wan slower" true (wan > lan +. 0.2);
  (* Handshake 1.5 RTT + request 0.5 RTT + drain >= 1 RTT. *)
  Alcotest.(check bool) "delay about 3 rtt" true (wan -. lan < 0.45)

let test_sock_tss_reservation_lifecycle () =
  let _, kernel = mk () in
  let pm = Iosys.physmem (Kernel.sys kernel) in
  let listener = Sock.listen ~reserve_tss:true kernel ~port:80 in
  let wired_during = ref 0 in
  ignore
    (Process.spawn kernel ~name:"server" (fun proc ->
         let conn = Sock.accept proc listener in
         wired_during := Iolite_mem.Physmem.used pm Iolite_mem.Physmem.Net_wired;
         let rec drain () =
           match Sock.recv proc conn ~zero_copy:false with
           | Some _ -> drain ()
           | None -> ()
         in
         drain ()));
  Engine.spawn (Kernel.engine kernel) (fun () ->
      let conn = Sock.connect kernel listener in
      Sock.close conn);
  Engine.run (Kernel.engine kernel);
  Alcotest.(check int) "tss wired while open" 65536 !wired_during;
  Alcotest.(check int) "released at teardown" 0
    (Iolite_mem.Physmem.used pm Iolite_mem.Physmem.Net_wired)

let test_sock_persistent_multiple_requests () =
  let _, kernel = mk () in
  let listener = Sock.listen kernel ~port:80 in
  let served = ref 0 in
  ignore
    (Process.spawn kernel ~name:"server" (fun proc ->
         let conn = Sock.accept proc listener in
         let rec loop () =
           match Sock.recv proc conn ~zero_copy:true with
           | None -> ()
           | Some _ ->
             incr served;
             Sock.send proc conn ~zero_copy:true
               (Iobuf.Agg.of_string (Process.pool proc)
                  ~producer:(Process.domain proc) "resp");
             loop ()
         in
         loop ()));
  Engine.spawn (Kernel.engine kernel) (fun () ->
      let conn = Sock.connect kernel listener in
      for _ = 1 to 10 do
        ignore (Sock.request conn "again")
      done;
      Sock.close conn);
  Engine.run (Kernel.engine kernel);
  Alcotest.(check int) "all served on one connection" 10 !served

let test_sock_idle_timeout_expires () =
  let _, kernel = mk () in
  let listener = Sock.listen ~idle_timeout:5.0 kernel ~port:80 in
  let server_saw_close = ref false in
  ignore
    (Process.spawn kernel ~name:"server" (fun proc ->
         let conn = Sock.accept proc listener in
         (* The client never writes: recv must return None when the idle
            timer reaps the connection, exactly like a client close. *)
         match Sock.recv proc conn ~zero_copy:true with
         | None -> server_saw_close := true
         | Some _ -> ()));
  let registered = ref (-1) in
  Engine.spawn (Kernel.engine kernel) (fun () ->
      let conn = Sock.connect kernel listener in
      ignore conn;
      Engine.Proc.sleep 0.1;
      registered := Sock.live_conns listener);
  Engine.run (Kernel.engine kernel);
  Alcotest.(check int) "conn live while open" 1 !registered;
  Alcotest.(check bool) "server unblocked by idle reaper" true
    !server_saw_close;
  Alcotest.(check int) "idle close counted" 1
    (Counter.get (Kernel.metrics kernel) "sock.idle_closed");
  Alcotest.(check int) "no live conns after teardown" 0
    (Sock.live_conns listener);
  Alcotest.(check bool) "reaped at the timeout, not before" true
    (Engine.now (Kernel.engine kernel) >= 5.0)

let test_sock_idle_timer_rearms_on_requests () =
  let _, kernel = mk () in
  let listener = Sock.listen ~idle_timeout:1.0 kernel ~port:80 in
  let served = ref 0 in
  ignore
    (Process.spawn kernel ~name:"server" (fun proc ->
         let conn = Sock.accept proc listener in
         let rec loop () =
           match Sock.recv proc conn ~zero_copy:true with
           | None -> ()
           | Some _ ->
             incr served;
             Sock.send proc conn ~zero_copy:true
               (Iobuf.Agg.of_string (Process.pool proc)
                  ~producer:(Process.domain proc) "resp");
             loop ()
         in
         loop ()));
  Engine.spawn (Kernel.engine kernel) (fun () ->
      let conn = Sock.connect kernel listener in
      (* Each gap is under the 1 s timeout, but the total span is well
         past it: every request must push the deadline out. *)
      for _ = 1 to 5 do
        Engine.Proc.sleep 0.8;
        ignore (Sock.request conn "ping")
      done;
      Sock.close conn);
  Engine.run (Kernel.engine kernel);
  Alcotest.(check int) "all requests served" 5 !served;
  Alcotest.(check int) "no idle close" 0
    (Counter.get (Kernel.metrics kernel) "sock.idle_closed");
  Alcotest.(check bool) "timer re-armed per request" true
    (Counter.get (Kernel.metrics kernel) "sock.idle_rearm" >= 5)

let suites =
  [
    ( "os.cpu",
      [
        Alcotest.test_case "serializes + switches" `Quick test_cpu_serializes_and_switches;
        Alcotest.test_case "same owner free" `Quick test_cpu_same_owner_no_switch;
        QCheck_alcotest.to_alcotest prop_cpu_matches_semaphore_oracle;
      ] );
    ( "os.kernel",
      [
        Alcotest.test_case "memory layout" `Quick test_kernel_memory_layout;
        Alcotest.test_case "process memory" `Quick test_process_memory_wired;
      ] );
    ( "os.fileio",
      [
        Alcotest.test_case "iol_read zero copy" `Quick test_iol_read_correct_and_zero_copy;
        Alcotest.test_case "short read at eof" `Quick test_iol_read_short_at_eof;
        Alcotest.test_case "posix read copies" `Quick test_read_string_charges_copy;
        Alcotest.test_case "snapshot semantics" `Quick test_iol_write_snapshot_semantics;
        Alcotest.test_case "write_string roundtrip" `Quick test_write_string_roundtrip;
        Alcotest.test_case "mmap/munmap" `Quick test_mmap_borrows_and_munmap;
        Alcotest.test_case "admission limit" `Quick test_admission_limit;
        Alcotest.test_case "uncached read is readable" `Quick
          test_uncached_read_is_readable;
        Alcotest.test_case "stat + missing" `Quick test_stat_and_missing_file;
        Alcotest.test_case "disk only on miss" `Quick test_disk_only_on_miss;
      ] );
    ( "os.async",
      [
        Alcotest.test_case "single-flight coalesces" `Quick
          test_single_flight_coalesces;
        Alcotest.test_case "disk fills end to end" `Quick
          test_disk_fills_end_to_end;
        QCheck_alcotest.to_alcotest test_single_flight_qcheck;
        Alcotest.test_case "readahead window grow/reset" `Quick
          test_readahead_window_grow_reset;
        Alcotest.test_case "readahead hits counted" `Quick
          test_readahead_hits_counted;
        Alcotest.test_case "disk span overlaps cpu span" `Quick
          test_trace_disk_span_overlaps_cpu;
      ] );
    ( "os.sock",
      [
        Alcotest.test_case "roundtrip zero copy" `Quick test_sock_roundtrip_zero_copy;
        Alcotest.test_case "roundtrip copying" `Quick test_sock_roundtrip_copying;
        Alcotest.test_case "zero copy no copies" `Quick test_sock_zero_copy_no_payload_copies;
        Alcotest.test_case "rtt delays" `Quick test_sock_rtt_delays_response;
        Alcotest.test_case "tss reservation" `Quick test_sock_tss_reservation_lifecycle;
        Alcotest.test_case "persistent requests" `Quick test_sock_persistent_multiple_requests;
        Alcotest.test_case "idle timeout expires" `Quick
          test_sock_idle_timeout_expires;
        Alcotest.test_case "idle timer re-arms" `Quick
          test_sock_idle_timer_rearms_on_requests;
      ] );
  ]
