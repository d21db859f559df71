module Engine = Iolite_sim.Engine
module Kernel = Iolite_os.Kernel
module Process = Iolite_os.Process
module Fileio = Iolite_os.Fileio
module Disk = Iolite_fs.Disk
module Filestore = Iolite_fs.Filestore
module Rng = Iolite_util.Rng

(* Deterministic payload byte for write [k] at absolute offset [off]:
   distinct writes to one offset (almost) always differ, so the
   recovered image identifies which write's bytes survived. Collisions
   can only mask a failure (the oracle accepts any valid writer), never
   fabricate one. *)
let byte_for k off = Char.chr (((k * 131) + (off * 7) + 13) land 255)

type wl_config = {
  nfiles : int;
  file_size : int;
  nwrites : int;
  align : int;
  max_sectors : int;  (* write length: align * [1, max_sectors] *)
  fsync_pct : int;  (* chance (percent) of fsync after a write *)
  flush_interval : float;
}

let default_workload =
  {
    nfiles = 2;
    file_size = 256 * 1024;
    nwrites = 40;
    align = 512;
    max_sectors = 32;
    fsync_pct = 20;
    flush_interval = 0.3;
  }

type issue = {
  is_k : int;  (* 1-based write index *)
  is_file : int;
  is_off : int;
  is_len : int;
  is_t : float;  (* virtual issue time *)
}

type acked_sync = {
  fs_file : int;
  fs_t : float;  (* virtual time fsync returned *)
  fs_floor : int;  (* highest write index to the file issued before *)
}

type history = {
  h_end : float;  (* virtual time the full run went quiescent *)
  h_issues : issue list;  (* issue order *)
  h_syncs : acked_sync list;
}

(* One run of the randomized write workload against a fresh kernel.
   Everything is seeded, so two runs with equal [seed] are identical
   event-for-event — the crash run at [?until] therefore executes a
   strict prefix of the recording run. *)
let run_workload ?until ~seed cfg =
  let engine = Engine.create () in
  let config =
    {
      (Kernel.default_config ()) with
      Kernel.flush_interval = cfg.flush_interval;
      log_durable_writes = true;
    }
  in
  let kernel = Kernel.create ~config engine in
  let files =
    Array.init cfg.nfiles (fun i ->
        Kernel.add_file kernel
          ~name:(Printf.sprintf "/crash%d.dat" i)
          ~size:cfg.file_size)
  in
  let rng = Rng.create seed in
  let issues = ref [] in
  let syncs = ref [] in
  let issued_per_file = Hashtbl.create 8 in
  ignore
    (Process.spawn kernel ~name:"crash-writer" (fun proc ->
         for k = 1 to cfg.nwrites do
           let file = files.(Rng.int rng cfg.nfiles) in
           let len = cfg.align * (1 + Rng.int rng cfg.max_sectors) in
           let off =
             Rng.int rng ((cfg.file_size - len) / cfg.align) * cfg.align
           in
           let data = String.init len (fun i -> byte_for k (off + i)) in
           issues :=
             { is_k = k; is_file = file; is_off = off; is_len = len;
               is_t = Engine.now engine }
             :: !issues;
           Hashtbl.replace issued_per_file file k;
           Fileio.write_string proc ~file ~off data;
           if Rng.int rng 100 < cfg.fsync_pct then begin
             Fileio.fsync proc ~file;
             syncs :=
               {
                 fs_file = file;
                 fs_t = Engine.now engine;
                 fs_floor =
                   (match Hashtbl.find_opt issued_per_file file with
                   | Some k -> k
                   | None -> 0);
               }
               :: !syncs
           end;
           Iolite_sim.Engine.Proc.sleep (Rng.float rng 0.15)
         done));
  (match until with
  | Some u -> Engine.run ~until:u engine
  | None -> Engine.run engine);
  let history =
    {
      h_end = Engine.now engine;
      h_issues = List.rev !issues;
      h_syncs = List.rev !syncs;
    }
  in
  (kernel, history)

(* Per-offset oracle. For each byte some pre-crash write covered:
   - the recovered byte must come from {e some} write to that offset
     issued before the crash, or — absent an fsync floor — the initial
     contents (write-order consistency: the log replays in completion
     order, and the write-back layer's range reservations make
     completion order match issue order per byte);
   - if an acknowledged fsync covers the offset, the initial byte and
     writes older than the fsync floor are no longer acceptable:
     fsync'd data always survives. *)
let check ~history ~crash_t ~log cfg =
  (* The recovered disk image: initial synthetic contents with the
     durable-write log replayed over it, oldest completion first. *)
  let images = Hashtbl.create 4 in
  let image file =
    match Hashtbl.find_opt images file with
    | Some b -> b
    | None ->
      let b = Bytes.create cfg.file_size in
      Filestore.blit_content ~file ~off:0 b ~dst_off:0 ~len:cfg.file_size;
      Hashtbl.replace images file b;
      b
  in
  List.iter
    (fun r ->
      match r.Disk.wl_data with
      | Some data when r.Disk.wl_file >= 0 ->
        Bytes.blit_string data 0 (image r.Disk.wl_file) r.Disk.wl_off
          r.Disk.wl_len
      | _ -> ())
    log;
  let pre_crash =
    List.filter (fun i -> i.is_t <= crash_t) history.h_issues
  in
  (* Strictly-before: an fsync returning exactly at the crash instant
     may not have executed in the crash run. *)
  let acked = List.filter (fun s -> s.fs_t < crash_t) history.h_syncs in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let module IS = Set.Make (Int) in
  let offsets = Hashtbl.create 1024 in
  List.iter
    (fun i ->
      for o = i.is_off to i.is_off + i.is_len - 1 do
        let key = (i.is_file, o) in
        let ks =
          match Hashtbl.find_opt offsets key with
          | Some ks -> ks
          | None -> IS.empty
        in
        Hashtbl.replace offsets key (IS.add i.is_k ks)
      done)
    pre_crash;
  Hashtbl.iter
    (fun (file, off) writers ->
      (* fsync floor: the newest write to this offset at or below any
         acknowledged fsync floor of this file must survive — or be
         overwritten by a newer write, never an older one or the
         initial contents. *)
      let floor_k =
        List.fold_left
          (fun acc s ->
            if s.fs_file = file then
              match
                IS.max_elt_opt (IS.filter (fun k -> k <= s.fs_floor) writers)
              with
              | Some k -> max acc k
              | None -> acc
            else acc)
          0 acked
      in
      let got = Bytes.get (image file) off in
      let acceptable =
        IS.exists (fun k -> k >= floor_k && byte_for k off = got) writers
        || (floor_k = 0 && got = Filestore.content_byte ~file ~off)
      in
      if not acceptable then
        fail
          "file %d off %d: recovered %C not from any acceptable writer (floor %d, writers %s)"
          file off got floor_k
          (String.concat "," (List.map string_of_int (IS.elements writers))))
    offsets;
  !failures

type result = {
  r_points : int;
  r_failures : string list;
  r_durable_min : int;
  r_durable_max : int;
  r_durable_total : int;
}

(* One crash experiment: record a full run, then re-run the identical
   workload and stop the virtual kernel at [frac] of the recorded
   duration; the disk's durable-write log at that instant is exactly
   what a crash would leave, and the oracle judges the recovered
   image. *)
let run_one ~seed ~frac =
  let cfg = default_workload in
  let _k, history = run_workload ~seed cfg in
  let crash_t = frac *. history.h_end in
  let kernel, _ = run_workload ~until:crash_t ~seed cfg in
  let log = Disk.write_log (Kernel.disk kernel) in
  let failures = check ~history ~crash_t ~log cfg in
  (List.length log, failures)

(* [runs] randomized crash points: seeds vary the workload, the crash
   fraction sweeps (0, 1] — early crashes land mid-first-flush, late
   ones mid-final-fsync. The recording pass is shared per seed. The
   first [runs mod seeds] seeds take one extra point, so exactly [runs]
   points run. *)
let run_many ?(seeds = 25) ?(runs = 1000) () =
  let cfg = default_workload in
  let per_seed = runs / max 1 seeds and extra = runs mod max 1 seeds in
  let durable_min = ref max_int in
  let durable_max = ref 0 in
  let points = ref 0 in
  let durable_total = ref 0 in
  let failures = ref [] in
  (* With fewer runs than seeds, only the first [runs] seeds get a
     point; the rest are not recorded at all. *)
  for s = 0 to min seeds runs - 1 do
    let seed_points = per_seed + if s < extra then 1 else 0 in
    let seed = Int64.of_int (0x5EED + (s * 7919)) in
    let _k, history = run_workload ~seed cfg in
    let prng = Rng.create (Int64.add seed 1L) in
    for _ = 1 to seed_points do
      let frac = 0.02 +. Rng.float prng 0.98 in
      let crash_t = frac *. history.h_end in
      let kernel, _ = run_workload ~until:crash_t ~seed cfg in
      let log = Disk.write_log (Kernel.disk kernel) in
      let fs = check ~history ~crash_t ~log cfg in
      incr points;
      durable_total := !durable_total + List.length log;
      durable_min := min !durable_min (List.length log);
      durable_max := max !durable_max (List.length log);
      failures := fs @ !failures
    done
  done;
  {
    r_points = !points;
    r_failures = !failures;
    r_durable_min = (if !durable_min = max_int then 0 else !durable_min);
    r_durable_max = !durable_max;
    r_durable_total = !durable_total;
  }

let print r =
  Printf.printf
    "crash harness: %d crash points, %d failures (durable writes per point: %d..%d)\n"
    r.r_points
    (List.length r.r_failures)
    r.r_durable_min r.r_durable_max;
  List.iteri
    (fun i f -> if i < 10 then Printf.printf "  FAIL: %s\n" f)
    r.r_failures
