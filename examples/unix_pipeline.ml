(* Converted Unix utilities (Section 5.8): run `wc FILE` and
   `cat FILE | grep PATTERN` on the simulated OS, in their unmodified
   (POSIX) and IO-Lite forms, and compare runtimes. The programs do the
   real work on real bytes — both variants must produce identical
   answers; only the I/O structure differs.

   Run with: dune exec examples/unix_pipeline.exe *)

module Engine = Iolite_sim.Engine
module Kernel = Iolite_os.Kernel
module Process = Iolite_os.Process
module Fileio = Iolite_os.Fileio
module Pipe = Iolite_ipc.Pipe
module Wc = Iolite_apps.Wc
module Cat = Iolite_apps.Cat
module Grep = Iolite_apps.Grep
module Table = Iolite_util.Table
module Counter = Iolite_obs.Metrics

let file_size = 1_792 * 1024 (* the paper's 1.75MB test file *)

let fresh_kernel () =
  let kernel = Kernel.create (Engine.create ()) in
  let file = Kernel.add_file kernel ~name:"/bigfile.txt" ~size:file_size in
  (* Warm the file cache, as in the paper's runs. *)
  ignore
    (Process.spawn kernel ~name:"warm" (fun proc ->
         Fileio.fetch_unified proc ~file));
  Engine.run (Kernel.engine kernel);
  (kernel, file)

let timed kernel f =
  let t0 = Engine.now (Kernel.engine kernel) in
  f ();
  Engine.run (Kernel.engine kernel);
  Engine.now (Kernel.engine kernel) -. t0

let run_wc ~iolite =
  let kernel, file = fresh_kernel () in
  let out = ref None in
  let t =
    timed kernel (fun () ->
        ignore
          (Process.spawn kernel ~name:"wc" (fun proc ->
               out :=
                 Some
                   (if iolite then Wc.run_iolite proc ~file
                    else Wc.run_posix proc ~file))))
  in
  (t, Option.get !out)

let run_cat_grep ~iolite =
  let kernel, file = fresh_kernel () in
  let out = ref None in
  let t =
    timed kernel (fun () ->
        let grep_proc = Process.make kernel ~name:"grep" in
        let cat_proc = Process.make kernel ~name:"cat" in
        let pipe =
          Pipe.create (Kernel.sys kernel)
            ~mode:(if iolite then Pipe.Zero_copy else Pipe.Copying)
            ~writer:(Process.domain cat_proc)
            ~reader:(Process.domain grep_proc)
            ~reader_pool:(Process.pool grep_proc) ()
        in
        Engine.spawn (Kernel.engine kernel) (fun () ->
            Cat.run cat_proc ~file ~out:pipe ~iolite;
            Process.exit cat_proc);
        Engine.spawn (Kernel.engine kernel) (fun () ->
            out := Some (Grep.run_pipe grep_proc pipe ~pattern:"q#" ~iolite);
            Process.exit grep_proc))
  in
  (t, Option.get !out)

(* Cold run: no warm phase, so `wc` reads the file off the disk;
   readahead keeps the disk busy ahead of the consumer. *)
let run_wc_cold () =
  let kernel = Kernel.create (Engine.create ()) in
  let file = Kernel.add_file kernel ~name:"/bigfile.txt" ~size:file_size in
  let t =
    timed kernel (fun () ->
        ignore
          (Process.spawn kernel ~name:"wc" (fun proc ->
               ignore (Wc.run_iolite proc ~file))))
  in
  (kernel, t)

let () =
  Printf.printf "Running converted utilities on a cached 1.75MB file...\n\n";
  let t_wc_posix, wc_posix = run_wc ~iolite:false in
  let t_wc_iolite, wc_iolite = run_wc ~iolite:true in
  assert (wc_posix = wc_iolite);
  let t_grep_posix, grep_posix = run_cat_grep ~iolite:false in
  let t_grep_iolite, grep_iolite = run_cat_grep ~iolite:true in
  assert (grep_posix = grep_iolite);
  Table.print
    ~header:[ "pipeline"; "unmodified"; "IO-Lite"; "reduction"; "output" ]
    ~rows:
      [
        [
          "wc bigfile.txt";
          Table.fmt_time_s t_wc_posix;
          Table.fmt_time_s t_wc_iolite;
          Printf.sprintf "%.0f%%" (100. *. (1. -. (t_wc_iolite /. t_wc_posix)));
          Printf.sprintf "%d lines, %d words, %d chars" wc_posix.Wc.lines
            wc_posix.Wc.words wc_posix.Wc.chars;
        ];
        [
          "cat bigfile.txt | grep 'q#'";
          Table.fmt_time_s t_grep_posix;
          Table.fmt_time_s t_grep_iolite;
          Printf.sprintf "%.0f%%" (100. *. (1. -. (t_grep_iolite /. t_grep_posix)));
          Printf.sprintf "%d matching lines" grep_posix;
        ];
      ];
  Printf.printf
    "\nwc saves the read() copy (it iterates cache buffers in place; the \
     residual\ncost is mapping pages). The pipeline saves three copies: \
     cat's read, the\npipe transfer, and grep's read — the biggest win, \
     just as in the paper.\n";
  let kernel, t_cold = run_wc_cold () in
  let m = Kernel.metrics kernel in
  Printf.printf
    "\nCold run (file read off the disk): wc took %s —\n%d disk reads, \
     %d readahead prefetches issued, %d prefetched extents hit.\n"
    (Table.fmt_time_s t_cold)
    (Iolite_fs.Disk.reads (Kernel.disk kernel))
    (Counter.get m "cache.readahead_issued")
    (Counter.get m "cache.readahead_hit")
