type inode = { iname : string; isize : int }

type t = {
  metadata_bytes_per_file : int;
  mutable inodes : inode array;
  mutable count : int;
  by_name : (string, int) Hashtbl.t;
  mutable total : int;
}

let create ?(metadata_bytes_per_file = 256) () =
  {
    metadata_bytes_per_file;
    inodes = Array.make 64 { iname = ""; isize = 0 };
    count = 0;
    by_name = Hashtbl.create 256;
    total = 0;
  }

let add t ~name ~size =
  if size < 0 then invalid_arg "Filestore.add: negative size";
  if Hashtbl.mem t.by_name name then
    invalid_arg ("Filestore.add: duplicate file " ^ name);
  if t.count = Array.length t.inodes then begin
    let bigger = Array.make (2 * t.count) { iname = ""; isize = 0 } in
    Array.blit t.inodes 0 bigger 0 t.count;
    t.inodes <- bigger
  end;
  let id = t.count in
  t.inodes.(id) <- { iname = name; isize = size };
  t.count <- t.count + 1;
  Hashtbl.replace t.by_name name id;
  t.total <- t.total + size;
  id

let check_id t id =
  if id < 0 || id >= t.count then raise Not_found

let lookup t name = Hashtbl.find_opt t.by_name name

let name t id =
  check_id t id;
  t.inodes.(id).iname

let size t id =
  check_id t id;
  t.inodes.(id).isize

let file_count t = t.count
let total_bytes t = t.total
let metadata_bytes t = t.count * t.metadata_bytes_per_file

(* Mostly printable text with newlines roughly every 64 bytes, so the
   line-oriented utilities (wc, grep) see realistic input. *)
let alphabet = String.init 96 (fun v -> if v = 95 then '\n' else Char.chr (32 + v))

let file_mul = 0x9E3779B9
let off_mul = 0x85EBCA6B

(* SplitMix-style avalanche of (file, off): cheap, deterministic, and
   distinct across files and offsets. Takes the two premultiplied terms
   so bulk loops hoist the per-file one and step the per-offset one by
   addition. The character is alphabet.[abs z mod 96]; the index is
   computed as a branch-free abs of [z mod 96], which equals
   [abs z mod 96] for every other [z] and stays in range for [min_int],
   whose [abs] is negative. *)
let[@inline] mix file_term off_term =
  let z = file_term lxor off_term in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 in
  let z = z lxor (z lsr 16) in
  let r = z mod 96 in
  let s = r asr 62 in
  String.unsafe_get alphabet ((r lxor s) - s)

let content_byte ~file ~off = mix (file * file_mul) (off * off_mul)

(* The one bulk loop. The caller has checked the range. *)
let generate ~file ~off dst ~dst_off ~len =
  let file_term = file * file_mul in
  let off_term = ref (off * off_mul) in
  for i = dst_off to dst_off + len - 1 do
    Bytes.unsafe_set dst i (mix file_term !off_term);
    off_term := !off_term + off_mul
  done

(* Fills of at least [split_min] bytes are generated in two halves: the
   caller does the lower one while a helper domain does the upper one.
   The halves are disjoint bytes of [dst], and the caller returns only
   after it reads [completed], which the helper bumps after its last
   store, so every byte is in place and visible to the caller. One
   caller owns the helper at a time ([claimed]); any other call, and
   every call on a single-core host, runs the single loop. *)
let split_min = 16_384

(* After a job the helper polls for the next one this many times (tens
   of microseconds) before it sleeps, so back-to-back fills such as a
   warm start find it awake. *)
let spin_polls = 1_000

let claimed = Atomic.make false
let posted = Atomic.make 0 (* jobs handed to the helper *)
let completed = Atomic.make 0 (* jobs it finished *)
let asleep = Atomic.make false
let lock = Mutex.create ()
let wake = Condition.create ()
let job = ref ignore
let failure = ref None
let spawned = ref false

(* [asleep] is set before [posted] is re-read and read after [posted] is
   bumped, so either the helper sees the job or the caller sees it
   asleep and signals it, which it can do only once the helper waits. *)
let rec serve seen =
  let rec poll n =
    Atomic.get posted <> seen || (n > 0 && (Domain.cpu_relax (); poll (n - 1)))
  in
  if not (poll spin_polls) then begin
    Mutex.lock lock;
    Atomic.set asleep true;
    while Atomic.get posted = seen do
      Condition.wait wake lock
    done;
    Atomic.set asleep false;
    Mutex.unlock lock
  end;
  (try !job () with e -> failure := Some e);
  Atomic.set completed (seen + 1);
  serve (seen + 1)

(* Claims the helper, spawning it on first use. With one core, or if
   the spawn fails, the claim is never released and every later call
   runs the single loop. *)
let claim () =
  Atomic.compare_and_set claimed false true
  && (!spawned
     || Domain.recommended_domain_count () > 1
        && (match Domain.spawn (fun () -> serve 0) with
           | _ ->
               spawned := true;
               true
           | exception _ -> false))

let split ~file ~off dst ~dst_off ~len =
  let half = len / 2 in
  job :=
    (fun () ->
      generate ~file ~off:(off + half) dst ~dst_off:(dst_off + half)
        ~len:(len - half));
  let seq = Atomic.fetch_and_add posted 1 + 1 in
  if Atomic.get asleep then begin
    Mutex.lock lock;
    Condition.signal wake;
    Mutex.unlock lock
  end;
  let finish () =
    while Atomic.get completed <> seq do
      Domain.cpu_relax ()
    done;
    let e = !failure in
    job := ignore;
    failure := None;
    Atomic.set claimed false;
    e
  in
  match generate ~file ~off dst ~dst_off ~len:half with
  | () -> Option.iter raise (finish ())
  | exception e ->
      ignore (finish ());
      raise e

let blit_content ~file ~off dst ~dst_off ~len =
  if len < 0 || dst_off < 0 || dst_off > Bytes.length dst - len then
    invalid_arg "Filestore.blit_content: range";
  if len >= split_min && claim () then split ~file ~off dst ~dst_off ~len
  else generate ~file ~off dst ~dst_off ~len

let content ~file ~off ~len =
  let b = Bytes.create len in
  blit_content ~file ~off b ~dst_off:0 ~len;
  Bytes.unsafe_to_string b

let fill_buffer t buf ~file ~off =
  check_id t file;
  Iolite_core.Iobuf.Buffer.fill buf (blit_content ~file ~off)

(* Generate a block at a time into one scratch buffer and compare it,
   stopping at the first differing block. *)
let check_string ~file ~off s =
  let n = String.length s in
  let block = Bytes.create (min n 4096) in
  let rec same_from pos =
    pos >= n
    ||
    let len = min (Bytes.length block) (n - pos) in
    blit_content ~file ~off:(off + pos) block ~dst_off:0 ~len;
    let rec eq i =
      i >= len || (Bytes.unsafe_get block i = String.unsafe_get s (pos + i) && eq (i + 1))
    in
    eq 0 && same_from (pos + len)
  in
  same_from 0

let iter t f =
  for id = 0 to t.count - 1 do
    let inode = t.inodes.(id) in
    f id ~name:inode.iname ~size:inode.isize
  done
