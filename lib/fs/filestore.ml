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
   line-oriented utilities (wc, grep) see realistic input. The byte for
   a mixed value [z] is the formula's [abs z mod 96]-th character:
   [Char.chr (32 + v)], or ['\n'] for 95. OCaml's [z mod 96] takes the
   sign of [z], so the table is indexed by [z mod 96 + 96] and entry
   [96 + r] holds the character for [abs r]; entry 0 is never read. *)
let signed_alphabet =
  String.init 192 (fun i ->
      let v = abs (i - 96) in
      if v = 95 then '\n' else Char.chr (32 + v))

let file_mul = 0x9E3779B9
let off_mul = 0x85EBCA6B

(* SplitMix-style avalanche of (file, off): cheap, deterministic, and
   distinct across files and offsets. Takes the two premultiplied terms
   so bulk loops hoist the per-file one and step the per-offset one by
   addition. [abs z mod 96] and [abs (z mod 96)] agree for every [z]
   but [min_int], where the formula's own [abs] is negative; the index
   stays in range there too. *)
let[@inline] mix file_term off_term =
  let z = file_term lxor off_term in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 in
  let z = z lxor (z lsr 16) in
  String.unsafe_get signed_alphabet ((z mod 96) + 96)

let content_byte ~file ~off = mix (file * file_mul) (off * off_mul)

(* The one bulk loop, unrolled by four. The caller has checked the
   range. *)
let generate ~file ~off dst ~dst_off ~len =
  let file_term = file * file_mul in
  let off_term = ref (off * off_mul) in
  let quads = len / 4 in
  for q = 0 to quads - 1 do
    let i = dst_off + (4 * q) and t = !off_term in
    Bytes.unsafe_set dst i (mix file_term t);
    Bytes.unsafe_set dst (i + 1) (mix file_term (t + off_mul));
    Bytes.unsafe_set dst (i + 2) (mix file_term (t + (2 * off_mul)));
    Bytes.unsafe_set dst (i + 3) (mix file_term (t + (3 * off_mul)));
    off_term := t + (4 * off_mul)
  done;
  for i = dst_off + (4 * quads) to dst_off + len - 1 do
    Bytes.unsafe_set dst i (mix file_term !off_term);
    off_term := !off_term + off_mul
  done

(* {2 Jobs on the helper domain}

   Fills are generated in blocks of [block] bytes. A job names a range
   and where its bytes go; one helper domain and the job's owner claim
   its blocks from one atomic counter, so each block is generated once,
   by whoever claimed it. The owner never waits for a block nobody has
   started: it claims whatever is left and waits only for blocks the
   helper has in progress. A prefetch stages the helper's bytes in
   blocks of one pool buffer's size, so every part of the range lands in
   one staging block and a block never straddles two parts. *)
let part = Iolite_core.Iobuf.Pool.max_alloc
let block = part / 4

type dest =
  | Into of Bytes.t * int (* a synchronous fill: the caller's bytes, at this offset *)
  | Staged of Bytes.t array
      (* a prefetch: one staging block per part, [Bytes.empty] until the
         helper starts the part *)

type job = {
  file : int;
  off : int;
  len : int;
  blocks : int;
  dest : dest;
  next : int Atomic.t; (* the next unclaimed block *)
  finished : int Atomic.t; (* blocks the helper has finished *)
  mutable failure : exn option; (* set by the helper before [finished] moves *)
}

(* The owner's side of a prefetch. *)
type prefetch = {
  job : job;
  parts : Bytes.t array; (* the job's staging blocks *)
  mutable owned : int; (* the first block the owner claimed; -1 before its first take *)
  taken : Bytes.t; (* one flag per part *)
}

(* After the queue empties the helper polls it this many times (tens of
   microseconds) before it sleeps, so back-to-back jobs such as a warm
   start's find it awake. *)
let spin_polls = 1_000

let lock = Mutex.create ()
let wake = Condition.create ()
let queue : job Queue.t = Queue.create () (* FIFO, under [lock] *)
let queued = Atomic.make 0 (* its length, for polling without [lock] *)
let spare : Bytes.t Stack.t = Stack.create () (* staging blocks, under [lock] *)

let staging () =
  match Mutex.protect lock (fun () -> Stack.pop_opt spare) with
  | Some b -> b
  | None -> Bytes.create part

let run_block j k =
  let lo = k * block in
  let len = min block (j.len - lo) in
  match j.dest with
  | Into (dst, dst_off) ->
      generate ~file:j.file ~off:(j.off + lo) dst ~dst_off:(dst_off + lo) ~len
  | Staged parts ->
      let p = lo / part in
      if parts.(p) == Bytes.empty then parts.(p) <- staging ();
      generate ~file:j.file ~off:(j.off + lo) parts.(p) ~dst_off:(lo - (p * part)) ~len

(* The helper claims one block at a time and finishes each, failure
   included, before it claims the next: once [finished] reads [n], the
   first [n] blocks it claimed are done. *)
let rec help j =
  let k = Atomic.fetch_and_add j.next 1 in
  if k < j.blocks then begin
    (try run_block j k with e -> j.failure <- Some e);
    Atomic.incr j.finished;
    help j
  end

(* Only the helper pops, so the head stays put while it works. *)
let rec serve () =
  let rec poll n =
    Atomic.get queued > 0 || (n > 0 && (Domain.cpu_relax (); poll (n - 1)))
  in
  if not (poll spin_polls) then begin
    Mutex.lock lock;
    while Queue.is_empty queue do
      Condition.wait wake lock
    done;
    Mutex.unlock lock
  end;
  help (Mutex.protect lock (fun () -> Queue.peek queue));
  Mutex.protect lock (fun () ->
      ignore (Queue.pop queue);
      Atomic.decr queued);
  serve ()

type helper = Unspawned | Running | Unavailable

let helper = Atomic.make Unspawned

(* Spawns the helper at the first job. With one core, or if the spawn
   fails, nothing is posted and every owner generates its whole range. *)
let helper_up () =
  match Atomic.get helper with
  | Running -> true
  | Unavailable -> false
  | Unspawned ->
      if Domain.recommended_domain_count () < 2 then begin
        Atomic.set helper Unavailable;
        false
      end
      else if Atomic.compare_and_set helper Unspawned Running then begin
        match Domain.spawn serve with
        | _ -> true
        | exception _ ->
            Atomic.set helper Unavailable;
            false
      end
      else Atomic.get helper = Running

let post j =
  Mutex.protect lock (fun () ->
      Queue.push j queue;
      Atomic.incr queued);
  Condition.signal wake

let job ~file ~off ~len dest =
  {
    file;
    off;
    len;
    blocks = (len + block - 1) / block;
    dest;
    next = Atomic.make 0;
    finished = Atomic.make 0;
    failure = None;
  }

(* Waits until the helper has finished its first [n] blocks of [j]. *)
let await j n =
  while Atomic.get j.finished < n do
    Domain.cpu_relax ()
  done;
  Option.iter raise j.failure

(* A synchronous fill claims blocks alongside the helper until none is
   left. If one of its own raises, it claims the rest at once, so the
   helper writes nothing into [dst] after the call returns. *)
let fill_with_helper ~file ~off dst ~dst_off ~len =
  let j = job ~file ~off ~len (Into (dst, dst_off)) in
  post j;
  let mine = ref 0 in
  let rec go () =
    let k = Atomic.fetch_and_add j.next 1 in
    if k < j.blocks then begin
      incr mine;
      run_block j k;
      go ()
    end
  in
  match go () with
  | () -> await j (j.blocks - !mine)
  | exception e ->
      let claimed = min j.blocks (Atomic.fetch_and_add j.next j.blocks) in
      (try await j (claimed - !mine) with _ -> ());
      raise e

let blit_content ~file ~off dst ~dst_off ~len =
  if len < 0 || dst_off < 0 || dst_off > Bytes.length dst - len then
    invalid_arg "Filestore.blit_content: range";
  if len > block && helper_up () then fill_with_helper ~file ~off dst ~dst_off ~len
  else generate ~file ~off dst ~dst_off ~len

let prefetch ~file ~off ~len =
  if len < 0 then invalid_arg "Filestore.prefetch: negative length";
  let n = (len + part - 1) / part in
  let parts = Array.make n Bytes.empty in
  let j = job ~file ~off ~len (Staged parts) in
  if len > 0 && helper_up () then post j;
  { job = j; parts; owned = -1; taken = Bytes.make n '\000' }

(* The first take claims every block the helper has not started. A
   part's blocks from [owned] on are generated straight into [dst]; the
   helper's, below [owned], are copied out of staging once finished, and
   the staging block goes back to [spare]. *)
let take pf ~pos dst ~dst_off ~len =
  let j = pf.job in
  if
    pos < 0 || pos mod part <> 0 || pos >= j.len
    || len <> min part (j.len - pos)
    || dst_off < 0
    || dst_off > Bytes.length dst - len
  then invalid_arg "Filestore.take: range";
  let p = pos / part in
  if Bytes.get pf.taken p <> '\000' then invalid_arg "Filestore.take: part taken twice";
  Bytes.set pf.taken p '\001';
  if pf.owned < 0 then pf.owned <- min j.blocks (Atomic.fetch_and_add j.next j.blocks);
  let first = pos / block in
  let staged = max 0 (min len ((pf.owned - first) * block)) in
  generate ~file:j.file ~off:(j.off + pos + staged) dst ~dst_off:(dst_off + staged)
    ~len:(len - staged);
  if staged > 0 then begin
    await j (min pf.owned (first + (part / block)));
    Bytes.blit pf.parts.(p) 0 dst dst_off staged;
    Mutex.protect lock (fun () -> Stack.push pf.parts.(p) spare);
    pf.parts.(p) <- Bytes.empty
  end

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
