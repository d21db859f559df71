(* Non-overlapping extents per file: a per-file AVL tree keyed by start
   offset with the file's byte count, a (file, offset) table for policy
   keys, and the total byte count. Because extents never overlap within
   a file, the one extent that can contain a point is the floor of that
   point, so stabbing is a floor probe plus a walk of successors. *)

module Itbl = Hashtbl.Make (Int)

module Ktbl = Hashtbl.Make (struct
  type t = int * int

  let equal ((f : int), (o : int)) (f', o') = f = f' && o = o'
  let hash = Hashtbl.hash
end)

module Make (E : sig
  type t

  val file : t -> int
  val off : t -> int
  val len : t -> int
end) =
struct
  type frec = { mutable tree : E.t Itree.t; mutable bytes : int }

  type t = {
    files : frec Itbl.t;
    keys : E.t Ktbl.t;
    sentinel : E.t;
    mutable total : int;
  }

  let create ~sentinel () =
    { files = Itbl.create 512; keys = Ktbl.create 512; sentinel; total = 0 }

  let add t e =
    let file = E.file e in
    let fr =
      match Itbl.find t.files file with
      | fr -> fr
      | exception Not_found ->
        let fr = { tree = Itree.empty; bytes = 0 } in
        Itbl.replace t.files file fr;
        fr
    in
    fr.tree <- Itree.add fr.tree ~key:(E.off e) e;
    fr.bytes <- fr.bytes + E.len e;
    t.total <- t.total + E.len e;
    Ktbl.replace t.keys (file, E.off e) e

  let remove t e =
    let file = E.file e in
    (match Itbl.find_opt t.files file with
    | Some fr ->
      fr.tree <- Itree.remove fr.tree ~key:(E.off e);
      fr.bytes <- fr.bytes - E.len e;
      if Itree.is_empty fr.tree then Itbl.remove t.files file
    | None -> ());
    t.total <- t.total - E.len e;
    Ktbl.remove t.keys (file, E.off e)

  let find t k = Ktbl.find_opt t.keys k

  let floor t ~file ~off =
    match Itbl.find t.files file with
    | fr -> Itree.floor_def fr.tree ~key:off t.sentinel
    | exception Not_found -> t.sentinel

  let overlapping t ~file ~off ~len =
    match Itbl.find_opt t.files file with
    | None -> []
    | Some fr ->
      let stop = off + len in
      let fl = Itree.floor_def fr.tree ~key:off t.sentinel in
      let straddles = E.off fl + E.len fl > off && E.off fl < stop in
      let acc = ref (if straddles then [ fl ] else []) in
      Itree.iter_from fr.tree ~key:(off + 1) (fun e ->
          E.off e < stop
          && begin
               acc := e :: !acc;
               true
             end);
      List.rev !acc

  (* Hop from extent end to extent end: each hop is one floor probe, and
     a probe that lands short of [pos] is a gap. No closure, no
     allocation. *)
  let rec covered_from t tree pos stop =
    pos >= stop
    ||
    let e = Itree.floor_def tree ~key:pos t.sentinel in
    let e_end = E.off e + E.len e in
    e_end > pos && covered_from t tree e_end stop

  let covered t ~file ~off ~len =
    len <= 0
    ||
    match Itbl.find t.files file with
    | fr -> covered_from t fr.tree off (off + len)
    | exception Not_found -> false

  let file_extents t ~file =
    match Itbl.find_opt t.files file with
    | Some fr -> Itree.to_list fr.tree
    | None -> []

  let file_bytes t ~file =
    match Itbl.find_opt t.files file with Some fr -> fr.bytes | None -> 0

  let total_bytes t = t.total
  let count t = Ktbl.length t.keys
  let iter t f = Ktbl.iter (fun _ e -> f e) t.keys

  let victim t policy ~eligible =
    let found = ref t.sentinel in
    let accept k =
      match Ktbl.find_opt t.keys k with
      | Some e when eligible e ->
        found := e;
        true
      | _ -> false
    in
    match policy.Policy.choose ~eligible:accept with
    | Some _ -> Some !found
    | None -> None

  let check t =
    let fail fmt = Printf.ksprintf failwith fmt in
    let walked = ref 0 and total = ref 0 in
    Itbl.iter
      (fun file fr ->
        if Itree.is_empty fr.tree then fail "file %d: empty record" file;
        if not (Itree.balanced fr.tree) then fail "file %d: unbalanced" file;
        let bytes = ref 0 and prev_end = ref min_int in
        Itree.iter fr.tree (fun e ->
            let off = E.off e and len = E.len e in
            if E.file e <> file || len <= 0 || off < !prev_end then
              fail "file %d: extent [%d,+%d) misfiled, empty or overlapping"
                file off len;
            (match Ktbl.find_opt t.keys (file, off) with
            | Some e' when e' == e -> ()
            | _ -> fail "file %d: extent at %d not in the key table" file off);
            prev_end := off + len;
            bytes := !bytes + len;
            incr walked);
        if !bytes <> fr.bytes then
          fail "file %d: %d bytes counted, %d walked" file fr.bytes !bytes;
        total := !total + !bytes)
      t.files;
    if !walked <> count t then
      fail "key table holds %d extents, trees %d" (count t) !walked;
    if !total <> t.total then
      fail "total %d bytes counted, %d walked" t.total !total
end
