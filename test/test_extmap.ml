(* Extmap against a sorted-list model: three files, random extents
   (an add that would overlap is skipped), removals, every query, and
   policy-driven victim selection under LRU. [Extmap.check] runs after
   every step. *)

open Iolite_core

type ext = { f : int; o : int; l : int }

module M = Extmap.Make (struct
  type t = ext

  let file e = e.f
  let off e = e.o
  let len e = e.l
end)

let sentinel = { f = -1; o = min_int; l = 0 }
let files = 3

type op =
  | Add of int * int * int
  | Remove of int (* index into the resident extents, modulo *)
  | Floor of int * int
  | Overlapping of int * int * int
  | Covered of int * int * int
  | Victim of int (* eligible: offsets congruent to 0 modulo this *)

let op_gen =
  let open QCheck.Gen in
  let file = 0 -- (files - 1) in
  let off = 0 -- 120 in
  let len = 1 -- 24 in
  frequency
    [
      (6, map3 (fun f o l -> Add (f, o, l)) file off len);
      (2, map (fun i -> Remove i) (0 -- 50));
      (2, map2 (fun f o -> Floor (f, o)) file off);
      (2, map3 (fun f o l -> Overlapping (f, o, l)) file off (0 -- 40));
      (2, map3 (fun f o l -> Covered (f, o, l)) file off (0 -- 40));
      (2, map (fun k -> Victim k) (1 -- 4));
    ]

let show = function
  | Add (f, o, l) -> Printf.sprintf "add(%d,%d,%d)" f o l
  | Remove i -> Printf.sprintf "rm(%d)" i
  | Floor (f, o) -> Printf.sprintf "floor(%d,%d)" f o
  | Overlapping (f, o, l) -> Printf.sprintf "over(%d,%d,%d)" f o l
  | Covered (f, o, l) -> Printf.sprintf "cov(%d,%d,%d)" f o l
  | Victim k -> Printf.sprintf "victim(%d)" k

let meets e ~off ~len = e.o < off + len && e.o + e.l > off

let prop_matches_model =
  QCheck.Test.make ~name:"extmap matches sorted-list model" ~count:400
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 80) op_gen)
       ~print:(fun ops -> String.concat ";" (List.map show ops)))
    (fun ops ->
      let m = M.create ~sentinel () in
      let policy = Policy.lru () in
      (* Resident extents, oldest insertion first. *)
      let model = ref [] in
      let sorted f =
        List.sort
          (fun a b -> compare a.o b.o)
          (List.filter (fun e -> e.f = f) !model)
      in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun op ->
          (match op with
          | Add (f, o, l) ->
            let e = { f; o; l } in
            if not (List.exists (fun x -> x.f = f && meets x ~off:o ~len:l) !model)
            then begin
              M.add m e;
              policy.Policy.on_insert (f, o) ~size:l;
              model := !model @ [ e ]
            end
          | Remove i -> (
            match !model with
            | [] -> ()
            | resident ->
              let e = List.nth resident (i mod List.length resident) in
              M.remove m e;
              policy.Policy.on_remove (e.f, e.o);
              model := List.filter (fun x -> x != e) !model)
          | Floor (f, o) ->
            let want =
              List.fold_left
                (fun acc e -> if e.o <= o then e else acc)
                sentinel (sorted f)
            in
            check (M.floor m ~file:f ~off:o == want)
          | Overlapping (f, o, l) ->
            check
              (M.overlapping m ~file:f ~off:o ~len:l
              = List.filter (fun e -> meets e ~off:o ~len:l) (sorted f))
          | Covered (f, o, l) ->
            let byte p = List.exists (fun e -> e.o <= p && p < e.o + e.l) (sorted f) in
            check
              (M.covered m ~file:f ~off:o ~len:l
              = List.for_all byte (List.init l (fun i -> o + i)))
          | Victim k -> (
            let eligible e = e.o mod k = 0 in
            (* LRU with no accesses: the oldest eligible insertion. *)
            match (M.victim m policy ~eligible, List.find_opt eligible !model) with
            | Some v, Some want -> check (v == want)
            | None, None -> ()
            | _ -> check false));
          M.check m;
          for f = 0 to files - 1 do
            check (M.file_extents m ~file:f = sorted f);
            check
              (M.file_bytes m ~file:f
              = List.fold_left (fun a e -> a + e.l) 0 (sorted f))
          done;
          check (M.total_bytes m = List.fold_left (fun a e -> a + e.l) 0 !model);
          check (M.count m = List.length !model);
          List.iter
            (fun e ->
              check
                (match M.find m (e.f, e.o) with
                | Some x -> x == e
                | None -> false))
            !model)
        ops;
      !ok)

let suites =
  [ ("core.extmap.props", [ QCheck_alcotest.to_alcotest prop_matches_model ]) ]
