type key = int * int

type t = {
  name : string;
  on_insert : key -> size:int -> unit;
  on_access : key -> size:int -> unit;
  on_remove : key -> unit;
  choose : eligible:(key -> bool) -> key option;
  set_cost : ((key -> size:int -> float) -> unit) option;
}

(* ------------------------------------------------------------------ *)
(* LRU: intrusive doubly-linked list, most-recent at the head.        *)
(* ------------------------------------------------------------------ *)

module Lru_impl = struct
  type node = {
    nkey : key;
    mutable prev : node option;
    mutable next : node option;
  }

  type state = {
    nodes : (key, node) Hashtbl.t;
    mutable head : node option;
    mutable tail : node option;
  }

  let unlink st n =
    (match n.prev with
    | Some p -> p.next <- n.next
    | None -> st.head <- n.next);
    (match n.next with
    | Some s -> s.prev <- n.prev
    | None -> st.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front st n =
    n.next <- st.head;
    (match st.head with Some h -> h.prev <- Some n | None -> st.tail <- Some n);
    st.head <- Some n

  let touch st k =
    match Hashtbl.find_opt st.nodes k with
    | Some n ->
      unlink st n;
      push_front st n
    | None ->
      let n = { nkey = k; prev = None; next = None } in
      Hashtbl.replace st.nodes k n;
      push_front st n

  let remove st k =
    match Hashtbl.find_opt st.nodes k with
    | Some n ->
      unlink st n;
      Hashtbl.remove st.nodes k
    | None -> ()

  let choose st ~eligible =
    let rec walk = function
      | None -> None
      | Some n -> if eligible n.nkey then Some n.nkey else walk n.prev
    in
    walk st.tail
end

let lru () =
  let st =
    { Lru_impl.nodes = Hashtbl.create 256; head = None; tail = None }
  in
  {
    name = "LRU";
    on_insert = (fun k ~size:_ -> Lru_impl.touch st k);
    on_access = (fun k ~size:_ -> Lru_impl.touch st k);
    on_remove = (fun k -> Lru_impl.remove st k);
    choose = (fun ~eligible -> Lru_impl.choose st ~eligible);
    set_cost = None;
  }

(* ------------------------------------------------------------------ *)
(* Greedy-Dual-Size: lazy min-heap over H values.                     *)
(* ------------------------------------------------------------------ *)

let gds ?(cost = fun _ ~size:_ -> 1.0) () =
  let cost = ref cost in
  let infos : (key, float * int) Hashtbl.t = Hashtbl.create 256 in
  (* (H, stamp) entries on the engine's event heap; one that no longer
     matches its key's [infos] record is stale. *)
  let heap = Iolite_sim.Heap.create () in
  let inflation = ref 0.0 in
  let stamp = ref 0 in
  let set k h =
    incr stamp;
    Hashtbl.replace infos k (h, !stamp);
    Iolite_sim.Heap.push heap ~time:h ~seq:!stamp k
  in
  let priority k ~size =
    !inflation +. (!cost k ~size /. float_of_int (max 1 size))
  in
  let choose ~eligible =
    (* Pop stale and ineligible entries; reinsert what we skipped. *)
    let skipped = ref [] in
    let rec hunt () =
      match Iolite_sim.Heap.pop heap with
      | None -> None
      | Some ((h, s, k) as entry) -> (
        match Hashtbl.find_opt infos k with
        | Some (h', s') when h = h' && s = s' ->
          if eligible k then begin
            (* GDS: L rises to the victim's H. *)
            inflation := Float.max !inflation h;
            Some entry
          end
          else begin
            skipped := entry :: !skipped;
            hunt ()
          end
        | Some _ | None -> hunt () (* stale heap entry *))
    in
    let result = hunt () in
    List.iter
      (fun (h, s, k) -> Iolite_sim.Heap.push heap ~time:h ~seq:s k)
      !skipped;
    Option.map (fun (_, _, k) -> k) result
  in
  {
    name = "GDS";
    on_insert = (fun k ~size -> set k (priority k ~size));
    on_access = (fun k ~size -> set k (priority k ~size));
    on_remove = (fun k -> Hashtbl.remove infos k);
    choose;
    (* Re-parameterize in place: the priority structure is kept — old H
       values age out as entries are touched or evicted, and the
       inflation value L (the aging floor) carries over unchanged. *)
    set_cost = Some (fun f -> cost := f);
  }
