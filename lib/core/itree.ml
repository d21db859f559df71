(* Offset-keyed balanced (AVL) index — the per-file tree inside
   [Extmap]. Entries within a file are non-overlapping, so interval
   stabbing reduces to a floor probe (greatest start offset not beyond
   the point) plus an in-order walk of successors; both are O(log n + k)
   on the stdlib-Map balancing invariant (sibling heights differ by at
   most 2).

   The tree is persistent (nodes are immutable); [Extmap] stores the
   current root in a mutable per-file record. *)

type 'a t = Empty | Node of { l : 'a t; key : int; v : 'a; r : 'a t; h : int }

let empty = Empty
let is_empty = function Empty -> true | Node _ -> false
let height = function Empty -> 0 | Node { h; _ } -> h

let create l key v r =
  let hl = height l and hr = height r in
  Node { l; key; v; r; h = (if hl >= hr then hl + 1 else hr + 1) }

(* Rebalance after one insertion/deletion on a child: the height
   difference is at most 3, repaired by a single or double rotation that
   preserves the in-order key sequence. *)
let bal l key v r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then begin
    match l with
    | Empty -> assert false
    | Node { l = ll; key = lk; v = lv; r = lr; _ } ->
      if height ll >= height lr then create ll lk lv (create lr key v r)
      else begin
        match lr with
        | Empty -> assert false
        | Node { l = lrl; key = lrk; v = lrv; r = lrr; _ } ->
          create (create ll lk lv lrl) lrk lrv (create lrr key v r)
      end
  end
  else if hr > hl + 2 then begin
    match r with
    | Empty -> assert false
    | Node { l = rl; key = rk; v = rv; r = rr; _ } ->
      if height rr >= height rl then create (create l key v rl) rk rv rr
      else begin
        match rl with
        | Empty -> assert false
        | Node { l = rll; key = rlk; v = rlv; r = rlr; _ } ->
          create (create l key v rll) rlk rlv (create rlr rk rv rr)
      end
  end
  else create l key v r

let rec add t ~key v =
  match t with
  | Empty -> Node { l = Empty; key; v; r = Empty; h = 1 }
  | Node { l; key = k; v = v'; r; h } ->
    if key = k then Node { l; key; v; r; h }
    else if key < k then bal (add l ~key v) k v' r
    else bal l k v' (add r ~key v)

let rec min_binding = function
  | Empty -> invalid_arg "Itree.min_binding: empty"
  | Node { l = Empty; key; v; _ } -> (key, v)
  | Node { l; _ } -> min_binding l

let rec remove_min = function
  | Empty -> assert false
  | Node { l = Empty; r; _ } -> r
  | Node { l; key; v; r; _ } -> bal (remove_min l) key v r

let merge l r =
  match (l, r) with
  | Empty, t | t, Empty -> t
  | _, _ ->
    let k, v = min_binding r in
    bal l k v (remove_min r)

let rec remove t ~key =
  match t with
  | Empty -> Empty
  | Node { l; key = k; v; r; _ } ->
    if key = k then merge l r
    else if key < k then bal (remove l ~key) k v r
    else bal l k v (remove r ~key)

let rec find_opt t ~key =
  match t with
  | Empty -> None
  | Node { l; key = k; v; r; _ } ->
    if key = k then Some v
    else if key < k then find_opt l ~key
    else find_opt r ~key

(* Value at the greatest key <= [key], else [default]. Allocation-free:
   the candidate is threaded as the new default on right descents. *)
let rec floor_def t ~key default =
  match t with
  | Empty -> default
  | Node { l; key = k; v; r; _ } ->
    if k = key then v
    else if k < key then floor_def r ~key v
    else floor_def l ~key default

let rec iter t f =
  match t with
  | Empty -> ()
  | Node { l; v; r; _ } ->
    iter l f;
    f v;
    iter r f

(* In-order traversal of values at keys >= [key] while [f] keeps
   returning [true]: O(log n) to locate the start, O(1) amortized per
   visited value. *)
let rec iter_from_aux t ~key f =
  match t with
  | Empty -> true
  | Node { l; key = k; v; r; _ } ->
    if k < key then iter_from_aux r ~key f
    else iter_from_aux l ~key f && f v && iter_from_aux r ~key f

let iter_from t ~key f = ignore (iter_from_aux t ~key f)

let rec cardinal = function
  | Empty -> 0
  | Node { l; r; _ } -> cardinal l + 1 + cardinal r

let to_list t =
  let acc = ref [] in
  iter t (fun v -> acc := v :: !acc);
  List.rev !acc

(* Test support: the AVL invariant, checked recursively. *)
let rec balanced = function
  | Empty -> true
  | Node { l; r; h; _ } ->
    abs (height l - height r) <= 2
    && h = 1 + max (height l) (height r)
    && balanced l && balanced r
