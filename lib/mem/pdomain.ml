type t = { id : int; name : string; trusted : bool }

let counter = ref 0

let make ?(trusted = false) ~name () =
  incr counter;
  { id = !counter; name; trusted }

let id t = t.id
let name t = t.name
let trusted t = t.trusted

let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
