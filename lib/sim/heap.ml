type 'a entry = { time : float; seq : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable len : int }

let create () = { data = [||]; len = 0 }

let is_empty t = t.len = 0
let size t = t.len

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t entry =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = max 16 (cap * 2) in
    let ndata = Array.make ncap entry in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end

let push t ~time ~seq value =
  let entry = { time; seq; value } in
  grow t entry;
  t.data.(t.len) <- entry;
  t.len <- t.len + 1;
  (* Sift up. *)
  let i = ref (t.len - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less t.data.(!i) t.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.data.(!i) in
    t.data.(!i) <- t.data.(parent);
    t.data.(parent) <- tmp;
    i := parent
  done

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.len && less t.data.(l) t.data.(!smallest) then smallest := l;
        if r < t.len && less t.data.(r) t.data.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = t.data.(!i) in
          t.data.(!i) <- t.data.(!smallest);
          t.data.(!smallest) <- tmp;
          i := !smallest
        end
      done
    end;
    Some (top.time, top.seq, top.value)
  end

let peek_time t = if t.len = 0 then None else Some t.data.(0).time
