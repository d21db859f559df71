(* Hierarchical timer wheel.

   Deadlines are quantized to integer ticks. Each level is a ring of
   [2^bits] slots; level [l] holds timers whose remaining delta is in
   [2^(bits*l), 2^(bits*(l+1))) ticks. A slot is a doubly-linked list
   with a sentinel, so insert and cancel are O(1) pointer splices. When
   the cursor crosses a level-[l] frame boundary, the slot entered at
   level [l] is cascaded: its timers are re-placed relative to the new
   cursor and migrate toward level 0, where they fire.

   Advancing skips empty regions: [next_due_tick] computes a
   conservative lower bound on the earliest expiry (the first non-empty
   slot's frame start per level), and every slot strictly before that
   bound is empty by construction, so the cursor can jump straight to
   the bound without missing a cascade. The bound is cached and only
   loosened monotonically (cancellation leaves it stale-but-safe: a
   jump to a bound with nothing due is a no-op rescan). *)

type 'a cell = {
  mutable expiry : int; (* absolute tick; meaningless on sentinels *)
  mutable value : 'a option; (* None on sentinels *)
  mutable prev : 'a cell;
  mutable next : 'a cell;
  mutable active : bool; (* linked and neither fired nor cancelled *)
}

type 'a handle = 'a cell

type 'a t = {
  bits : int;
  levels : int;
  tick : float; (* seconds per tick *)
  mask : int;
  slots : 'a cell array array; (* [level].(slot) sentinels *)
  due : 'a cell; (* overflow list for already-due inserts *)
  mutable cur : int; (* every expiry <= cur has fired *)
  mutable size : int;
  mutable bound : int; (* cached lower bound on min expiry; -1 = unknown *)
}

let sentinel () =
  let rec s =
    { expiry = 0; value = None; prev = s; next = s; active = false }
  in
  s

let create ?(tick = 1e-3) ?(bits = 8) ?(levels = 3) () =
  if tick <= 0.0 then invalid_arg "Twheel.create: tick must be positive";
  if bits < 1 || levels < 1 || bits * levels > 60 then
    invalid_arg "Twheel.create: bad geometry";
  {
    bits;
    levels;
    tick;
    mask = (1 lsl bits) - 1;
    slots =
      Array.init levels (fun _ -> Array.init (1 lsl bits) (fun _ -> sentinel ()));
    due = sentinel ();
    cur = 0;
    size = 0;
    bound = -1;
  }

let size t = t.size
let current_tick t = t.cur
let time_of_tick t k = float_of_int k *. t.tick

(* Ceiling division so a timer never fires before its requested time.
   The small epsilon keeps exact multiples of [tick] from rounding up a
   whole extra tick on float noise. *)
let tick_of_time t time =
  if time <= 0.0 then 0
  else int_of_float (Float.ceil ((time /. t.tick) -. 1e-9))

let is_active (h : 'a handle) = h.active

let link_before (s : 'a cell) (c : 'a cell) =
  c.prev <- s.prev;
  c.next <- s;
  s.prev.next <- c;
  s.prev <- c

let unlink (c : 'a cell) =
  c.prev.next <- c.next;
  c.next.prev <- c.prev;
  c.prev <- c;
  c.next <- c

let horizon t = 1 lsl (t.bits * t.levels)

(* Place a cell according to its delta from the cursor. Far-future
   timers are clamped into the top level and re-placed on cascade.
   Returns the cell's {e wake tick} — the earliest cursor position at
   which it can make progress: its expiry when it lands in level 0 (or
   the due list), otherwise the start of its slot's frame, where the
   cursor triggers the cascade that migrates it downward. The cached
   bound must never exceed any pending cell's wake tick, or skip-ahead
   would jump over the cascade and strand the timer in a high level. *)
let place t (c : 'a cell) =
  let delta = c.expiry - t.cur in
  if delta <= 0 then begin
    link_before t.due c;
    t.cur
  end
  else begin
    let p =
      if delta >= horizon t then t.cur + horizon t - 1 else c.expiry
    in
    let level = ref 0 in
    while
      !level < t.levels - 1 && p - t.cur >= 1 lsl (t.bits * (!level + 1))
    do
      incr level
    done;
    let slot = (p lsr (t.bits * !level)) land t.mask in
    link_before t.slots.(!level).(slot) c;
    if !level = 0 then p
    else (p lsr (t.bits * !level)) lsl (t.bits * !level)
  end

let add t ~tick v =
  let c =
    let rec c =
      { expiry = tick; value = Some v; prev = c; next = c; active = true }
    in
    c
  in
  let wake = place t c in
  t.size <- t.size + 1;
  if t.bound >= 0 && wake < t.bound then t.bound <- wake;
  c

let cancel t (h : 'a handle) =
  if not h.active then false
  else begin
    h.active <- false;
    h.value <- None;
    unlink h;
    t.size <- t.size - 1;
    (* [bound] may now be stale; it is still a valid lower bound. *)
    true
  end

(* Conservative lower bound on the earliest expiry: exact for level 0
   and the due list, frame starts for higher levels. *)
let compute_bound t =
  if t.size = 0 then -1
  else if t.due.next != t.due then t.cur
  else begin
    let best = ref max_int in
    (* Level 0: slots hold exact ticks in (cur, cur + 2^bits]. *)
    (let j = ref (t.cur + 1) in
     let stop = t.cur + t.mask + 1 in
     while !j <= stop && !best = max_int do
       if t.slots.(0).(!j land t.mask).next != t.slots.(0).(!j land t.mask)
       then best := !j;
       incr j
     done);
    for l = 1 to t.levels - 1 do
      let shift = t.bits * l in
      let frame = t.cur lsr shift in
      let j = ref (frame + 1) in
      let stop = frame + t.mask + 1 in
      let found = ref false in
      while !j <= stop && not !found do
        if
          t.slots.(l).(!j land t.mask).next != t.slots.(l).(!j land t.mask)
        then begin
          found := true;
          let start = !j lsl shift in
          if start < !best then best := start
        end;
        incr j
      done
    done;
    if !best = max_int then -1 else !best
  end

let next_due_tick t =
  if t.size = 0 then None
  else begin
    if t.bound < 0 || t.bound <= t.cur then begin
      if t.due.next != t.due then t.bound <- t.cur
      else t.bound <- compute_bound t
    end;
    if t.bound < 0 then None else Some (max t.bound t.cur)
  end
let fire_list t (s : 'a cell) fire =
  while s.next != s do
    let c = s.next in
    unlink c;
    c.active <- false;
    t.size <- t.size - 1;
    match c.value with
    | None -> ()
    | Some v ->
      c.value <- None;
      fire v
  done

let cascade t l =
  let slot = (t.cur lsr (t.bits * l)) land t.mask in
  let s = t.slots.(l).(slot) in
  (* The advance loop invalidated [bound] before cascading, so the
     re-placements' wake ticks need not be folded in here. *)
  while s.next != s do
    let c = s.next in
    unlink c;
    ignore (place t c : int)
  done

let advance_to t target ~fire =
  if target > t.cur then begin
    fire_list t t.due fire;
    let continue = ref true in
    while !continue && t.cur < target && t.size > 0 do
      (match next_due_tick t with
      | None -> t.cur <- target
      | Some b when b > target ->
        t.cur <- target;
        continue := false
      | Some b ->
        t.cur <- max (t.cur + 1) b;
        t.bound <- -1;
        for l = t.levels - 1 downto 1 do
          if t.cur land ((1 lsl (t.bits * l)) - 1) = 0 then cascade t l
        done;
        fire_list t t.slots.(0).(t.cur land t.mask) fire;
        fire_list t t.due fire)
    done;
    if t.cur < target then t.cur <- target;
    if t.bound >= 0 && t.bound <= t.cur then t.bound <- -1
  end
  else fire_list t t.due fire
