type account = Kernel | Process | Net_wired | Io_data

type t = {
  capacity : int;
  mutable kernel : int;
  mutable process : int;
  mutable net_wired : int;
  mutable io_data : int;
  mutable hook : needed:int -> int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Physmem.create: capacity must be positive";
  {
    capacity;
    kernel = 0;
    process = 0;
    net_wired = 0;
    io_data = 0;
    hook = (fun ~needed:_ -> 0);
  }

let capacity t = t.capacity

let used t = function
  | Kernel -> t.kernel
  | Process -> t.process
  | Net_wired -> t.net_wired
  | Io_data -> t.io_data

let total_used t = t.kernel + t.process + t.net_wired + t.io_data
let free_bytes t = max 0 (t.capacity - total_used t)
let overcommit t = max 0 (total_used t - t.capacity)
let io_budget t = max 0 (t.capacity - t.kernel - t.process - t.net_wired)

let set_low_memory_hook t hook = t.hook <- hook

(* Ask the pageout side to give back memory while we are over capacity.
   Stops when fitting or when a hook invocation frees nothing. *)
let rebalance t =
  let continue = ref true in
  while !continue do
    let over = total_used t - t.capacity in
    if over <= 0 then continue := false
    else begin
      let freed = t.hook ~needed:over in
      if freed <= 0 then continue := false
    end
  done

let bump t account n =
  match account with
  | Kernel -> t.kernel <- t.kernel + n
  | Process -> t.process <- t.process + n
  | Net_wired -> t.net_wired <- t.net_wired + n
  | Io_data -> t.io_data <- t.io_data + n

let wire t account n =
  if n < 0 then invalid_arg "Physmem.wire: negative size";
  (match account with
  | Io_data -> invalid_arg "Physmem.wire: Io_data is pageable, use alloc_pageable"
  | Kernel | Process | Net_wired -> ());
  bump t account n;
  rebalance t

let unwire t account n =
  if n < 0 then invalid_arg "Physmem.unwire: negative size";
  if used t account < n then invalid_arg "Physmem.unwire: underflow";
  bump t account (-n)

let alloc_pageable t n =
  if n < 0 then invalid_arg "Physmem.alloc_pageable: negative size";
  t.io_data <- t.io_data + n;
  rebalance t

let free_pageable t n =
  if n < 0 then invalid_arg "Physmem.free_pageable: negative size";
  if t.io_data < n then invalid_arg "Physmem.free_pageable: underflow";
  t.io_data <- t.io_data - n
