module Proc = Engine.Proc

module Semaphore = struct
  type waiter = { need : int; resume : unit -> unit }

  type t = { mutable tokens : int; queue : waiter Queue.t }

  let create n =
    if n < 0 then invalid_arg "Semaphore.create: negative capacity";
    { tokens = n; queue = Queue.create () }

  let waiters t = Queue.length t.queue

  (* Wake waiters strictly in FIFO order: a large request at the head
     blocks later small ones (no barging), which preserves fairness. *)
  let drain t =
    let continue = ref true in
    while !continue do
      match Queue.peek_opt t.queue with
      | Some w when w.need <= t.tokens ->
        ignore (Queue.pop t.queue);
        t.tokens <- t.tokens - w.need;
        w.resume ()
      | Some _ | None -> continue := false
    done

  let acquire ?(n = 1) t =
    if n < 0 then invalid_arg "Semaphore.acquire: negative count";
    if Queue.is_empty t.queue && n <= t.tokens then t.tokens <- t.tokens - n
    else
      Proc.suspend (fun resume -> Queue.push { need = n; resume } t.queue)

  let release ?(n = 1) t =
    if n < 0 then invalid_arg "Semaphore.release: negative count";
    t.tokens <- t.tokens + n;
    drain t

  let with_acquired ?n t f =
    acquire ?n t;
    match f () with
    | v ->
      release ?n t;
      v
    | exception exn ->
      release ?n t;
      raise exn
end

module Condvar = struct
  type t = { queue : (unit -> unit) Queue.t }

  let create () = { queue = Queue.create () }

  let wait t = Proc.suspend (fun resume -> Queue.push resume t.queue)

  let signal t =
    match Queue.take_opt t.queue with None -> () | Some resume -> resume ()

  let broadcast t =
    (* Snapshot first: resumed processes may wait again immediately. *)
    let all = Queue.fold (fun acc r -> r :: acc) [] t.queue in
    Queue.clear t.queue;
    List.iter (fun resume -> resume ()) (List.rev all)

  let waiters t = Queue.length t.queue
end

module Mailbox = struct
  type 'a t = { items : 'a Queue.t; readers : (unit -> unit) Queue.t }

  let create () = { items = Queue.create (); readers = Queue.create () }

  let send t v =
    Queue.push v t.items;
    match Queue.take_opt t.readers with None -> () | Some resume -> resume ()

  let rec recv t =
    match Queue.take_opt t.items with
    | Some v -> v
    | None ->
      Proc.suspend (fun resume -> Queue.push resume t.readers);
      recv t
end

module Ivar = struct
  type 'a t = { mutable value : 'a option; cond : Condvar.t }

  let create () = { value = None; cond = Condvar.create () }

  let fill t v =
    match t.value with
    | Some _ -> invalid_arg "Ivar.fill: already filled"
    | None ->
      t.value <- Some v;
      Condvar.broadcast t.cond

  let is_filled t = Option.is_some t.value

  let rec read t =
    match t.value with
    | Some v -> v
    | None ->
      Condvar.wait t.cond;
      read t
end
