type t = {
  mutable clock : float;
  mutable seq : int;
  mutable current : string option; (* name of the running process *)
  mutable fctx : int; (* flow context of the running process, 0 = none *)
  queue : (unit -> unit) Heap.t;
  wheel : (unit -> unit) Twheel.t;
  mutable live_timers : int;
}

type timer = { mutable t_pending : bool; mutable t_cancel : unit -> bool }

type _ Effect.t +=
  | E_now : float Effect.t
  | E_sleep : float -> unit Effect.t
  | E_sleep_until : float -> unit Effect.t
  | E_spawn : string option * (unit -> unit) -> unit Effect.t
  | E_suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | E_engine : t Effect.t
  | E_self : string option Effect.t

let create () =
  {
    clock = 0.0;
    seq = 0;
    current = None;
    fctx = 0;
    queue = Heap.create ();
    wheel = Twheel.create ~tick:1e-3 ();
    live_timers = 0;
  }

let now t = t.clock
let current_name t = t.current
let ctx t = t.fctx
let set_ctx t c = t.fctx <- c

let schedule t time thunk =
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push t.queue ~time ~seq thunk

let pending t = Heap.size t.queue
let pending_timers t = t.live_timers

(* Resume continuation [k] of process [name] at [time], with the flow
   context it had when it went to sleep. *)
let wake_at t name k time =
  let ctx = t.fctx in
  schedule t time (fun () ->
      t.current <- name;
      t.fctx <- ctx;
      Effect.Deep.continue k ())

(* Run a process body under the engine's deep effect handler. Every
   continuation resumed later re-enters through the thunks we queue, which
   were created inside this handler, so the handler stays installed for the
   process's whole lifetime. Each queued thunk restores the process's name
   and flow context before resuming, so [current_name]/[ctx] are accurate
   across interleavings. The flow context is captured at each suspension
   point (not at [exec] entry) so [set_ctx] mid-body sticks; spawned
   children inherit the spawner's context at spawn time. *)
let rec exec t name fctx (body : unit -> unit) : unit =
  let open Effect.Deep in
  t.current <- name;
  t.fctx <- fctx;
  match_with body ()
    {
      retc = (fun () -> ());
      exnc = (fun exn -> raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_now ->
            Some (fun (k : (a, unit) continuation) -> continue k t.clock)
          | E_engine -> Some (fun (k : (a, unit) continuation) -> continue k t)
          | E_self ->
            Some (fun (k : (a, unit) continuation) -> continue k name)
          | E_sleep dt ->
            Some
              (fun (k : (a, unit) continuation) ->
                if dt < 0.0 then
                  discontinue k (Invalid_argument "Proc.sleep: negative delay")
                else wake_at t name k (t.clock +. dt))
          | E_sleep_until time ->
            Some
              (fun (k : (a, unit) continuation) ->
                if time < t.clock then
                  discontinue k
                    (Invalid_argument "Proc.sleep_until: time in the past")
                else wake_at t name k time)
          | E_spawn (child_name, f) ->
            Some
              (fun (k : (a, unit) continuation) ->
                let ctx = t.fctx in
                schedule t t.clock (fun () -> exec t child_name ctx f);
                t.current <- name;
                continue k ())
          | E_suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let resumed = ref false in
                let ctx = t.fctx in
                let resume () =
                  if !resumed then
                    invalid_arg "Engine: suspended process resumed twice";
                  resumed := true;
                  schedule t t.clock (fun () ->
                      t.current <- name;
                      t.fctx <- ctx;
                      continue k ())
                in
                register resume)
          | _ -> None);
    }

let spawn ?name t f = schedule t t.clock (fun () -> exec t name 0 f)

let spawn_at ?name t time f = schedule t time (fun () -> exec t name 0 f)

(* Coarse cancelable timers: the deadline is quantized up to the wheel
   tick (never fires early); insert and cancel are O(1) regardless of
   how many timers are pending. *)
let schedule_cancelable ?name t time f =
  let tm = { t_pending = true; t_cancel = (fun () -> false) } in
  let body () =
    tm.t_pending <- false;
    t.live_timers <- t.live_timers - 1;
    exec t name 0 f
  in
  t.live_timers <- t.live_timers + 1;
  let tick =
    max (Twheel.current_tick t.wheel)
      (Twheel.tick_of_time t.wheel (Float.max time t.clock))
  in
  let h = Twheel.add t.wheel ~tick body in
  tm.t_cancel <- (fun () -> Twheel.cancel t.wheel h);
  tm

let cancel_timer t tm =
  if not tm.t_pending then false
  else if tm.t_cancel () then begin
    tm.t_pending <- false;
    t.live_timers <- t.live_timers - 1;
    true
  end
  else false

let timer_pending tm = tm.t_pending

(* The run loop merges two event sources: the fine-grained heap and the
   coarse timer wheel. The heap wins ties so exactly-ordered events keep
   their FIFO semantics; wheel timers at the same quantized instant fire
   after them, which is within the wheel's quantization contract. *)
let run ?until t =
  let stop = ref false in
  while not !stop do
    let heap_time = Heap.peek_time t.queue in
    let wheel_next =
      if Twheel.size t.wheel = 0 then None
      else Twheel.next_due_tick t.wheel
    in
    let next =
      match (heap_time, wheel_next) with
      | None, None -> None
      | Some h, None -> Some (`Heap, h)
      | None, Some k -> Some (`Wheel k, Twheel.time_of_tick t.wheel k)
      | Some h, Some k ->
        let w = Twheel.time_of_tick t.wheel k in
        if h <= w then Some (`Heap, h) else Some (`Wheel k, w)
    in
    match next with
    | None -> stop := true
    | Some (src, time) ->
      let past_deadline =
        match until with Some u -> time > u | None -> false
      in
      if past_deadline then stop := true
      else begin
        match src with
        | `Heap -> (
          match Heap.pop t.queue with
          | None -> ()
          | Some (time, _seq, thunk) ->
            t.clock <- Float.max t.clock time;
            thunk ())
        | `Wheel k ->
          t.clock <- Float.max t.clock time;
          Twheel.advance_to t.wheel k ~fire:(fun thunk -> thunk ())
      end
  done;
  t.current <- None;
  match until with
  | Some u when t.clock < u -> t.clock <- u
  | Some _ | None -> ()

module Proc = struct
  let now () = Effect.perform E_now
  let sleep dt = Effect.perform (E_sleep dt)
  let sleep_until time = Effect.perform (E_sleep_until time)
  let spawn ?name f = Effect.perform (E_spawn (name, f))
  let suspend register = Effect.perform (E_suspend register)
  let engine () = Effect.perform E_engine
  let self () = Effect.perform E_self
  let ctx () = (engine ()).fctx
  let set_ctx c = (engine ()).fctx <- c

  let with_ctx c f =
    let t = engine () in
    let old = t.fctx in
    t.fctx <- c;
    Fun.protect ~finally:(fun () -> t.fctx <- old) f

  let running () =
    match Effect.perform E_now with
    | _ -> true
    | exception Effect.Unhandled _ -> false
end
