open Iolite_sim
module Proc = Engine.Proc

let test_heap_order () =
  let h = Heap.create () in
  let r = Iolite_util.Rng.create 3L in
  for i = 0 to 999 do
    Heap.push h ~time:(Iolite_util.Rng.float r 100.0) ~seq:i i
  done;
  let last = ref neg_infinity in
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match Heap.pop h with
    | None -> continue := false
    | Some (t, _, _) ->
      Alcotest.(check bool) "nondecreasing" true (t >= !last);
      last := t;
      incr n
  done;
  Alcotest.(check int) "all popped" 1000 !n

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:1.0 ~seq:i i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (_, _, v) -> Alcotest.(check int) "fifo at equal time" i v
    | None -> Alcotest.fail "heap empty early"
  done

let test_sleep_advances_clock () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.spawn e (fun () ->
      seen := (Proc.now (), "start") :: !seen;
      Proc.sleep 1.5;
      seen := (Proc.now (), "mid") :: !seen;
      Proc.sleep 2.5;
      seen := (Proc.now (), "end") :: !seen);
  Engine.run e;
  Alcotest.(check (list (pair (float 1e-9) string)))
    "timeline"
    [ (0.0, "start"); (1.5, "mid"); (4.0, "end") ]
    (List.rev !seen);
  Alcotest.(check (float 1e-9)) "final clock" 4.0 (Engine.now e)

let test_two_processes_interleave () =
  let e = Engine.create () in
  let log = ref [] in
  let proc name delay count () =
    for i = 1 to count do
      Proc.sleep delay;
      log := Printf.sprintf "%s%d@%.1f" name i (Proc.now ()) :: !log
    done
  in
  Engine.spawn e (proc "a" 1.0 3);
  Engine.spawn e (proc "b" 1.5 2);
  Engine.run e;
  Alcotest.(check (list string))
    "interleaving"
    (* At the 3.0 tie, b's wakeup was scheduled (at t=1.5) before a's (at
       t=2.0), so FIFO tie-breaking runs b2 first. *)
    [ "a1@1.0"; "b1@1.5"; "a2@2.0"; "b2@3.0"; "a3@3.0" ]
    (List.rev !log)

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.spawn e (fun () ->
      for _ = 1 to 100 do
        Proc.sleep 1.0;
        incr count
      done);
  Engine.run ~until:10.25 e;
  Alcotest.(check int) "events before deadline" 10 !count;
  Alcotest.(check (float 1e-9)) "clock at deadline" 10.25 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest of events run" 100 !count

let test_spawn_within () =
  let e = Engine.create () in
  let result = ref 0.0 in
  Engine.spawn e (fun () ->
      Proc.sleep 2.0;
      Proc.spawn (fun () ->
          Proc.sleep 3.0;
          result := Proc.now ()));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "child inherits clock" 5.0 !result

let test_negative_sleep_raises () =
  let e = Engine.create () in
  let raised = ref false in
  Engine.spawn e (fun () ->
      try Proc.sleep (-1.0) with Invalid_argument _ -> raised := true);
  Engine.run e;
  Alcotest.(check bool) "raised" true !raised

(* A pair for which [a +. (b -. a)] does not round back to [b]: a
   relative [sleep] from [a] cannot land on [b], an absolute one must. *)
let sleep_until_a = 0.26691387214567508
let sleep_until_b = 1.9609081650959415

let test_sleep_until_exact () =
  let a = sleep_until_a and b = sleep_until_b in
  Alcotest.(check bool) "relative sleep would miss" true (a +. (b -. a) <> b);
  let e = Engine.create () in
  let woke = ref nan in
  Engine.spawn e (fun () ->
      Proc.sleep a;
      Proc.sleep_until b;
      woke := Proc.now ());
  Engine.run e;
  Alcotest.(check bool) "wakes at exactly b" true (!woke = b);
  Alcotest.(check bool) "clock ends at b" true (Engine.now e = b)

let test_sleep_until_now () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Proc.sleep sleep_until_a;
      Proc.sleep_until (Proc.now ());
      log := ("self", Proc.now ()) :: !log);
  Engine.spawn_at e sleep_until_a (fun () ->
      log := ("other", Proc.now ()) :: !log);
  Engine.run e;
  (* Waking "now" requeues behind events already due at this time. *)
  Alcotest.(check (list (pair string (float 0.0))))
    "same-time wake runs after queued events"
    [ ("other", sleep_until_a); ("self", sleep_until_a) ]
    (List.rev !log)

let test_sleep_until_past_raises () =
  let e = Engine.create () in
  let raised = ref false and after = ref nan in
  Engine.spawn e (fun () ->
      Proc.sleep 1.0;
      (try Proc.sleep_until 0.5 with Invalid_argument _ -> raised := true);
      after := Proc.now ());
  Engine.run e;
  Alcotest.(check bool) "raised" true !raised;
  Alcotest.(check (float 0.0)) "clock unchanged" 1.0 !after

let test_semaphore_mutual_exclusion () =
  let e = Engine.create () in
  let sem = Sync.Semaphore.create 1 in
  let inside = ref 0 and max_inside = ref 0 in
  let worker () =
    Sync.Semaphore.with_acquired sem (fun () ->
        incr inside;
        max_inside := max !max_inside !inside;
        Proc.sleep 1.0;
        decr inside)
  in
  for _ = 1 to 5 do
    Engine.spawn e worker
  done;
  Engine.run e;
  Alcotest.(check int) "never two inside" 1 !max_inside;
  Alcotest.(check (float 1e-9)) "serialized" 5.0 (Engine.now e)

let test_semaphore_fifo () =
  let e = Engine.create () in
  let sem = Sync.Semaphore.create 0 in
  let order = ref [] in
  for i = 1 to 4 do
    Engine.spawn e (fun () ->
        Proc.sleep (float_of_int i *. 0.1);
        Sync.Semaphore.acquire sem;
        order := i :: !order)
  done;
  Engine.spawn e (fun () ->
      Proc.sleep 1.0;
      Sync.Semaphore.release ~n:4 sem);
  Engine.run e;
  Alcotest.(check (list int)) "fifo wakeup" [ 1; 2; 3; 4 ] (List.rev !order)

let test_semaphore_counted () =
  let e = Engine.create () in
  let sem = Sync.Semaphore.create 3 in
  let t_done = ref 0.0 in
  Engine.spawn e (fun () ->
      Sync.Semaphore.acquire ~n:2 sem;
      Proc.sleep 1.0;
      Sync.Semaphore.release ~n:2 sem);
  Engine.spawn e (fun () ->
      Proc.sleep 0.1;
      (* Needs 2 tokens but only 1 left; waits for the first release. *)
      Sync.Semaphore.acquire ~n:2 sem;
      t_done := Proc.now ());
  Engine.run e;
  Alcotest.(check (float 1e-9)) "waited for release" 1.0 !t_done

let test_condvar_broadcast () =
  let e = Engine.create () in
  let cv = Sync.Condvar.create () in
  let woke = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        Sync.Condvar.wait cv;
        incr woke)
  done;
  Engine.spawn e (fun () ->
      Proc.sleep 1.0;
      Sync.Condvar.broadcast cv);
  Engine.run e;
  Alcotest.(check int) "all woke" 3 !woke

let test_condvar_signal_one () =
  let e = Engine.create () in
  let cv = Sync.Condvar.create () in
  let woke = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        Sync.Condvar.wait cv;
        incr woke)
  done;
  Engine.spawn e (fun () ->
      Proc.sleep 1.0;
      Sync.Condvar.signal cv);
  Engine.run e;
  Alcotest.(check int) "one woke" 1 !woke;
  Alcotest.(check int) "two still waiting" 2 (Sync.Condvar.waiters cv)

let test_mailbox_roundtrip () =
  let e = Engine.create () in
  let mb = Sync.Mailbox.create () in
  let sum = ref 0 in
  Engine.spawn e (fun () ->
      for _ = 1 to 5 do
        sum := !sum + Sync.Mailbox.recv mb
      done);
  Engine.spawn e (fun () ->
      for i = 1 to 5 do
        Proc.sleep 0.5;
        Sync.Mailbox.send mb i
      done);
  Engine.run e;
  Alcotest.(check int) "received all" 15 !sum

let test_mailbox_buffered () =
  let e = Engine.create () in
  let mb = Sync.Mailbox.create () in
  let got = ref [] in
  Engine.spawn e (fun () ->
      Sync.Mailbox.send mb "x";
      Sync.Mailbox.send mb "y";
      Proc.sleep 1.0;
      let first = Sync.Mailbox.recv mb in
      let second = Sync.Mailbox.recv mb in
      got := [ first; second ]);
  Engine.run e;
  Alcotest.(check (list string)) "order preserved" [ "x"; "y" ] !got

let test_ivar () =
  let e = Engine.create () in
  let iv = Sync.Ivar.create () in
  let seen = ref 0 in
  for _ = 1 to 2 do
    Engine.spawn e (fun () -> seen := !seen + Sync.Ivar.read iv)
  done;
  Engine.spawn e (fun () ->
      Proc.sleep 2.0;
      Sync.Ivar.fill iv 21);
  Engine.run e;
  Alcotest.(check int) "both readers" 42 !seen;
  Alcotest.(check bool) "filled" true (Sync.Ivar.is_filled iv)

let test_determinism () =
  let run_once () =
    let e = Engine.create () in
    let log = Buffer.create 64 in
    let r = Iolite_util.Rng.create 99L in
    for i = 1 to 10 do
      Engine.spawn e (fun () ->
          Proc.sleep (Iolite_util.Rng.float r 10.0);
          Buffer.add_string log (Printf.sprintf "%d@%.6f;" i (Proc.now ())))
    done;
    Engine.run e;
    Buffer.contents log
  in
  Alcotest.(check string) "identical traces" (run_once ()) (run_once ())

(* ------------------------------------------------------------------ *)
(* Timer wheel                                                         *)
(* ------------------------------------------------------------------ *)

let test_twheel_basic_fire_order () =
  let w = Twheel.create ~tick:1.0 ~bits:2 ~levels:3 () in
  let fired = ref [] in
  let fire v = fired := v :: !fired in
  ignore (Twheel.add w ~tick:5 "a");
  ignore (Twheel.add w ~tick:3 "b");
  ignore (Twheel.add w ~tick:5 "c");
  ignore (Twheel.add w ~tick:40 "far");
  Alcotest.(check int) "pending" 4 (Twheel.size w);
  Alcotest.(check (option int)) "earliest bound below first expiry" (Some 3)
    (Twheel.next_due_tick w);
  Twheel.advance_to w 4 ~fire;
  Alcotest.(check (list string)) "only b so far" [ "b" ] (List.rev !fired);
  Twheel.advance_to w 10 ~fire;
  Alcotest.(check (list string))
    "ties fire in insertion order" [ "b"; "a"; "c" ] (List.rev !fired);
  Twheel.advance_to w 64 ~fire;
  Alcotest.(check (list string))
    "cross-frame timer cascades and fires" [ "b"; "a"; "c"; "far" ]
    (List.rev !fired);
  Alcotest.(check int) "empty" 0 (Twheel.size w)

let test_twheel_cancel () =
  let w = Twheel.create ~tick:1.0 ~bits:4 ~levels:2 () in
  let h1 = Twheel.add w ~tick:7 "x" in
  let h2 = Twheel.add w ~tick:7 "y" in
  Alcotest.(check bool) "cancel pending" true (Twheel.cancel w h1);
  Alcotest.(check bool) "double cancel refused" false (Twheel.cancel w h1);
  Alcotest.(check bool) "handle inactive" false (Twheel.is_active h1);
  let fired = ref [] in
  Twheel.advance_to w 20 ~fire:(fun v -> fired := v :: !fired);
  Alcotest.(check (list string)) "survivor fires" [ "y" ] !fired;
  Alcotest.(check bool) "cancel after fire refused" false (Twheel.cancel w h2)

let test_twheel_never_early () =
  (* A 1 ms wheel must round fractional deadlines up, never down. *)
  let w = Twheel.create () in
  Alcotest.(check int) "exact tick" 2 (Twheel.tick_of_time w 0.002);
  Alcotest.(check int) "fraction rounds up" 3 (Twheel.tick_of_time w 0.0021);
  Alcotest.(check int) "epsilon below stays put" 2
    (Twheel.tick_of_time w (0.002 -. 1e-12))

let test_twheel_reentrant_insert () =
  (* fire may insert timers at or before the cursor; they run before
     advance_to returns (the engine relies on this for zero-delay
     rescheduling). *)
  let w = Twheel.create ~tick:1.0 ~bits:2 ~levels:2 () in
  let fired = ref [] in
  let fire v =
    fired := v :: !fired;
    if v = "first" then ignore (Twheel.add w ~tick:0 "chained")
  in
  ignore (Twheel.add w ~tick:2 "first");
  Twheel.advance_to w 2 ~fire;
  Alcotest.(check (list string)) "chained timer fired within advance"
    [ "first"; "chained" ] (List.rev !fired)

(* Model test: the wheel against a sorted-list oracle. Tiny levels (4
   slots each) so short random delays constantly cross cascade frame
   boundaries; deltas beyond the horizon exercise top-level clamping. *)

type wop = W_add of int | W_cancel of int | W_advance of int

let wop_gen =
  let open QCheck.Gen in
  frequency
    [
      (5, map (fun d -> W_add d) (0 -- 100));
      (2, map (fun i -> W_cancel i) (0 -- 1000));
      (4, map (fun d -> W_advance d) (0 -- 20));
    ]

let prop_twheel_matches_oracle =
  QCheck.Test.make ~name:"timer wheel matches sorted-list oracle" ~count:400
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 60) wop_gen)
       ~print:(fun ops ->
         String.concat ";"
           (List.map
              (function
                | W_add d -> Printf.sprintf "add+%d" d
                | W_cancel i -> Printf.sprintf "cancel#%d" i
                | W_advance d -> Printf.sprintf "adv+%d" d)
              ops)))
    (fun ops ->
      let w = Twheel.create ~tick:1.0 ~bits:2 ~levels:3 () in
      (* Oracle: live (expiry, seq, value) triples plus the handle, kept
         unsorted; expected fire order is (expiry, seq). *)
      let live = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | W_add d ->
            let tick = Twheel.current_tick w + d in
            let h = Twheel.add w ~tick !seq in
            live := (tick, !seq, h) :: !live;
            incr seq
          | W_cancel i ->
            let n = List.length !live in
            if n > 0 then begin
              let tick, s, h = List.nth !live (i mod n) in
              if not (Twheel.cancel w h) then ok := false;
              live := List.filter (fun (_, s', _) -> s' <> s) !live;
              ignore tick
            end
          | W_advance d ->
            let target = Twheel.current_tick w + d in
            let fired = ref [] in
            Twheel.advance_to w target ~fire:(fun v -> fired := v :: !fired);
            let expected, rest =
              List.partition (fun (t, _, _) -> t <= target) !live
            in
            (* Exactly the due set fires — nothing early, nothing
               stranded — in nondecreasing tick order. (Same-tick
               timers inserted at different cursor positions may
               interleave either way: cascading merges their slot
               lists, so global FIFO only holds within one insertion
               point. The order is still deterministic.) *)
            let got = List.rev !fired in
            let tick_of s =
              match List.find_opt (fun (_, s', _) -> s' = s) expected with
              | Some (t, _, _) -> t
              | None -> -1 (* fired something not due: fail below *)
            in
            if
              List.sort compare got
              <> List.sort compare (List.map (fun (_, s, _) -> s) expected)
            then ok := false;
            let rec nondecreasing = function
              | a :: (b :: _ as tl) ->
                tick_of a <= tick_of b && nondecreasing tl
              | _ -> true
            in
            if not (nondecreasing got) then ok := false;
            live := rest)
        ops;
      if Twheel.size w <> List.length !live then ok := false;
      !ok)

(* ------------------------------------------------------------------ *)
(* Cancelable engine timers                                            *)
(* ------------------------------------------------------------------ *)

let test_engine_timer_quantized_never_early () =
  let e = Engine.create () (* timer wheel, 1 ms tick *) in
  let fired_at = ref (-1.0) in
  let tm =
    Engine.schedule_cancelable e 0.0012 (fun () -> fired_at := Engine.now e)
  in
  Alcotest.(check bool) "pending before run" true (Engine.timer_pending tm);
  Engine.run e;
  Alcotest.(check (float 1e-12)) "fired at the next tick boundary" 0.002
    !fired_at;
  Alcotest.(check bool) "not pending after fire" false (Engine.timer_pending tm)

let test_engine_timer_cancel () =
  let e = Engine.create () in
  let fired = ref [] in
  let t1 = Engine.schedule_cancelable e 0.5 (fun () -> fired := 1 :: !fired) in
  let _t2 = Engine.schedule_cancelable e 1.0 (fun () -> fired := 2 :: !fired) in
  Alcotest.(check int) "two pending" 2 (Engine.pending_timers e);
  Alcotest.(check bool) "cancel live" true (Engine.cancel_timer e t1);
  Alcotest.(check bool) "double cancel refused" false (Engine.cancel_timer e t1);
  Alcotest.(check int) "one pending" 1 (Engine.pending_timers e);
  Engine.run e;
  Alcotest.(check (list int)) "only survivor fired" [ 2 ] !fired;
  Alcotest.(check int) "none pending" 0 (Engine.pending_timers e)

let test_engine_timer_interleaves_with_sleeps () =
  (* Wheel timers and heap sleeps share one virtual clock; order must
     follow deadlines across the two event sources. *)
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Proc.sleep 0.0015;
      log := "sleep" :: !log);
  ignore (Engine.schedule_cancelable e 0.001 (fun () -> log := "t1" :: !log));
  ignore (Engine.schedule_cancelable e 0.0021 (fun () -> log := "t3" :: !log));
  Engine.run e;
  Alcotest.(check (list string))
    "merged order" [ "t1"; "sleep"; "t3" ] (List.rev !log)

let suites =
  [
    ( "sim.heap",
      [
        Alcotest.test_case "order" `Quick test_heap_order;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
      ] );
    ( "sim.twheel",
      [
        Alcotest.test_case "fire order + cascade" `Quick
          test_twheel_basic_fire_order;
        Alcotest.test_case "cancel" `Quick test_twheel_cancel;
        Alcotest.test_case "never early" `Quick test_twheel_never_early;
        Alcotest.test_case "re-entrant insert" `Quick
          test_twheel_reentrant_insert;
        QCheck_alcotest.to_alcotest prop_twheel_matches_oracle;
      ] );
    ( "sim.timer",
      [
        Alcotest.test_case "wheel quantizes up" `Quick
          test_engine_timer_quantized_never_early;
        Alcotest.test_case "cancel" `Quick test_engine_timer_cancel;
        Alcotest.test_case "interleaves with sleeps" `Quick
          test_engine_timer_interleaves_with_sleeps;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "sleep advances clock" `Quick test_sleep_advances_clock;
        Alcotest.test_case "interleaving" `Quick test_two_processes_interleave;
        Alcotest.test_case "run until" `Quick test_run_until;
        Alcotest.test_case "spawn within" `Quick test_spawn_within;
        Alcotest.test_case "negative sleep" `Quick test_negative_sleep_raises;
        Alcotest.test_case "sleep_until exact" `Quick test_sleep_until_exact;
        Alcotest.test_case "sleep_until now" `Quick test_sleep_until_now;
        Alcotest.test_case "sleep_until past raises" `Quick
          test_sleep_until_past_raises;
        Alcotest.test_case "determinism" `Quick test_determinism;
      ] );
    ( "sim.sync",
      [
        Alcotest.test_case "semaphore mutex" `Quick test_semaphore_mutual_exclusion;
        Alcotest.test_case "semaphore fifo" `Quick test_semaphore_fifo;
        Alcotest.test_case "semaphore counted" `Quick test_semaphore_counted;
        Alcotest.test_case "condvar broadcast" `Quick test_condvar_broadcast;
        Alcotest.test_case "condvar signal" `Quick test_condvar_signal_one;
        Alcotest.test_case "mailbox roundtrip" `Quick test_mailbox_roundtrip;
        Alcotest.test_case "mailbox buffered" `Quick test_mailbox_buffered;
        Alcotest.test_case "ivar" `Quick test_ivar;
      ] );
  ]
