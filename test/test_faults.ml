(* The fault-injection subsystem: plan validation, the algorithm-wrapping
   combinator (determinism, state-space hygiene, every fault kind firing
   where it should), starvation pickers, the chaos detection matrix
   (honesty + jobs-independent JSON), and the wall-clock resource guards
   on the runner and model checker. *)

open Lb_shmem
module Fault = Lb_faults.Fault
module Inject = Lb_faults.Inject
module Matrix = Lb_faults.Matrix
module MC = Lb_mutex.Model_check

let p2 = Lb_algos.Peterson2.algorithm
let ya = Lb_algos.Yang_anderson.algorithm
let tas = Lb_algos.Rmw_locks.test_and_set
let plan1 f = { Fault.label = Fault.fault_to_string f; faults = [ f ] }

(* ------------------------------- plans ------------------------------- *)

let test_validate () =
  let ok p = Alcotest.(check bool) "valid" true (Fault.validate ~n:2 p = Ok ()) in
  let bad what p =
    match Fault.validate ~n:2 p with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  ok (plan1 (Fault.Crash { proc = 0; at = Fault.In_section Step.Rem }));
  ok { Fault.label = "control"; faults = [] };
  bad "empty label" { Fault.label = ""; faults = [] };
  bad "uppercase label" { Fault.label = "Bad Label"; faults = [] };
  bad "proc out of range" (plan1 (Fault.Lost_write { proc = 2; nth = 1 }));
  bad "negative proc" (plan1 (Fault.Stale_read { proc = -1; nth = 1 }));
  bad "nth zero" (plan1 (Fault.Lost_write { proc = 0; nth = 0 }));
  bad "after_steps zero" (plan1 (Fault.Crash { proc = 0; at = Fault.After_steps 0 }));
  bad "empty starve window" (plan1 (Fault.Starve { proc = 0; from_ = 3; len = 0 }));
  bad "negative starve start" (plan1 (Fault.Starve { proc = 0; from_ = -1; len = 5 }))

let test_generate_deterministic () =
  let draw seed = Fault.generate (Lb_util.Rng.create seed) ~n:3 in
  let render p =
    p.Fault.label ^ ":"
    ^ String.concat "," (List.map Fault.fault_to_string p.Fault.faults)
  in
  Alcotest.(check string) "same seed, same plan" (render (draw 7)) (render (draw 7));
  (* every generated plan is valid and self-describing *)
  for seed = 0 to 49 do
    let p = draw seed in
    (match Fault.validate ~n:3 p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d generated invalid plan: %s" seed e);
    match p.Fault.faults with
    | [ f ] ->
      Alcotest.(check string) "label names the fault" (Fault.fault_to_string f)
        p.Fault.label
    | _ -> Alcotest.fail "generate must draw exactly one fault"
  done

(* ------------------------------ wrapping ----------------------------- *)

let test_wrap_name_and_validation () =
  let plan = plan1 (Fault.Crash { proc = 0; at = Fault.In_section Step.Rem }) in
  let w = Inject.wrap plan p2 in
  Alcotest.(check string) "name carries the label"
    (p2.Algorithm.name ^ "+" ^ plan.Fault.label)
    w.Algorithm.name;
  (* a plan targeting a process the system doesn't have is rejected at
     spawn time, when n is finally known *)
  let w = Inject.wrap (plan1 (Fault.Lost_write { proc = 5; nth = 1 })) p2 in
  match w.Algorithm.spawn ~n:2 ~me:0 with
  | _ -> Alcotest.fail "expected Invalid_argument at spawn"
  | exception Invalid_argument _ -> ()

let test_empty_plan_preserves_state_space () =
  let bare = MC.explore p2 ~n:2 in
  let ctrl = MC.explore (Inject.wrap { Fault.label = "control"; faults = [] } p2) ~n:2 in
  (match (bare.MC.verdict, ctrl.MC.verdict) with
  | MC.Verified, MC.Verified -> ()
  | _ -> Alcotest.fail "expected verified on both");
  Alcotest.(check int) "states" bare.MC.states ctrl.MC.states;
  Alcotest.(check int) "transitions" bare.MC.transitions ctrl.MC.transitions

let test_wrapped_reprs_deterministic () =
  (* two spawns of the same wrapped process walk identical repr paths *)
  let w = Inject.wrap (plan1 (Fault.Lost_write { proc = 0; nth = 2 })) p2 in
  let walk () =
    let rec go acc p k =
      if k = 0 then List.rev acc
      else
        let resp =
          match p.Proc.pending with
          | Step.Read _ -> Step.Got 0
          | Step.Write _ | Step.Crit _ -> Step.Ack
          | Step.Rmw _ -> Step.Got 0
        in
        let p' = p.Proc.advance resp in
        go (p'.Proc.repr () :: acc) p' (k - 1)
    in
    go [] (w.Algorithm.spawn ~n:2 ~me:0) 8
  in
  Alcotest.(check (list string)) "repr path reproducible" (walk ()) (walk ())

(* ------------------------- crash / recovery -------------------------- *)

let test_crash_at_rem_benign () =
  let w = Inject.wrap (plan1 (Fault.Crash { proc = 0; at = Fault.In_section Step.Rem })) p2 in
  (match (MC.explore w ~n:2).MC.verdict with
  | MC.Verified -> ()
  | v -> Alcotest.failf "rounds=1: %s" (Format.asprintf "%a" MC.pp_verdict v));
  (* the RME scenario proper: restart and complete a full second cycle *)
  match (MC.explore w ~n:2 ~rounds:2).MC.verdict with
  | MC.Verified -> ()
  | v -> Alcotest.failf "rounds=2: %s" (Format.asprintf "%a" MC.pp_verdict v)

let test_crash_mid_protocol_detected () =
  let w = Inject.wrap (plan1 (Fault.Crash { proc = 0; at = Fault.In_section Step.Try })) p2 in
  match (MC.explore w ~n:2).MC.verdict with
  | MC.Ill_formed { trace; who; detail } ->
    Alcotest.(check int) "culprit is the crashed process" 0 who;
    Alcotest.(check bool) "detail non-empty" true (String.length detail > 0);
    (* the witness replays cleanly through the wrapped automata: the
       crash is part of the automaton, not an engine artifact *)
    ignore (Execution.replay w ~n:2 trace)
  | MC.Deadlock _ -> ()
  | v -> Alcotest.failf "undetected: %s" (Format.asprintf "%a" MC.pp_verdict v)

(* --------------------------- register faults ------------------------- *)

let check_detects what w expected =
  match (MC.explore w ~n:2).MC.verdict with
  | v ->
    let got =
      match v with
      | MC.Verified -> "verified"
      | MC.Mutex_violation _ -> "mutex_violation"
      | MC.Deadlock _ -> "deadlock"
      | MC.Ill_formed _ -> "ill_formed"
      | MC.Bound_exceeded _ -> "bound_exceeded"
      | MC.Deadline_exceeded _ -> "deadline_exceeded"
      | MC.Mem_exceeded _ -> "mem_exceeded"
    in
    if not (List.mem got expected) then
      Alcotest.failf "%s: got %s, expected one of [%s]" what got
        (String.concat "; " expected)

let test_register_faults_detected () =
  check_detects "lost flag write"
    (Inject.wrap (plan1 (Fault.Lost_write { proc = 0; nth = 1 })) p2)
    [ "mutex_violation" ];
  check_detects "stale read"
    (Inject.wrap (plan1 (Fault.Stale_read { proc = 0; nth = 1 })) p2)
    [ "mutex_violation" ];
  check_detects "corrupt write, in-domain"
    (Inject.wrap (plan1 (Fault.Corrupt_write { proc = 0; nth = 1; off_domain = false })) p2)
    [ "mutex_violation" ];
  check_detects "corrupt write, off-domain"
    (Inject.wrap (plan1 (Fault.Corrupt_write { proc = 0; nth = 2; off_domain = true })) p2)
    [ "mutex_violation" ];
  check_detects "lost release on tas"
    (Inject.wrap (plan1 (Fault.Lost_write { proc = 0; nth = 1 })) tas)
    [ "deadlock" ]

let test_mutex_violation_witness_replays () =
  let w = Inject.wrap (plan1 (Fault.Stale_read { proc = 0; nth = 1 })) p2 in
  match (MC.explore w ~n:2).MC.verdict with
  | MC.Mutex_violation trace ->
    ignore (Execution.replay w ~n:2 trace);
    (match Lb_mutex.Checker.check ~n:2 trace with
    | Error (Lb_mutex.Checker.Mutex_violated _) -> ()
    | Ok () -> Alcotest.fail "checker disagrees with the model checker"
    | Error (Lb_mutex.Checker.Not_well_formed _) ->
      Alcotest.fail "witness should violate mutex, not well-formedness")
  | v -> Alcotest.failf "expected a violation: %s" (Format.asprintf "%a" MC.pp_verdict v)

(* ----------------------- starvation + resource guards ---------------- *)

let test_starve_out_of_fuel_replayable () =
  (* starving the lock holder forever: the other process burns the step
     budget spinning, and the partial execution must replay cleanly *)
  let picker =
    Inject.starve
      [ Fault.Starve { proc = 0; from_ = 5; len = 1_000_000 } ]
      (Runner.round_robin ())
  in
  match Runner.run tas ~n:2 ~max_steps:4_000 picker with
  | _ -> Alcotest.fail "expected Out_of_fuel"
  | exception Runner.Out_of_fuel partial ->
    Alcotest.(check int) "fuel exhausted exactly" 4_000 (Execution.length partial);
    ignore (Execution.replay tas ~n:2 partial)

let test_stuck_on_faulty_deadlock () =
  (* a lost release really deadlocks a concrete schedule: the spin loop
     can never change state again and round_robin reports Stuck *)
  let w = Inject.wrap (plan1 (Fault.Lost_write { proc = 0; nth = 1 })) tas in
  match Runner.run w ~n:2 (Runner.round_robin ()) with
  | _ -> Alcotest.fail "expected Stuck"
  | exception Runner.Stuck -> ()
  | exception Runner.Out_of_fuel _ -> Alcotest.fail "expected Stuck, not fuel"

let test_runner_deadline () =
  (* an already-expired deadline still yields a replayable partial *)
  let picker _view = Some 0 in
  match Runner.run tas ~n:2 ~deadline:(-1.0) picker with
  | _ -> Alcotest.fail "expected Deadline_exceeded"
  | exception Runner.Deadline_exceeded partial ->
    ignore (Execution.replay tas ~n:2 partial)

let test_model_check_deadline () =
  match (MC.explore ya ~n:3 ~deadline:(-1.0)).MC.verdict with
  | MC.Deadline_exceeded states ->
    Alcotest.(check bool) "partial statistics sane" true (states >= 0)
  | v -> Alcotest.failf "expected deadline: %s" (Format.asprintf "%a" MC.pp_verdict v)

(* --------------------------- detection matrix ------------------------ *)

let quick_cells =
  [
    { Matrix.algo = "peterson2"; n = 2;
      plan = { Fault.label = "none"; faults = [] };
      engine = Matrix.Model_check { rounds = 1 }; expect = Matrix.Benign };
    { Matrix.algo = "peterson2"; n = 2;
      plan = plan1 (Fault.Stale_read { proc = 0; nth = 1 });
      engine = Matrix.Model_check { rounds = 1 };
      expect = Matrix.Detects [ "mutex_violation" ] };
    { Matrix.algo = "tas"; n = 2;
      plan = plan1 (Fault.Lost_write { proc = 0; nth = 1 });
      engine = Matrix.Model_check { rounds = 1 };
      expect = Matrix.Detects [ "deadlock" ] };
    { Matrix.algo = "broken_spinlock"; n = 2;
      plan = { Fault.label = "none"; faults = [] };
      engine = Matrix.Model_check { rounds = 1 };
      expect = Matrix.Detects [ "mutex_violation" ] };
  ]

let test_matrix_quick_honest_and_deterministic () =
  let seq = Matrix.run ~jobs:1 quick_cells in
  let par = Matrix.run ~jobs:4 quick_cells in
  Alcotest.(check bool) "honest" true seq.Matrix.honest;
  Alcotest.(check int) "all cells pass" (List.length quick_cells) seq.Matrix.passed;
  Alcotest.(check string) "JSON independent of job count"
    (Matrix.to_json seq) (Matrix.to_json par)

let test_matrix_shipped_honest () =
  let m = Matrix.run Matrix.shipped in
  if not m.Matrix.honest then
    Alcotest.failf "shipped matrix dishonest:\n%s"
      (Format.asprintf "%a" Matrix.pp m);
  Alcotest.(check int) "every shipped cell passes"
    (List.length Matrix.shipped) m.Matrix.passed;
  Alcotest.(check string) "shipped JSON independent of job count"
    (Matrix.to_json (Matrix.run ~jobs:1 Matrix.shipped))
    (Matrix.to_json m)

let test_matrix_fuzz_no_engine_errors () =
  let cells = Matrix.random_cells ~seed:11 ~count:12 in
  Alcotest.(check int) "count honoured" 12 (List.length cells);
  let render c =
    Printf.sprintf "%s+%s" c.Matrix.algo c.Matrix.plan.Fault.label
  in
  Alcotest.(check (list string)) "cells reproducible from seed"
    (List.map render (Matrix.random_cells ~seed:11 ~count:12))
    (List.map render cells);
  let m = Matrix.run cells in
  List.iter
    (fun r ->
      if not r.Matrix.ok then
        Alcotest.failf "engine error on %s: %s" (render r.Matrix.cell)
          r.Matrix.outcome)
    m.Matrix.rows

let suite =
  [
    Alcotest.test_case "plan validation" `Quick test_validate;
    Alcotest.test_case "generate deterministic + valid" `Quick
      test_generate_deterministic;
    Alcotest.test_case "wrap name + spawn-time validation" `Quick
      test_wrap_name_and_validation;
    Alcotest.test_case "empty plan preserves state space" `Quick
      test_empty_plan_preserves_state_space;
    Alcotest.test_case "wrapped reprs deterministic" `Quick
      test_wrapped_reprs_deterministic;
    Alcotest.test_case "crash at rem benign (RME recovery)" `Quick
      test_crash_at_rem_benign;
    Alcotest.test_case "crash mid-protocol detected" `Quick
      test_crash_mid_protocol_detected;
    Alcotest.test_case "register faults detected" `Quick
      test_register_faults_detected;
    Alcotest.test_case "violation witness replays" `Quick
      test_mutex_violation_witness_replays;
    Alcotest.test_case "starvation burns fuel, partial replays" `Quick
      test_starve_out_of_fuel_replayable;
    Alcotest.test_case "faulty deadlock raises Stuck" `Quick
      test_stuck_on_faulty_deadlock;
    Alcotest.test_case "runner deadline partial replays" `Quick
      test_runner_deadline;
    Alcotest.test_case "model check deadline verdict" `Quick
      test_model_check_deadline;
    Alcotest.test_case "matrix quick cells honest + jobs-stable" `Quick
      test_matrix_quick_honest_and_deterministic;
    Alcotest.test_case "matrix shipped honest" `Slow test_matrix_shipped_honest;
    Alcotest.test_case "matrix fuzz: no engine errors" `Slow
      test_matrix_fuzz_no_engine_errors;
  ]
