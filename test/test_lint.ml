(* The static analyzer: every seeded defect class is detected with a
   witness, the registry is lint-clean modulo its expected-findings
   allowlist, the report is identical at every job count, and the
   pre-PR-2 yang_anderson "rt2" repr collision is caught statically. *)

open Lb_shmem
module Driver = Lb_analysis.Driver
module Finding = Lb_analysis.Finding

(* ---------------------- deliberately-defective fixtures -------------- *)

(* Small hand-rolled automata over integer states. Each is a registry-
   shaped Algorithm.t, so the analyzer sees exactly what it would see
   for a real algorithm. *)
let fixture ~name ?kind ~registers ~pending ~advance ~repr () =
  let module S = struct
    type state = int

    let initial ~n:_ ~me:_ = 0
    let pending ~n:_ ~me:_ st = pending st
    let advance ~n:_ ~me:_ st resp = advance st resp
    let repr = repr
  end in
  let module Sp = Proc.Make_spawn (S) in
  Lb_algos.Common.make ~name ~description:"lint test fixture" ?kind
    ~registers ~spawn:Sp.spawn ()

let one_lock ~n:_ = [| Register.spec ~domain:(0, 1) "lock" |]

(* Two observably different states both named "gate": state 1 pends
   W lock:=1, state 2 pends W lock:=0. *)
let collide =
  fixture ~name:"fix_collide" ~registers:one_lock
    ~pending:(function
      | 0 -> Step.Crit Step.Try
      | 1 -> Step.Write (0, 1)
      | _ -> Step.Write (0, 0))
    ~advance:(fun st _ -> match st with 0 -> 1 | 1 -> 2 | _ -> 1)
    ~repr:(function 0 -> "start" | _ -> "gate")
    ()

(* Writes 7 into a register declared over [0, 1]. *)
let domain_breaker =
  fixture ~name:"fix_domain" ~registers:one_lock
    ~pending:(function
      | 0 -> Step.Crit Step.Try
      | 1 -> Step.Write (0, 7)
      | 2 -> Step.Crit Step.Enter
      | 3 -> Step.Crit Step.Exit
      | _ -> Step.Crit Step.Rem)
    ~advance:(fun st _ -> (st + 1) mod 5)
    ~repr:(fun st -> Printf.sprintf "s%d" st)
    ()

(* A test-and-set lock that forgets to declare kind = Uses_rmw. *)
let dishonest_tas =
  fixture ~name:"fix_dishonest" ~registers:one_lock
    ~pending:(function
      | 0 -> Step.Crit Step.Try
      | 1 -> Step.Rmw (0, Step.Test_and_set)
      | 2 -> Step.Crit Step.Enter
      | 3 -> Step.Crit Step.Exit
      | 4 -> Step.Write (0, 0)
      | _ -> Step.Crit Step.Rem)
    ~advance:(fun st resp ->
      match (st, resp) with
      | 1, Step.Got 0 -> 2
      | 1, _ -> 1
      | 5, _ -> 0
      | st, _ -> st + 1)
    ~repr:(fun st -> Printf.sprintf "s%d" st)
    ()

(* Pure read/write automaton declared Uses_rmw. *)
let dead_rmw_claim =
  fixture ~name:"fix_dead_rmw" ~kind:Algorithm.Uses_rmw ~registers:one_lock
    ~pending:(function
      | 0 -> Step.Crit Step.Try
      | 1 -> Step.Write (0, 1)
      | 2 -> Step.Crit Step.Enter
      | 3 -> Step.Crit Step.Exit
      | _ -> Step.Crit Step.Rem)
    ~advance:(fun st _ -> (st + 1) mod 5)
    ~repr:(fun st -> Printf.sprintf "s%d" st)
    ()

(* Spins on a register whose whole response set (domain [0,0], no
   writer anywhere) loops back: the busy-wait can never escape, and the
   critical section is unreachable. *)
let stuck =
  fixture ~name:"fix_stuck"
    ~registers:(fun ~n:_ -> [| Register.spec ~domain:(0, 0) "cond" |])
    ~pending:(function 0 -> Step.Crit Step.Try | _ -> Step.Read 0)
    ~advance:(fun st _ -> match st with 0 -> 1 | st -> st)
    ~repr:(function 0 -> "start" | _ -> "wait")
    ()

(* First step is a write, not the protocol's try step. *)
let not_try =
  fixture ~name:"fix_not_try" ~registers:one_lock
    ~pending:(function
      | 0 -> Step.Write (0, 1)
      | 1 -> Step.Crit Step.Enter
      | 2 -> Step.Crit Step.Exit
      | _ -> Step.Crit Step.Rem)
    ~advance:(fun st _ -> (st + 1) mod 4)
    ~repr:(fun st -> Printf.sprintf "s%d" st)
    ()

(* Reads register 5 of a 1-register file. *)
let oob =
  fixture ~name:"fix_oob" ~registers:one_lock
    ~pending:(function 0 -> Step.Crit Step.Try | _ -> Step.Read 5)
    ~advance:(fun st _ -> match st with 0 -> 1 | st -> st)
    ~repr:(fun st -> Printf.sprintf "s%d" st)
    ()

(* ------------------------------ helpers ------------------------------ *)

let lint ?(sizes = [ 2 ]) ?(allow = fun _ -> []) algos =
  Driver.run ~sizes ~jobs:1 ~allow algos

let findings report = List.map fst report.Driver.findings

let find_rule report rule =
  List.find_opt (fun (f : Finding.t) -> f.rule = rule) (findings report)

let check_detects label algo rule ~witness =
  let report = lint [ algo ] in
  match find_rule report rule with
  | None ->
    Alcotest.failf "%s: expected %s among [%s]" label rule
      (String.concat "; "
         (List.map (fun (f : Finding.t) -> f.rule) (findings report)))
  | Some f ->
    if witness then
      Alcotest.(check bool)
        (label ^ " has witness")
        true (Option.is_some f.witness)

(* ------------------------- fixture detection ------------------------- *)

let test_collide () =
  check_detects "collide" collide "repr-soundness/collision" ~witness:true;
  let report = lint [ collide ] in
  match find_rule report "repr-soundness/collision" with
  | Some { witness = Some w; _ } ->
    Alcotest.(check string) "collision target" "gate" w.Finding.target
  | _ -> Alcotest.fail "collision witness missing"

let test_domain_breaker () =
  check_detects "domain" domain_breaker
    "register-discipline/domain-violation" ~witness:true

let test_dishonest_tas () =
  check_detects "dishonest" dishonest_tas "kind-honesty/undeclared-rmw"
    ~witness:true

let test_dead_rmw_claim () =
  check_detects "dead rmw" dead_rmw_claim "kind-honesty/dead-rmw-claim"
    ~witness:false

let test_stuck () =
  check_detects "stuck spin" stuck "liveness-shape/stuck-spin" ~witness:true;
  check_detects "missing cs" stuck "liveness-shape/missing-critical-section"
    ~witness:false

let test_not_try () =
  check_detects "not try" not_try "liveness-shape/initial-not-try"
    ~witness:false

let test_oob () =
  check_detects "oob" oob "register-discipline/out-of-bounds" ~witness:true

(* A correct fixture-sized algorithm stays clean (no fixture noise). *)
let test_clean_fixture () =
  let report = lint [ Lb_algos.Registry.find_exn "peterson2" ] in
  Alcotest.(check (list string)) "no findings" []
    (List.map (fun (f : Finding.t) -> f.rule) (Driver.failures report))

(* ----------------------- rt2 collision regression -------------------- *)

(* yang_anderson's repr before PR 2 rendered the Read_t rival-pid state
   as "rt<r>", colliding with the distinct Read_t2 state "rt2". PR 2
   fixed it dynamically (model-checker state counts changed); the lint
   pass must catch the same defect statically, from the automaton
   alone. *)
module Prefix_state = struct
  include Lb_algos.Yang_anderson.State

  let repr (st : state) =
    match st with
    | Entry { k; epc = Read_t r } -> Printf.sprintf "e%d:rt%d" k r
    | st -> Lb_algos.Yang_anderson.State.repr st
end

module Prefix_spawn = Proc.Make_spawn (Prefix_state)

let ya_prefix =
  {
    Lb_algos.Yang_anderson.algorithm with
    name = "ya_prefix";
    spawn = Prefix_spawn.spawn;
  }

let test_ya_prefix_collision () =
  let report = lint ~sizes:[ 2 ] [ ya_prefix ] in
  match find_rule report "repr-soundness/collision" with
  | Some ({ witness = Some w; _ } as f) ->
    Alcotest.(check string) "algo" "ya_prefix" f.algo;
    Alcotest.(check string) "colliding repr" "e1:rt2" w.Finding.target
  | _ -> Alcotest.fail "pre-fix rt2 collision not detected"

(* ... and the fixed repr really is collision-free. *)
let test_ya_current_clean () =
  let report = lint ~sizes:[ 2; 3 ] [ Lb_algos.Yang_anderson.algorithm ] in
  Alcotest.(check (option Alcotest.reject)) "no collision" None
    (Option.map ignore (find_rule report "repr-soundness/collision"))

(* --------------------------- registry gate --------------------------- *)

let test_registry_clean_modulo_allowlist () =
  let report =
    lint ~sizes:Driver.default_sizes
      ~allow:Lb_algos.Registry.expected_findings Lb_algos.Registry.all
  in
  Alcotest.(check (list string)) "unexpected findings" []
    (List.map (fun (f : Finding.t) -> f.rule) (Driver.failures report));
  let suppressed = List.filter snd report.Driver.findings in
  Alcotest.(check bool) "allowlist actually suppresses something" true
    (List.length suppressed >= 1);
  (* the faulty controls really do produce their expected findings *)
  Alcotest.(check bool) "broken_spinlock racy finding present" true
    (List.exists
       (fun ((f : Finding.t), _) ->
         f.algo = "broken_spinlock"
         && f.rule = "register-discipline/racy-test-then-set")
       report.Driver.findings)

let test_registry_deterministic_across_jobs () =
  let run jobs =
    Driver.run ~sizes:[ 2; 3 ] ~jobs
      ~allow:Lb_algos.Registry.expected_findings Lb_algos.Registry.all
  in
  let json jobs = Lb_util.Json.to_string (Driver.to_json (run jobs)) in
  Alcotest.(check string) "jobs=1 = jobs=4" (json 1) (json 4)

(* ----------------------- Register.spec validation -------------------- *)

let check_invalid label f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label

let test_spec_validation () =
  check_invalid "empty name" (fun () -> Register.spec "");
  check_invalid "negative init" (fun () -> Register.spec ~init:(-1) "r");
  check_invalid "negative domain" (fun () ->
      Register.spec ~domain:(-1, 3) "r");
  check_invalid "empty domain" (fun () -> Register.spec ~domain:(2, 1) "r");
  check_invalid "init outside domain" (fun () ->
      Register.spec ~init:5 ~domain:(0, 3) "r");
  let s = Register.spec ~init:2 ~domain:(1, 4) "r" in
  Alcotest.(check bool) "in_domain lo" true (Register.in_domain s 1);
  Alcotest.(check bool) "in_domain hi" true (Register.in_domain s 4);
  Alcotest.(check bool) "out below" false (Register.in_domain s 0);
  Alcotest.(check bool) "out above" false (Register.in_domain s 5);
  Alcotest.(check (list int)) "domain_values" [ 1; 2; 3; 4 ]
    (Option.get (Register.domain_values s));
  let unbounded = Register.spec "u" in
  Alcotest.(check bool) "unbounded nonneg" true
    (Register.in_domain unbounded 1_000_000);
  Alcotest.(check bool) "unbounded negative" false
    (Register.in_domain unbounded (-1));
  Alcotest.(check (option (list int))) "unbounded has no finite domain" None
    (Register.domain_values unbounded)

(* ----------------------- pipeline RMW refusal ------------------------ *)

let test_pipeline_refuses_rmw () =
  let tas = Lb_algos.Registry.find_exn "tas" in
  let pi = Lb_core.Permutation.of_array [| 1; 0 |] in
  check_invalid "Pipeline.run" (fun () ->
      ignore (Lb_core.Pipeline.run tas ~n:2 pi));
  check_invalid "Pipeline.certify" (fun () ->
      ignore (Lb_core.Pipeline.certify tas ~n:2 ~perms:[ pi ] ()));
  (match Lb_core.Pipeline.run tas ~n:2 pi with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the lint rule" true
      (Astring_contains.contains msg "kind-honesty/undeclared-rmw")
  | _ -> Alcotest.fail "expected Invalid_argument");
  (* registers-only algorithms still pass *)
  ignore
    (Lb_core.Pipeline.run (Lb_algos.Registry.find_exn "peterson2") ~n:2 pi)

let suite =
  [
    Alcotest.test_case "fixture: repr collision" `Quick test_collide;
    Alcotest.test_case "fixture: domain violation" `Quick test_domain_breaker;
    Alcotest.test_case "fixture: undeclared rmw" `Quick test_dishonest_tas;
    Alcotest.test_case "fixture: dead rmw claim" `Quick test_dead_rmw_claim;
    Alcotest.test_case "fixture: stuck spin" `Quick test_stuck;
    Alcotest.test_case "fixture: initial not try" `Quick test_not_try;
    Alcotest.test_case "fixture: out of bounds" `Quick test_oob;
    Alcotest.test_case "clean algorithm stays clean" `Quick test_clean_fixture;
    Alcotest.test_case "regression: pre-fix ya rt2 collision" `Quick
      test_ya_prefix_collision;
    Alcotest.test_case "current ya repr is collision-free" `Quick
      test_ya_current_clean;
    Alcotest.test_case "registry clean modulo allowlist" `Slow
      test_registry_clean_modulo_allowlist;
    Alcotest.test_case "report deterministic across jobs" `Slow
      test_registry_deterministic_across_jobs;
    Alcotest.test_case "Register.spec validation" `Quick test_spec_validation;
    Alcotest.test_case "pipeline refuses Uses_rmw" `Quick
      test_pipeline_refuses_rmw;
  ]
