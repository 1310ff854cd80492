open Lb_shmem

(* A tiny hand-rolled algorithm for engine tests: each process writes its
   pid to a shared register and reads it back; process 0 additionally
   busy-waits on a flag that the last process raises after its critical
   section, exercising the state-preserving-read path without any risk of
   deadlock (the last process never blocks). NOT a mutex algorithm. *)
module Toy = struct
  type pc = Start | W | R | Spin | Enter | In_cs | Raise_flag | Rem

  type state = pc

  let initial ~n:_ ~me:_ = Start

  let pending ~n:_ ~me st : Step.action =
    match st with
    | Start -> Step.Crit Step.Try
    | W -> Step.Write (0, me + 1)
    | R -> Step.Read 0
    | Spin -> Step.Read 1
    | Enter -> Step.Crit Step.Enter
    | In_cs -> Step.Crit Step.Exit
    | Raise_flag -> Step.Write (1, 1)
    | Rem -> Step.Crit Step.Rem

  let advance ~n ~me st resp : state =
    match st with
    | Start -> W
    | W -> R
    | R ->
      ignore resp;
      if me = 0 && n > 1 then Spin else Enter
    | Spin -> (
      match resp with
      | Step.Got 1 -> Enter
      | Step.Got _ -> Spin
      | Step.Ack -> invalid_arg "toy")
    | Enter -> In_cs
    | In_cs -> if me = n - 1 && n > 1 then Raise_flag else Rem
    | Raise_flag -> Rem
    | Rem -> Start

  let repr = function
    | Start -> "s"
    | W -> "w"
    | R -> "r"
    | Spin -> "sp"
    | Enter -> "e"
    | In_cs -> "c"
    | Raise_flag -> "f"
    | Rem -> "x"
end

module Toy_spawn = Proc.Make_spawn (Toy)

let toy =
  {
    Algorithm.name = "toy";
    description = "engine test automaton";
    kind = Algorithm.Registers_only;
    registers = (fun ~n:_ -> [| Register.spec "shared"; Register.spec "flag" |]);
    spawn = Toy_spawn.spawn;
    max_n = None;
  }

let step = Step.step

(* ------------------------------ Step ------------------------------- *)

let test_step_predicates () =
  Alcotest.(check bool) "read is shared" true (Step.is_shared_access (Step.Read 0));
  Alcotest.(check bool) "write is shared" true (Step.is_shared_access (Step.Write (0, 1)));
  Alcotest.(check bool) "rmw is shared" true
    (Step.is_shared_access (Step.Rmw (0, Step.Test_and_set)));
  Alcotest.(check bool) "crit not shared" false (Step.is_shared_access (Step.Crit Step.Try));
  Alcotest.(check bool) "rmw not register" false
    (Step.is_register_action (Step.Rmw (0, Step.Test_and_set)));
  Alcotest.(check (option int)) "reg of read" (Some 3) (Step.reg_of (Step.Read 3));
  Alcotest.(check (option int)) "reg of crit" None (Step.reg_of (Step.Crit Step.Rem))

let test_step_strings () =
  Alcotest.(check string) "read" "p1:read(r2)" (Step.to_string (step 1 (Step.Read 2)));
  Alcotest.(check string) "write" "p0:write(r1,5)" (Step.to_string (step 0 (Step.Write (1, 5))));
  Alcotest.(check string) "crit" "p2:enter" (Step.to_string (step 2 (Step.Crit Step.Enter)));
  (* the bytes every fingerprint digests; pp prints the same *)
  List.iter
    (fun (expected, s) ->
      Alcotest.(check string) expected expected (Step.to_string s);
      Alcotest.(check string) (expected ^ " via pp") expected
        (Format.asprintf "%a" Step.pp s))
    [
      ("p0:rmw(r1,tas)", step 0 (Step.Rmw (1, Step.Test_and_set)));
      ("p3:rmw(r0,fadd(-2))", step 3 (Step.Rmw (0, Step.Fetch_add (-2))));
      ("p1:rmw(r4,swap(7))", step 1 (Step.Rmw (4, Step.Swap 7)));
      ( "p2:rmw(r5,cas(0,1))",
        step 2 (Step.Rmw (5, Step.Cas { expect = 0; replace = 1 })) );
      ("p12:write(r10,-3)", step 12 (Step.Write (10, -3)));
      ("p0:try", step 0 (Step.Crit Step.Try));
    ];
  Alcotest.(check string) "crit names" "try exit rem"
    (String.concat " " (List.map Step.crit_name [ Step.Try; Step.Exit; Step.Rem ]))

(* ----------------------------- Register ----------------------------- *)

let test_register () =
  let specs = [| Register.spec ~init:7 "a"; Register.spec ~home:1 "b" |] in
  Alcotest.(check (array int)) "initials" [| 7; 0 |] (Register.initial_values specs);
  Alcotest.(check string) "name" "b" (Register.name specs 1);
  Alcotest.(check string) "fallback name" "r9" (Register.name specs 9);
  Alcotest.(check (option int)) "home" (Some 1) specs.(1).Register.home;
  Alcotest.(check (option int)) "no home" None specs.(0).Register.home

(* ------------------------------ System ------------------------------ *)

let test_system_init () =
  let sys = System.init toy ~n:3 in
  Alcotest.(check int) "n" 3 sys.System.n;
  Alcotest.(check (array int)) "regs" [| 0; 0 |] sys.System.regs;
  Alcotest.(check string) "initial repr" "s" (System.state_repr sys 0)

let test_system_apply () =
  let sys = System.init toy ~n:2 in
  let o = System.apply sys (step 0 (Step.Crit Step.Try)) in
  Alcotest.(check bool) "crit changes state" true o.System.state_changed;
  let o = System.apply sys (step 0 (Step.Write (0, 1))) in
  Alcotest.(check bool) "write changed state" true o.System.state_changed;
  Alcotest.(check int) "register updated" 1 sys.System.regs.(0);
  let o = System.apply sys (step 0 (Step.Read 0)) in
  Alcotest.(check bool) "read response" true (o.System.response = Step.Got 1)

let test_system_mismatch () =
  let sys = System.init toy ~n:2 in
  match System.apply sys (step 0 (Step.Read 0)) with
  | _ -> Alcotest.fail "expected mismatch"
  | exception System.Step_mismatch { who; _ } -> Alcotest.(check int) "who" 0 who

let test_spin_keeps_state () =
  let sys = System.init toy ~n:2 in
  (* run p0 to its spin: try, write, read *)
  List.iter
    (fun a -> ignore (System.apply sys (step 0 a)))
    [ Step.Crit Step.Try; Step.Write (0, 1); Step.Read 0 ];
  Alcotest.(check string) "spinning" "sp" (System.state_repr sys 0);
  (* the flag register is still 0, so the spin read is a no-op *)
  Alcotest.(check bool) "would not change" false (System.would_change_state sys 0);
  let o = System.apply sys (step 0 (Step.Read 1)) in
  Alcotest.(check bool) "spin read keeps state" false o.System.state_changed;
  Alcotest.(check bool) "peek wake value" true (System.peek_after_read sys 0 1);
  Alcotest.(check bool) "peek spin value" false (System.peek_after_read sys 0 0)

let test_system_copy () =
  let sys = System.init toy ~n:2 in
  ignore (System.apply sys (step 0 (Step.Crit Step.Try)));
  let c = System.copy sys in
  ignore (System.apply c (step 0 (Step.Write (0, 1))));
  Alcotest.(check int) "original regs untouched" 0 sys.System.regs.(0);
  Alcotest.(check string) "original proc untouched" "w" (System.state_repr sys 0)

let test_rmw_semantics () =
  let tas = Lb_algos.Rmw_locks.test_and_set in
  let sys = System.init tas ~n:2 in
  ignore (System.apply sys (step 0 (Step.Crit Step.Try)));
  let o = System.apply sys (step 0 (Step.Rmw (0, Step.Test_and_set))) in
  Alcotest.(check bool) "tas returns old 0" true (o.System.response = Step.Got 0);
  Alcotest.(check int) "lock set" 1 sys.System.regs.(0)

(* ----------------------------- Execution ----------------------------- *)

let toy_exec_n2 () =
  (* a full run: p1 writes pid 2 so p0's spin can finish *)
  Execution.of_steps
    [
      step 0 (Step.Crit Step.Try);
      step 0 (Step.Write (0, 1));
      step 0 (Step.Read 0);
      step 1 (Step.Crit Step.Try);
      step 1 (Step.Write (0, 2));
      step 1 (Step.Read 0);
      step 1 (Step.Crit Step.Enter);
      step 1 (Step.Crit Step.Exit);
      step 1 (Step.Write (1, 1));
      step 1 (Step.Crit Step.Rem);
      step 0 (Step.Read 1);
      step 0 (Step.Crit Step.Enter);
      step 0 (Step.Crit Step.Exit);
      step 0 (Step.Crit Step.Rem);
    ]

let test_execution_replay () =
  let exec = toy_exec_n2 () in
  let sys = Execution.replay toy ~n:2 exec in
  Alcotest.(check string) "p0 back at start" "s" (System.state_repr sys 0);
  Alcotest.(check string) "p1 back at start" "s" (System.state_repr sys 1)

let test_execution_projection () =
  let exec = toy_exec_n2 () in
  let projs = Execution.projections exec ~n:2 in
  Alcotest.(check int) "p0 projection" 7 (List.length projs.(0));
  Alcotest.(check int) "p1 projection" 7 (List.length projs.(1));
  Alcotest.(check bool) "p0's steps, in order" true
    (List.equal Step.equal projs.(0)
       (List.filter (fun (s : Step.t) -> s.Step.who = 0) (Execution.steps exec)));
  Alcotest.(check (list int)) "steps of processes >= n are dropped" [ 7 ]
    (Array.to_list (Array.map List.length (Execution.projections exec ~n:1)))

let test_execution_crit_order () =
  let exec = toy_exec_n2 () in
  Alcotest.(check (list int)) "enter order" [ 1; 0 ] (Execution.crit_order exec);
  Alcotest.(check (array int)) "rem counts" [| 1; 1 |] (Execution.count_crit exec Step.Rem)

let test_execution_equal_fingerprint () =
  let a = toy_exec_n2 () and b = toy_exec_n2 () in
  Alcotest.(check bool) "equal" true (Execution.equal a b);
  Alcotest.(check string) "same fingerprint" (Execution.fingerprint a) (Execution.fingerprint b);
  Execution.append b (step 0 (Step.Crit Step.Try));
  Alcotest.(check bool) "not equal" false (Execution.equal a b);
  Alcotest.(check bool) "different fingerprint" true
    (Execution.fingerprint a <> Execution.fingerprint b)

let test_execution_prefix_replay () =
  let exec = toy_exec_n2 () in
  let sys = Execution.replay_prefix toy ~n:2 exec ~len:2 in
  Alcotest.(check string) "p0 at read" "r" (System.state_repr sys 0);
  Execution.replay_onto sys exec ~from:2;
  Alcotest.(check string) "complete" "s" (System.state_repr sys 0)

(* ------------------------------ Runner ------------------------------- *)

let test_runner_round_robin () =
  let exec, _sys = Runner.run toy ~n:3 (Runner.round_robin ()) in
  let sections = Execution.count_crit exec Step.Rem in
  Alcotest.(check (array int)) "all done" [| 1; 1; 1 |] sections

let test_runner_random () =
  let rng = Lb_util.Rng.create 99 in
  let exec, _sys = Runner.run toy ~n:3 (Runner.random rng ()) in
  Alcotest.(check (array int)) "all done" [| 1; 1; 1 |] (Execution.count_crit exec Step.Rem)

let test_runner_sc_greedy () =
  let exec, _sys =
    Runner.run toy ~n:3 (Runner.sc_greedy ~order:[| 0; 1; 2 |])
  in
  Alcotest.(check (array int)) "all done" [| 1; 1; 1 |] (Execution.count_crit exec Step.Rem);
  (* greedy never schedules a state-preserving read *)
  let charged = Lb_cost.State_change.charged_steps toy ~n:3 exec in
  let steps = Execution.steps exec in
  List.iteri
    (fun i (s : Step.t) ->
      if Step.is_shared_access s.Step.action && not charged.(i) then
        Alcotest.failf "uncharged shared access at %d" i)
    steps

let test_runner_fuel () =
  (* a picker that always schedules p0's spin loops forever *)
  match
    Runner.run toy ~n:2 ~max_steps:50 (fun view ->
        ignore view;
        Some 0)
  with
  | _ -> Alcotest.fail "expected Out_of_fuel"
  | exception Runner.Out_of_fuel partial ->
    Alcotest.(check int) "partial length" 50 (Execution.length partial);
    (* the partial execution is a legitimate prefix: it replays *)
    ignore (Execution.replay toy ~n:2 partial)

let test_runner_deadline () =
  (* an expired wall-clock budget degrades to a replayable partial
     execution instead of running away *)
  match
    Runner.run toy ~n:2 ~deadline:(-1.0) (fun view ->
        ignore view;
        Some 0)
  with
  | _ -> Alcotest.fail "expected Deadline_exceeded"
  | exception Runner.Deadline_exceeded partial ->
    ignore (Execution.replay toy ~n:2 partial);
    (* the clock is polled every few hundred steps, so the overrun on an
       already-expired deadline is bounded by one polling window *)
    Alcotest.(check bool) "bounded overrun" true (Execution.length partial <= 512)

(* ----------------------------- Algorithm ----------------------------- *)

let test_algorithm_helpers () =
  Alcotest.(check bool) "supports" true (Algorithm.supports toy 5);
  Alcotest.(check bool) "supports 0" false (Algorithm.supports toy 0);
  let p2 = Lb_algos.Peterson2.algorithm in
  Alcotest.(check bool) "peterson2 max_n" false (Algorithm.supports p2 3);
  Alcotest.(check bool) "registers_only" true (Algorithm.registers_only toy);
  Alcotest.(check bool) "tas not registers_only" false
    (Algorithm.registers_only Lb_algos.Rmw_locks.test_and_set)

(* A state rebuilt by every step: an unchanged state is a fresh block,
   never the old one, so [changed] must come from the structural
   comparison. *)
module Rebuilt = struct
  type state = At of { pc : int; seen : int }

  let initial ~n:_ ~me:_ = At { pc = 0; seen = 0 }

  let pending ~n:_ ~me:_ (At { pc; _ }) : Step.action =
    if pc = 0 then Step.Crit Step.Try else Step.Read 0

  let advance ~n:_ ~me:_ (At { pc; seen }) (resp : Step.response) =
    match resp with
    | Step.Ack -> At { pc = pc + 1; seen }
    | Step.Got v -> At { pc; seen = max seen v }

  let repr (At { pc; seen }) = Printf.sprintf "%d:%d" pc seen
end

module Rebuilt_spawn = Proc.Make_spawn (Rebuilt)

let test_proc_equal_state () =
  let p = toy.Algorithm.spawn ~n:2 ~me:0 in
  let q = toy.Algorithm.spawn ~n:2 ~me:1 in
  Alcotest.(check bool) "fresh spawn unchanged" false p.Proc.changed;
  Alcotest.(check string) "same initial state" (p.Proc.repr ())
    (q.Proc.repr ());
  let p' = p.Proc.advance Step.Ack in
  Alcotest.(check bool) "advanced changed" true p'.Proc.changed;
  Alcotest.(check bool) "advanced repr differs" true
    (p.Proc.repr () <> p'.Proc.repr ());
  let r = (Rebuilt_spawn.spawn ~n:1 ~me:0).Proc.advance Step.Ack in
  let steps =
    List.fold_left
      (fun (acc, r) v ->
        let r' = r.Proc.advance (Step.Got v) in
        ((r'.Proc.changed, r.Proc.repr () <> r'.Proc.repr ()) :: acc, r'))
      ([], r) [ 0; 3; 2; 3; 5 ]
    |> fst |> List.rev
  in
  Alcotest.(check (list (pair bool bool))) "changed iff repr differs"
    [
      (false, false); (true, true); (false, false); (false, false);
      (true, true);
    ]
    steps

let suite =
  [
    Alcotest.test_case "step predicates" `Quick test_step_predicates;
    Alcotest.test_case "step strings" `Quick test_step_strings;
    Alcotest.test_case "register specs" `Quick test_register;
    Alcotest.test_case "system init" `Quick test_system_init;
    Alcotest.test_case "system apply" `Quick test_system_apply;
    Alcotest.test_case "system mismatch" `Quick test_system_mismatch;
    Alcotest.test_case "spin keeps state" `Quick test_spin_keeps_state;
    Alcotest.test_case "system copy" `Quick test_system_copy;
    Alcotest.test_case "rmw semantics" `Quick test_rmw_semantics;
    Alcotest.test_case "execution replay" `Quick test_execution_replay;
    Alcotest.test_case "execution projection" `Quick test_execution_projection;
    Alcotest.test_case "execution crit order" `Quick test_execution_crit_order;
    Alcotest.test_case "execution equal/fingerprint" `Quick test_execution_equal_fingerprint;
    Alcotest.test_case "execution prefix replay" `Quick test_execution_prefix_replay;
    Alcotest.test_case "runner round robin" `Quick test_runner_round_robin;
    Alcotest.test_case "runner random" `Quick test_runner_random;
    Alcotest.test_case "runner sc greedy" `Quick test_runner_sc_greedy;
    Alcotest.test_case "runner fuel" `Quick test_runner_fuel;
    Alcotest.test_case "runner deadline" `Quick test_runner_deadline;
    Alcotest.test_case "algorithm helpers" `Quick test_algorithm_helpers;
    Alcotest.test_case "proc equal state" `Quick test_proc_equal_state;
  ]
