open Lb_shmem

let step = Step.step
let ya = Lb_algos.Yang_anderson.algorithm
let broken = Lb_algos.Broken_spinlock.algorithm

(* ------------------------------ Checker ------------------------------ *)

let test_checker_accepts_valid () =
  let exec = (Lb_mutex.Canonical.run ya ~n:3).Lb_mutex.Canonical.exec in
  (match Lb_mutex.Checker.check ~n:3 exec with
  | Ok () -> ()
  | Error v -> Alcotest.fail (Lb_mutex.Checker.violation_to_string v));
  match Lb_mutex.Checker.check_algorithm ya ~n:3 exec with
  | Ok cost ->
    Alcotest.(check int) "returns the SC cost of its replay"
      (Lb_cost.State_change.cost ya ~n:3 exec) cost
  | Error _ -> Alcotest.fail "check_algorithm rejected a canonical run"

let test_checker_rejects_double_enter () =
  let exec =
    Execution.of_steps
      [
        step 0 (Step.Crit Step.Try);
        step 1 (Step.Crit Step.Try);
        step 0 (Step.Crit Step.Enter);
        step 1 (Step.Crit Step.Enter);
      ]
  in
  match Lb_mutex.Checker.check ~n:2 exec with
  | Error (Lb_mutex.Checker.Mutex_violated { a = 0; b = 1; at = 3 }) -> ()
  | Error v -> Alcotest.failf "wrong violation: %s" (Lb_mutex.Checker.violation_to_string v)
  | Ok () -> Alcotest.fail "accepted a mutex violation"

let test_checker_rejects_ill_formed () =
  let exec =
    Execution.of_steps [ step 0 (Step.Crit Step.Enter) ]
  in
  (match Lb_mutex.Checker.check ~n:1 exec with
  | Error (Lb_mutex.Checker.Not_well_formed { who = 0; at = 0; _ }) -> ()
  | Error _ | Ok () -> Alcotest.fail "enter without try accepted");
  let exec2 =
    Execution.of_steps
      [ step 0 (Step.Crit Step.Try); step 0 (Step.Crit Step.Try) ]
  in
  match Lb_mutex.Checker.check ~n:1 exec2 with
  | Error (Lb_mutex.Checker.Not_well_formed _) -> ()
  | Error _ | Ok () -> Alcotest.fail "try-try accepted"

let test_checker_allows_reentry () =
  let cycle who =
    [
      step who (Step.Crit Step.Try);
      step who (Step.Crit Step.Enter);
      step who (Step.Crit Step.Exit);
      step who (Step.Crit Step.Rem);
    ]
  in
  let exec = Execution.of_steps (cycle 0 @ cycle 0 @ cycle 1) in
  match Lb_mutex.Checker.check ~n:2 exec with
  | Ok () -> ()
  | Error v -> Alcotest.fail (Lb_mutex.Checker.violation_to_string v)

let test_checker_sequential_cs_ok () =
  let exec =
    Execution.of_steps
      [
        step 0 (Step.Crit Step.Try);
        step 1 (Step.Crit Step.Try);
        step 0 (Step.Crit Step.Enter);
        step 0 (Step.Crit Step.Exit);
        step 1 (Step.Crit Step.Enter);
        step 1 (Step.Crit Step.Exit);
        step 0 (Step.Crit Step.Rem);
        step 1 (Step.Crit Step.Rem);
      ]
  in
  match Lb_mutex.Checker.check ~n:2 exec with
  | Ok () -> ()
  | Error v -> Alcotest.fail (Lb_mutex.Checker.violation_to_string v)

let test_checker_phases () =
  let exec =
    Execution.of_steps
      [
        step 0 (Step.Crit Step.Try);
        step 1 (Step.Crit Step.Try);
        step 0 (Step.Crit Step.Enter);
      ]
  in
  let phases = Lb_mutex.Checker.phases_at ~n:2 exec ~upto:3 in
  Alcotest.(check string) "p0 critical" "critical"
    (Lb_mutex.Checker.phase_name phases.(0));
  Alcotest.(check string) "p1 trying" "trying"
    (Lb_mutex.Checker.phase_name phases.(1));
  let phases1 = Lb_mutex.Checker.phases_at ~n:2 exec ~upto:1 in
  Alcotest.(check string) "p0 trying at 1" "trying"
    (Lb_mutex.Checker.phase_name phases1.(0))

let test_checker_mismatch_detection () =
  (* a structurally fine trace that is not an execution of YA *)
  let exec =
    Execution.of_steps [ step 0 (Step.Crit Step.Try); step 0 (Step.Read 0) ]
  in
  match Lb_mutex.Checker.check_algorithm ya ~n:2 exec with
  | Error (`Mismatch _) -> ()
  | Error (`Violation _) | Ok _ -> Alcotest.fail "expected replay mismatch"

(* ----------------------------- Canonical ----------------------------- *)

let test_canonical_orders () =
  (* greedy canonical with a priority order makes processes enter in that
     order (they run to completion one after another) *)
  let order = [| 2; 0; 1 |] in
  let o = Lb_mutex.Canonical.run ~order ya ~n:3 in
  Alcotest.(check (list int)) "enter order" [ 2; 0; 1 ] o.Lb_mutex.Canonical.enter_order

let test_canonical_rr_rounds () =
  let o = Lb_mutex.Canonical.run_round_robin ~rounds:2 ya ~n:2 in
  Alcotest.(check (array int)) "two sections each" [| 2; 2 |]
    (Lb_mutex.Checker.completed_sections ~n:2 o.Lb_mutex.Canonical.exec)

let test_canonical_random_seeded () =
  let a = Lb_mutex.Canonical.run_random ~seed:5 ya ~n:3 in
  let b = Lb_mutex.Canonical.run_random ~seed:5 ya ~n:3 in
  Alcotest.(check bool) "deterministic in seed" true
    (Execution.equal a.Lb_mutex.Canonical.exec b.Lb_mutex.Canonical.exec)

let test_canonical_rejects_broken () =
  (* under round-robin the broken spinlock violates mutual exclusion and
     the canonical driver must refuse it *)
  match Lb_mutex.Canonical.run_round_robin broken ~n:2 with
  | _ -> Alcotest.fail "broken spinlock accepted"
  | exception Lb_mutex.Canonical.Check_failed _ -> ()

let test_canonical_sc_cost () =
  let o = Lb_mutex.Canonical.run ya ~n:4 in
  Alcotest.(check int) "sc_cost convenience"
    (Lb_cost.State_change.cost ya ~n:4 o.Lb_mutex.Canonical.exec)
    (Lb_mutex.Canonical.sc_cost ya ~n:4 o)

(* ---------------------------- Model checker -------------------------- *)

let test_mc_verifies_ya () =
  let r = Lb_mutex.Model_check.explore ya ~n:2 in
  (match r.Lb_mutex.Model_check.verdict with
  | Lb_mutex.Model_check.Verified -> ()
  | v ->
    Alcotest.failf "expected verified, got %s"
      (Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict v));
  Alcotest.(check bool) "explored states" true (r.Lb_mutex.Model_check.states > 100)

let test_mc_finds_broken () =
  let r = Lb_mutex.Model_check.explore broken ~n:2 in
  match r.Lb_mutex.Model_check.verdict with
  | Lb_mutex.Model_check.Mutex_violation trace ->
    (* the witness must be a real execution of the algorithm ending in a
       double-critical state *)
    ignore (Execution.replay broken ~n:2 trace);
    let phases =
      Lb_mutex.Checker.phases_at ~n:2 trace ~upto:(Execution.length trace - 1)
    in
    ignore phases;
    (match Lb_mutex.Checker.check ~n:2 trace with
    | Error (Lb_mutex.Checker.Mutex_violated _) -> ()
    | Error _ | Ok () -> Alcotest.fail "witness does not violate mutex")
  | v ->
    Alcotest.failf "expected violation, got %s"
      (Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict v)

let test_mc_bound () =
  (* the budget is enforced at insertion time: the node table never
     overshoots max_states, and the report carries the true count *)
  let r = Lb_mutex.Model_check.explore ya ~n:3 ~max_states:100 in
  match r.Lb_mutex.Model_check.verdict with
  | Lb_mutex.Model_check.Bound_exceeded k ->
    Alcotest.(check int) "bound value" 100 k;
    Alcotest.(check int) "states = bound" 100 r.Lb_mutex.Model_check.states
  | _ -> Alcotest.fail "expected bound exceeded"

(* rounds = 0 explores a space with no critical section in it, so a
   broken lock would come back Verified: refused, like max_states = 0. *)
let test_mc_rejects_zero_rounds () =
  Alcotest.check_raises "rounds 0"
    (Invalid_argument "Model_check.explore: rounds must be >= 1") (fun () ->
      ignore
        (Lb_mutex.Model_check.explore Lb_algos.Broken_spinlock.algorithm ~n:2
           ~rounds:0))

let test_mc_rounds_2 () =
  let r = Lb_mutex.Model_check.explore Lb_algos.Peterson2.algorithm ~n:2 ~rounds:2 in
  match r.Lb_mutex.Model_check.verdict with
  | Lb_mutex.Model_check.Verified -> ()
  | v ->
    Alcotest.failf "peterson2 rounds=2: %s"
      (Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict v)

(* A reference explorer with structurally-typed keys (repr list, regs,
   phases, rems in an OCaml tuple) — immune to any key-packing bug by
   construction. Counts ALL reachable bounded states, so it only equals
   the production explorer's count on Verified instances. *)
let reference_states algo ~n ~rounds =
  let phase_int = function
    | Lb_mutex.Checker.Remainder -> 0
    | Lb_mutex.Checker.Trying -> 1
    | Lb_mutex.Checker.Critical -> 2
    | Lb_mutex.Checker.Exit_section -> 3
  in
  let key sys phases rems =
    ( List.init n (System.state_repr sys),
      Array.to_list sys.System.regs,
      List.map phase_int (Array.to_list phases),
      Array.to_list rems )
  in
  let seen = Hashtbl.create 64 in
  let q = Queue.create () in
  let push sys phases rems =
    let k = key sys phases rems in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      Queue.push (sys, phases, rems) q
    end
  in
  push (System.init algo ~n)
    (Array.make n Lb_mutex.Checker.Remainder)
    (Array.make n 0);
  while not (Queue.is_empty q) do
    let sys, phases, rems = Queue.pop q in
    for i = 0 to n - 1 do
      if rems.(i) < rounds then begin
        let sys' = System.copy sys in
        let action = System.pending_of sys' i in
        ignore (System.apply sys' (Step.step i action));
        let phases' = Array.copy phases and rems' = Array.copy rems in
        (match action with
        | Step.Crit Step.Try -> phases'.(i) <- Lb_mutex.Checker.Trying
        | Step.Crit Step.Enter -> phases'.(i) <- Lb_mutex.Checker.Critical
        | Step.Crit Step.Exit -> phases'.(i) <- Lb_mutex.Checker.Exit_section
        | Step.Crit Step.Rem ->
          phases'.(i) <- Lb_mutex.Checker.Remainder;
          rems'.(i) <- rems.(i) + 1
        | Step.Read _ | Step.Write _ | Step.Rmw _ -> ());
        push sys' phases' rems'
      end
    done
  done;
  Hashtbl.length seen

(* An algorithm whose local-state reprs contain the old string-key
   scheme's delimiters, chosen so that two distinct reachable states
   have identical delimiter-joined keys: ("x;y", "z") and ("x", "y;z")
   both join to "x;y;z;". Process 0 runs its critical section first and
   then signals through [flag]; process 1 busy-waits on [flag], so the
   whole thing is verified and every reachable state must be counted. *)
module Collide_state = struct
  type state = { me : int; k : int }

  let initial ~n:_ ~me = { me; k = 0 }

  let pending ~n:_ ~me:_ { me; k } =
    match (me, k) with
    | 0, (0 | 1) -> Step.Read 0
    | 0, 2 -> Step.Crit Step.Try
    | 0, 3 -> Step.Crit Step.Enter
    | 0, 4 -> Step.Crit Step.Exit
    | 0, 5 -> Step.Write (0, 1)
    | 0, 6 -> Step.Crit Step.Rem
    | 0, _ -> Step.Read 0
    | _, (0 | 1 | 2) -> Step.Read 0
    | _, 3 -> Step.Crit Step.Try
    | _, 4 -> Step.Crit Step.Enter
    | _, 5 -> Step.Crit Step.Exit
    | _, 6 -> Step.Crit Step.Rem
    | _, _ -> Step.Read 0

  let advance ~n:_ ~me:_ ({ me; k } as s) resp =
    match (me, k, resp) with
    | _, 7, _ -> s
    | 1, 2, Step.Got v -> if v = 1 then { s with k = 3 } else s
    | _, _, _ -> { s with k = k + 1 }

  let repr { me; k } =
    match (me, k) with
    | 0, 0 -> "x;y"
    | 0, 1 -> "x"
    | 1, 0 -> "z"
    | 1, 1 -> "y;z"
    | _ -> Printf.sprintf "p%d_%d" me k
end

let collide_algo =
  let module S = Proc.Make_spawn (Collide_state) in
  {
    Algorithm.name = "collide_test";
    description = "adversarial reprs containing the old key delimiters";
    kind = Algorithm.Registers_only;
    registers = (fun ~n:_ -> [| Register.spec "flag" |]);
    spawn = S.spawn;
    max_n = Some 2;
  }

let test_mc_adversarial_reprs () =
  (* the hazard: delimiter-joined reprs of the two distinct states agree *)
  Alcotest.(check string) "old scheme collides"
    (String.concat ";" [ "x;y"; "z" ] ^ ";")
    (String.concat ";" [ "x"; "y;z" ] ^ ";");
  let r = Lb_mutex.Model_check.explore collide_algo ~n:2 in
  (match r.Lb_mutex.Model_check.verdict with
  | Lb_mutex.Model_check.Verified -> ()
  | v ->
    Alcotest.failf "collide_test: %s"
      (Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict v));
  Alcotest.(check int) "no state merged by packing"
    (reference_states collide_algo ~n:2 ~rounds:1)
    r.Lb_mutex.Model_check.states

let test_mc_matches_reference () =
  (* cross-validate the packed-key explorer's count on a real algorithm *)
  let r = Lb_mutex.Model_check.explore Lb_algos.Peterson2.algorithm ~n:2 in
  Alcotest.(check int) "peterson2 n=2 states"
    (reference_states Lb_algos.Peterson2.algorithm ~n:2 ~rounds:1)
    r.Lb_mutex.Model_check.states

let test_mc_witness_replay_mutex () =
  let r = Lb_mutex.Model_check.explore broken ~n:2 in
  match r.Lb_mutex.Model_check.verdict with
  | Lb_mutex.Model_check.Mutex_violation tr ->
    (* the parent-index trace must replay cleanly from the initial state
       (Step_mismatch would escape) and end with two processes critical *)
    ignore (Execution.replay broken ~n:2 tr);
    let phases =
      Lb_mutex.Checker.phases_at ~n:2 tr ~upto:(Execution.length tr)
    in
    let crit =
      Array.fold_left
        (fun acc ph -> if ph = Lb_mutex.Checker.Critical then acc + 1 else acc)
        0 phases
    in
    Alcotest.(check bool) "two critical at end" true (crit >= 2)
  | v ->
    Alcotest.failf "expected violation, got %s"
      (Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict v)

let test_mc_witness_replay_deadlock () =
  let flat = Lb_algos.Yang_anderson_flat.algorithm in
  let r = Lb_mutex.Model_check.explore flat ~n:3 in
  match r.Lb_mutex.Model_check.verdict with
  | Lb_mutex.Model_check.Deadlock tr ->
    let sys = Execution.replay flat ~n:3 tr in
    let rems = Execution.count_crit tr Step.Rem in
    let unfinished = List.filter (fun i -> rems.(i) < 1) [ 0; 1; 2 ] in
    Alcotest.(check bool) "some process unfinished" true (unfinished <> []);
    Alcotest.(check bool) "no unfinished process can move" true
      (List.for_all (fun i -> not (System.would_change_state sys i)) unfinished)
  | v ->
    Alcotest.failf "expected deadlock, got %s"
      (Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict v)

(* verdicts, states and transitions must not depend on the job count *)
let verdict_equal a b =
  match (a, b) with
  | Lb_mutex.Model_check.Verified, Lb_mutex.Model_check.Verified -> true
  | Lb_mutex.Model_check.Bound_exceeded j, Lb_mutex.Model_check.Bound_exceeded k
  | Lb_mutex.Model_check.Mem_exceeded j, Lb_mutex.Model_check.Mem_exceeded k ->
    j = k
  | Lb_mutex.Model_check.Mutex_violation s, Lb_mutex.Model_check.Mutex_violation t
  | Lb_mutex.Model_check.Deadlock s, Lb_mutex.Model_check.Deadlock t ->
    Execution.equal s t
  | _ -> false

let prop_mc_jobs_equivalence =
  let arb =
    QCheck.make
      ~print:(fun (ai, n) ->
        let algo = List.nth Lb_algos.Registry.all ai in
        Printf.sprintf "(%s, n=%d)" algo.Algorithm.name n)
      QCheck.Gen.(
        pair (int_range 0 (List.length Lb_algos.Registry.all - 1)) (int_range 2 3))
  in
  QCheck.Test.make ~count:12 ~name:"explore jobs=1 = explore jobs=3" arb
    (fun (ai, n) ->
      let algo = List.nth Lb_algos.Registry.all ai in
      QCheck.assume (Algorithm.supports algo n);
      let a = Lb_mutex.Model_check.explore algo ~n ~max_states:20_000 ~jobs:1 in
      let b = Lb_mutex.Model_check.explore algo ~n ~max_states:20_000 ~jobs:3 in
      verdict_equal a.Lb_mutex.Model_check.verdict b.Lb_mutex.Model_check.verdict
      && a.Lb_mutex.Model_check.states = b.Lb_mutex.Model_check.states
      && a.Lb_mutex.Model_check.transitions
         = b.Lb_mutex.Model_check.transitions)

(* --------------------------- Out-of-core ----------------------------- *)

module MC = Lb_mutex.Model_check

let fresh_spill =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d = Filename.temp_file "mutexlb_spill" (Printf.sprintf "_%d" !ctr) in
    Sys.remove d;
    d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_spill f =
  let dir = fresh_spill () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* directory fingerprint: sorted (name, contents) pairs — two spill dirs
   compare equal iff they are byte-identical file for file *)
let dir_bytes dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         (f, Lb_util.Fsio.read ~path:(Filename.concat dir f) ()))

let filter4 = Lb_algos.Filter.algorithm

let check_same_outcome label (a : MC.report) (b : MC.report) =
  Alcotest.(check bool)
    (label ^ ": verdict") true
    (verdict_equal a.MC.verdict b.MC.verdict);
  Alcotest.(check int) (label ^ ": states") a.MC.states b.MC.states;
  Alcotest.(check int) (label ^ ": transitions") a.MC.transitions
    b.MC.transitions

(* a budget small enough that the visited set cannot stay resident, so
   eviction and the disk membership pass actually run — and the counts
   still match the all-in-RAM exploration exactly *)
let test_mc_spill_equivalence () =
  let base = MC.explore ya ~n:3 in
  with_spill (fun dir ->
      let r =
        MC.explore ya ~n:3 ~mem_budget:(2 * 1024 * 1024) ~spill_dir:dir
      in
      check_same_outcome "spill+evict vs RAM" base r)

(* without a spill dir the same budget is a hard stop — and the stop
   count is deterministic, so two runs agree exactly *)
let test_mc_mem_exceeded () =
  let run () =
    MC.explore filter4 ~n:4 ~max_states:5_000_000
      ~mem_budget:(8 * 1024 * 1024)
  in
  let a = run () and b = run () in
  (match a.MC.verdict with
  | MC.Mem_exceeded k ->
    Alcotest.(check int) "carries stored count" a.MC.states k
  | v ->
    Alcotest.failf "expected mem_exceeded, got %s"
      (Format.asprintf "%a" MC.pp_verdict v));
  check_same_outcome "two identical budget runs" a b

(* the ISSUE acceptance instance: filter at n=4 needs ~26 MiB resident;
   under 8 MiB the in-RAM core stops (above) while the spilling core
   certifies the full 127515-state space, interruption and job count
   notwithstanding *)
let test_mc_acceptance_n4 () =
  let budget = 8 * 1024 * 1024 in
  let base = MC.explore filter4 ~n:4 ~max_states:5_000_000 in
  (match base.MC.verdict with
  | MC.Verified -> ()
  | v ->
    Alcotest.failf "filter n=4 baseline: %s"
      (Format.asprintf "%a" MC.pp_verdict v));
  with_spill (fun d1 ->
      with_spill (fun d4 ->
          let r1 =
            MC.explore filter4 ~n:4 ~max_states:5_000_000 ~mem_budget:budget
              ~spill_dir:d1 ~jobs:1
          in
          let r4 =
            MC.explore filter4 ~n:4 ~max_states:5_000_000 ~mem_budget:budget
              ~spill_dir:d4 ~jobs:4
          in
          check_same_outcome "budgeted vs unbudgeted" base r1;
          check_same_outcome "jobs=1 vs jobs=4 under budget" r1 r4;
          (* the spill bytes themselves are deterministic: interner ids
             are assigned in the sequential merge, so runs, frontiers,
             node log, names and manifest all match file for file *)
          List.iter2
            (fun (f1, c1) (f4, c4) ->
              Alcotest.(check string) "spill file name" f1 f4;
              Alcotest.(check bool)
                (Printf.sprintf "spill file %s bytes" f1)
                true (c1 = c4))
            (dir_bytes d1) (dir_bytes d4)))

(* kill-and-resume: a deadline abort mid-exploration leaves a resumable
   checkpoint; resuming completes with the uninterrupted run's verdict,
   counts, and byte-identical spill files. A second resume hits the
   final manifest and reports without re-exploring. *)
let test_mc_resume_identity () =
  with_spill (fun dir ->
      with_spill (fun ref_dir ->
          let interrupted =
            MC.explore ya ~n:3 ~spill_dir:dir ~deadline:0.01
          in
          (match interrupted.MC.verdict with
          | MC.Deadline_exceeded _ -> ()
          | MC.Verified ->
            (* machine fast enough to finish inside the deadline: the
               resume below degenerates to a final-manifest read, which
               is still worth asserting *)
            ()
          | v ->
            Alcotest.failf "interrupt: %s"
              (Format.asprintf "%a" MC.pp_verdict v));
          let resumed = MC.explore ya ~n:3 ~spill_dir:dir ~resume:true in
          let reference = MC.explore ya ~n:3 ~spill_dir:ref_dir in
          check_same_outcome "resumed vs uninterrupted" reference resumed;
          List.iter2
            (fun (f1, c1) (f2, c2) ->
              Alcotest.(check string) "spill file name" f1 f2;
              Alcotest.(check bool)
                (Printf.sprintf "spill file %s bytes" f1)
                true (c1 = c2))
            (dir_bytes ref_dir) (dir_bytes dir);
          let again = MC.explore ya ~n:3 ~spill_dir:dir ~resume:true in
          check_same_outcome "final-manifest resume" resumed again))

(* resuming with mismatched parameters must refuse, not silently explore
   a different instance into the same directory *)
let test_mc_resume_mismatch () =
  with_spill (fun dir ->
      ignore (MC.explore ya ~n:2 ~spill_dir:dir ~deadline:0.0);
      Alcotest.check_raises "wrong n"
        (Invalid_argument
           "Model_check.explore: resume: manifest has n = 2, this run wants 3")
        (fun () -> ignore (MC.explore ya ~n:3 ~spill_dir:dir ~resume:true)))

(* satellite: live_words is deterministically accounted — two identical
   runs agree to the word, where a Gc.stat sample would wobble *)
let test_mc_live_words_stable () =
  let a = MC.explore ya ~n:3 and b = MC.explore ya ~n:3 in
  Alcotest.(check int) "live_words run-to-run" a.MC.live_words b.MC.live_words;
  let j1 = MC.explore ya ~n:3 ~jobs:1 and j4 = MC.explore ya ~n:3 ~jobs:4 in
  Alcotest.(check int) "live_words jobs=1 vs jobs=4" j1.MC.live_words
    j4.MC.live_words

(* satellite: Bound_exceeded carries the same globally-ordered count at
   any job count — the bound is enforced in the sequential merge *)
let prop_mc_bound_jobs =
  let arb =
    QCheck.make
      ~print:(fun (ai, bound) ->
        let algo = List.nth Lb_algos.Registry.all ai in
        Printf.sprintf "(%s, max_states=%d)" algo.Algorithm.name bound)
      QCheck.Gen.(
        pair
          (int_range 0 (List.length Lb_algos.Registry.all - 1))
          (int_range 50 2_000))
  in
  QCheck.Test.make ~count:15 ~name:"Bound_exceeded count jobs=1 = jobs=4" arb
    (fun (ai, bound) ->
      let algo = List.nth Lb_algos.Registry.all ai in
      QCheck.assume (Algorithm.supports algo 3);
      let a = MC.explore algo ~n:3 ~max_states:bound ~jobs:1 in
      let b = MC.explore algo ~n:3 ~max_states:bound ~jobs:4 in
      (match (a.MC.verdict, b.MC.verdict) with
      | MC.Bound_exceeded j, MC.Bound_exceeded k -> j = k && j = bound
      | u, v -> verdict_equal u v)
      && a.MC.states = b.MC.states
      && a.MC.live_words = b.MC.live_words)

(* spill bytes do not depend on the job count, eviction and the disk
   membership pass included *)
let test_mc_jobs_spill_identity () =
  with_spill (fun d1 ->
      with_spill (fun d4 ->
          let r1 =
            MC.explore ya ~n:3 ~mem_budget:(2 * 1024 * 1024) ~spill_dir:d1
              ~jobs:1
          in
          let r4 =
            MC.explore ya ~n:3 ~mem_budget:(2 * 1024 * 1024) ~spill_dir:d4
              ~jobs:4
          in
          check_same_outcome "jobs=1 vs jobs=4 under budget" r1 r4;
          List.iter2
            (fun (f1, c1) (f4, c4) ->
              Alcotest.(check string) "spill file name" f1 f4;
              Alcotest.(check bool)
                (Printf.sprintf "spill file %s bytes" f1)
                true (c1 = c4))
            (dir_bytes d1) (dir_bytes d4)))

(* a checkpoint written at one job count resumes at another: the job
   count is scheduling, not state, so nothing pins it in the manifest *)
let test_mc_resume_crosses_job_counts () =
  with_spill (fun dir ->
      with_spill (fun ref_dir ->
          ignore (MC.explore ya ~n:3 ~spill_dir:dir ~deadline:0.01 ~jobs:4);
          let resumed =
            MC.explore ya ~n:3 ~spill_dir:dir ~resume:true ~jobs:1
          in
          let reference = MC.explore ya ~n:3 ~spill_dir:ref_dir ~jobs:1 in
          check_same_outcome "cross-jobs resume" reference resumed;
          List.iter2
            (fun (f1, c1) (f2, c2) ->
              Alcotest.(check string) "spill file name" f1 f2;
              Alcotest.(check bool)
                (Printf.sprintf "spill file %s bytes" f1)
                true (c1 = c2))
            (dir_bytes ref_dir) (dir_bytes dir)))

(* a run file whose header disagrees with the manifest's key count is
   damage, not a shorter layer: trusting it would drop visited keys and
   inflate the state count on resume *)
let test_mc_resume_short_run () =
  with_spill (fun dir ->
      (* a zero deadline stops right after the root checkpoint: layer 0
         holds one key *)
      ignore (MC.explore ya ~n:3 ~spill_dir:dir ~deadline:0.0);
      let file = Filename.concat dir "layer_000000.keys" in
      Lb_mutex.Check_spill.write_run ~dir ~layer:0 [];
      Alcotest.check_raises "short run refused"
        (Failure
           (Printf.sprintf "malformed key run %s: 0 keys, manifest says 1" file))
        (fun () -> ignore (MC.explore ya ~n:3 ~spill_dir:dir ~resume:true)))

(* a directory written by an older lossy check may have dropped states:
   it must be refused, never resumed as exact *)
let test_mc_resume_refuses_lossy () =
  with_spill (fun dir ->
      ignore (MC.explore ya ~n:3 ~spill_dir:dir ~deadline:0.0);
      (match Lb_mutex.Check_spill.load_manifest ~dir with
      | `Manifest m ->
        Lb_mutex.Check_spill.save_manifest ~dir
          { m with Lb_mutex.Check_spill.c_lossy = "bitstate:65536" }
      | `Absent | `Damaged _ -> Alcotest.fail "no manifest after checkpoint");
      Alcotest.check_raises "lossy directory refused"
        (Failure
           "Model_check.explore: resume: spill directory was explored in \
            lossy mode bitstate:65536 and cannot be resumed as an exact check")
        (fun () -> ignore (MC.explore ya ~n:3 ~spill_dir:dir ~resume:true)))

(* satellite: the per-stage timing breakdown is populated and sane *)
let test_mc_stats () =
  let r = MC.explore ya ~n:2 in
  let st = r.MC.stats in
  Alcotest.(check bool) "layers counted" true (st.MC.layers > 0);
  Alcotest.(check bool) "stage seconds nonnegative" true
    (st.MC.expand_seconds >= 0.
    && st.MC.merge_seconds >= 0.
    && st.MC.spill_seconds >= 0.)

let suite =
  [
    Alcotest.test_case "checker accepts valid" `Quick test_checker_accepts_valid;
    Alcotest.test_case "checker rejects double enter" `Quick test_checker_rejects_double_enter;
    Alcotest.test_case "checker rejects ill-formed" `Quick test_checker_rejects_ill_formed;
    Alcotest.test_case "checker allows reentry" `Quick test_checker_allows_reentry;
    Alcotest.test_case "checker sequential CS" `Quick test_checker_sequential_cs_ok;
    Alcotest.test_case "checker phases" `Quick test_checker_phases;
    Alcotest.test_case "checker mismatch" `Quick test_checker_mismatch_detection;
    Alcotest.test_case "canonical priority order" `Quick test_canonical_orders;
    Alcotest.test_case "canonical rr rounds" `Quick test_canonical_rr_rounds;
    Alcotest.test_case "canonical random seeded" `Quick test_canonical_random_seeded;
    Alcotest.test_case "canonical rejects broken" `Quick test_canonical_rejects_broken;
    Alcotest.test_case "canonical sc cost" `Quick test_canonical_sc_cost;
    Alcotest.test_case "model check verifies ya" `Quick test_mc_verifies_ya;
    Alcotest.test_case "model check finds broken" `Quick test_mc_finds_broken;
    Alcotest.test_case "model check bound" `Quick test_mc_bound;
    Alcotest.test_case "model check rounds=2" `Quick test_mc_rounds_2;
    Alcotest.test_case "model check rejects rounds=0" `Quick
      test_mc_rejects_zero_rounds;
    Alcotest.test_case "model check adversarial reprs" `Quick
      test_mc_adversarial_reprs;
    Alcotest.test_case "model check matches reference count" `Quick
      test_mc_matches_reference;
    Alcotest.test_case "model check witness replays (mutex)" `Quick
      test_mc_witness_replay_mutex;
    Alcotest.test_case "model check witness replays (deadlock)" `Quick
      test_mc_witness_replay_deadlock;
    QCheck_alcotest.to_alcotest prop_mc_jobs_equivalence;
    Alcotest.test_case "spill+evict equals in-RAM" `Quick
      test_mc_spill_equivalence;
    Alcotest.test_case "mem budget exceeded deterministically" `Quick
      test_mc_mem_exceeded;
    Alcotest.test_case "n=4 certified under budget (acceptance)" `Slow
      test_mc_acceptance_n4;
    Alcotest.test_case "kill-and-resume identity" `Quick
      test_mc_resume_identity;
    Alcotest.test_case "resume rejects mismatched instance" `Quick
      test_mc_resume_mismatch;
    Alcotest.test_case "live_words deterministic" `Quick
      test_mc_live_words_stable;
    QCheck_alcotest.to_alcotest prop_mc_bound_jobs;
    Alcotest.test_case "jobs=1 vs jobs=4 spill equal" `Quick
      test_mc_jobs_spill_identity;
    Alcotest.test_case "resume crosses job counts" `Quick
      test_mc_resume_crosses_job_counts;
    Alcotest.test_case "resume refuses short key run" `Quick
      test_mc_resume_short_run;
    Alcotest.test_case "resume refuses lossy dir" `Quick
      test_mc_resume_refuses_lossy;
    Alcotest.test_case "stage timing breakdown" `Quick test_mc_stats;
  ]
