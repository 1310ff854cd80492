open Lb_shmem

(* Zoo-wide validation: every correct algorithm must pass the canonical
   drivers and the bounded model checker at small n; the broken control
   must fail. Heavier exhaustive checks (n=3 and rounds=2) run for a
   representative subset to keep the suite fast. *)

let ns_for algo = List.filter (Algorithm.supports algo) [ 1; 2; 3; 4; 6 ]

let greedy_cases =
  List.map
    (fun algo ->
      Alcotest.test_case
        (Printf.sprintf "greedy canonical: %s" algo.Algorithm.name)
        `Quick
        (fun () ->
          List.iter
            (fun n ->
              let o = Lb_mutex.Canonical.run algo ~n in
              Alcotest.(check (list int))
                (Printf.sprintf "n=%d enter order" n)
                (List.init n Fun.id) o.Lb_mutex.Canonical.enter_order)
            (ns_for algo)))
    Lb_algos.Registry.correct

let rr_cases =
  List.map
    (fun algo ->
      Alcotest.test_case
        (Printf.sprintf "round robin: %s" algo.Algorithm.name)
        `Quick
        (fun () ->
          List.iter (fun n -> ignore (Lb_mutex.Canonical.run_round_robin algo ~n))
            (ns_for algo)))
    Lb_algos.Registry.correct

let random_cases =
  List.map
    (fun algo ->
      Alcotest.test_case
        (Printf.sprintf "random schedules: %s" algo.Algorithm.name)
        `Quick
        (fun () ->
          List.iter
            (fun n ->
              for seed = 1 to 8 do
                ignore (Lb_mutex.Canonical.run_random ~seed algo ~n)
              done)
            (ns_for algo)))
    Lb_algos.Registry.correct

let mc_n2_cases =
  List.map
    (fun algo ->
      Alcotest.test_case
        (Printf.sprintf "model check n=2: %s" algo.Algorithm.name)
        `Quick
        (fun () ->
          let r = Lb_mutex.Model_check.explore algo ~n:2 in
          match r.Lb_mutex.Model_check.verdict with
          | Lb_mutex.Model_check.Verified -> ()
          | v ->
            Alcotest.failf "%s"
              (Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict v)))
    Lb_algos.Registry.correct

let mc_n3_algos =
  [
    Lb_algos.Yang_anderson.algorithm;
    Lb_algos.Tournament.algorithm;
    Lb_algos.Bakery.algorithm;
    Lb_algos.Filter.algorithm;
    Lb_algos.Burns.algorithm;
    Lb_algos.Szymanski.algorithm;
    Lb_algos.Rmw_locks.ticket;
    Lb_algos.Queue_locks.mcs;
    Lb_algos.Queue_locks.clh;
  ]

let mc_n3_cases =
  List.map
    (fun algo ->
      Alcotest.test_case
        (Printf.sprintf "model check n=3: %s" algo.Algorithm.name)
        `Slow
        (fun () ->
          let r = Lb_mutex.Model_check.explore algo ~n:3 ~max_states:500_000 in
          match r.Lb_mutex.Model_check.verdict with
          | Lb_mutex.Model_check.Verified -> ()
          | v ->
            Alcotest.failf "%s"
              (Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict v)))
    mc_n3_algos

let mc_rounds2_cases =
  List.map
    (fun algo ->
      Alcotest.test_case
        (Printf.sprintf "model check n=2 rounds=2: %s" algo.Algorithm.name)
        `Slow
        (fun () ->
          let r = Lb_mutex.Model_check.explore algo ~n:2 ~rounds:2 ~max_states:500_000 in
          match r.Lb_mutex.Model_check.verdict with
          | Lb_mutex.Model_check.Verified -> ()
          | v ->
            Alcotest.failf "%s"
              (Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict v)))
    [
      Lb_algos.Yang_anderson.algorithm;
      Lb_algos.Peterson2.algorithm;
      Lb_algos.Dekker.algorithm;
      Lb_algos.Burns.algorithm;
      Lb_algos.Lamport_fast.algorithm;
    ]

(* ----------------------- algorithm-specific facts -------------------- *)

let test_ya_cost_exact () =
  (* greedy canonical YA: every process climbs ceil(log2 n) uncontended
     nodes at 6 SC accesses each (C, T, P writes + rival read at entry;
     C write + T read at exit) -- 6 n log2 n exactly for powers of two *)
  List.iter
    (fun n ->
      let cost = Lb_mutex.Canonical.sc_cost Lb_algos.Yang_anderson.algorithm ~n
          (Lb_mutex.Canonical.run Lb_algos.Yang_anderson.algorithm ~n)
      in
      let l = Lb_algos.Yang_anderson.levels ~n in
      Alcotest.(check int) (Printf.sprintf "n=%d" n) (6 * n * l) cost)
    [ 2; 4; 8; 16; 32 ]

let test_ya_levels () =
  Alcotest.(check int) "n=1" 1 (Lb_algos.Yang_anderson.levels ~n:1);
  Alcotest.(check int) "n=2" 1 (Lb_algos.Yang_anderson.levels ~n:2);
  Alcotest.(check int) "n=3" 2 (Lb_algos.Yang_anderson.levels ~n:3);
  Alcotest.(check int) "n=9" 4 (Lb_algos.Yang_anderson.levels ~n:9)

let test_bakery_quadratic () =
  (* bakery's canonical cost grows quadratically: the scan + waits are
     Theta(n) per process *)
  let cost n =
    Lb_mutex.Canonical.sc_cost Lb_algos.Bakery.algorithm ~n
      (Lb_mutex.Canonical.run Lb_algos.Bakery.algorithm ~n)
  in
  let c8 = cost 8 and c16 = cost 16 and c32 = cost 32 in
  let r1 = float_of_int c16 /. float_of_int c8 in
  let r2 = float_of_int c32 /. float_of_int c16 in
  Alcotest.(check bool) "doubling n ~ 4x cost" true (r1 > 3.0 && r1 < 5.0);
  Alcotest.(check bool) "stable ratio" true (r2 > 3.0 && r2 < 5.0)

let test_ya_beats_bakery () =
  List.iter
    (fun n ->
      let c algo = Lb_mutex.Canonical.sc_cost algo ~n (Lb_mutex.Canonical.run algo ~n) in
      Alcotest.(check bool)
        (Printf.sprintf "ya < bakery at n=%d" n)
        true
        (c Lb_algos.Yang_anderson.algorithm < c Lb_algos.Bakery.algorithm))
    [ 16; 32 ]

let test_registry () =
  Alcotest.(check int) "17 algorithms" 17 (List.length Lb_algos.Registry.all);
  Alcotest.(check int) "2 faulty controls" 2 (List.length Lb_algos.Registry.faulty);
  Alcotest.(check bool) "correct excludes faulty" true
    (not
       (List.exists
          (fun a ->
            a.Algorithm.name = "broken_spinlock"
            || a.Algorithm.name = "yang_anderson_flat")
          Lb_algos.Registry.correct));
  Alcotest.(check bool) "register_based excludes rmw" true
    (List.for_all Algorithm.registers_only Lb_algos.Registry.register_based);
  Alcotest.(check bool) "scalable excludes 2p" true
    (List.for_all (fun a -> a.Algorithm.max_n = None) Lb_algos.Registry.scalable);
  (match Lb_algos.Registry.find "bakery" with
  | Some a -> Alcotest.(check string) "find" "bakery" a.Algorithm.name
  | None -> Alcotest.fail "bakery not found");
  Alcotest.(check (option string)) "find missing" None
    (Option.map (fun a -> a.Algorithm.name) (Lb_algos.Registry.find "nope"));
  (match Lb_algos.Registry.find_exn "nope" with
  | _ -> Alcotest.fail "find_exn should raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "names arity" 17 (List.length (Lb_algos.Registry.names ()))

let test_common_helpers () =
  Alcotest.(check int) "pid" 3 (Lb_algos.Common.pid 2);
  Alcotest.(check int) "unpid" 2 (Lb_algos.Common.unpid 3);
  Alcotest.check_raises "unpid nil" (Invalid_argument "Common.unpid: not a pid")
    (fun () -> ignore (Lb_algos.Common.unpid 0));
  Alcotest.(check int) "got" 7 (Lb_algos.Common.got (Step.Got 7));
  Alcotest.check_raises "got ack" (Invalid_argument "Common.got: expected a value, got Ack")
    (fun () -> ignore (Lb_algos.Common.got Step.Ack))

let test_two_process_limits () =
  List.iter
    (fun algo ->
      Alcotest.(check bool)
        (algo.Algorithm.name ^ " rejects n=3")
        false
        (Algorithm.supports algo 3))
    [ Lb_algos.Peterson2.algorithm; Lb_algos.Dekker.algorithm ]

let mc_deep_cases =
  (* the deepest checks that still fit a test budget; the full sweep
     (including yang_anderson n=4 at 3M states) is recorded in DESIGN.md §6 *)
  List.map
    (fun (algo, n, rounds, cap) ->
      Alcotest.test_case
        (Printf.sprintf "model check deep: %s n=%d rounds=%d"
           algo.Algorithm.name n rounds)
        `Slow
        (fun () ->
          let r = Lb_mutex.Model_check.explore algo ~n ~rounds ~max_states:cap in
          match r.Lb_mutex.Model_check.verdict with
          | Lb_mutex.Model_check.Verified -> ()
          | v ->
            Alcotest.failf "%s"
              (Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict v)))
    [
      (Lb_algos.Szymanski.algorithm, 4, 1, 1_000_000);
      (Lb_algos.Queue_locks.mcs, 3, 2, 1_000_000);
      (Lb_algos.Queue_locks.clh, 3, 2, 1_000_000);
      (Lb_algos.Queue_locks.anderson, 3, 2, 1_000_000);
      (Lb_algos.Tournament.algorithm, 3, 2, 1_000_000);
      (Lb_algos.Filter.algorithm, 3, 2, 1_000_000);
    ]

let test_flat_ya_deadlocks () =
  (* the ablation: a single spin register per process loses wake-ups *)
  let flat = Lb_algos.Yang_anderson.flat in
  (match (Lb_mutex.Model_check.explore flat ~n:2).Lb_mutex.Model_check.verdict with
  | Lb_mutex.Model_check.Verified -> () (* one level: no cross-level races *)
  | v ->
    Alcotest.failf "flat ya n=2: %s"
      (Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict v));
  match
    (Lb_mutex.Model_check.explore flat ~n:3 ~max_states:200_000)
      .Lb_mutex.Model_check.verdict
  with
  | Lb_mutex.Model_check.Deadlock trace ->
    (* the witness must be a genuine execution of the algorithm *)
    ignore (Execution.replay flat ~n:3 trace)
  | v ->
    Alcotest.failf "flat ya n=3 should deadlock, got %s"
      (Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict v)

let test_queue_locks_fifo () =
  (* queue locks grant the CS in request order: under round-robin all
     processes draw tickets in index order *)
  List.iter
    (fun algo ->
      let o = Lb_mutex.Canonical.run_round_robin algo ~n:6 in
      Alcotest.(check (list int))
        (algo.Algorithm.name ^ " FIFO")
        [ 0; 1; 2; 3; 4; 5 ]
        o.Lb_mutex.Canonical.enter_order)
    [ Lb_algos.Queue_locks.anderson; Lb_algos.Queue_locks.mcs;
      Lb_algos.Queue_locks.clh; Lb_algos.Rmw_locks.ticket ]

let test_queue_locks_dsm_contrast () =
  (* MCS spins on its own homed node: contended DSM cost stays low;
     CLH spins on the predecessor's node: contended DSM cost grows with
     the spinning *)
  let n = 6 in
  let dsm algo =
    let exec =
      (Lb_mutex.Canonical.run_round_robin algo ~n).Lb_mutex.Canonical.exec
    in
    let b = Lb_cost.Accounting.breakdown algo ~n exec in
    (b.Lb_cost.Accounting.dsm, b.Lb_cost.Accounting.shared_accesses)
  in
  let mcs_dsm, mcs_raw = dsm Lb_algos.Queue_locks.mcs in
  let clh_dsm, clh_raw = dsm Lb_algos.Queue_locks.clh in
  Alcotest.(check bool) "mcs mostly local" true
    (float_of_int mcs_dsm < 0.5 *. float_of_int mcs_raw);
  Alcotest.(check bool) "clh mostly remote" true
    (float_of_int clh_dsm > 0.5 *. float_of_int clh_raw)

let test_szymanski_bounded_flags () =
  (* flags only ever hold 0..4 *)
  let algo = Lb_algos.Szymanski.algorithm in
  let n = 5 in
  let o = Lb_mutex.Canonical.run_round_robin algo ~n in
  ignore
    (Execution.fold_outcomes algo ~n o.Lb_mutex.Canonical.exec ~init:()
       ~f:(fun () sys _ _ ->
         Array.iter
           (fun v ->
             if v < 0 || v > 4 then Alcotest.failf "flag out of range: %d" v)
           sys.System.regs))

let suite =
  greedy_cases @ rr_cases @ random_cases @ mc_n2_cases @ mc_n3_cases
  @ mc_rounds2_cases @ mc_deep_cases
  @ [
      Alcotest.test_case "ya exact canonical cost" `Quick test_ya_cost_exact;
      Alcotest.test_case "ya levels" `Quick test_ya_levels;
      Alcotest.test_case "bakery quadratic" `Quick test_bakery_quadratic;
      Alcotest.test_case "ya beats bakery" `Quick test_ya_beats_bakery;
      Alcotest.test_case "registry" `Quick test_registry;
      Alcotest.test_case "flat ya deadlocks (ablation)" `Slow test_flat_ya_deadlocks;
      Alcotest.test_case "queue locks FIFO" `Quick test_queue_locks_fifo;
      Alcotest.test_case "queue locks DSM contrast" `Quick test_queue_locks_dsm_contrast;
      Alcotest.test_case "szymanski bounded flags" `Quick test_szymanski_bounded_flags;
      Alcotest.test_case "common helpers" `Quick test_common_helpers;
      Alcotest.test_case "two-process limits" `Quick test_two_process_limits;
    ]
