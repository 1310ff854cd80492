module P = Lb_core.Permutation
module Pl = Lb_core.Pipeline
module B = Lb_core.Bounds

let ya = Lb_algos.Yang_anderson.algorithm
let bakery = Lb_algos.Bakery.algorithm

let test_run_checked_family () =
  List.iter
    (fun (algo : Lb_shmem.Algorithm.t) ->
      List.iter
        (fun n ->
          List.iter
            (fun pi -> ignore (Pl.run_checked algo ~n pi))
            (if n <= 3 then P.all n else [ P.identity n; P.reverse n ]))
        [ 1; 2; 3; 6 ])
    [ ya; bakery; Lb_algos.Burns.algorithm ]

let test_whole_zoo () =
  (* every register-based algorithm through the checked pipeline *)
  List.iter
    (fun (algo : Lb_shmem.Algorithm.t) ->
      List.iter
        (fun n ->
          if Lb_shmem.Algorithm.supports algo n then
            ignore (Pl.run_checked algo ~n (P.reverse n)))
        [ 2; 4 ])
    Lb_algos.Registry.register_based

let test_unsafe_algorithm_still_constructs () =
  (* Where Theorem 5.5 actually uses mutual exclusion: the construction
     and the decoder need only livelock freedom, so even the broken
     spinlock constructs, encodes and decodes — with per-process
     projections matching the canonical linearization. But without mutex,
     the critical metasteps of different processes are ⪯-incomparable, so
     {e different linearizations} may overlap critical sections: the
     decoded interleaving for pi=(0 1 2) at n=3 has p1 and p2 critical
     simultaneously. This is exactly the property the paper's proof of
     Theorem 5.5 invokes mutual exclusion for. *)
  let broken = Lb_algos.Broken_spinlock.algorithm in
  let n = 3 in
  let some_linearization_violates = ref false in
  List.iter
    (fun pi ->
      let r = Pl.run broken ~n pi in
      (* decode still reproduces each process's experience *)
      let decoded = Lb_shmem.Execution.projections r.Pl.decoded ~n
      and canonical = Lb_shmem.Execution.projections r.Pl.canonical ~n in
      for i = 0 to n - 1 do
        Alcotest.(check bool) "projection matches" true
          (List.equal Lb_shmem.Step.equal decoded.(i) canonical.(i))
      done;
      (match Lb_mutex.Checker.check ~n r.Pl.decoded with
      | Ok () -> ()
      | Error (Lb_mutex.Checker.Mutex_violated _) ->
        some_linearization_violates := true
      | Error v -> Alcotest.fail (Lb_mutex.Checker.violation_to_string v)))
    (P.all n);
  Alcotest.(check bool)
    "without mutex, some linearization overlaps critical sections" true
    !some_linearization_violates;
  (* the deadlocking ablation constructs fully: its race needs
     interleavings the sequential construction never produces *)
  let flat = Lb_algos.Yang_anderson_flat.algorithm in
  ignore (Pl.run_checked flat ~n:3 (P.reverse 3))

let test_check_failed_exception () =
  (* run_checked rejects the broken spinlock with a typed, fully-located
     failure: algorithm, n, permutation and the stage that tripped *)
  let broken = Lb_algos.Broken_spinlock.algorithm in
  let pi = P.identity 3 in
  match Pl.run_checked broken ~n:3 pi with
  | _ -> Alcotest.fail "expected Check_failed"
  | exception (Pl.Check_failed { algo; n; pi = pi'; stage; message } as e) ->
    Alcotest.(check string) "algo" "broken_spinlock" algo;
    Alcotest.(check int) "n" 3 n;
    Alcotest.(check bool) "pi preserved" true (P.equal pi pi');
    Alcotest.(check bool) "stage is a known link" true
      (List.mem stage
         [ "canonical"; "decoded"; "projection"; "cost"; "encoding"; "roundtrip" ]);
    Alcotest.(check bool) "message non-empty" true (String.length message > 0);
    (* the registered printer renders every locating field *)
    let printed = Printexc.to_string e in
    List.iter
      (fun part ->
        Alcotest.(check bool) (part ^ " printed") true
          (Astring_contains.contains printed part))
      [ "broken_spinlock"; "n=3"; stage; message ];
    (* the Result-returning API agrees and prefixes the stage *)
    (match Pl.check broken ~n:3 (Pl.run broken ~n:3 pi) with
    | Ok () -> Alcotest.fail "check accepted what run_checked rejected"
    | Error msg ->
      Alcotest.(check string) "stage-prefixed message" (stage ^ ": " ^ message) msg)

let test_result_fields () =
  let pi = P.reverse 3 in
  let r = Pl.run ya ~n:3 pi in
  Alcotest.(check bool) "cost positive" true (r.Pl.cost > 0);
  Alcotest.(check int) "bits = encoding length" r.Pl.bits
    (Lb_core.Encode.length_bits r.Pl.encoding);
  Alcotest.(check bool) "pi kept" true (P.equal pi r.Pl.pi);
  Alcotest.(check bool) "canonical nonempty" true
    (Lb_shmem.Execution.length r.Pl.canonical > 0)

let test_check_catches_corruption () =
  let r = Pl.run ya ~n:2 (P.identity 2) in
  (* corrupt the decoded execution: drop its last step *)
  let stolen = Lb_shmem.Execution.steps r.Pl.decoded in
  let corrupted =
    Lb_shmem.Execution.of_steps (List.filteri (fun i _ -> i < List.length stolen - 1) stolen)
  in
  match Pl.check ya ~n:2 { r with Pl.decoded = corrupted } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corruption not caught"

let test_check_catches_wrong_pi () =
  let r = Pl.run ya ~n:2 (P.identity 2) in
  match Pl.check ya ~n:2 { r with Pl.pi = P.reverse 2 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong pi not caught"

let test_check_catches_wrong_cost () =
  (* r.cost is what records and certificates carry: check recomputes it
     from the canonical replay instead of taking it on trust *)
  let r = Pl.run ya ~n:3 (P.reverse 3) in
  match Pl.check ya ~n:3 { r with Pl.cost = r.Pl.cost + 1 } with
  | Ok () -> Alcotest.fail "wrong recorded cost not caught"
  | Error msg ->
    Alcotest.(check string) "cost stage, canonical comparison first"
      (Printf.sprintf "cost: canonical cost %d <> recorded cost %d" r.Pl.cost
         (r.Pl.cost + 1))
      msg

let test_certificate_exhaustive () =
  let cert = Pl.certify ya ~n:4 ~perms:(P.all 4) ~exhaustive:true () in
  Alcotest.(check int) "perms" 24 cert.B.perms;
  Alcotest.(check bool) "exhaustive" true cert.B.exhaustive;
  Alcotest.(check bool) "distinct" true cert.B.distinct;
  (* pigeonhole: max bits must be at least log2 (#perms) *)
  Alcotest.(check bool) "max_bits >= log2 perms" true
    (float_of_int cert.B.max_bits >= cert.B.lower_bound_bits);
  Alcotest.(check bool) "cost bounds sane" true
    (cert.B.min_cost <= cert.B.max_cost
    && cert.B.mean_cost >= float_of_int cert.B.min_cost
    && cert.B.mean_cost <= float_of_int cert.B.max_cost);
  Alcotest.(check bool) "bits/cost constant positive" true (cert.B.bits_per_cost > 0.0)

let test_certify_empty_rejected () =
  (* regression: an empty family used to "certify" garbage —
     mean_cost = nan, min_cost = max_int, lower_bound_bits = -inf *)
  Alcotest.check_raises "empty perms"
    (Invalid_argument "Pipeline.certify: empty permutation family") (fun () ->
      ignore (Pl.certify ya ~n:3 ~perms:[] ()))

let test_certify_jobs_equivalence () =
  let perms = P.all 4 in
  let seq = Pl.certify ya ~n:4 ~perms ~exhaustive:true ~jobs:1 () in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d certificate equals sequential" jobs)
        true
        (seq = Pl.certify ya ~n:4 ~perms ~exhaustive:true ~jobs ()))
    [ 2; 3; 8 ]

let test_certificate_sampled () =
  let rng = Lb_util.Rng.create 3 in
  let perms = P.sample rng ~n:8 ~count:6 in
  let cert = Pl.certify bakery ~n:8 ~perms () in
  Alcotest.(check bool) "not exhaustive" false cert.B.exhaustive;
  Alcotest.(check bool) "distinct" true cert.B.distinct

let test_bounds_math () =
  Alcotest.(check (float 1e-9)) "bits_needed 1" 0.0 (B.bits_needed 1);
  Alcotest.(check bool) "bits_needed grows superlinearly" true
    (B.bits_needed 64 > 2.0 *. B.bits_needed 32);
  Alcotest.(check (float 1e-9)) "nlogn 8" 24.0 (B.nlogn 8);
  Alcotest.(check bool) "average close to max" true
    (B.average_bits_needed 16 >= B.bits_needed 16 -. 2.0 -. 1e-9)

let test_theorem_7_5_shape () =
  (* the empirical chain of Theorem 7.5 for exhaustive small n: distinct
     decodes force max_bits >= log2 n!, and cost >= max_bits / c *)
  List.iter
    (fun n ->
      let cert = Pl.certify ya ~n ~perms:(P.all n) ~exhaustive:true () in
      Alcotest.(check bool) "distinct" true cert.B.distinct;
      Alcotest.(check bool) "pigeonhole" true
        (float_of_int cert.B.max_bits >= B.bits_needed n);
      Alcotest.(check bool) "cost lower bound" true
        (float_of_int cert.B.max_cost
        >= B.bits_needed n /. cert.B.bits_per_cost))
    [ 2; 3; 4; 5 ]

let test_certificate_pp () =
  let cert = Pl.certify ya ~n:3 ~perms:(P.all 3) ~exhaustive:true () in
  let s = Format.asprintf "%a" B.pp_certificate cert in
  Alcotest.(check bool) "mentions algo" true (Astring_contains.contains s "yang_anderson");
  Alcotest.(check bool) "mentions distinct" true (Astring_contains.contains s "distinct")

let test_large_n () =
  (* the pipeline at the scale the experiments sweep *)
  List.iter
    (fun (algo, n) ->
      let pi = P.random (Lb_util.Rng.create (n * 31)) n in
      let r = Pl.run_checked algo ~n pi in
      Alcotest.(check bool) "bits >= log2 n!" true
        (float_of_int r.Pl.bits >= B.bits_needed n))
    [ (ya, 32); (ya, 48); (bakery, 24); (Lb_algos.Filter.algorithm, 16) ]

let test_exhaustive_s7 () =
  (* all 5040 permutations of S_7 through the checked pipeline, with
     distinctness -- the largest exhaustive certificate in the suite *)
  let cert = Pl.certify ya ~n:7 ~perms:(P.all 7) ~exhaustive:true () in
  Alcotest.(check int) "5040 perms" 5040 cert.B.perms;
  Alcotest.(check bool) "distinct" true cert.B.distinct;
  Alcotest.(check bool) "pigeonhole" true
    (float_of_int cert.B.max_bits >= B.bits_needed 7)

let suite =
  [
    Alcotest.test_case "large n" `Slow test_large_n;
    Alcotest.test_case "exhaustive S7" `Slow test_exhaustive_s7;
    Alcotest.test_case "run_checked family" `Quick test_run_checked_family;
    Alcotest.test_case "whole register zoo" `Quick test_whole_zoo;
    Alcotest.test_case "unsafe algorithms still construct" `Quick
      test_unsafe_algorithm_still_constructs;
    Alcotest.test_case "check_failed exception" `Quick test_check_failed_exception;
    Alcotest.test_case "result fields" `Quick test_result_fields;
    Alcotest.test_case "check catches corruption" `Quick test_check_catches_corruption;
    Alcotest.test_case "check catches wrong pi" `Quick test_check_catches_wrong_pi;
    Alcotest.test_case "check catches wrong cost" `Quick test_check_catches_wrong_cost;
    Alcotest.test_case "certificate exhaustive S4" `Quick test_certificate_exhaustive;
    Alcotest.test_case "certificate sampled" `Quick test_certificate_sampled;
    Alcotest.test_case "certify empty rejected" `Quick test_certify_empty_rejected;
    Alcotest.test_case "certify jobs equivalence" `Quick test_certify_jobs_equivalence;
    Alcotest.test_case "bounds math" `Quick test_bounds_math;
    Alcotest.test_case "theorem 7.5 shape" `Slow test_theorem_7_5_shape;
    Alcotest.test_case "certificate pp" `Quick test_certificate_pp;
  ]
