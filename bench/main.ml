(* Benchmark harness: regenerates every experiment table of EXPERIMENTS.md
   (E1-E8), times the core operations with bechamel, sweeps the bounded
   model checker over the whole registry on the domain pool, and measures
   the parallel-vs-sequential wall clock of the E1 certify sweep.

   Usage: dune exec bench/main.exe            -- everything
          dune exec bench/main.exe -- tables  -- tables only
          dune exec bench/main.exe -- timings -- timings only
          dune exec bench/main.exe -- checks  -- model-check sweep only
          dune exec bench/main.exe -- sweep   -- E1 speedup measurement
                                                 (writes BENCH_PARALLEL.json)
          dune exec bench/main.exe -- store   -- cold vs warm durable sweep
                                                 (writes BENCH_STORE.json)
          dune exec bench/main.exe -- chaos   -- fault-wrapper overhead
                                                 (writes BENCH_CHAOS.json)
          dune exec bench/main.exe -- mutate  -- mutation-stack kill rate and
                                                 per-layer cost
                                                 (writes BENCH_MUTATE.json)
          dune exec bench/main.exe -- serve   -- job-service round trips and
                                                 drain latency
                                                 (writes BENCH_SERVE.json)
          dune exec bench/main.exe -- distrib -- 1 vs K distributed sweep
                                                 workers on one store
                                                 (writes BENCH_DISTRIB.json) *)

open Bechamel
open Toolkit

let pi_of n seed = Lb_core.Permutation.random (Lb_util.Rng.create seed) n

(* One bechamel test per pipeline phase and per supporting system. *)
let timing_tests =
  let ya = Lb_algos.Yang_anderson.algorithm in
  let bakery = Lb_algos.Bakery.algorithm in
  let construct_ya n =
    Test.make
      ~name:(Printf.sprintf "construct yang_anderson n=%d" n)
      (Staged.stage (fun () -> Lb_core.Construct.run ya ~n (pi_of n 1)))
  in
  let pipeline_bakery n =
    Test.make
      ~name:(Printf.sprintf "pipeline bakery n=%d" n)
      (Staged.stage (fun () -> Lb_core.Pipeline.run bakery ~n (pi_of n 2)))
  in
  let encode_decode =
    let c = Lb_core.Construct.run ya ~n:16 (pi_of 16 3) in
    let e = Lb_core.Encode.encode c in
    [
      Test.make ~name:"encode yang_anderson n=16"
        (Staged.stage (fun () -> Lb_core.Encode.encode c));
      Test.make ~name:"decode yang_anderson n=16"
        (Staged.stage (fun () -> Lb_core.Decode.run_bits ya ~n:16 e.Lb_core.Encode.bits));
    ]
  in
  let runners =
    [
      Test.make ~name:"canonical greedy yang_anderson n=64"
        (Staged.stage (fun () -> Lb_mutex.Canonical.run ya ~n:64));
      Test.make ~name:"canonical rr bakery n=16"
        (Staged.stage (fun () -> Lb_mutex.Canonical.run_round_robin bakery ~n:16));
      Test.make ~name:"model check peterson2 n=2"
        (Staged.stage (fun () ->
             Lb_mutex.Model_check.explore Lb_algos.Peterson2.algorithm ~n:2));
      Test.make ~name:"sc cost of rr bakery n=16"
        (let exec =
           (Lb_mutex.Canonical.run_round_robin bakery ~n:16).Lb_mutex.Canonical.exec
         in
         Staged.stage (fun () -> Lb_cost.State_change.cost bakery ~n:16 exec));
      Test.make ~name:"workload poisson ya n=16"
        (Staged.stage (fun () ->
             Lb_mutex.Workload.run
               ~pattern:(Lb_mutex.Workload.Poisson { seed = 7; mean_gap = 20.0 })
               ~schedule:Lb_mutex.Workload.Round_robin ya ~n:16));
      Test.make ~name:"adversary search ya n=8 (8 tries)"
        (Staged.stage (fun () ->
             Lb_mutex.Adversary.search ~tries:8 ~seed:3 ya ~n:8));
    ]
  in
  Test.make_grouped ~name:"mutexlb"
    ([ construct_ya 8; construct_ya 16; pipeline_bakery 8; pipeline_bakery 12 ]
    @ encode_decode @ runners)

let run_timings () =
  print_endline "\n=== Timings (bechamel, monotonic clock) ===\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] timing_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let t =
    Lb_util.Table.create ~title:"core operation timings"
      [ ("benchmark", Lb_util.Table.Left); ("time/run", Lb_util.Table.Right) ]
  in
  List.iter
    (fun (name, ols) ->
      let cell =
        match Analyze.OLS.estimates ols with
        | Some (x :: _) ->
          if x > 1e6 then Printf.sprintf "%.2f ms" (x /. 1e6)
          else if x > 1e3 then Printf.sprintf "%.2f us" (x /. 1e3)
          else Printf.sprintf "%.0f ns" x
        | Some [] | None -> "-"
      in
      Lb_util.Table.add_row t [ name; cell ])
    (List.sort compare rows);
  Lb_util.Table.print t

(* ----------------------- model-check sweep --------------------------- *)

(* One Model_check.explore per registry algorithm, fanned out on the
   domain pool — the bench-side consumer of Pool.map besides certify. *)
let rec run_checks () =
  print_endline "\n=== Bounded model-check sweep (Pool.map over the registry) ===\n";
  let algos =
    List.filter
      (fun (a : Lb_shmem.Algorithm.t) -> Lb_shmem.Algorithm.supports a 2)
      Lb_algos.Registry.all
  in
  let reports =
    Lb_util.Pool.map
      (fun a -> Lb_mutex.Model_check.explore a ~n:2 ~rounds:1)
      algos
  in
  let t =
    Lb_util.Table.create
      ~title:
        (Printf.sprintf "model check, n=2, rounds=1 (jobs=%d)"
           (Lb_util.Pool.default_jobs ()))
      [
        ("algo", Lb_util.Table.Left);
        ("verdict", Lb_util.Table.Left);
        ("states", Lb_util.Table.Right);
        ("transitions", Lb_util.Table.Right);
        ("states/s", Lb_util.Table.Right);
        ("B/state", Lb_util.Table.Right);
      ]
  in
  List.iter2
    (fun (a : Lb_shmem.Algorithm.t) (r : Lb_mutex.Model_check.report) ->
      Lb_util.Table.add_row t
        [
          a.Lb_shmem.Algorithm.name;
          Format.asprintf "%a" Lb_mutex.Model_check.pp_verdict
            r.Lb_mutex.Model_check.verdict;
          string_of_int r.Lb_mutex.Model_check.states;
          string_of_int r.Lb_mutex.Model_check.transitions;
          Printf.sprintf "%.0f" (Lb_mutex.Model_check.states_per_sec r);
          Printf.sprintf "%.0f" (Lb_mutex.Model_check.bytes_per_state r);
        ])
    algos reports;
  Lb_util.Table.print t;
  run_core_comparison ()

(* Fixed workload comparing jobs=1 against jobs=default, in RAM and
   under a spilling memory budget. Verdicts, state and transition counts
   must agree everywhere; the measurements land in BENCH_MODELCHECK.json.
   The structural-key reference BFS in the test suite is the independent
   oracle for the counts themselves. *)
and run_core_comparison () =
  print_endline "\n=== Core comparison: jobs=1 vs jobs=N, in RAM vs spilled ===\n";
  let algo = Lb_algos.Yang_anderson.algorithm and n = 3 and rounds = 1 in
  let seq = Lb_mutex.Model_check.explore algo ~n ~rounds ~jobs:1 in
  let jobs = Domain.recommended_domain_count () in
  let multicore = jobs > 1 in
  let par = Lb_mutex.Model_check.explore algo ~n ~rounds ~jobs in
  let same (a : Lb_mutex.Model_check.report) (b : Lb_mutex.Model_check.report) =
    a.Lb_mutex.Model_check.verdict = b.Lb_mutex.Model_check.verdict
    && a.Lb_mutex.Model_check.states = b.Lb_mutex.Model_check.states
    && a.Lb_mutex.Model_check.transitions = b.Lb_mutex.Model_check.transitions
  in
  (* agreement gates: any mismatch is a correctness regression *)
  if seq.Lb_mutex.Model_check.verdict <> Lb_mutex.Model_check.Verified then
    failwith "core comparison: expected verified";
  if not (same seq par) then
    failwith "core comparison: jobs=1 and jobs=N disagree";
  let sps r = Lb_mutex.Model_check.states_per_sec r in
  let bps r = Lb_mutex.Model_check.bytes_per_state r in
  let t =
    Lb_util.Table.create
      ~title:
        (Printf.sprintf "yang_anderson n=%d rounds=%d (%d states)" n rounds
           seq.Lb_mutex.Model_check.states)
      [
        ("core", Lb_util.Table.Left);
        ("seconds", Lb_util.Table.Right);
        ("states/s", Lb_util.Table.Right);
        ("B/state", Lb_util.Table.Right);
      ]
  in
  let row label (r : Lb_mutex.Model_check.report) =
    Lb_util.Table.add_row t
      [
        label;
        Printf.sprintf "%.3f" r.Lb_mutex.Model_check.seconds;
        Printf.sprintf "%.0f" (sps r);
        Printf.sprintf "%.0f" (bps r);
      ]
  in
  row "packed, jobs=1" seq;
  row (Printf.sprintf "packed, jobs=%d" jobs) par;
  (* the out-of-core configuration: same workload under a fixed budget
     the resident set does not fit in, so shards evict and membership
     streams the spill runs — counts must still match exactly *)
  let budget = 2 * 1024 * 1024 in
  let spill =
    let d = Filename.temp_file "mutexlb_bench_spill" "" in
    Sys.remove d;
    d
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let budgeted =
    Fun.protect
      ~finally:(fun () -> rm_rf spill)
      (fun () ->
        Lb_mutex.Model_check.explore algo ~n ~rounds ~mem_budget:budget
          ~spill_dir:spill)
  in
  if not (same budgeted seq) then
    failwith "core comparison: budgeted and in-RAM cores disagree";
  row (Printf.sprintf "spilled, %d MiB budget" (budget / 1024 / 1024)) budgeted;
  Lb_util.Table.print t;
  if not multicore then
    print_endline
      "\nWARNING: recommended_domain_count = 1 — single-core runner, the \
       jobs=N speedup cannot be demonstrated here; recording \
       \"multicore\": false instead.";
  let stage_json (r : Lb_mutex.Model_check.report) =
    let st = r.Lb_mutex.Model_check.stats in
    Printf.sprintf
      "\"expand_seconds\": %.3f, \"merge_seconds\": %.3f, \
       \"spill_seconds\": %.3f"
      st.Lb_mutex.Model_check.expand_seconds
      st.Lb_mutex.Model_check.merge_seconds
      st.Lb_mutex.Model_check.spill_seconds
  in
  let leg (r : Lb_mutex.Model_check.report) =
    Printf.sprintf
      "\"seconds\": %.3f, \"states_per_sec\": %.0f, \"bytes_per_state\": \
       %.1f, %s"
      r.Lb_mutex.Model_check.seconds (sps r) (bps r) (stage_json r)
  in
  let oc = open_out "BENCH_MODELCHECK.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"model check yang_anderson n=%d rounds=%d\",\n\
    \  \"states\": %d,\n\
    \  \"transitions\": %d,\n\
    \  \"verdict\": \"verified\",\n\
    \  \"counts_identical_jobs1_vs_jobsN\": true,\n\
    \  \"recommended_domain_count\": %d,\n\
    \  \"multicore\": %b,\n\
    \  \"packed_jobs1\": { %s },\n\
    \  \"packed_jobsN\": { \"jobs\": %d, %s },\n\
    \  \"budgeted\": { \"mem_budget_bytes\": %d, %s, \
     \"counts_identical_to_in_ram\": true },\n\
    \  \"speedup_jobsN_vs_jobs1\": %.3f\n\
     }\n"
    n rounds seq.Lb_mutex.Model_check.states
    seq.Lb_mutex.Model_check.transitions jobs multicore (leg seq) jobs (leg par)
    budget (leg budgeted)
    (sps par /. sps seq);
  close_out oc;
  print_endline "wrote BENCH_MODELCHECK.json"

(* --------------------- E1 sweep speedup ------------------------------ *)

(* Wall-clock of the E1 certify sweep at jobs=1 vs jobs=default. The
   tables are asserted byte-identical — parallelism must only buy time,
   never change results. Appends the measurement to BENCH_PARALLEL.json. *)
let run_sweep () =
  print_endline "\n=== E1 sweep: sequential vs parallel wall clock ===\n";
  let algos = [ Lb_algos.Yang_anderson.algorithm; Lb_algos.Bakery.algorithm ] in
  let ns = [ 8; 9; 10 ] and budget = 24 in
  let render jobs =
    Lb_util.Pool.set_default_jobs jobs;
    Lb_util.Table.render (Lb_exp.E1_lower_bound.table ~budget ~algos ~ns ())
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let y = f () in
    (y, Unix.gettimeofday () -. t0)
  in
  ignore (render 1) (* warm up *);
  let seq, seq_s = time (fun () -> render 1) in
  let jobs = Domain.recommended_domain_count () in
  let par, par_s = time (fun () -> render jobs) in
  if seq <> par then failwith "parallel E1 table differs from sequential";
  let speedup = seq_s /. par_s in
  let t =
    Lb_util.Table.create ~title:"E1 certify sweep wall clock"
      [
        ("jobs", Lb_util.Table.Right);
        ("seconds", Lb_util.Table.Right);
        ("speedup", Lb_util.Table.Right);
      ]
  in
  Lb_util.Table.add_row t [ "1"; Printf.sprintf "%.2f" seq_s; "1.00" ];
  Lb_util.Table.add_row t
    [
      string_of_int jobs;
      Printf.sprintf "%.2f" par_s;
      Printf.sprintf "%.2f" speedup;
    ];
  Lb_util.Table.print t;
  print_endline "(tables byte-identical at both job counts)";
  if jobs <= 1 then
    print_endline
      "\nWARNING: recommended_domain_count = 1 — single-core runner, the \
       sweep speedup cannot be demonstrated here; recording \
       \"multicore\": false instead.";
  let oc = open_out "BENCH_PARALLEL.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"E1 certify sweep (yang_anderson+bakery, n in \
     [8,9,10], budget 24)\",\n\
    \  \"recommended_domain_count\": %d,\n\
    \  \"multicore\": %b,\n\
    \  \"jobs_sequential\": 1,\n\
    \  \"jobs_parallel\": %d,\n\
    \  \"seconds_sequential\": %.3f,\n\
    \  \"seconds_parallel\": %.3f,\n\
    \  \"speedup\": %.3f,\n\
    \  \"tables_identical\": true\n\
     }\n"
    jobs (jobs > 1) jobs seq_s par_s speedup;
  close_out oc;
  print_endline "wrote BENCH_PARALLEL.json"

(* --------------------- durable store sweep --------------------------- *)

(* Cold (empty store, everything computed) vs warm (same family again,
   everything a cache hit) wall clock of the durable certify sweep. The
   warm run must be 100% hits with a byte-identical certificate — the
   store must never change results, only skip recomputation. Appends the
   measurement to BENCH_STORE.json. *)
let run_store () =
  print_endline "\n=== Durable store: cold vs warm certify sweep ===\n";
  let algo = Lb_algos.Yang_anderson.algorithm and n = 9 and count = 96 in
  let perms =
    Lb_core.Permutation.sample (Lb_util.Rng.create 20060723) ~n ~count
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mutexlb-bench-store-%d" (Unix.getpid ()))
  in
  let store = Lb_store.Store.open_ ~dir in
  let time f =
    let t0 = Unix.gettimeofday () in
    let y = f () in
    (y, Unix.gettimeofday () -. t0)
  in
  let run () =
    Lb_store.Sweep.certify ~store algo ~n ~perms ~exhaustive:false ()
  in
  let (cold_cert, cold), cold_s = time run in
  let (warm_cert, warm), warm_s = time run in
  let cp = cold.Lb_store.Sweep.progress and wp = warm.Lb_store.Sweep.progress in
  if wp.Lb_store.Sweep.p_hits <> count || wp.Lb_store.Sweep.p_computed <> 0 then
    failwith "store bench: warm sweep was not 100% cache hits";
  let render = function
    | Some c -> Format.asprintf "%a" Lb_core.Bounds.pp_certificate c
    | None -> failwith "store bench: sweep produced no certificate"
  in
  if render cold_cert <> render warm_cert then
    failwith "store bench: warm certificate differs from cold";
  let t =
    Lb_util.Table.create
      ~title:
        (Printf.sprintf "certify yang_anderson n=%d (%d perms, jobs=%d)" n
           count
           (Lb_util.Pool.default_jobs ()))
      [
        ("run", Lb_util.Table.Left);
        ("seconds", Lb_util.Table.Right);
        ("hits", Lb_util.Table.Right);
        ("computed", Lb_util.Table.Right);
      ]
  in
  Lb_util.Table.add_row t
    [
      "cold";
      Printf.sprintf "%.3f" cold_s;
      string_of_int cp.Lb_store.Sweep.p_hits;
      string_of_int cp.Lb_store.Sweep.p_computed;
    ];
  Lb_util.Table.add_row t
    [
      "warm";
      Printf.sprintf "%.3f" warm_s;
      string_of_int wp.Lb_store.Sweep.p_hits;
      string_of_int wp.Lb_store.Sweep.p_computed;
    ];
  Lb_util.Table.print t;
  Printf.printf "\nwarm/cold: %.1fx faster (certificates byte-identical)\n"
    (cold_s /. warm_s);
  let oc = open_out "BENCH_STORE.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"durable certify sweep (yang_anderson n=%d, %d \
     perms)\",\n\
    \  \"jobs\": %d,\n\
    \  \"seconds_cold\": %.3f,\n\
    \  \"seconds_warm\": %.3f,\n\
    \  \"warm_speedup\": %.3f,\n\
    \  \"warm_hit_rate\": 1.0,\n\
    \  \"certificates_identical\": true\n\
     }\n"
    n count
    (Lb_util.Pool.default_jobs ())
    cold_s warm_s (cold_s /. warm_s);
  close_out oc;
  print_endline "wrote BENCH_STORE.json";
  (* scrub the throwaway store *)
  Lb_store.Store.fold store ~init:() ~f:(fun () ~key _ ->
      Lb_store.Store.remove store ~key);
  List.iter Sys.remove (Lb_store.Store.manifest_paths store);
  List.iter
    (fun sub ->
      let d = Filename.concat dir sub in
      if Sys.file_exists d && Sys.is_directory d then begin
        Array.iter
          (fun shard ->
            let sd = Filename.concat d shard in
            if Sys.is_directory sd then
              (try Sys.rmdir sd with Sys_error _ -> ()))
          (Sys.readdir d);
        try Sys.rmdir d with Sys_error _ -> ()
      end)
    [ "objects"; "manifests" ];
  try Sys.rmdir dir with Sys_error _ -> ()

(* --------------------- chaos wrapping overhead ----------------------- *)

(* Cost of the fault-injection wrapper on the model checker. The empty
   control plan routes every transition of every process through the
   full Inject.wrap closure chain without injecting anything, so the
   wrapped state space must match the bare one state-for-state and any
   slowdown is pure wrapper dispatch (target: < 10%, advisory — timing
   noise must not fail CI). A benign crash-at-rem plan is measured
   alongside to show the bounded state inflation a real fault costs.
   Writes BENCH_CHAOS.json. *)
let run_chaos () =
  print_endline "\n=== Chaos: fault-wrapper overhead on the model checker ===\n";
  let algo = Lb_algos.Yang_anderson.algorithm and n = 3 and rounds = 1 in
  let control =
    Lb_faults.Inject.wrap { Lb_faults.Fault.label = "control"; faults = [] } algo
  in
  let crash_rem =
    Lb_faults.Inject.wrap
      {
        Lb_faults.Fault.label = "crash-rem";
        faults =
          [
            Lb_faults.Fault.Crash
              { proc = 0; at = Lb_faults.Fault.In_section Lb_shmem.Step.Rem };
          ];
      }
      algo
  in
  (* best-of-3 to shave allocator/GC noise, like a tiny bechamel *)
  let best a =
    let best = ref None in
    for _ = 1 to 3 do
      let r = Lb_mutex.Model_check.explore a ~n ~rounds ~jobs:1 in
      match !best with
      | Some b when b.Lb_mutex.Model_check.seconds <= r.Lb_mutex.Model_check.seconds
        -> ()
      | _ -> best := Some r
    done;
    Option.get !best
  in
  (* one throwaway exploration so the first timed variant doesn't pay
     the page-in / major-heap warm-up alone *)
  ignore (Lb_mutex.Model_check.explore algo ~n ~rounds ~jobs:1);
  let bare = best algo in
  let ctrl = best control in
  let crash = best crash_rem in
  (match
     ( bare.Lb_mutex.Model_check.verdict,
       ctrl.Lb_mutex.Model_check.verdict,
       crash.Lb_mutex.Model_check.verdict )
   with
  | ( Lb_mutex.Model_check.Verified,
      Lb_mutex.Model_check.Verified,
      Lb_mutex.Model_check.Verified ) -> ()
  | _ -> failwith "chaos bench: expected verified on all three variants");
  if
    bare.Lb_mutex.Model_check.states <> ctrl.Lb_mutex.Model_check.states
    || bare.Lb_mutex.Model_check.transitions
       <> ctrl.Lb_mutex.Model_check.transitions
  then failwith "chaos bench: control plan changed the state space";
  let secs r = r.Lb_mutex.Model_check.seconds in
  let overhead_pct =
    if secs bare > 0.0 then (secs ctrl -. secs bare) /. secs bare *. 100.0
    else 0.0
  in
  let inflation_pct =
    float_of_int
      (crash.Lb_mutex.Model_check.states - bare.Lb_mutex.Model_check.states)
    /. float_of_int bare.Lb_mutex.Model_check.states
    *. 100.0
  in
  let t =
    Lb_util.Table.create
      ~title:
        (Printf.sprintf "model check yang_anderson n=%d rounds=%d, jobs=1" n
           rounds)
      [
        ("variant", Lb_util.Table.Left);
        ("states", Lb_util.Table.Right);
        ("transitions", Lb_util.Table.Right);
        ("seconds", Lb_util.Table.Right);
      ]
  in
  List.iter
    (fun (name, r) ->
      Lb_util.Table.add_row t
        [
          name;
          string_of_int r.Lb_mutex.Model_check.states;
          string_of_int r.Lb_mutex.Model_check.transitions;
          Printf.sprintf "%.3f" (secs r);
        ])
    [ ("bare", bare); ("wrapped, empty plan", ctrl);
      ("wrapped, crash at rem", crash) ];
  Lb_util.Table.print t;
  Printf.printf
    "\nwrapper overhead (empty plan): %+.1f%% (target < 10%%, advisory)\n\
     state inflation (crash at rem): %+.1f%%\n"
    overhead_pct inflation_pct;
  let oc = open_out "BENCH_CHAOS.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"fault-wrapper overhead (yang_anderson n=%d \
     rounds=%d, jobs=1)\",\n\
    \  \"states\": %d,\n\
    \  \"transitions\": %d,\n\
    \  \"counts_identical_bare_vs_control\": true,\n\
    \  \"bare\": { \"seconds\": %.4f },\n\
    \  \"wrapped_control\": { \"seconds\": %.4f },\n\
    \  \"wrapped_crash_rem\": { \"seconds\": %.4f, \"states\": %d, \
     \"transitions\": %d },\n\
    \  \"wrapper_overhead_pct\": %.2f,\n\
    \  \"overhead_target_pct\": 10.0,\n\
    \  \"crash_state_inflation_pct\": %.2f\n\
     }\n"
    n rounds bare.Lb_mutex.Model_check.states
    bare.Lb_mutex.Model_check.transitions (secs bare) (secs ctrl) (secs crash)
    crash.Lb_mutex.Model_check.states crash.Lb_mutex.Model_check.transitions
    overhead_pct inflation_pct;
  close_out oc;
  print_endline "wrote BENCH_CHAOS.json"

(* ---------------------------------------------------------------------
   Mutation campaign: kill rate and wall-clock per detection layer on a
   small fixed slice of the zoo (the staged-stack economics: how much of
   the work each layer absorbs, and what the deep-check escalation
   costs). Writes BENCH_MUTATE.json. *)
let run_mutate () =
  print_endline "\n=== Mutation campaign: per-layer kill rate and cost ===\n";
  let algos =
    [
      Lb_algos.Peterson2.algorithm;
      Lb_algos.Dekker.algorithm;
      Lb_algos.Rmw_locks.test_and_set;
    ]
  in
  let t0 = Unix.gettimeofday () in
  let t =
    Lb_mutate.Campaign.run ~jobs:1
      ~allow:Lb_algos.Registry.expected_survivors algos
  in
  let total_secs = Unix.gettimeofday () -. t0 in
  let module C = Lb_mutate.Campaign in
  let kills = C.kills t in
  let secs = C.layer_seconds t in
  let tbl =
    Lb_util.Table.create ~title:"mutation stack, jobs=1 (peterson2, dekker, tas)"
      [
        ("layer", Lb_util.Table.Left);
        ("kills", Lb_util.Table.Right);
        ("seconds", Lb_util.Table.Right);
      ]
  in
  List.iter
    (fun (layer, k) ->
      Lb_util.Table.add_row tbl
        [
          C.layer_name layer;
          string_of_int k;
          Printf.sprintf "%.3f" (List.assoc layer secs);
        ])
    kills;
  Lb_util.Table.print tbl;
  Printf.printf "\nmutants %d, killed %d (%.1f%%), wall clock %.2fs\n"
    (C.total t) (C.killed_count t)
    (100.0 *. C.score t)
    total_secs;
  let oc = open_out "BENCH_MUTATE.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"mutation campaign (peterson2, dekker, tas; \
     defaults, jobs=1)\",\n\
    \  \"mutants\": %d,\n\
    \  \"killed\": %d,\n\
    \  \"kill_rate\": %.4f,\n\
    \  \"clean\": %b,\n\
    \  \"layers\": {\n%s\n  },\n\
    \  \"seconds_total\": %.4f\n\
     }\n"
    (C.total t) (C.killed_count t) (C.score t) (C.clean t)
    (String.concat ",\n"
       (List.map
          (fun (layer, k) ->
            Printf.sprintf
              "    \"%s\": { \"kills\": %d, \"seconds\": %.4f }"
              (C.layer_name layer) k (List.assoc layer secs))
          kills))
    total_secs;
  close_out oc;
  print_endline "wrote BENCH_MUTATE.json"

(* ------------------------- serve round trips ------------------------- *)

(* Round-trip costs of the job service over a real socket: a cold
   certify (full sweep, streamed JSONL events), the same job served warm
   straight from the store, sustained warm-hit throughput, and the
   SIGTERM drain latency with a sweep mid-flight (how long past the
   configured grace the server needs to checkpoint and wind down).
   Writes BENCH_SERVE.json. *)
let run_serve () =
  print_endline "\n=== Serve: job-service round trips ===\n";
  let module Json = Lb_util.Json in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mutexlb-bench-serve-%d" (Unix.getpid ()))
  in
  let port_file = dir ^ ".port" in
  let grace = 0.2 in
  let cfg =
    {
      (Lb_serve.Server.default ~store_dir:dir) with
      Lb_serve.Server.port = 0;
      port_file = Some port_file;
      sched =
        {
          Lb_serve.Scheduler.max_active = 1;
          per_client = 1;
          rate = 1.0e9;
          burst = 1.0e9;
        };
      grace;
    }
  in
  let server = Domain.spawn (fun () -> Lb_serve.Server.run cfg) in
  let rec wait_port tries =
    if tries = 0 then failwith "serve bench: server never came up"
    else if Sys.file_exists port_file then
      int_of_string
        (String.trim (In_channel.with_open_text port_file In_channel.input_all))
    else begin
      Unix.sleepf 0.05;
      wait_port (tries - 1)
    end
  in
  let port = wait_port 200 in
  let n = 8 and count = 192 in
  let certify_job ~perms ~seed =
    Json.Obj
      [
        ("kind", Json.String "certify");
        ("algo", Json.String "yang_anderson");
        ("n", Json.Int n);
        ("perms", Json.Int perms);
        ("seed", Json.Int seed);
      ]
  in
  let job = certify_job ~perms:count ~seed:20060723 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let y = f () in
    (y, Unix.gettimeofday () -. t0)
  in
  let submit ?(on_event = fun _ -> ()) j =
    match Lb_serve.Client.submit ~port ~client:"bench" j ~on_event with
    | Error msg -> failwith ("serve bench: " ^ msg)
    | Ok o -> (
      match o.Lb_serve.Client.o_result with
      | Some r -> r
      | None -> failwith "serve bench: job returned no result")
  in
  let path_of r =
    match Option.bind (Json.member "path" r) Json.as_string with
    | Some p -> p
    | None -> failwith "serve bench: result without a path"
  in
  let cold_r, cold_s = time (fun () -> submit job) in
  if path_of cold_r <> "swept" then
    failwith "serve bench: first submission was not a cold sweep";
  let warm_r, warm_s = time (fun () -> submit job) in
  if path_of warm_r <> "warm" then
    failwith "serve bench: second submission missed the warm path";
  let reqs = 50 in
  let (), thr_s =
    time (fun () ->
        for _ = 1 to reqs do
          ignore (submit job)
        done)
  in
  let req_per_s = float_of_int reqs /. thr_s in
  (* drain latency: a long sweep is mid-flight when SIGTERM lands *)
  let items = Atomic.make 0 in
  let slow = certify_job ~perms:5000 ~seed:7 in
  let d_slow =
    Domain.spawn (fun () ->
        ignore
          (Lb_serve.Client.submit ~port ~client:"bench" slow
             ~on_event:(fun j ->
               if Json.member "event" j = Some (Json.String "item") then
                 Atomic.incr items)))
  in
  let rec wait_items tries =
    if tries = 0 then failwith "serve bench: slow sweep never started"
    else if Atomic.get items < 1 then begin
      Unix.sleepf 0.01;
      wait_items (tries - 1)
    end
  in
  wait_items 1000;
  let t0 = Unix.gettimeofday () in
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Domain.join server;
  let drain_s = Unix.gettimeofday () -. t0 in
  Domain.join d_slow;
  let t =
    Lb_util.Table.create
      ~title:
        (Printf.sprintf "serve certify yang_anderson n=%d (%d perms)" n count)
      [ ("request", Lb_util.Table.Left); ("seconds", Lb_util.Table.Right) ]
  in
  Lb_util.Table.add_row t [ "cold (full sweep)"; Printf.sprintf "%.3f" cold_s ];
  Lb_util.Table.add_row t [ "warm (store hit)"; Printf.sprintf "%.3f" warm_s ];
  Lb_util.Table.add_row t
    [
      Printf.sprintf "warm throughput (%d reqs)" reqs;
      Printf.sprintf "%.1f req/s" req_per_s;
    ];
  Lb_util.Table.add_row t
    [
      Printf.sprintf "drain (grace %.1fs)" grace; Printf.sprintf "%.3f" drain_s;
    ];
  Lb_util.Table.print t;
  let oc = open_out "BENCH_SERVE.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"job service (yang_anderson n=%d, %d perms)\",\n\
    \  \"seconds_cold\": %.3f,\n\
    \  \"seconds_warm\": %.3f,\n\
    \  \"warm_speedup\": %.3f,\n\
    \  \"warm_req_per_s\": %.1f,\n\
    \  \"drain_grace\": %.1f,\n\
    \  \"drain_seconds\": %.3f\n\
     }\n"
    n count cold_s warm_s (cold_s /. warm_s) req_per_s grace drain_s;
  close_out oc;
  print_endline "wrote BENCH_SERVE.json";
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter
          (fun f -> rm_rf (Filename.concat path f))
          (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm_rf dir;
  if Sys.file_exists port_file then Sys.remove port_file

(* ------------------- distributed sweep workers ----------------------- *)

(* One worker vs K workers converging on the same fresh store: the
   speedup the per-entry claim protocol buys, and the proof obligation
   that it costs nothing in output — manifests byte-identical between
   the two runs. Writes BENCH_DISTRIB.json. *)
let run_distrib () =
  print_endline "\n=== Distributed sweep: 1 vs K workers ===\n";
  (* n = 11 makes each unit heavy enough (tens of ms) that compute, not
     claim-directory scanning, dominates — the regime distribution is
     for; a generous batch amortizes the per-round store re-derivation *)
  let algo = Lb_algos.Yang_anderson.algorithm and n = 11 and count = 48 in
  let perms =
    Lb_core.Permutation.sample (Lb_util.Rng.create 20060723) ~n ~count
  in
  let batch = 8 in
  let workers = max 2 (min 4 (Lb_util.Pool.default_jobs ())) in
  let fresh tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mutexlb-bench-distrib-%s-%d" tag (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter
          (fun f -> rm_rf (Filename.concat path f))
          (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let y = f () in
    (y, Unix.gettimeofday () -. t0)
  in
  let read_file path = In_channel.with_open_bin path In_channel.input_all in
  let single_dir = fresh "single" and multi_dir = fresh "multi" in
  Fun.protect ~finally:(fun () ->
      rm_rf single_dir;
      rm_rf multi_dir)
  @@ fun () ->
  let st1 = Lb_store.Store.open_ ~dir:single_dir in
  let r1, single_s =
    time (fun () ->
        Lb_store.Sweep_dist.work ~store:st1 ~jobs:1 ~batch algo ~n ~perms ())
  in
  let st2 = Lb_store.Store.open_ ~dir:multi_dir in
  let rs, multi_s =
    time (fun () ->
        List.init workers (fun _ ->
            Domain.spawn (fun () ->
                Lb_store.Sweep_dist.work ~store:st2 ~jobs:1 ~batch algo ~n
                  ~perms ()))
        |> List.map Domain.join)
  in
  let m1 = read_file r1.Lb_store.Sweep_dist.d_manifest_path in
  List.iter
    (fun r ->
      if read_file r.Lb_store.Sweep_dist.d_manifest_path <> m1 then
        failwith "distrib bench: worker manifest differs from single-worker")
    rs;
  let stolen =
    List.fold_left (fun a r -> a + r.Lb_store.Sweep_dist.d_stolen) 0 rs
  in
  let t =
    Lb_util.Table.create
      ~title:
        (Printf.sprintf "distributed certify yang_anderson n=%d (%d perms)" n
           count)
      [
        ("workers", Lb_util.Table.Right);
        ("seconds", Lb_util.Table.Right);
        ("speedup", Lb_util.Table.Right);
      ]
  in
  Lb_util.Table.add_row t [ "1"; Printf.sprintf "%.3f" single_s; "1.00" ];
  Lb_util.Table.add_row t
    [
      string_of_int workers;
      Printf.sprintf "%.3f" multi_s;
      Printf.sprintf "%.2f" (single_s /. multi_s);
    ];
  Lb_util.Table.print t;
  let cores = Lb_util.Pool.default_jobs () in
  Printf.printf
    "\n%d workers on %d core(s): %.2fx, %d stolen claims (manifests \
     byte-identical)\n"
    workers cores (single_s /. multi_s) stolen;
  if cores < workers then
    print_endline
      "note: fewer cores than workers — the workers time-slice one CPU, so \
       speedup < 1 here measures pure coordination overhead, not the \
       protocol's multi-core/multi-host scaling.";
  let oc = open_out "BENCH_DISTRIB.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"distributed certify sweep (yang_anderson n=%d, %d \
     perms)\",\n\
    \  \"workers\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"seconds_single\": %.3f,\n\
    \  \"seconds_workers\": %.3f,\n\
    \  \"speedup\": %.3f,\n\
    \  \"stolen_claims\": %d,\n\
    \  \"manifests_identical\": true\n\
     }\n"
    n count workers cores single_s multi_s (single_s /. multi_s) stolen;
  close_out oc;
  print_endline "wrote BENCH_DISTRIB.json"

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  if what = "tables" || what = "all" then Lb_exp.Exp_all.run ();
  if what = "checks" || what = "all" then run_checks ();
  if what = "sweep" || what = "all" then run_sweep ();
  if what = "store" || what = "all" then run_store ();
  if what = "distrib" || what = "all" then run_distrib ();
  if what = "chaos" || what = "all" then run_chaos ();
  if what = "mutate" || what = "all" then run_mutate ();
  if what = "serve" || what = "all" then run_serve ();
  if what = "timings" || what = "all" then run_timings ()
