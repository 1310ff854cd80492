(* mutexlb — command-line interface to the reproduction.

   Subcommands:
     list        the algorithm registry
     run         execute an algorithm under a scheduler and report costs
     check       bounded model checking (mutex safety + deadlock)
     construct   run the paper's construction and dump its objects
     pipeline    construct -> encode -> decode for one permutation
     decode      decode a saved E_pi file back into an execution
     certify     the Theorem 7.5 certificate over a permutation family
     work        one distributed-sweep worker over a shared store
     workload    arrival-pattern workloads and per-section costs
     adversary   randomized search for expensive schedules
     experiments regenerate the EXPERIMENTS.md tables
     lint        static analysis of the algorithm automata
     chaos       fault-injection detection matrix
     mutate      mutation-test the detection stack *)

open Cmdliner
module Json = Lb_util.Json

let find_algo name =
  match Lb_algos.Registry.find name with
  | Some a -> a
  | None ->
    Printf.eprintf "unknown algorithm %S; try `mutexlb list`\n" name;
    exit 2

(* The lower-bound pipeline covers only the read/write-register model;
   fail fast at the CLI boundary (exit 2, like other usage errors)
   instead of surfacing Invalid_argument from Pipeline or
   Unsupported_primitive from inside the construction sweep. *)
let require_registers_only ~cmd (algo : Lb_shmem.Algorithm.t) =
  if not (Lb_shmem.Algorithm.registers_only algo) then begin
    Printf.eprintf
      "%s: algorithm %S is declared Uses_rmw; the construction covers only \
       the paper's read/write-register model (lint rule \
       kind-honesty/undeclared-rmw). Try `mutexlb run` or `mutexlb check`, \
       which accept RMW algorithms.\n"
      cmd algo.Lb_shmem.Algorithm.name;
    exit 2
  end

(* Single-algorithm verbs instantiate the algorithm at one n; refuse an
   n outside its range here (exit 2) rather than as an uncaught
   Invalid_argument from inside, and before any store is touched. *)
let require_supports ~cmd ~n (algo : Lb_shmem.Algorithm.t) =
  if not (Lb_shmem.Algorithm.supports algo n) then begin
    Printf.eprintf "%s: algorithm %S does not support n=%d\n" cmd
      algo.Lb_shmem.Algorithm.name n;
    exit 2
  end

(* Counts and budgets below 1 would make a verb certify nothing or
   crash on Invalid_argument from inside; refuse them here (exit 2). *)
let require_positive ~cmd flag v =
  if v < 1 then begin
    Printf.eprintf "%s: %s must be >= 1 (got %d)\n" cmd flag v;
    exit 2
  end

(* ----------------------------- arguments ----------------------------- *)

let algo_arg =
  let doc = "Algorithm name (see `mutexlb list`)." in
  Arg.(value & opt string "yang_anderson" & info [ "a"; "algo" ] ~docv:"NAME" ~doc)

let n_arg =
  let doc = "Number of processes." in
  Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc)

let seed_opt ~default =
  let doc = "PRNG seed (schedules, sampled permutations)." in
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

let seed_arg = seed_opt ~default:1

let jobs_arg =
  let doc =
    "Worker domains for the sweep. Defaults to $(b,MUTEXLB_JOBS) if set, \
     else the machine's recommended domain count; 1 forces a sequential \
     sweep (results are identical at every job count)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let apply_jobs = function
  | None -> ()
  | Some j when j >= 1 -> Lb_util.Pool.set_default_jobs j
  | Some j ->
    Printf.eprintf "--jobs must be >= 1 (got %d)\n" j;
    exit 2

let perm_arg =
  let doc =
    "Permutation as comma-separated process indices, e.g. 2,0,1. Default: a \
     seeded random permutation."
  in
  Arg.(value & opt (some string) None & info [ "p"; "perm" ] ~docv:"PERM" ~doc)

let parse_perm ~n ~seed = function
  | None -> Lb_core.Permutation.random (Lb_util.Rng.create seed) n
  | Some s -> (
    match Lb_core.Permutation.of_csv ~n s with
    | Ok pi -> pi
    | Error msg ->
      prerr_endline msg;
      exit 2)

(* ------------------------------- list -------------------------------- *)

let list_json () =
  let algo_json (a : Lb_shmem.Algorithm.t) =
    (* register count at a representative size: n = 4, clamped to the
       algorithm's max_n so fixed-size entries (peterson2) report their
       real footprint *)
    let rep_n =
      match a.Lb_shmem.Algorithm.max_n with
      | None -> 4
      | Some k -> min 4 k
    in
    let regs = Array.length (a.Lb_shmem.Algorithm.registers ~n:rep_n) in
    let faulty =
      List.exists
        (fun (f : Lb_shmem.Algorithm.t) ->
          f.Lb_shmem.Algorithm.name = a.Lb_shmem.Algorithm.name)
        Lb_algos.Registry.faulty
    in
    let expected_findings =
      Lb_algos.Registry.expected_findings a.Lb_shmem.Algorithm.name
    in
    let expected_survivors =
      Lb_algos.Registry.expected_survivors a.Lb_shmem.Algorithm.name
    in
    Printf.sprintf
      "  {\"name\": %s, \"kind\": %s, \"rmw\": %b, \"min_n\": 1, \"max_n\": \
       %s, \"registers_at_n\": %d, \"register_count\": %d, \"faulty\": %b, \
       \"expected_findings\": [%s], \"expected_survivors\": [%s], \
       \"description\": %s}"
      (Json.escape a.Lb_shmem.Algorithm.name)
      (Json.escape
         (match a.Lb_shmem.Algorithm.kind with
         | Lb_shmem.Algorithm.Registers_only -> "registers"
         | Lb_shmem.Algorithm.Uses_rmw -> "rmw"))
      (a.Lb_shmem.Algorithm.kind = Lb_shmem.Algorithm.Uses_rmw)
      (match a.Lb_shmem.Algorithm.max_n with
      | None -> "null"
      | Some k -> string_of_int k)
      rep_n regs faulty
      (String.concat ", " (List.map Json.escape expected_findings))
      (String.concat ", "
         (List.map
            (fun (op, reason) ->
              Printf.sprintf "{\"op\": %s, \"reason\": %s}" (Json.escape op)
                (Json.escape reason))
            expected_survivors))
      (Json.escape a.Lb_shmem.Algorithm.description)
  in
  Printf.printf "[\n%s\n]\n"
    (String.concat ",\n" (List.map algo_json Lb_algos.Registry.all))

let list_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:
               "Emit the registry as a JSON array (name, kind, rmw flag, \
                n-range, register count) instead of the table.")
  in
  let list_table () =
    let t =
      Lb_util.Table.create
        [
          ("name", Lb_util.Table.Left);
          ("kind", Lb_util.Table.Left);
          ("max n", Lb_util.Table.Left);
          ("description", Lb_util.Table.Left);
        ]
    in
    List.iter
      (fun (a : Lb_shmem.Algorithm.t) ->
        Lb_util.Table.add_row t
          [
            a.Lb_shmem.Algorithm.name;
            (match a.Lb_shmem.Algorithm.kind with
            | Lb_shmem.Algorithm.Registers_only -> "registers"
            | Lb_shmem.Algorithm.Uses_rmw -> "rmw");
            (match a.Lb_shmem.Algorithm.max_n with
            | None -> "any"
            | Some k -> string_of_int k);
            a.Lb_shmem.Algorithm.description;
          ])
      Lb_algos.Registry.all;
    Lb_util.Table.print t
  in
  let run json = if json then list_json () else list_table () in
  Cmd.v
    (Cmd.info "list"
       ~doc:"List the algorithm registry (--json for machine-readable)")
    Term.(const run $ json_arg)

(* -------------------------------- run -------------------------------- *)

let sched_arg =
  let doc = "Scheduler: greedy (SC-aware sequential), rr, or random." in
  Arg.(
    value
    & opt (enum [ ("greedy", `Greedy); ("rr", `Rr); ("random", `Random) ]) `Greedy
    & info [ "s"; "sched" ] ~docv:"SCHED" ~doc)

let trace_arg =
  let doc = "Print the full execution trace." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let save_arg =
  let doc = "Write the artifact (trace or bits) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "save" ] ~docv:"FILE" ~doc)

let run_cmd =
  let run algo_name n sched seed trace save =
    let algo = find_algo algo_name in
    require_supports ~cmd:"run" ~n algo;
    let outcome =
      match sched with
      | `Greedy -> Lb_mutex.Canonical.run algo ~n
      | `Rr -> Lb_mutex.Canonical.run_round_robin algo ~n
      | `Random -> Lb_mutex.Canonical.run_random ~seed algo ~n
    in
    let exec = outcome.Lb_mutex.Canonical.exec in
    if trace then
      Format.printf "%a@."
        (Lb_shmem.Execution.pp_with_names (algo.Lb_shmem.Algorithm.registers ~n))
        exec;
    Printf.printf "algorithm      %s (n=%d)\n" algo_name n;
    Printf.printf "enter order    %s\n"
      (String.concat " "
         (List.map string_of_int outcome.Lb_mutex.Canonical.enter_order));
    Format.printf "costs          %a@." Lb_cost.Accounting.pp_breakdown
      (Lb_cost.Accounting.breakdown algo ~n exec);
    match save with
    | None -> ()
    | Some path ->
      Lb_util.Fsio.write_atomic ~path
        (Lb_core.Trace_io.execution_to_string ~algo:algo_name ~n exec);
      Printf.printf "trace saved    %s\n" path
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a canonical execution under a scheduler and report its costs")
    Term.(const run $ algo_arg $ n_arg $ sched_arg $ seed_arg $ trace_arg $ save_arg)

(* ------------------------------- check ------------------------------- *)

let check_cmd =
  let rounds_arg =
    Arg.(value & opt int 1 & info [ "rounds" ] ~docv:"R" ~doc:"Critical sections per process.")
  in
  let max_states_arg =
    Arg.(value & opt int 500_000 & info [ "max-states" ] ~docv:"K" ~doc:"State budget.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:
               "Wall-clock budget per exploration; on expiry the verdict \
                degrades to a bounded 'deadline exceeded' report (exit \
                status 3) instead of running away. With $(b,--spill-dir) \
                the interrupted check stays resumable.")
  in
  let mem_budget_arg =
    Arg.(value & opt (some int) None
         & info [ "mem-budget" ] ~docv:"MIB"
             ~doc:
               "Memory budget in MiB for the exploration's accounted \
                footprint, enforced at layer boundaries. Without \
                $(b,--spill-dir) an over-budget check stops with \
                'mem_exceeded' (exit 3); with it, cold visited-set shards \
                spill to disk and the check completes exactly.")
  in
  let spill_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "spill-dir" ] ~docv:"DIR"
             ~doc:
               "Checkpoint every completed BFS layer under \
                $(docv)/ALGO_nN_rR (keys, frontier, node log, manifest). \
                Enables $(b,--resume) and out-of-core eviction under \
                $(b,--mem-budget). Spill bytes are identical at every \
                $(b,--jobs) value.")
  in
  let check_resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:
               "Continue from the spill directory's last completed layer \
                (or report its recorded final verdict without \
                re-exploring). Requires $(b,--spill-dir). Verdict and \
                counts are identical to an uninterrupted run.")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:
               "Append a per-stage timing breakdown (expand vs \
                dedup/merge vs spill seconds, and completed layers) to \
                each report, in text and JSON. Timing fields are \
                wall-clock, so $(b,--json) output stops being \
                byte-identical across machines when this is on.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:
               "Emit one JSON object per algorithm instead of the text \
                report. No timing fields (unless $(b,--stats)), so output \
                is byte-identical across machines and $(b,--jobs) values.")
  in
  let run algo_names n rounds max_states deadline mem_budget spill_dir resume
      stats json jobs =
    apply_jobs jobs;
    require_positive ~cmd:"check" "--rounds" rounds;
    require_positive ~cmd:"check" "--max-states" max_states;
    if resume && spill_dir = None then begin
      Printf.eprintf "check: --resume requires --spill-dir DIR\n";
      exit 2
    end;
    (match mem_budget with
    | Some b when b < 1 ->
      Printf.eprintf "check: --mem-budget must be >= 1 MiB (got %d)\n" b;
      exit 2
    | Some _ | None -> ());
    let algos =
      String.split_on_char ',' algo_names
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map find_algo
    in
    if algos = [] then begin
      Printf.eprintf "check: no algorithm given\n";
      exit 2
    end;
    (* a comma-separated sweep may mix algorithms with different max n
       (e.g. peterson2,yang_anderson at n=3): skip the ones that cannot
       be instantiated rather than aborting the whole sweep *)
    let algos =
      List.filter
        (fun (a : Lb_shmem.Algorithm.t) ->
          let ok = Lb_shmem.Algorithm.supports a n in
          if not ok then
            Printf.printf "%s n=%d: skipped (unsupported size)\n"
              a.Lb_shmem.Algorithm.name n;
          ok)
        algos
    in
    if algos = [] then begin
      Printf.eprintf "check: no listed algorithm supports n=%d\n" n;
      exit 2
    end;
    let mem_budget = Option.map (fun b -> b * 1024 * 1024) mem_budget in
    let spill_for (a : Lb_shmem.Algorithm.t) =
      Option.map
        (fun dir ->
          Filename.concat dir
            (Printf.sprintf "%s_n%d_r%d" a.Lb_shmem.Algorithm.name n rounds))
        spill_dir
    in
    (* the per-algorithm explorations are independent: fan them out *)
    let reports =
      Lb_util.Pool.map
        (fun algo ->
          Lb_mutex.Model_check.explore algo ~n ~rounds ~max_states ?deadline
            ?mem_budget ?spill_dir:(spill_for algo) ~resume)
        algos
    in
    let status = ref 0 in
    List.iter2
      (fun (algo : Lb_shmem.Algorithm.t) r ->
        let st = r.Lb_mutex.Model_check.stats in
        (* the visited set is always exact: "lossy" stays in the schema
           as a constant so reports keep their shape *)
        if json then
          Printf.printf
            "{\"algo\": %s, \"n\": %d, \"rounds\": %d, \"verdict\": %s, \
             \"states\": %d, \"transitions\": %d, \"lossy\": \"none\", \
             \"certified\": %b%s}\n"
            (Json.escape algo.Lb_shmem.Algorithm.name)
            n rounds
            (Json.escape
               (Lb_mutex.Model_check.verdict_slug r.Lb_mutex.Model_check.verdict))
            r.Lb_mutex.Model_check.states r.Lb_mutex.Model_check.transitions
            (r.Lb_mutex.Model_check.verdict = Lb_mutex.Model_check.Verified)
            (if stats then
               Printf.sprintf
                 ", \"stats\": {\"expand_seconds\": %.3f, \"merge_seconds\": \
                  %.3f, \"spill_seconds\": %.3f, \"layers\": %d}"
                 st.Lb_mutex.Model_check.expand_seconds
                 st.Lb_mutex.Model_check.merge_seconds
                 st.Lb_mutex.Model_check.spill_seconds
                 st.Lb_mutex.Model_check.layers
             else "")
        else begin
          Format.printf
            "%s n=%d rounds=%d: %a (%d states, %d transitions, %.0f \
             states/s, %.0f B/state)@."
            algo.Lb_shmem.Algorithm.name n rounds
            Lb_mutex.Model_check.pp_verdict r.Lb_mutex.Model_check.verdict
            r.Lb_mutex.Model_check.states r.Lb_mutex.Model_check.transitions
            (Lb_mutex.Model_check.states_per_sec r)
            (Lb_mutex.Model_check.bytes_per_state r);
          if stats then
            Format.printf
              "  stages: expand %.3fs, merge %.3fs, spill %.3fs over %d \
               layers@."
              st.Lb_mutex.Model_check.expand_seconds
              st.Lb_mutex.Model_check.merge_seconds
              st.Lb_mutex.Model_check.spill_seconds
              st.Lb_mutex.Model_check.layers
        end;
        match r.Lb_mutex.Model_check.verdict with
        | Lb_mutex.Model_check.Mutex_violation tr
        | Lb_mutex.Model_check.Deadlock tr
        | Lb_mutex.Model_check.Ill_formed { trace = tr; _ } ->
          if not json then
            Format.printf "witness:@.%a@."
              (Lb_shmem.Execution.pp_with_names
                 (algo.Lb_shmem.Algorithm.registers ~n))
              tr;
          status := 1
        | Lb_mutex.Model_check.Bound_exceeded _
        | Lb_mutex.Model_check.Deadline_exceeded _
        | Lb_mutex.Model_check.Mem_exceeded _ ->
          if !status = 0 then status := 3
        | Lb_mutex.Model_check.Verified -> ())
      algos reports;
    if !status <> 0 then exit !status
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check mutual exclusion at small n — exhaustively, in RAM \
          or out-of-core under a memory budget with disk spill and resume. \
          Accepts a comma-separated algorithm list; the per-algorithm \
          sweeps run in parallel.")
    Term.(
      const run $ algo_arg $ n_arg $ rounds_arg $ max_states_arg $ deadline_arg
      $ mem_budget_arg $ spill_dir_arg $ check_resume_arg $ stats_arg
      $ json_arg $ jobs_arg)

(* ----------------------------- construct ----------------------------- *)

let construct_cmd =
  let show_meta =
    Arg.(value & flag & info [ "metasteps" ] ~doc:"Dump every metastep.")
  in
  let dot_arg =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE" ~doc:"Export (M, \xe2\xaa\xaf) as Graphviz DOT.")
  in
  let run algo_name n seed perm show_meta dot =
    let algo = find_algo algo_name in
    require_registers_only ~cmd:"construct" algo;
    require_supports ~cmd:"construct" ~n algo;
    let pi = parse_perm ~n ~seed perm in
    let c = Lb_core.Construct.run algo ~n pi in
    let exec = Lb_core.Linearize.execution c in
    Format.printf "pi             %a@." Lb_core.Permutation.pp pi;
    Printf.printf "metasteps      %d\n" (Lb_core.Metastep.count c.Lb_core.Construct.arena);
    Printf.printf "linearization  %d steps\n" (Lb_shmem.Execution.length exec);
    Printf.printf "SC cost        %d\n"
      (Lb_cost.State_change.cost algo ~n exec);
    Printf.printf "enter order    %s\n"
      (String.concat " " (List.map string_of_int (Lb_shmem.Execution.crit_order exec)));
    let checks = Lb_core.Verify.all c in
    List.iter
      (fun (label, r) ->
        Printf.printf "%-34s %s\n" label
          (match r with Ok () -> "ok" | Error e -> "FAIL: " ^ e))
      checks;
    if show_meta then
      Lb_core.Metastep.iter c.Lb_core.Construct.arena (fun m ->
          Format.printf "%a@." Lb_core.Metastep.pp m);
    (match dot with
    | None -> ()
    | Some path ->
      Lb_core.Dot.save ~path c;
      Printf.printf "dot saved      %s (render: dot -Tsvg %s)\n" path path);
    exit (Lb_core.Verify.exit_status checks)
  in
  Cmd.v
    (Cmd.info "construct"
       ~doc:
         "Run the paper's construction step (Fig. 1) for one permutation \
          and check its lemmas; exits 1 if any check fails")
    Term.(const run $ algo_arg $ n_arg $ seed_arg $ perm_arg $ show_meta $ dot_arg)

(* ------------------------------ pipeline ----------------------------- *)

let pipeline_cmd =
  let ascii_arg =
    Arg.(value & flag & info [ "ascii" ] ~doc:"Print E_pi in the paper's ASCII notation.")
  in
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ] ~doc:"Narrate every decoder action (Fig. 3, live).")
  in
  let run algo_name n seed perm ascii save explain =
    let algo = find_algo algo_name in
    require_registers_only ~cmd:"pipeline" algo;
    require_supports ~cmd:"pipeline" ~n algo;
    let pi = parse_perm ~n ~seed perm in
    let r = Lb_core.Pipeline.run algo ~n pi in
    if explain then begin
      Printf.printf "--- decoder narration ---\n";
      ignore
        (Lb_core.Decode.run
           ~trace:(fun e -> Format.printf "  %a@." Lb_core.Decode.pp_event e)
           algo ~n r.Lb_core.Pipeline.encoding.Lb_core.Encode.cells);
      Printf.printf "--- end narration ---\n"
    end;
    Format.printf "pi             %a@." Lb_core.Permutation.pp pi;
    Printf.printf "SC cost        %d\n" r.Lb_core.Pipeline.cost;
    Printf.printf "|E_pi|         %d bits (%.2f bits per cost unit)\n"
      r.Lb_core.Pipeline.bits
      (float_of_int r.Lb_core.Pipeline.bits /. float_of_int (max 1 r.Lb_core.Pipeline.cost));
    Printf.printf "log2(n!)       %.1f bits\n" (Lb_core.Bounds.bits_needed n);
    Printf.printf "decoded        %d steps, enter order %s\n"
      (Lb_shmem.Execution.length r.Lb_core.Pipeline.decoded)
      (String.concat " "
         (List.map string_of_int (Lb_shmem.Execution.crit_order r.Lb_core.Pipeline.decoded)));
    (match Lb_core.Pipeline.check algo ~n r with
    | Ok () -> Printf.printf "checks         all passed\n"
    | Error e ->
      Printf.printf "checks         FAILED: %s\n" e;
      exit 1);
    if ascii then
      Printf.printf "E_pi           %s\n" (Lb_core.Encode.to_ascii r.Lb_core.Pipeline.encoding);
    match save with
    | None -> ()
    | Some path ->
      Lb_util.Fsio.write_atomic ~path
        (Lb_core.Trace_io.bits_to_string ~algo:algo_name ~n
           r.Lb_core.Pipeline.encoding.Lb_core.Encode.bits);
      Printf.printf "bits saved     %s (decode with `mutexlb decode %s`)\n" path path
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:"Construct, encode and decode one permutation; verify the theorems")
    Term.(const run $ algo_arg $ n_arg $ seed_arg $ perm_arg $ ascii_arg
          $ save_arg $ explain_arg)

(* ------------------------------- decode ------------------------------- *)

let decode_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"A bits file produced by `pipeline --save`.")
  in
  let run file =
    let algo_name, n, bits =
      let max_bytes = Lb_util.Fsio.text_max_bytes in
      let s = Lb_util.Fsio.read ~max_bytes ~path:file () in
      try Lb_core.Trace_io.bits_of_string s
      with Lb_core.Trace_io.Parse_error { line; detail } ->
        Printf.eprintf "decode: %s:%d: %s\n" file line detail;
        exit 2
    in
    let algo = find_algo algo_name in
    require_registers_only ~cmd:"decode" algo;
    require_supports ~cmd:"decode" ~n algo;
    let decoded =
      try Lb_core.Decode.run_bits algo ~n bits
      with Lb_core.Decode.Decode_error { detail; consumed } ->
        Printf.eprintf "decode: %s: bits do not decode: %s (%d cells read)\n"
          file detail consumed;
        exit 2
    in
    Printf.printf "algorithm      %s (n=%d), %d bits\n" algo_name n (Array.length bits);
    Printf.printf "decoded        %d steps\n" (Lb_shmem.Execution.length decoded);
    Printf.printf "enter order    %s\n"
      (String.concat " "
         (List.map string_of_int (Lb_shmem.Execution.crit_order decoded)));
    Format.printf "costs          %a@." Lb_cost.Accounting.pp_breakdown
      (Lb_cost.Accounting.breakdown algo ~n decoded)
  in
  Cmd.v
    (Cmd.info "decode"
       ~doc:"Decode a saved E_pi file back into an execution (Fig. 3)")
    Term.(const run $ file_arg)

(* ------------------------------ certify ------------------------------ *)

let store_arg =
  let doc =
    "Durable result store directory. Completed permutations are served from \
     the store and new ones written to it, so an interrupted sweep resumes \
     where it left off."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Quarantine per-permutation failures (recorded in the store manifest and \
     summarized at the end) instead of failing fast. Requires $(b,--store)."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let events_arg =
  let doc = "Append sweep telemetry as JSONL events to $(docv). Requires $(b,--store)." in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

let save_traces_arg =
  let doc = "Also store each permutation's E_pi bit string. Requires $(b,--store)." in
  Arg.(value & flag & info [ "save-traces" ] ~doc)

let require_store ?(pi_timeout = None) ~cmd ~store ~resume ~events
    ~save_traces () =
  if store = None && (resume || events <> None || save_traces || pi_timeout <> None)
  then begin
    Printf.eprintf
      "%s: --resume, --events, --save-traces and --pi-timeout only make \
       sense with a durable store; add --store DIR\n"
      cmd;
    exit 2
  end

(* `--perms K` with K > n! used to pretend it sampled K distinct
   permutations when only n! exist; it clamps to the full (exhaustive)
   family with a warning instead. The clamp and the family selection both
   live in Lb_serve.Protocol now, shared with the server, so a job shipped
   via --connect examines exactly the permutations a local run would —
   that sharing is what makes their certificates byte-identical. *)
let clamp_perms ~n perms = Lb_serve.Protocol.clamp_perms ~warn:true ~n perms

(* certify --store and work end alike: the certificate, the store, the
   engine's tally line, the manifest and the quarantined units; any
   failure makes the exit status 1. *)
let print_sweep_result ~dir ~tally ~manifest cert
    (failures : Lb_store.Sweep.failure list) =
  (match cert with
  | Some c -> Format.printf "%a@." Lb_core.Bounds.pp_certificate c
  | None ->
    Printf.printf "no certificate: every permutation in the family failed\n");
  Printf.printf "store          %s\n" dir;
  print_string tally;
  Printf.printf "manifest       %s\n" manifest;
  match failures with
  | [] -> ()
  | fs ->
    Printf.printf "failure digest (%d quarantined):\n" (List.length fs);
    List.iteri
      (fun i (f : Lb_store.Sweep.failure) ->
        if i < 10 then
          Format.printf "  %a: %s@." Lb_core.Permutation.pp
            f.Lb_store.Sweep.f_pi f.Lb_store.Sweep.f_message)
      fs;
    if List.length fs > 10 then
      Printf.printf "  ... and %d more (see manifest)\n" (List.length fs - 10);
    exit 1

let certify_cmd =
  let perms_arg =
    Arg.(value & opt int 24 & info [ "perms" ] ~docv:"K" ~doc:"Permutations to sample.")
  in
  let pi_timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "pi-timeout" ] ~docv:"SECONDS"
             ~doc:
               "Per-permutation wall-clock budget: a unit that overruns is \
                quarantined (requires $(b,--resume)) or aborts the sweep. \
                The check is cooperative — the unit finishes, its result \
                is discarded before reaching the store.")
  in
  let checkpoint_every_arg =
    Arg.(value & opt int 64
         & info [ "checkpoint-every" ] ~docv:"K"
             ~doc:
               "Rewrite the sweep manifest after every $(docv) completed \
                units (a quarantined failure checkpoints eagerly \
                regardless, so the on-disk manifest names it as soon as \
                it happens; a resumed run still recomputes it). Smaller \
                values narrow the window of re-served hits after a crash \
                at the cost of more manifest rewrites.")
  in
  let connect_arg =
    Arg.(value & opt (some int) None
         & info [ "connect" ] ~docv:"PORT"
             ~doc:
               "Client mode: submit the job to a running $(b,mutexlb serve) \
                on $(docv) instead of sweeping locally. The server owns the \
                store; the certificate printed is byte-identical to a local \
                run with the same algorithm, n, perms and seed.")
  in
  let connect_host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "connect-host" ] ~docv:"HOST"
             ~doc:"Server host for $(b,--connect).")
  in
  let client_arg =
    Arg.(value & opt string "cli"
         & info [ "client" ] ~docv:"NAME"
             ~doc:
               "Client identity for $(b,--connect) — the server schedules \
                fairly across client names.")
  in
  let retry_arg =
    Arg.(value & opt int 0
         & info [ "retry" ] ~docv:"N"
             ~doc:
               "With $(b,--connect): retry temporary failures — server \
                unreachable, at capacity (429) or draining — up to $(docv) \
                times with jittered exponential backoff before giving up \
                with the usual exit code (75 for temp-fails, 3 for \
                unreachable). Permanent errors never retry.")
  in
  let retry_backoff_arg =
    Arg.(value & opt float 1.0
         & info [ "retry-backoff" ] ~docv:"SECONDS"
             ~doc:
               "Base delay for $(b,--retry): attempt k waits about \
                $(docv)*2^k seconds, jittered to [0.5x, 1.5x] so a fleet \
                of clients de-synchronizes, capped at 60s. A \
                server-provided retry-after hint raises the floor.")
  in
  let workers_arg =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"K"
             ~doc:
               "With $(b,--store): first spawn $(docv) `mutexlb work` \
                subprocesses that lease pending permutations from the \
                shared store per-entry and fill it cooperatively, wait for \
                them, then aggregate the certificate locally (healing any \
                units a crashed worker left pending). The certificate and \
                manifest are byte-identical to $(b,--workers) 0.")
  in
  let run algo_name n seed perms jobs store resume events save_traces
      pi_timeout checkpoint_every connect connect_host client_name retries
      retry_backoff workers =
    apply_jobs jobs;
    if perms <= 0 then begin
      Printf.eprintf
        "certify: --perms must be >= 1 (got %d); an empty permutation family \
         has no certificate\n"
        perms;
      exit 2
    end;
    require_store ~pi_timeout ~cmd:"certify" ~store ~resume ~events
      ~save_traces ();
    (match pi_timeout with
    | Some t when t <= 0.0 ->
      Printf.eprintf "certify: --pi-timeout must be positive\n";
      exit 2
    | Some _ | None -> ());
    require_positive ~cmd:"certify" "--checkpoint-every" checkpoint_every;
    if retries < 0 || retry_backoff <= 0.0 then begin
      Printf.eprintf
        "certify: --retry must be >= 0 and --retry-backoff positive\n";
      exit 2
    end;
    if retries > 0 && connect = None then begin
      Printf.eprintf
        "certify: --retry retries server temp-fails; it requires --connect\n";
      exit 2
    end;
    if workers < 0 then begin
      Printf.eprintf "certify: --workers must be >= 0 (got %d)\n" workers;
      exit 2
    end;
    if workers > 0 && store = None then begin
      Printf.eprintf
        "certify: --workers spawns processes over a shared store; add \
         --store DIR\n";
      exit 2
    end;
    let algo = find_algo algo_name in
    require_registers_only ~cmd:"certify" algo;
    require_supports ~cmd:"certify" ~n algo;
    let perms = clamp_perms ~n perms in
    let pis, exhaustive = Lb_serve.Protocol.family ~n ~perms ~seed in
    match connect with
    | Some port ->
      if store <> None then begin
        Printf.eprintf
          "certify: --connect and --store are exclusive; the server owns the \
           store\n";
        exit 2
      end;
      let get j name f = Option.bind (Json.member name j) f in
      let job =
        Lb_serve.Protocol.job_summary
          (Lb_serve.Protocol.Certify
             {
               c_algo = algo_name;
               c_n = n;
               c_perms = perms;
               c_seed = seed;
               c_resume = resume;
               c_save_traces = save_traces;
               c_pi_timeout = pi_timeout;
             })
      in
      let total = ref (List.length pis) in
      let step = ref (max 1 (!total / 10)) in
      let on_event j =
        match get j "event" Json.as_string with
        | Some "start" -> (
          match get j "total" Json.as_int with
          | Some t ->
            total := t;
            step := max 1 (t / 10)
          | None -> ())
        | Some "item" -> (
          match get j "done" Json.as_int with
          | Some d when d mod !step = 0 || d = !total ->
            Printf.eprintf "certify: %d/%d done (remote)\n%!" d !total
          | _ -> ())
        | Some "granted" ->
          Printf.eprintf "certify: granted a server job slot\n%!"
        | _ -> ()
      in
      (* One submission attempt. Permanent outcomes print and exit right
         here; only temp-fails (unreachable, 429, drained) return to the
         retry loop — anything else would re-submit a job the server
         already answered. *)
      let attempt () =
        match
          Lb_serve.Client.submit ~host:connect_host ~port ~client:client_name
            job ~on_event
        with
        | Error msg ->
          `Temp
            ( 3,
              None,
              Printf.sprintf "cannot reach server at %s:%d: %s" connect_host
                port msg )
        | Ok o -> (
          let retry_hint =
            match o.Lb_serve.Client.o_retry_after with
            | Some ra -> Printf.sprintf " (retry after %.0fs)" ra
            | None -> ""
          in
          match o.Lb_serve.Client.o_error with
          | Some e when o.Lb_serve.Client.o_status = 429 ->
            `Temp
              ( 75,
                o.Lb_serve.Client.o_retry_after,
                Printf.sprintf "server at capacity: %s%s" e retry_hint )
          | Some e ->
            Printf.eprintf "certify: server error: %s%s\n" e retry_hint;
            exit 1
          | None ->
            if o.Lb_serve.Client.o_drained then
              `Temp
                ( 75,
                  o.Lb_serve.Client.o_retry_after,
                  "server is draining; the job checkpointed (or was \
                   cancelled) and a re-submission will resume" ^ retry_hint
                )
            else (
              match o.Lb_serve.Client.o_result with
              | None ->
                Printf.eprintf
                  "certify: connection closed without a result (HTTP %d)\n"
                  o.Lb_serve.Client.o_status;
                exit 1
              | Some r -> (
                match get r "certificate" Option.some with
                | Some (Json.Obj _ as cert) ->
                  (match get cert "text" Json.as_string with
                  | Some text -> print_endline text
                  | None -> print_endline (Json.to_string cert));
                  Printf.eprintf "certify: served via %s path by %s:%d\n"
                    (Option.value ~default:"?" (get r "path" Json.as_string))
                    connect_host port;
                  (match get r "failed" Json.as_int with
                  | Some f when f > 0 -> exit 1
                  | _ -> ());
                  `Done
                | _ ->
                  Printf.printf
                    "no certificate: every permutation in the family \
                     failed\n";
                  exit 1)))
      in
      (* Jittered exponential backoff: attempt k sleeps about
         backoff*2^k seconds, jittered to [0.5x, 1.5x] so a fleet of
         retrying clients de-synchronizes instead of re-stampeding the
         server; a retry-after hint from the server raises the floor.
         The jitter source is deliberately not the sweep seed — retry
         timing must differ across identical commands. *)
      let rng =
        Lb_util.Rng.create
          ((Unix.getpid () * 7919) lxor (int_of_float (Unix.gettimeofday () *. 1000.)))
      in
      let delay_for k hint =
        let base = retry_backoff *. (2.0 ** float_of_int (min k 6)) in
        let jittered = base *. (0.5 +. Lb_util.Rng.float rng) in
        let capped = Float.min 60.0 jittered in
        match hint with Some h -> Float.max h capped | None -> capped
      in
      let rec go k : unit =
        match attempt () with
        | `Done -> ()
        | `Temp (code, hint, why) ->
          if k >= retries then begin
            Printf.eprintf "certify: %s%s\n" why
              (if retries > 0 then
                 Printf.sprintf " (giving up after %d attempts)" (k + 1)
               else "");
            exit code
          end
          else begin
            let d = delay_for k hint in
            Printf.eprintf "certify: %s; retrying in %.1fs (attempt %d/%d)\n%!"
              why d (k + 2) (retries + 1);
            Unix.sleepf d;
            go (k + 1)
          end
      in
      go 0
    | None -> (
    match store with
    | None ->
      let cert = Lb_core.Pipeline.certify algo ~n ~perms:pis ~exhaustive () in
      Format.printf "%a@." Lb_core.Bounds.pp_certificate cert
    | Some dir ->
      (* --workers K: pre-fill the store with K cooperating `mutexlb
         work` subprocesses (per-entry claims, no writer lease), then
         fall through to the plain local certify below, which mostly
         serves hits — and recomputes anything a crashed worker left
         pending, so this aggregate pass is also the healing pass.
         Byte-identity with --workers 0 holds because workers only add
         store entries the local sweep would have computed
         identically. *)
      if workers > 0 then begin
        let exe = Sys.executable_name in
        let args =
          [
            exe; "work"; "--store"; dir; "--algo"; algo_name; "-n";
            string_of_int n; "--seed"; string_of_int seed; "--perms";
            string_of_int perms;
          ]
          @ (if save_traces then [ "--save-traces" ] else [])
          @
          match pi_timeout with
          | None -> []
          | Some t -> [ "--pi-timeout"; Printf.sprintf "%g" t ]
        in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pids =
          List.init workers (fun _ ->
              Unix.create_process exe (Array.of_list args) Unix.stdin devnull
                Unix.stderr)
        in
        Unix.close devnull;
        Printf.eprintf "certify: spawned %d worker(s) over %s\n%!" workers dir;
        List.iter
          (fun pid ->
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED (0 | 1) -> ()
            | _, Unix.WEXITED c ->
              Printf.eprintf
                "certify: worker %d exited %d; its claims will expire and \
                 the aggregate pass recomputes its pending units\n%!"
                pid c
            | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
              Printf.eprintf
                "certify: worker %d killed by signal %d; its claims will \
                 expire and the aggregate pass recomputes its pending \
                 units\n%!"
                pid s)
          pids
      end;
      let st = Lb_store.Store.open_ ~dir in
      let events_oc =
        Option.map
          (fun path ->
            open_out_gen [ Open_append; Open_creat ] 0o644 path)
          events
      in
      (* Satellite: SIGTERM checkpoints and exits cleanly. The signal
         only fires a cooperative cancel token; the sweep engine notices
         between units, writes a final manifest checkpoint in its
         protected finally, releases the writer lease, and raises
         Cancelled — which we turn into the conventional 128+15 exit.
         A re-run of the same command resumes from that checkpoint. *)
      let cancel = Lb_util.Pool.Cancel.create () in
      ignore
        (Sys.signal Sys.sigterm
           (Sys.Signal_handle (fun _ -> Lb_util.Pool.Cancel.set cancel)));
      let last_manifest = ref None in
      let total = List.length pis in
      let step = max 1 (total / 10) in
      let on_event ev =
        (match events_oc with
        | Some oc ->
          output_string oc (Lb_store.Sweep.event_to_json ev);
          output_char oc '\n'
        | None -> ());
        (match ev with
        | Lb_store.Sweep.Checkpoint { manifest; _ }
        | Lb_store.Sweep.Finished { manifest; _ } ->
          last_manifest := Some manifest
        | _ -> ());
        match ev with
        | Lb_store.Sweep.Item { progress; _ }
          when progress.Lb_store.Sweep.p_done mod step = 0
               || progress.Lb_store.Sweep.p_done = total ->
          Format.eprintf "certify: %a@." Lb_store.Sweep.pp_progress progress
        | Lb_store.Sweep.Damaged_entry { key; diagnostic } ->
          Format.eprintf "certify: damaged entry %s (%s); recomputing@." key
            diagnostic
        | _ -> ()
      in
      let finally () = Option.iter close_out events_oc in
      Fun.protect ~finally (fun () ->
          match
            Lb_store.Sweep.certify ~store:st ~resume ~checkpoint_every
              ~save_traces ?pi_timeout ~on_event ~cancel algo ~n ~perms:pis
              ~exhaustive ()
          with
          | exception Lb_util.Pool.Cancelled ->
            Printf.eprintf
              "certify: interrupted (SIGTERM); manifest checkpointed%s — \
               re-run the same command to resume\n"
              (match !last_manifest with
              | Some m -> " at " ^ m
              | None -> "");
            exit 143
          | exception Lb_store.Store_lock.Busy h ->
            Format.eprintf
              "certify: store busy: writer lease held by %a; retry when the \
               other sweep finishes@."
              Lb_store.Store_lock.pp_held h;
            exit 75
          | cert, report ->
            let p = report.Lb_store.Sweep.progress in
            print_sweep_result ~dir
              ~tally:
                (Printf.sprintf
                   "store sweep    %d hits, %d computed, %d failed (%.1f%% \
                    hits)\n"
                   p.Lb_store.Sweep.p_hits p.Lb_store.Sweep.p_computed
                   p.Lb_store.Sweep.p_failed
                   (100.0
                   *. float_of_int p.Lb_store.Sweep.p_hits
                   /. float_of_int (max 1 p.Lb_store.Sweep.p_done)))
              ~manifest:report.Lb_store.Sweep.manifest_path cert
              report.Lb_store.Sweep.failures))
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Aggregate the Theorem 7.5 certificate over a permutation family. \
          With --store DIR the sweep is durable: checkpointed, resumable, \
          and served from cache on re-runs.")
    Term.(const run $ algo_arg $ n_arg $ seed_arg $ perms_arg $ jobs_arg
          $ store_arg $ resume_arg $ events_arg $ save_traces_arg
          $ pi_timeout_arg $ checkpoint_every_arg $ connect_arg
          $ connect_host_arg $ client_arg $ retry_arg $ retry_backoff_arg
          $ workers_arg)

(* -------------------------------- work -------------------------------- *)

(* One distributed-sweep worker. K of these over the same --store DIR
   converge on one sweep, coordinated only through per-entry claim
   files — no server, no writer lease. Any of them (or a later plain
   `certify --store DIR`) prints the byte-identical certificate. *)
let work_cmd =
  let perms_arg =
    Arg.(value & opt int 24
         & info [ "perms" ] ~docv:"K"
             ~doc:
               "Permutations in the family. Give every worker the same \
                algo, n, seed and perms — the family is derived from \
                them, and workers of different families would sweep past \
                each other.")
  in
  let store_req_arg =
    Arg.(required & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Shared store directory the workers converge on.")
  in
  let ttl_arg =
    Arg.(value & opt float Lb_store.Store_claim.default_ttl
         & info [ "claim-ttl" ] ~docv:"SECONDS"
             ~doc:
               "Per-entry claim expiry. A claim not heartbeat-refreshed \
                for $(docv) seconds counts as abandoned and is stolen \
                (epoch-fenced) by a live worker. Must comfortably exceed \
                one unit's compute time, or live workers steal from each \
                other — safe (identical bytes) but wasteful.")
  in
  let batch_arg =
    Arg.(value & opt (some int) None
         & info [ "batch" ] ~docv:"K"
             ~doc:
               "Claims held at once (default 2x the worker's job count). \
                Smaller batches spread entries across workers more evenly; \
                larger ones amortize claim-directory scans.")
  in
  let checkpoint_every_arg =
    Arg.(value & opt int 64
         & info [ "checkpoint-every" ] ~docv:"K"
             ~doc:
               "Rewrite the shared manifest after every $(docv) units this \
                worker resolves (failures checkpoint eagerly regardless).")
  in
  let pi_timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "pi-timeout" ] ~docv:"SECONDS"
             ~doc:
               "Per-permutation wall-clock budget; an overrunning unit is \
                quarantined exactly as `certify --resume` would.")
  in
  let kill_after_arg =
    Arg.(value & opt (some int) None
         & info [ "chaos-kill-after" ] ~docv:"K"
             ~doc:
               "Chaos harness hook: SIGKILL this worker the moment it has \
                computed its $(docv)-th unit, claims still in flight — \
                simulating a mid-sweep crash at a deterministic point. \
                Survivors must steal the expired claims and still produce \
                byte-identical output.")
  in
  let run algo_name n seed perms jobs dir ttl batch checkpoint_every events
      save_traces pi_timeout kill_after =
    apply_jobs jobs;
    require_positive ~cmd:"work" "--perms" perms;
    if ttl <= 0.0 then begin
      Printf.eprintf "work: --claim-ttl must be positive\n";
      exit 2
    end;
    Option.iter (require_positive ~cmd:"work" "--batch") batch;
    require_positive ~cmd:"work" "--checkpoint-every" checkpoint_every;
    (match pi_timeout with
    | Some t when t <= 0.0 ->
      Printf.eprintf "work: --pi-timeout must be positive\n";
      exit 2
    | _ -> ());
    let algo = find_algo algo_name in
    require_registers_only ~cmd:"work" algo;
    require_supports ~cmd:"work" ~n algo;
    let perms = clamp_perms ~n perms in
    (* Same family selection as certify/serve — byte-identity starts
       with sweeping the same permutations in the same order. *)
    let pis, exhaustive = Lb_serve.Protocol.family ~n ~perms ~seed in
    let st = Lb_store.Store.open_ ~dir in
    let cancel = Lb_util.Pool.Cancel.create () in
    ignore
      (Sys.signal Sys.sigterm
         (Sys.Signal_handle (fun _ -> Lb_util.Pool.Cancel.set cancel)));
    let events_oc =
      Option.map
        (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
        events
    in
    let me = Unix.getpid () in
    let ev_mutex = Mutex.create () in
    let computed = Atomic.make 0 in
    let on_event ev =
      (* called from pool domains — serialize the JSONL stream *)
      (match events_oc with
      | Some oc ->
        Mutex.protect ev_mutex (fun () ->
            output_string oc (Lb_store.Sweep_dist.event_to_json ev);
            output_char oc '\n';
            flush oc)
      | None -> ());
      (match ev with
      | Lb_store.Sweep_dist.Unit
          { outcome = Lb_store.Sweep_dist.Computed | Lb_store.Sweep_dist.Failed _; _ } -> (
        let c = Atomic.fetch_and_add computed 1 + 1 in
        match kill_after with
        | Some k when c >= k ->
          Printf.eprintf "work[%d]: chaos kill point (%d units computed)\n%!"
            me c;
          Unix.kill me Sys.sigkill
        | _ -> ())
      | _ -> ());
      match ev with
      | Lb_store.Sweep_dist.Start { total; sweep_id } ->
        Printf.eprintf "work[%d]: joined sweep %s: %d units\n%!" me sweep_id
          total
      | Lb_store.Sweep_dist.Stolen { key; epoch } ->
        Printf.eprintf "work[%d]: stole expired claim on %s (epoch %d)\n%!"
          me
          (String.sub key 0 (min 12 (String.length key)))
          epoch
      | Lb_store.Sweep_dist.Fenced { key } ->
        Printf.eprintf
          "work[%d]: fenced off %s (own claim expired and was re-granted)\n%!"
          me
          (String.sub key 0 (min 12 (String.length key)))
      | Lb_store.Sweep_dist.Checkpoint { resolved; total; _ } ->
        Printf.eprintf "work[%d]: checkpoint: %d/%d resolved\n%!" me resolved
          total
      | _ -> ()
    in
    let finally () = Option.iter close_out events_oc in
    Fun.protect ~finally (fun () ->
        match
          Lb_store.Sweep_dist.certify ~store:st ~ttl ?batch ~checkpoint_every
            ~save_traces ?pi_timeout ~on_event ~cancel algo ~n ~perms:pis
            ~exhaustive ()
        with
        | exception Lb_util.Pool.Cancelled ->
          Printf.eprintf
            "work[%d]: interrupted (SIGTERM); unstarted claims abandoned, \
             manifest checkpointed — surviving workers (or a re-run) finish \
             the sweep\n"
            me;
          exit 143
        | cert, r ->
          print_sweep_result ~dir
            ~tally:
              (Printf.sprintf
                 "worker         %d hits, %d computed, %d stolen claims\n"
                 r.Lb_store.Sweep_dist.d_hits r.Lb_store.Sweep_dist.d_computed
                 r.Lb_store.Sweep_dist.d_stolen)
            ~manifest:r.Lb_store.Sweep_dist.d_manifest_path cert
            r.Lb_store.Sweep_dist.d_failures)
  in
  Cmd.v
    (Cmd.info "work"
       ~doc:
         "Join (or start) a distributed certify sweep over a shared store. \
          Run K of these with the same --algo/--n/--seed/--perms and the \
          same --store DIR — on one machine or several sharing a \
          filesystem — and they lease pending permutations per-entry, \
          steal expired claims from crashed peers with epoch fencing, and \
          converge on a certificate byte-identical to a single-worker \
          `certify --store`.")
    Term.(const run $ algo_arg $ n_arg $ seed_arg $ perms_arg $ jobs_arg
          $ store_req_arg $ ttl_arg $ batch_arg $ checkpoint_every_arg
          $ events_arg $ save_traces_arg $ pi_timeout_arg $ kill_after_arg)

(* ------------------------------ workload ------------------------------ *)

let workload_cmd =
  let pattern_arg =
    let doc = "Arrival pattern: all, staggered:GAP, bursts:SIZE:GAP, poisson:MEAN." in
    Arg.(value & opt string "all" & info [ "pattern" ] ~docv:"PAT" ~doc)
  in
  let rounds_arg =
    Arg.(value & opt int 1 & info [ "rounds" ] ~docv:"R" ~doc:"Sections per process.")
  in
  let parse_pattern s seed =
    let bad () =
      Printf.eprintf
        "workload: bad pattern %S (want all, staggered:GAP, \
         bursts:SIZE:GAP or poisson:MEAN, with SIZE >= 1 and GAP, MEAN >= 0)\n"
        s;
      exit 2
    in
    let count v =
      match int_of_string_opt v with Some i when i >= 0 -> i | _ -> bad ()
    in
    match String.split_on_char ':' s with
    | [ "all" ] -> Lb_mutex.Workload.All_at_once
    | [ "staggered"; gap ] -> Lb_mutex.Workload.Staggered (count gap)
    | [ "bursts"; size; gap ] ->
      let size = count size in
      if size = 0 then bad ();
      Lb_mutex.Workload.Bursts { size; gap = count gap }
    | [ "poisson"; mean ] -> (
      match float_of_string_opt mean with
      | Some mean_gap when mean_gap >= 0.0 ->
        Lb_mutex.Workload.Poisson { seed; mean_gap }
      | _ -> bad ())
    | _ -> bad ()
  in
  let run algo_name n seed pattern rounds =
    require_positive ~cmd:"workload" "--rounds" rounds;
    let algo = find_algo algo_name in
    require_supports ~cmd:"workload" ~n algo;
    let pattern = parse_pattern pattern seed in
    let r =
      Lb_mutex.Workload.run ~rounds ~pattern
        ~schedule:(Lb_mutex.Workload.Random seed) algo ~n
    in
    Printf.printf "arrivals       %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int r.Lb_mutex.Workload.arrivals)));
    Printf.printf "SC total       %d (%.2f per section)\n"
      r.Lb_mutex.Workload.sc_total r.Lb_mutex.Workload.sc_per_section;
    Format.printf "costs          %a@." Lb_cost.Accounting.pp_breakdown
      r.Lb_mutex.Workload.breakdown
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Run an arrival-pattern workload and report per-section costs")
    Term.(const run $ algo_arg $ n_arg $ seed_arg $ pattern_arg $ rounds_arg)

(* ------------------------------ adversary ----------------------------- *)

let adversary_cmd =
  let tries_arg =
    Arg.(value & opt int 32 & info [ "tries" ] ~docv:"K" ~doc:"Random restarts.")
  in
  let run algo_name n seed tries =
    require_positive ~cmd:"adversary" "--tries" tries;
    let algo = find_algo algo_name in
    require_supports ~cmd:"adversary" ~n algo;
    let r = Lb_mutex.Adversary.search ~tries ~seed algo ~n in
    Printf.printf "sequential     %d\n" r.Lb_mutex.Adversary.sequential_cost;
    Printf.printf "adversary best %d (blow-up %.2f, %d tries)\n"
      r.Lb_mutex.Adversary.best_cost
      (float_of_int r.Lb_mutex.Adversary.best_cost
      /. float_of_int (max 1 r.Lb_mutex.Adversary.sequential_cost))
      r.Lb_mutex.Adversary.tries;
    Printf.printf "log2(n!)       %.1f\n" (Lb_core.Bounds.bits_needed n)
  in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:"Search for expensive canonical executions with random restarts")
    Term.(const run $ algo_arg $ n_arg $ seed_arg $ tries_arg)

(* ---------------------------- experiments ----------------------------- *)

let experiments_cmd =
  let only_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"IDS" ~doc:"Comma-separated experiment ids, e.g. E1,E3.")
  in
  let run seed only jobs store resume =
    apply_jobs jobs;
    require_store ~cmd:"experiments" ~store ~resume ~events:None
      ~save_traces:false ();
    let experiments = Lb_exp.Exp_all.experiments in
    let wanted = Option.map (String.split_on_char ',') only in
    (* every id is checked before any experiment runs *)
    List.iter
      (fun id ->
        if not (List.mem_assoc id experiments) then begin
          Printf.eprintf "unknown experiment %S\n" id;
          exit 2
        end)
      (Option.value ~default:[] wanted);
    (match store with
    | None -> ()
    | Some dir ->
      Lb_exp.Exp_common.set_store ~resume (Some (Lb_store.Store.open_ ~dir)));
    match wanted with
    | None -> Lb_exp.Exp_all.run ~seed ()
    | Some ids -> List.iter (fun id -> (List.assoc id experiments) ~seed ()) ids
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "Regenerate the EXPERIMENTS.md tables. With --store DIR the \
          pipeline sweeps inside E1/E2 are served from (and persisted to) a \
          durable result store.")
    Term.(
      const run
      $ seed_opt ~default:Lb_exp.Exp_common.default_seed
      $ only_arg $ jobs_arg $ store_arg $ resume_arg)

(* -------------------------------- store ------------------------------- *)

let store_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"Store directory.")
  in
  (* stat, verify and gc inspect a store that exists: a missing or
     mistyped DIR is a usage error, not a fresh empty store *)
  let existing ~cmd dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "store %s: %s: %s\n" cmd dir
        (if Sys.file_exists dir then "not a directory" else "no such directory");
      exit 2
    end;
    Lb_store.Store.open_ ~dir
  in
  let stat_cmd =
    let run dir =
      let st = existing ~cmd:"stat" dir in
      let s = Lb_store.Store.stat st in
      Printf.printf "store          %s\n" dir;
      Printf.printf "entries        %d (%d with E_pi traces, %d damaged)\n"
        s.Lb_store.Store.s_entries s.Lb_store.Store.s_with_trace
        s.Lb_store.Store.s_damaged;
      Printf.printf "object bytes   %d\n" s.Lb_store.Store.s_bytes;
      Printf.printf "manifests      %d\n" s.Lb_store.Store.s_manifests;
      if s.Lb_store.Store.s_by_algo <> [] then begin
        Printf.printf "by (algo, n):\n";
        List.iter
          (fun (algo, n, count) ->
            Printf.printf "  %-20s n=%-3d %d\n" algo n count)
          s.Lb_store.Store.s_by_algo
      end
    in
    Cmd.v
      (Cmd.info "stat" ~doc:"Summarize a store: entry counts, sizes, sweeps")
      Term.(const run $ dir_arg)
  in
  let verify_cmd =
    let run dir =
      let st = existing ~cmd:"verify" dir in
      let ok, damaged =
        Lb_store.Store.fold st ~init:(0, [])
          ~f:(fun (ok, bad) ~key -> function
            | Ok _ -> (ok + 1, bad)
            | Error diag -> (ok, (key, diag) :: bad))
      in
      let damaged = List.rev damaged in
      List.iter
        (fun (key, diag) ->
          Printf.printf "DAMAGED %s\n  %s\n  %s\n" key
            (Lb_store.Store.object_path st ~key)
            diag)
        damaged;
      Printf.printf "verified       %d entries ok, %d damaged\n" ok
        (List.length damaged);
      if damaged <> [] then exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Re-parse and re-hash every entry; report damage. Exits 1 if any \
            entry fails verification.")
      Term.(const run $ dir_arg)
  in
  let gc_cmd =
    let dry_arg =
      Arg.(value & flag
           & info [ "dry-run" ] ~doc:"Report what would be dropped; delete nothing.")
    in
    let force_arg =
      Arg.(value & flag
           & info [ "force" ]
               ~doc:
                 "Run even while another writer (a sweep, a server) holds \
                  the store lease. Safe against readers — condemned entries \
                  go to trash, not straight to unlink — but a concurrent \
                  sweep may recompute entries gc just condemned.")
    in
    let wait_arg =
      Arg.(value & opt float 0.0
           & info [ "wait" ] ~docv:"SECONDS"
               ~doc:"Wait up to $(docv) for the writer lease before refusing.")
    in
    let lease_ttl_arg =
      Arg.(value & opt (some float) None
           & info [ "lease-ttl" ] ~docv:"SECONDS"
               ~doc:
                 "Also treat a writer lease as stale when its file's mtime \
                  is more than $(docv) seconds from now (either direction). \
                  Breaks leases left by dead $(i,remote) hosts or rsync'd \
                  stores, which pid-liveness probing cannot see. Live \
                  holders refresh their lease on every checkpoint, so a \
                  TTL comfortably above the checkpoint cadence is safe; a \
                  TTL below a live sweep's checkpoint interval breaks its \
                  lease, and that sweep stops at its next checkpoint \
                  (certify exits 75).")
    in
    let run dir dry force wait lease_ttl =
      let st = existing ~cmd:"gc" dir in
      (* current behavioral fingerprints, memoized per (algo, n) *)
      let fps : (string * int, string option) Hashtbl.t = Hashtbl.create 16 in
      let current_fp ~algo ~n =
        match Hashtbl.find_opt fps (algo, n) with
        | Some fp -> fp
        | None ->
          let fp =
            match Lb_algos.Registry.find algo with
            | None -> None
            | Some a ->
              if Lb_shmem.Algorithm.supports a n then
                Some (Lb_store.Store_key.fingerprint a ~n)
              else None
          in
          Hashtbl.add fps (algo, n) fp;
          fp
      in
      match
        Lb_store.Store_gc.run ~dry ~force ~wait ?lease_ttl:lease_ttl
          ~current_fp st
      with
      | Error held ->
        Format.eprintf
          "gc: refused: store held by %a — a sweep may be mid-flight \
           (writer lease or live per-entry worker claims). Retry with \
           --wait SECONDS, or override with --force.@."
          Lb_store.Store_lock.pp_held held;
        exit 1
      | Ok r ->
        List.iter
          (fun (key, why) ->
            Printf.printf "%s %s (%s)\n"
              (if dry then "would drop" else "drop")
              key why)
          r.Lb_store.Store_gc.g_condemned;
        Printf.printf "gc             %d kept, %d %s\n" r.Lb_store.Store_gc.g_kept
          (List.length r.Lb_store.Store_gc.g_condemned)
          (if dry then "would be dropped" else "dropped");
        if not dry then
          Printf.printf
            "gc trash       %d dir(s) purged, %d deferred to live readers, \
             %d claim dir(s) swept (epoch %d)\n"
            r.Lb_store.Store_gc.g_trash_purged
            r.Lb_store.Store_gc.g_trash_deferred
            r.Lb_store.Store_gc.g_claims_swept r.Lb_store.Store_gc.g_epoch
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Drop entries whose algorithm fingerprint no longer matches the \
            current code (plus damaged and unknown-algorithm entries). Keys \
            embed the fingerprint, so stale entries can never be served by \
            mistake -- gc only reclaims the space. Refuses (exit 1) while a \
            sweep holds the store's writer lease unless $(b,--force); \
            condemned entries are renamed into an epoch-stamped trash \
            directory and only purged once no registered reader predates \
            the condemnation.")
      Term.(const run $ dir_arg $ dry_arg $ force_arg $ wait_arg $ lease_ttl_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain a durable result store (stat, verify, gc)")
    [ stat_cmd; verify_cmd; gc_cmd ]

(* -------------------------------- lint -------------------------------- *)

let lint_cmd =
  let algos_arg =
    let doc =
      "Comma-separated algorithm names, or $(b,all) for the whole registry."
    in
    Arg.(value & opt string "all" & info [ "a"; "algo" ] ~docv:"NAMES" ~doc)
  in
  let sizes_arg =
    let doc = "Comma-separated system sizes to analyze each algorithm at." in
    Arg.(value & opt string "2,3,4" & info [ "sizes" ] ~docv:"NS" ~doc)
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the machine-readable JSON report.")
  in
  let verbose_arg =
    Arg.(value & flag
         & info [ "v"; "verbose" ] ~doc:"Print witness paths under findings.")
  in
  let no_allow_arg =
    Arg.(value & flag
         & info [ "no-allowlist" ]
             ~doc:
               "Ignore the registry's expected-findings allowlist; every \
                Error/Warning finding fails the run.")
  in
  let max_nodes_arg =
    Arg.(value & opt (some int) None
         & info [ "max-nodes" ] ~docv:"K"
             ~doc:"Per-process automaton node budget (default 4000).")
  in
  let rules_arg =
    Arg.(value & opt (some string) None
         & info [ "rules" ] ~docv:"IDS"
             ~doc:
               "Comma-separated rule families to run (repr-soundness, \
                register-discipline, kind-honesty, liveness-shape). \
                Default: all.")
  in
  let run algo_names sizes_s jobs json verbose no_allow max_nodes rules =
    apply_jobs jobs;
    let algos =
      if algo_names = "all" then Lb_algos.Registry.all
      else
        String.split_on_char ',' algo_names
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map find_algo
    in
    if algos = [] then begin
      Printf.eprintf "lint: no algorithm given\n";
      exit 2
    end;
    let sizes =
      try
        String.split_on_char ',' sizes_s
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map int_of_string
      with Failure _ ->
        Printf.eprintf "lint: bad --sizes %S (want e.g. 2,3,4)\n" sizes_s;
        exit 2
    in
    if sizes = [] || List.exists (fun n -> n < 1) sizes then begin
      Printf.eprintf "lint: --sizes must list positive integers\n";
      exit 2
    end;
    let settings =
      match max_nodes with
      | None -> Lb_analysis.Automaton.default_settings
      | Some k when k >= 1 ->
        { Lb_analysis.Automaton.default_settings with max_nodes = k }
      | Some k ->
        Printf.eprintf "lint: --max-nodes must be >= 1 (got %d)\n" k;
        exit 2
    in
    let allow =
      if no_allow then fun _ -> []
      else Lb_algos.Registry.expected_findings
    in
    let passes =
      match rules with
      | None -> Lb_analysis.Driver.default_passes
      | Some s -> (
        let ids =
          String.split_on_char ',' s
          |> List.map String.trim
          |> List.filter (fun x -> x <> "")
        in
        match Lb_analysis.Driver.passes_for ids with
        | Ok [] ->
          Printf.eprintf "lint: --rules selected no rule family\n";
          exit 2
        | Ok ps -> ps
        | Error msg ->
          Printf.eprintf "lint: %s\n" msg;
          exit 2)
    in
    let report = Lb_analysis.Driver.run ~settings ~passes ~sizes ~allow algos in
    if json then print_endline (Lb_analysis.Driver.to_json report)
    else Format.printf "%a" (Lb_analysis.Driver.pp ~verbose) report;
    if not (Lb_analysis.Driver.clean report) then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze algorithm automata (repr injectivity, register \
          discipline, kind honesty, liveness shape). Exits 0 when clean \
          modulo the registry allowlist, 1 on unexpected findings, 2 on \
          usage errors."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Explores each process automaton in isolation, feeding every \
              response the declared register domains permit, then runs the \
              lint passes over the explored state spaces. Findings carry a \
              witness: the response path driving the automaton to the \
              offending state ($(b,--verbose) prints it).";
           `P
             "Deliberately-faulty registry entries keep CI green through \
              the expected-findings allowlist; $(b,--no-allowlist) shows \
              their findings as failures too.";
         ])
    Term.(const run $ algos_arg $ sizes_arg $ jobs_arg $ json_arg
          $ verbose_arg $ no_allow_arg $ max_nodes_arg $ rules_arg)

(* -------------------------------- chaos ------------------------------- *)

let chaos_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the machine-readable JSON matrix.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Also write the JSON matrix to $(docv).")
  in
  let random_arg =
    Arg.(value & opt int 0
         & info [ "random" ] ~docv:"K"
             ~doc:
               "Append $(docv) randomly generated fault plans (expectation: \
                anything but an engine crash) to the curated matrix.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Seed for $(b,--random) plan generation.")
  in
  let max_states_arg =
    Arg.(value & opt int 200_000
         & info [ "max-states" ] ~docv:"K"
             ~doc:"State budget per model-check cell.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:
               "Wall-clock budget per cell. A cell that hits it reports \
                deadline_exceeded and fails its expectation — boundedness \
                at the price of determinism, so leave unset for CI diffs.")
  in
  let run json out random seed max_states deadline jobs =
    apply_jobs jobs;
    if random < 0 then begin
      Printf.eprintf "chaos: --random must be >= 0\n";
      exit 2
    end;
    require_positive ~cmd:"chaos" "--max-states" max_states;
    let cells =
      Lb_faults.Matrix.shipped
      @ (if random > 0 then
           Lb_faults.Matrix.random_cells ~seed ~count:random
         else [])
    in
    let t = Lb_faults.Matrix.run ~max_states ?deadline cells in
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc (Lb_faults.Matrix.to_json t);
      close_out oc
    | None -> ());
    if json then print_string (Lb_faults.Matrix.to_json t)
    else Format.printf "%a" Lb_faults.Matrix.pp t;
    if not t.Lb_faults.Matrix.honest then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the fault-injection detection matrix: inject crash, \
          lost/stale/corrupt register and starvation faults into the \
          algorithm zoo and verify every violation is caught (and every \
          benign plan survives). Exits 0 when the matrix is honest, 1 \
          otherwise, 2 on usage errors."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Each matrix cell wraps an algorithm in a deterministic fault \
              plan ($(b,Lb_faults.Inject)) and runs a detection engine — \
              the bounded model checker for crash and register faults, a \
              concrete schedule with starvation windows for liveness \
              faults. The wrapped algorithm's name carries the plan label, \
              so every verdict names the fault that caused it.";
           `P
             "The matrix is a pure function of its description: rerunning \
              at any $(b,--jobs) produces byte-identical JSON (the CI \
              chaos smoke job diffs exactly that).";
         ])
    Term.(
      const run $ json_arg $ out_arg $ random_arg $ seed_arg $ max_states_arg
      $ deadline_arg $ jobs_arg)

(* ------------------------------- mutate ------------------------------- *)

let mutate_cmd =
  let algos_arg =
    let doc =
      "Comma-separated algorithm names, $(b,correct) for every correct \
       registry entry, or $(b,all) to include the faulty controls."
    in
    Arg.(value & opt string "correct" & info [ "a"; "algo" ] ~docv:"NAMES" ~doc)
  in
  let sizes_arg =
    let doc = "Comma-separated system sizes to mutate each algorithm at." in
    Arg.(value & opt string "2,3" & info [ "sizes" ] ~docv:"NS" ~doc)
  in
  let ops_arg =
    let doc =
      Printf.sprintf
        "Comma-separated operator families to apply (default: all of %s)."
        (String.concat ", " Lb_mutate.Op.kinds)
    in
    Arg.(value & opt (some string) None & info [ "ops" ] ~docv:"OPS" ~doc)
  in
  let rounds_arg =
    Arg.(value & opt int 1
         & info [ "rounds" ] ~docv:"K"
             ~doc:"Critical-section rounds bound for the model-check leg.")
  in
  let max_states_arg =
    Arg.(value & opt int 200_000
         & info [ "max-states" ] ~docv:"K"
             ~doc:"State budget for each mutant's model-check leg.")
  in
  let mem_budget_arg =
    Arg.(value & opt (some int) None
         & info [ "mem-budget" ] ~docv:"MIB"
             ~doc:
               "Memory budget (MiB) for each mutant's model-check leg; a \
                mutant exceeding it is inconclusive and needs triage.")
  in
  let max_steps_arg =
    Arg.(value & opt int 20_000
         & info [ "max-steps" ] ~docv:"K"
             ~doc:
               "Step budget for each schedule-leg run; burning it is the \
                livelock detection (out_of_fuel).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the machine-readable JSON report.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Also write the JSON report to $(docv).")
  in
  let no_allow_arg =
    Arg.(value & flag
         & info [ "no-allowlist" ]
             ~doc:
               "Ignore the registry's expected-survivors allowlist; every \
                survivor fails the campaign (the triage view).")
  in
  let no_short_circuit_arg =
    Arg.(value & flag
         & info [ "no-short-circuit" ]
             ~doc:
               "Run every layer on every mutant instead of stopping at the \
                first kill (slower; shows redundant coverage).")
  in
  let no_escalate_arg =
    Arg.(value & flag
         & info [ "no-escalate" ]
             ~doc:
               "Skip the deep-check escalation (re-checking clean survivors \
                at rounds + 1 before declaring them survived).")
  in
  let deep_states_arg =
    Arg.(value & opt int 2_000_000
         & info [ "deep-states" ] ~docv:"K"
             ~doc:
               "State budget for the deep-check escalation (clamped up to \
                --max-states).")
  in
  let run algo_names sizes_s ops rounds max_states mem_budget max_steps json
      out no_allow no_short_circuit no_escalate deep_states jobs =
    apply_jobs jobs;
    let algos =
      match algo_names with
      | "correct" -> Lb_algos.Registry.correct
      | "all" -> Lb_algos.Registry.all
      | names ->
        String.split_on_char ',' names
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map find_algo
    in
    if algos = [] then begin
      Printf.eprintf "mutate: no algorithm given\n";
      exit 2
    end;
    let sizes =
      try
        String.split_on_char ',' sizes_s
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map int_of_string
      with Failure _ ->
        Printf.eprintf "mutate: bad --sizes %S (want e.g. 2,3)\n" sizes_s;
        exit 2
    in
    if sizes = [] || List.exists (fun n -> n < 1) sizes then begin
      Printf.eprintf "mutate: --sizes must list positive integers\n";
      exit 2
    end;
    let kinds =
      match ops with
      | None -> Lb_mutate.Op.kinds
      | Some s -> (
        let requested =
          String.split_on_char ',' s
          |> List.map String.trim
          |> List.filter (fun x -> x <> "")
        in
        match Lb_mutate.Op.validate_kinds requested with
        | Ok [] ->
          Printf.eprintf "mutate: --ops selected no operator\n";
          exit 2
        | Ok ks -> ks
        | Error msg ->
          Printf.eprintf "mutate: %s\n" msg;
          exit 2)
    in
    require_positive ~cmd:"mutate" "--rounds" rounds;
    require_positive ~cmd:"mutate" "--max-states" max_states;
    require_positive ~cmd:"mutate" "--max-steps" max_steps;
    require_positive ~cmd:"mutate" "--deep-states" deep_states;
    let mem_budget =
      match mem_budget with
      | None -> None
      | Some m when m >= 1 -> Some (m * 1024 * 1024)
      | Some m ->
        Printf.eprintf "mutate: --mem-budget must be >= 1 MiB (got %d)\n" m;
        exit 2
    in
    let config =
      {
        Lb_mutate.Campaign.default with
        sizes;
        kinds;
        rounds;
        max_states;
        mem_budget;
        max_steps;
        escalate = not no_escalate;
        deep_states;
      }
    in
    let allow =
      if no_allow then fun _ -> []
      else Lb_algos.Registry.expected_survivors
    in
    let t =
      Lb_mutate.Campaign.run ~config ~short_circuit:(not no_short_circuit)
        ~allow algos
    in
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc (Lb_mutate.Campaign.to_json t);
      close_out oc
    | None -> ());
    if json then print_string (Lb_mutate.Campaign.to_json t)
    else Format.printf "%a" Lb_mutate.Campaign.pp t;
    if not (Lb_mutate.Campaign.clean t) then exit 1
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:
         "Mutation-test the detection stack: apply systematic mutant \
          operators to the algorithm zoo and verify each mutant is killed \
          by lint, the model checker or a scheduled run — or triaged in \
          the registry's expected-survivors allowlist. Exits 0 when every \
          mutant is killed or triaged, 1 on un-triaged survivors, 2 on \
          usage errors."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Operator sites are discovered statically from each \
              algorithm's explored automaton, and mutants are built as \
              deterministic wrappers (the fault-injection mechanism, made \
              permanent and seed-free), so a campaign is a pure function \
              of its flags: byte-identical JSON at any $(b,--jobs).";
           `P
             "Each mutant runs through the stack cheapest-first — lint, \
              bounded model check, round-robin and seeded-random schedules \
              — short-circuiting on the first kill; the report attributes \
              every kill to the layer and rule/verdict that caught it, \
              and scores each layer.";
         ])
    Term.(
      const run $ algos_arg $ sizes_arg $ ops_arg $ rounds_arg
      $ max_states_arg $ mem_budget_arg $ max_steps_arg $ json_arg $ out_arg
      $ no_allow_arg $ no_short_circuit_arg $ no_escalate_arg
      $ deep_states_arg $ jobs_arg)

let serve_cmd =
  let store_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Store directory the service owns. Created if absent. Concurrent \
             $(b,mutexlb certify --store) runs against the same directory are \
             safe: the server registers as a reader and takes the writer \
             lease only while a sweep is running.")
  in
  let host_arg =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR"
          ~doc:"Address to bind. This is a local service; keep it loopback.")
  in
  let port_arg =
    Arg.(
      value
      & opt int 8944
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on. $(b,0) picks an ephemeral port.")
  in
  let port_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound port here (atomically) once listening — how \
             scripts find an ephemeral port.")
  in
  let max_active_arg =
    Arg.(
      value
      & opt int 1
      & info [ "max-active" ] ~docv:"N"
          ~doc:"Jobs running concurrently across all clients.")
  in
  let per_client_arg =
    Arg.(
      value
      & opt int 1
      & info [ "per-client" ] ~docv:"N"
          ~doc:"Running-job cap per client (the fairness knob).")
  in
  let rate_arg =
    Arg.(
      value
      & opt float 4.0
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Token-bucket refill rate, jobs/second/client. Submissions over \
             the rate are answered 429 with a Retry-After hint.")
  in
  let burst_arg =
    Arg.(
      value
      & opt float 8.0
      & info [ "burst" ] ~docv:"B" ~doc:"Token-bucket capacity per client.")
  in
  let grace_arg =
    Arg.(
      value
      & opt float 20.0
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:
            "Drain deadline: on SIGTERM, running sweeps get this long to \
             checkpoint before the cooperative cancel fires.")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Log each request to standard error.")
  in
  let run store host port port_file jobs max_active per_client rate burst grace
      verbose =
    apply_jobs jobs;
    if max_active < 1 || per_client < 1 then begin
      Printf.eprintf "serve: --max-active and --per-client must be >= 1\n";
      exit 2
    end;
    if rate <= 0.0 || burst < 1.0 then begin
      Printf.eprintf "serve: --rate must be > 0 and --burst >= 1\n";
      exit 2
    end;
    let sched = { Lb_serve.Scheduler.max_active; per_client; rate; burst } in
    let config =
      {
        Lb_serve.Server.host;
        port;
        port_file;
        store_dir = store;
        jobs;
        sched;
        grace;
        verbose;
      }
    in
    Lb_serve.Server.run config
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived job service: accept certify/check/lint/chaos/\
          mutate jobs from multiple clients over local HTTP, schedule them \
          fairly, stream progress as JSONL, and serve warm results straight \
          from the store. SIGTERM drains gracefully: running sweeps \
          checkpoint and the store is left resumable."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "POST a job to $(b,/v1/jobs) (one JSON object; see DESIGN.md \
              \xc2\xa76i for the grammar) and read the chunked JSONL event \
              stream: $(b,accepted), $(b,granted), sweep telemetry, then one \
              of $(b,result), $(b,drained) or $(b,error). $(b,GET /v1/health) \
              and $(b,GET /v1/stats) answer plain JSON.";
           `P
             "Scheduling is round-robin across client identities (the \
              $(b,X-Client) header) with a per-client running cap and a \
              token-bucket admission rate, so a chatty client cannot starve \
              a quiet one.";
           `P
             "Certify jobs whose whole permutation family is already in the \
              store are answered from it without taking a scheduler slot, \
              byte-identical to what $(b,mutexlb certify) would print.";
         ])
    Term.(
      const run $ store_arg $ host_arg $ port_arg $ port_file_arg $ jobs_arg
      $ max_active_arg $ per_client_arg $ rate_arg $ burst_arg $ grace_arg
      $ verbose_arg)

let () =
  let info =
    Cmd.info "mutexlb" ~version:"1.0.0"
      ~doc:
        "Reproduction of Fan & Lynch's Omega(n log n) mutual-exclusion lower \
         bound"
  in
  let cmd =
    Cmd.group info
      [
        list_cmd; run_cmd; check_cmd; construct_cmd; pipeline_cmd; decode_cmd;
        certify_cmd; work_cmd; workload_cmd; adversary_cmd; experiments_cmd;
        store_cmd; lint_cmd; chaos_cmd; mutate_cmd; serve_cmd;
      ]
  in
  (* The one boundary for unusable paths: a file or directory a verb
     cannot read, write or create is a usage error (exit 2) on one line
     naming the verb, not an internal error. Anything else is still an
     internal error (exit 125), reported as cmdliner would. *)
  let verb () =
    match Array.to_list Sys.argv with
    | _ :: "store" :: sub :: _ -> "store " ^ sub
    | _ :: v :: _ -> v
    | _ -> "mutexlb"
  in
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Sys_error msg ->
      Printf.eprintf "%s: %s\n" (verb ()) msg;
      2
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Printf.eprintf "mutexlb: internal error, uncaught exception:\n%s\n%s"
        (Printexc.to_string e)
        (Printexc.raw_backtrace_to_string bt);
      Cmd.Exit.internal_error)
