(* check: the bounded model checker over a comma-separated algorithm
   list, run through the check job's one body (Lb_serve.Job.check). *)

open Cmdliner
open Common
module Json = Lb_util.Json
module Model_check = Lb_mutex.Model_check

let print_report ~json ~stats ~n ~rounds (algo : Lb_shmem.Algorithm.t)
    (r : Model_check.report) =
  let st = r.Model_check.stats in
  (* the visited set is always exact: "lossy" stays in the schema as a
     constant so reports keep their shape *)
  if json then
    Printf.printf
      "{\"algo\": %s, \"n\": %d, \"rounds\": %d, \"verdict\": %s, \
       \"states\": %d, \"transitions\": %d, \"lossy\": \"none\", \
       \"certified\": %b%s}\n"
      (Json.escape algo.Lb_shmem.Algorithm.name)
      n rounds
      (Json.escape (Model_check.verdict_slug r.Model_check.verdict))
      r.Model_check.states r.Model_check.transitions
      (r.Model_check.verdict = Model_check.Verified)
      (if stats then
         Printf.sprintf
           ", \"stats\": {\"expand_seconds\": %.3f, \"merge_seconds\": %.3f, \
            \"spill_seconds\": %.3f, \"layers\": %d, \"scan_layers\": %d}"
           st.Model_check.expand_seconds st.Model_check.merge_seconds
           st.Model_check.spill_seconds st.Model_check.layers
           st.Model_check.scan_layers
       else "")
  else begin
    Format.printf
      "%s n=%d rounds=%d: %a (%d states, %d transitions, %.0f states/s, %.0f \
       B/state)@."
      algo.Lb_shmem.Algorithm.name n rounds Model_check.pp_verdict
      r.Model_check.verdict r.Model_check.states r.Model_check.transitions
      (Model_check.states_per_sec r)
      (Model_check.bytes_per_state r);
    if stats then
      Format.printf
        "  stages: expand %.3fs, merge %.3fs, spill %.3fs over %d layers (%d \
         scanned the spill runs)@."
        st.Model_check.expand_seconds st.Model_check.merge_seconds
        st.Model_check.spill_seconds st.Model_check.layers
        st.Model_check.scan_layers
  end;
  match r.Model_check.verdict with
  | Model_check.Mutex_violation tr
  | Model_check.Deadlock tr
  | Model_check.Ill_formed { trace = tr; _ } ->
    if not json then
      Format.printf "witness:@.%a@."
        (Lb_shmem.Execution.pp_with_names (algo.Lb_shmem.Algorithm.registers ~n))
        tr;
    1
  | Model_check.Bound_exceeded _ | Model_check.Deadline_exceeded _
  | Model_check.Mem_exceeded _ ->
    3
  | Model_check.Verified -> 0

let check_cmd =
  let rounds_arg =
    Arg.(value & opt int Lb_serve.Protocol.default_rounds
         & info [ "rounds" ] ~docv:"R" ~doc:"Critical sections per process.")
  in
  let max_states_arg =
    Arg.(value & opt int Lb_serve.Protocol.default_check_states
         & info [ "max-states" ] ~docv:"K" ~doc:"State budget.")
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
    json_arg
      "Emit one JSON object per algorithm instead of the text report. No \
       timing fields (unless $(b,--stats)), so output is byte-identical \
       across machines and $(b,--jobs) values."
  in
  let run k_algos k_n k_rounds k_max_states deadline mem_budget spill_dir
      resume stats json jobs =
    let cmd = "check" in
    apply_jobs jobs;
    require_positive ~cmd "--rounds" k_rounds;
    require_positive ~cmd "--max-states" k_max_states;
    if resume && spill_dir = None then usage ~cmd "--resume requires --spill-dir DIR";
    (match mem_budget with
    | Some b when b < 1 -> usage ~cmd "--mem-budget must be >= 1 MiB (got %d)" b
    | Some _ | None -> ());
    let o =
      ok_or_usage ~cmd
        (Lb_serve.Job.check ~cancel:(Lb_util.Pool.Cancel.create ()) ~deadline
           ~mem_budget:(Option.map (fun b -> b * 1024 * 1024) mem_budget)
           ~spill_dir ~resume
           { Lb_serve.Protocol.k_algos; k_n; k_rounds; k_max_states })
    in
    List.iter
      (fun (a : Lb_shmem.Algorithm.t) ->
        Printf.printf "%s n=%d: skipped (unsupported size)\n"
          a.Lb_shmem.Algorithm.name k_n)
      o.Lb_serve.Job.skipped;
    (* a violation anywhere drives the exit code, else a stopped check *)
    let status =
      List.fold_left
        (fun status (algo, r) ->
          match print_report ~json ~stats ~n:k_n ~rounds:k_rounds algo r with
          | 1 -> 1
          | code -> if status = 0 then code else status)
        0 o.Lb_serve.Job.reports
    in
    if status <> 0 then exit status
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check mutual exclusion at small n — exhaustively, in RAM \
          or out-of-core under a memory budget with disk spill and resume. \
          Accepts a comma-separated algorithm list ($(b,all) and \
          $(b,correct) name the registry); the per-algorithm sweeps run in \
          parallel.")
    Term.(
      const run $ algos_arg ~default:default_algo $ n_arg $ rounds_arg
      $ max_states_arg $ deadline_arg $ mem_budget_arg $ spill_dir_arg
      $ check_resume_arg $ stats_arg $ json_arg $ jobs_arg)
