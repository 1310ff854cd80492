(* The verbs around one algorithm and the paper's objects: the
   registry, a run under a scheduler, the construction, the pipeline,
   decoding a saved E_pi, workloads, the adversary, and the experiment
   tables. *)

open Cmdliner
open Common
module Json = Lb_util.Json

let order_string order = String.concat " " (List.map string_of_int order)

(* run and decode end alike: the order of critical sections and the
   execution's costs *)
let print_order_costs algo ~n order exec =
  Printf.printf "enter order    %s\n" (order_string order);
  Format.printf "costs          %a@." Lb_cost.Accounting.pp_breakdown
    (Lb_cost.Accounting.breakdown algo ~n exec)

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
      (Json.escape (Lb_shmem.Algorithm.kind_name a.Lb_shmem.Algorithm.kind))
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
            Lb_shmem.Algorithm.kind_name a.Lb_shmem.Algorithm.kind;
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
    let algo = algo_at ~cmd:"run" ~n ~pipeline:false algo_name in
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
    print_order_costs algo ~n outcome.Lb_mutex.Canonical.enter_order exec;
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

(* ----------------------------- construct ----------------------------- *)

let construct_cmd : unit Cmd.t =
  let show_meta =
    Arg.(value & flag & info [ "metasteps" ] ~doc:"Dump every metastep.")
  in
  let dot_arg =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE" ~doc:"Export (M, \xe2\xaa\xaf) as Graphviz DOT.")
  in
  let run algo_name n seed perm show_meta dot =
    let algo = algo_at ~cmd:"construct" ~n ~pipeline:true algo_name in
    let pi = parse_perm ~n ~seed perm in
    let c = Lb_core.Construct.run algo ~n pi in
    let exec = Lb_core.Linearize.execution c in
    Format.printf "pi             %a@." Lb_core.Permutation.pp pi;
    Printf.printf "metasteps      %d\n" (Lb_core.Metastep.count c.Lb_core.Construct.arena);
    Printf.printf "linearization  %d steps\n" (Lb_shmem.Execution.length exec);
    Printf.printf "SC cost        %d\n"
      (Lb_cost.State_change.cost algo ~n exec);
    Printf.printf "enter order    %s\n" (order_string (Lb_shmem.Execution.crit_order exec));
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
    let algo = algo_at ~cmd:"pipeline" ~n ~pipeline:true algo_name in
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
      (order_string (Lb_shmem.Execution.crit_order r.Lb_core.Pipeline.decoded));
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
        usage ~cmd:"decode" "%s:%d: %s" file line detail
    in
    let algo = algo_at ~cmd:"decode" ~n ~pipeline:true algo_name in
    let decoded =
      try Lb_core.Decode.run_bits algo ~n bits
      with Lb_core.Decode.Decode_error { detail; consumed } ->
        usage ~cmd:"decode" "%s: bits do not decode: %s (%d cells read)" file
          detail consumed
    in
    Printf.printf "algorithm      %s (n=%d), %d bits\n" algo_name n (Array.length bits);
    Printf.printf "decoded        %d steps\n" (Lb_shmem.Execution.length decoded);
    print_order_costs algo ~n (Lb_shmem.Execution.crit_order decoded) decoded
  in
  Cmd.v
    (Cmd.info "decode"
       ~doc:"Decode a saved E_pi file back into an execution (Fig. 3)")
    Term.(const run $ file_arg)

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
      usage ~cmd:"workload"
        "bad pattern %S (want all, staggered:GAP, bursts:SIZE:GAP or \
         poisson:MEAN, with SIZE >= 1 and GAP, MEAN >= 0)"
        s
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
    let algo = algo_at ~cmd:"workload" ~n ~pipeline:false algo_name in
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
    let algo = algo_at ~cmd:"adversary" ~n ~pipeline:false algo_name in
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
