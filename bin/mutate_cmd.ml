(* mutate: mutation-test the detection stack, run through the mutate
   job's one body (Lb_serve.Job.mutate). Every budget and switch
   defaults to Lb_mutate.Campaign.default, the campaign a served mutate
   job runs. *)

open Cmdliner
open Common
module Campaign = Lb_mutate.Campaign

let mutate_cmd =
  let d = Campaign.default in
  let int_opt name ~docv ~doc default =
    Arg.(value & opt int default & info [ name ] ~docv ~doc)
  in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let sizes_arg =
    sizes_arg ~default:d.sizes
      ~doc:"Comma-separated system sizes to mutate each algorithm at."
  in
  let ops_arg =
    let doc =
      Printf.sprintf "Comma-separated operator families to apply (default: all of %s)."
        (String.concat ", " Lb_mutate.Op.kinds)
    in
    Arg.(value & opt (some string) None & info [ "ops" ] ~docv:"OPS" ~doc)
  in
  let mem_budget_arg =
    Arg.(value & opt (some int) None
         & info [ "mem-budget" ] ~docv:"MIB"
             ~doc:
               "Memory budget (MiB) for each mutant's model-check leg; a \
                mutant exceeding it is inconclusive and needs triage.")
  in
  let run m_algos sizes ops rounds max_states mem_budget max_steps json out
      no_allow no_short_circuit no_escalate deep_states jobs =
    let cmd = "mutate" in
    apply_jobs jobs;
    let sizes = parse_sizes ~cmd ~default:d.sizes sizes in
    let kinds =
      selection ~cmd ~flag:"--ops" ~what:"operator" Lb_mutate.Op.validate_kinds ops
      |> Option.value ~default:d.kinds
    in
    require_positive ~cmd "--rounds" rounds;
    require_positive ~cmd "--max-states" max_states;
    require_positive ~cmd "--max-steps" max_steps;
    require_positive ~cmd "--deep-states" deep_states;
    let mem_budget =
      Option.map
        (fun m ->
          if m < 1 then usage ~cmd "--mem-budget must be >= 1 MiB (got %d)" m;
          m * 1024 * 1024)
        mem_budget
    in
    let config =
      { d with sizes; kinds; rounds; max_states; mem_budget; max_steps;
               escalate = not no_escalate; deep_states }
    in
    let t =
      ok_or_usage ~cmd
        (Lb_serve.Job.mutate ~cancel:(Lb_util.Pool.Cancel.create ()) ~config
           ~short_circuit:(not no_short_circuit) ~allowlist:(not no_allow)
           { Lb_serve.Protocol.m_algos })
    in
    write_out out (Campaign.to_json t);
    if json then print_string (Campaign.to_json t)
    else Format.printf "%a" Campaign.pp t;
    if not (Campaign.clean t) then exit 1
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
      const run
      $ algos_arg ~default:Lb_serve.Protocol.default_mutate_algos
      $ sizes_arg $ ops_arg
      $ int_opt "rounds" ~docv:"K" d.rounds
          ~doc:"Critical-section rounds bound for the model-check leg."
      $ int_opt "max-states" ~docv:"K" d.max_states
          ~doc:"State budget for each mutant's model-check leg."
      $ mem_budget_arg
      $ int_opt "max-steps" ~docv:"K" d.max_steps
          ~doc:
            "Step budget for each schedule-leg run; burning it is the \
             livelock detection (out_of_fuel)."
      $ json_arg "Emit the machine-readable JSON report."
      $ out_arg
      $ flag "no-allowlist"
          "Ignore the registry's expected-survivors allowlist; every \
           survivor fails the campaign (the triage view)."
      $ flag "no-short-circuit"
          "Run every layer on every mutant instead of stopping at the \
           first kill (slower; shows redundant coverage)."
      $ flag "no-escalate"
          "Skip the deep-check escalation (re-checking clean survivors at \
           rounds + 1 before declaring them survived)."
      $ int_opt "deep-states" ~docv:"K" d.deep_states
          ~doc:
            "State budget for the deep-check escalation (clamped up to \
             --max-states)."
      $ jobs_arg)
