(* lint: static analysis of the algorithm automata, run through the lint
   job's one body (Lb_serve.Job.lint). *)

open Cmdliner
open Common

let lint_cmd =
  let sizes_arg =
    sizes_arg ~default:Lb_analysis.Driver.default_sizes
      ~doc:"Comma-separated system sizes to analyze each algorithm at."
  in
  let json_arg = json_arg "Emit the machine-readable JSON report." in
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
    Arg.(value & opt int Lb_analysis.Automaton.default_settings.max_nodes
         & info [ "max-nodes" ] ~docv:"K"
             ~doc:"Per-process automaton node budget.")
  in
  let rules_arg =
    Arg.(value & opt (some string) None
         & info [ "rules" ] ~docv:"IDS"
             ~doc:
               "Comma-separated rule families to run (repr-soundness, \
                register-discipline, kind-honesty, liveness-shape). \
                Default: all.")
  in
  let run l_algos sizes jobs json verbose no_allow max_nodes rules =
    let cmd = "lint" in
    apply_jobs jobs;
    let l_sizes = parse_sizes ~cmd ~default:Lb_analysis.Driver.default_sizes sizes in
    require_positive ~cmd "--max-nodes" max_nodes;
    let passes =
      selection ~cmd ~flag:"--rules" ~what:"rule family"
        Lb_analysis.Driver.passes_for rules
      |> Option.value ~default:Lb_analysis.Driver.default_passes
    in
    let report =
      ok_or_usage ~cmd
        (Lb_serve.Job.lint ~cancel:(Lb_util.Pool.Cancel.create ())
           ~settings:{ Lb_analysis.Automaton.default_settings with max_nodes }
           ~passes ~allowlist:(not no_allow)
           { Lb_serve.Protocol.l_algos; l_sizes })
    in
    if json then print_endline (Lb_util.Json.to_string (Lb_analysis.Driver.to_json report))
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
    Term.(const run $ algos_arg ~default:Lb_serve.Protocol.default_lint_algos
          $ sizes_arg $ jobs_arg $ json_arg $ verbose_arg $ no_allow_arg
          $ max_nodes_arg $ rules_arg)
