(* chaos: the fault-injection detection matrix, run through the chaos
   job's one body (Lb_serve.Job.chaos). *)

open Cmdliner
open Common

let chaos_cmd =
  let random_arg =
    Arg.(value & opt int Lb_serve.Protocol.default_random
         & info [ "random" ] ~docv:"K"
             ~doc:
               "Append $(docv) randomly generated fault plans (expectation: \
                anything but an engine crash) to the curated matrix.")
  in
  let seed_arg =
    Arg.(value & opt int Lb_serve.Protocol.default_seed
         & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for $(b,--random) plan generation.")
  in
  let max_states_arg =
    Arg.(value & opt int Lb_serve.Protocol.default_chaos_states
         & info [ "max-states" ] ~docv:"K" ~doc:"State budget per model-check cell.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:
               "Wall-clock budget per cell. A cell that hits it reports \
                deadline_exceeded and fails its expectation — boundedness \
                at the price of determinism, so leave unset for CI diffs.")
  in
  let run json out h_random h_seed h_max_states deadline jobs =
    let cmd = "chaos" in
    apply_jobs jobs;
    if h_random < 0 then usage ~cmd "--random must be >= 0";
    require_positive ~cmd "--max-states" h_max_states;
    let t =
      Lb_serve.Job.chaos ~cancel:(Lb_util.Pool.Cancel.create ()) ~deadline
        { Lb_serve.Protocol.h_max_states; h_random; h_seed }
    in
    write_out out (Lb_faults.Matrix.to_json t);
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
      const run
      $ json_arg "Emit the machine-readable JSON matrix."
      $ out_arg $ random_arg $ seed_arg $ max_states_arg $ deadline_arg
      $ jobs_arg)
