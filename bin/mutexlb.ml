(* mutexlb — command-line interface to the reproduction: the command
   group and the one boundary for unusable paths. Each verb lives in
   its own module (Check_cmd, Certify_cmd, ...; the paper's verbs in
   Paper_cmds), over the flags and usage checks of Common. check,
   certify --store, lint, chaos and mutate run the job bodies that
   `mutexlb serve` runs (Lb_serve.Job). *)

open Cmdliner

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
        Paper_cmds.list_cmd; Paper_cmds.run_cmd; Check_cmd.check_cmd;
        Paper_cmds.construct_cmd; Paper_cmds.pipeline_cmd; Paper_cmds.decode_cmd;
        Certify_cmd.certify_cmd; Work_cmd.work_cmd; Paper_cmds.workload_cmd;
        Paper_cmds.adversary_cmd; Paper_cmds.experiments_cmd; Store_cmd.store_cmd;
        Lint_cmd.lint_cmd; Chaos_cmd.chaos_cmd; Mutate_cmd.mutate_cmd;
        Serve_cmd.serve_cmd;
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
