module Pool = Lb_util.Pool
module Model_check = Lb_mutex.Model_check
module Sweep = Lb_store.Sweep

let ( let* ) = Result.bind

type check = {
  reports : (Lb_shmem.Algorithm.t * Model_check.report) list;
  skipped : Lb_shmem.Algorithm.t list;
}

let check ~cancel ~deadline ~mem_budget ~spill_dir ~resume
    (spec : Protocol.check_spec) =
  let n = spec.k_n and rounds = spec.k_rounds in
  let* algos = Protocol.resolve_algos spec.k_algos in
  (* a comma-separated sweep may mix algorithms with different max n
     (e.g. peterson2,yang_anderson at n=3): skip the ones that cannot
     be instantiated rather than aborting the whole sweep *)
  match List.partition (fun a -> Lb_shmem.Algorithm.supports a n) algos with
  | [], _ -> Error (Printf.sprintf "no listed algorithm supports n=%d" n)
  | algos, skipped ->
    let explore (algo : Lb_shmem.Algorithm.t) =
      let spill_dir =
        Option.map
          (fun dir ->
            Filename.concat dir
              (Printf.sprintf "%s_n%d_r%d" algo.Lb_shmem.Algorithm.name n rounds))
          spill_dir
      in
      (* a spill directory that is damaged or pins other parameters
         cannot be resumed: an unusable path, raised as the Sys_error
         that names one *)
      try
        Model_check.explore algo ~n ~rounds ~max_states:spec.k_max_states
          ?deadline ?mem_budget ?spill_dir ~resume
      with (Failure msg | Invalid_argument msg) when resume ->
        raise
          (Sys_error
             (Printf.sprintf "%s: cannot resume: %s"
                (Option.value ~default:"" spill_dir)
                msg))
    in
    (* the per-algorithm explorations are independent: fan them out *)
    let reports = Pool.map ~cancel explore algos in
    Ok { reports = List.combine algos reports; skipped }

let lint ~cancel ~settings ~passes ~allowlist (spec : Protocol.lint_spec) =
  let* algos = Protocol.resolve_algos spec.l_algos in
  let allow =
    if allowlist then Lb_algos.Registry.expected_findings else fun _ -> []
  in
  Ok
    (Lb_analysis.Driver.run ~settings ~passes ~sizes:spec.l_sizes ~cancel
       ~allow algos)

let chaos ~cancel ~deadline (spec : Protocol.chaos_spec) =
  Lb_faults.Matrix.run ~cancel ~max_states:spec.h_max_states ?deadline
    (Lb_faults.Matrix.shipped
    @ Lb_faults.Matrix.random_cells ~seed:spec.h_seed ~count:spec.h_random)

let mutate ~cancel ~config ~short_circuit ~allowlist
    (spec : Protocol.mutate_spec) =
  let* algos = Protocol.resolve_algos spec.m_algos in
  let allow =
    if allowlist then Lb_algos.Registry.expected_survivors else fun _ -> []
  in
  Ok (Lb_mutate.Campaign.run ~config ~short_circuit ~cancel ~allow algos)

type certify =
  | Swept of Lb_core.Bounds.certificate option * Sweep.report
  | Interrupted of string option
  | Busy of Lb_store.Store_lock.held

let family (spec : Protocol.certify_spec) =
  let n = spec.c_n in
  Protocol.family ~n
    ~perms:(Protocol.clamp_perms ~n spec.c_perms)
    ~seed:spec.c_seed

let certify ~store ~cancel ~on_event ~jobs ~checkpoint_every
    (spec : Protocol.certify_spec) =
  match Lb_algos.Registry.find spec.c_algo with
  | None -> Error (Printf.sprintf "unknown algorithm %S" spec.c_algo)
  | Some algo -> (
    let pis, exhaustive = family spec in
    let manifest = ref None in
    let on_event ev =
      (match ev with
      | Sweep.Checkpoint { manifest = m; _ } | Sweep.Finished { manifest = m; _ }
        ->
        manifest := Some m
      | _ -> ());
      on_event ev
    in
    match
      Sweep.certify ~store ~resume:spec.c_resume ?jobs ?checkpoint_every
        ~save_traces:spec.c_save_traces ?pi_timeout:spec.c_pi_timeout
        ~on_event ~cancel algo ~n:spec.c_n ~perms:pis ~exhaustive ()
    with
    | cert, report -> Ok (Swept (cert, report))
    | exception Invalid_argument msg -> Error msg
    | exception Pool.Cancelled -> Ok (Interrupted !manifest)
    | exception Lb_store.Store_lock.Busy h -> Ok (Busy h))
