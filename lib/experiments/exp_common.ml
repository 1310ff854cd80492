let default_seed = 20060723

let perms_for ~seed ~n ~budget =
  (* A budget of zero would hand the sweeps an empty family, and empty
     samples poison everything downstream (Stats.summarize raises,
     Pipeline.certify raises, tables would carry NaN rows) — refuse at
     the source with a message naming the knob. *)
  if budget < 1 then
    invalid_arg
      (Printf.sprintf "Exp_common.perms_for: budget must be >= 1 (got %d)"
         budget);
  if n <= 8 && Lb_util.Xmath.factorial n <= budget then
    (Lb_core.Permutation.all n, true)
  else
    ( Lb_core.Permutation.sample (Lb_util.Rng.create (seed + n)) ~n ~count:budget,
      false )

let map_perms ?jobs f perms = Lb_util.Pool.map ?jobs f perms

let map_cells ?jobs f cells = Lb_util.Pool.map ?jobs f cells

(* --------------------------- durable sweeps --------------------------- *)

(* Process-global store configuration, set once by the CLI
   (`experiments --store DIR [--resume]`) before any experiment runs.
   Experiments whose unit of work is a full pipeline run per permutation
   route it through the store via [certify_sweep]/[records_for]; cells
   run concurrently on the pool, and the store's per-key atomic writes
   make that safe. *)

let store_ref : Lb_store.Store.t option ref = ref None
let resume_ref = ref false

let set_store ?(resume = false) s =
  store_ref := s;
  resume_ref := resume


let certify_sweep (algo : Lb_shmem.Algorithm.t) ~n ~perms ~exhaustive =
  match !store_ref with
  | None -> Lb_core.Pipeline.certify algo ~n ~perms ~exhaustive ()
  | Some store -> (
    match
      Lb_store.Sweep.certify ~store ~resume:!resume_ref algo ~n ~perms
        ~exhaustive ()
    with
    | Some cert, _ -> cert
    | None, report ->
      failwith
        (Printf.sprintf
           "certify_sweep: every permutation failed for %s n=%d (first: %s)"
           algo.Lb_shmem.Algorithm.name n
           (match report.Lb_store.Sweep.failures with
           | { f_message; _ } :: _ -> f_message
           | [] -> "?")))

let records_for (algo : Lb_shmem.Algorithm.t) ~n perms =
  match !store_ref with
  | None ->
    map_perms
      (fun pi ->
        Lb_core.Pipeline.record_of_result
          (Lb_core.Pipeline.run_checked algo ~n pi))
      perms
  | Some store ->
    let report = Lb_store.Sweep.sweep ~store ~resume:!resume_ref algo ~n ~perms () in
    (match report.Lb_store.Sweep.failures with
    | [] -> ()
    | { f_pi; f_message } :: _ ->
      failwith
        (Printf.sprintf "records_for: %s n=%d pi=%s failed: %s"
           algo.Lb_shmem.Algorithm.name n
           (Lb_core.Permutation.to_string f_pi)
           f_message));
    report.Lb_store.Sweep.records

let sc_cost_of_canonical algo ~n =
  Lb_mutex.Canonical.sc_cost algo ~n (Lb_mutex.Canonical.run algo ~n)

let heading id title =
  Printf.printf "\n=== %s: %s ===\n\n" id title
