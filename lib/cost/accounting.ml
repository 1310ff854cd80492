open Lb_shmem

type breakdown = {
  steps : int;
  shared_accesses : int;
  reads : int;
  writes : int;
  rmws : int;
  crits : int;
  sc : int;
  cc : int;
  dsm : int;
}

let breakdown algo ~n alpha =
  let reads = ref 0 and writes = ref 0 and rmws = ref 0 and crits = ref 0 in
  Lb_util.Vec.iter
    (fun (s : Step.t) ->
      match s.Step.action with
      | Step.Read _ -> incr reads
      | Step.Write _ -> incr writes
      | Step.Rmw _ -> incr rmws
      | Step.Crit _ -> incr crits)
    alpha;
  {
    steps = Execution.length alpha;
    shared_accesses = !reads + !writes + !rmws;
    reads = !reads;
    writes = !writes;
    rmws = !rmws;
    crits = !crits;
    sc = State_change.cost algo ~n alpha;
    cc = Cache_coherent.cost algo ~n alpha;
    dsm = Dsm.cost algo ~n alpha;
  }

let pp_breakdown ppf b =
  Format.fprintf ppf
    "steps=%d accesses=%d (r=%d w=%d rmw=%d) crit=%d sc=%d cc=%d dsm=%d"
    b.steps b.shared_accesses b.reads b.writes b.rmws b.crits b.sc b.cc b.dsm

type model = Sc | Cc | Dsm_model | Raw

let model_name = function
  | Sc -> "SC"
  | Cc -> "CC"
  | Dsm_model -> "DSM"
  | Raw -> "raw"


let measure model algo ~n alpha =
  match model with
  | Sc -> State_change.cost algo ~n alpha
  | Cc -> Cache_coherent.cost algo ~n alpha
  | Dsm_model -> Dsm.cost algo ~n alpha
  | Raw -> (breakdown algo ~n alpha).shared_accesses
