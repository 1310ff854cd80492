open Lb_shmem

type phase = Remainder | Trying | Critical | Exit_section

let phase_name = function
  | Remainder -> "remainder"
  | Trying -> "trying"
  | Critical -> "critical"
  | Exit_section -> "exit"

type violation =
  | Not_well_formed of { who : int; at : int; detail : string }
  | Mutex_violated of { a : int; b : int; at : int }

let pp_violation ppf = function
  | Not_well_formed { who; at; detail } ->
    Format.fprintf ppf "well-formedness: p%d at step %d: %s" who at detail
  | Mutex_violated { a; b; at } ->
    Format.fprintf ppf "mutual exclusion: p%d and p%d both critical at step %d"
      a b at

let violation_to_string v = Format.asprintf "%a" pp_violation v

let violation_slug = function
  | Not_well_formed _ -> "ill_formed"
  | Mutex_violated _ -> "mutex_violation"

(* The legal phase transitions on critical steps. *)
let advance_phase phase (c : Step.crit) =
  match phase, c with
  | Remainder, Step.Try -> Ok Trying
  | Trying, Step.Enter -> Ok Critical
  | Critical, Step.Exit -> Ok Exit_section
  | Exit_section, Step.Rem -> Ok Remainder
  | _, c ->
    Error
      (Printf.sprintf "%s step while in %s section" (Step.crit_name c)
         (phase_name phase))

let scan ~n alpha ~upto ~on_violation =
  let phases = Array.make n Remainder in
  let in_cs = ref None in
  let exception Stop in
  (try
     for j = 0 to upto - 1 do
       let (s : Step.t) = Execution.get alpha j in
       if s.Step.who < 0 || s.Step.who >= n then begin
         on_violation
           (Not_well_formed
              { who = s.Step.who; at = j; detail = "process index out of range" });
         raise Stop
       end;
       match s.Step.action with
       | Step.Read _ | Step.Write _ | Step.Rmw _ -> ()
       | Step.Crit c -> (
         match advance_phase phases.(s.Step.who) c with
         | Error detail ->
           on_violation (Not_well_formed { who = s.Step.who; at = j; detail });
           raise Stop
         | Ok next ->
           phases.(s.Step.who) <- next;
           (match next, !in_cs with
           | Critical, Some other when other <> s.Step.who ->
             on_violation (Mutex_violated { a = other; b = s.Step.who; at = j });
             raise Stop
           | Critical, _ -> in_cs := Some s.Step.who
           | Exit_section, Some other when other = s.Step.who -> in_cs := None
           | (Remainder | Trying | Exit_section), _ -> ()))
     done
   with Stop -> ());
  phases

let check ~n alpha =
  let result = ref (Ok ()) in
  ignore
    (scan ~n alpha ~upto:(Execution.length alpha) ~on_violation:(fun v ->
         result := Error v));
  !result

let check_algorithm algo ~n alpha =
  match check ~n alpha with
  | Error v -> Error (`Violation v)
  | Ok () -> (
    try Ok (Lb_cost.State_change.cost algo ~n alpha)
    with System.Step_mismatch { who; expected; actual } ->
      Error
        (`Mismatch
          (Format.asprintf "p%d expected %a but trace has %a" who
             Step.pp_action expected Step.pp_action actual)))

let phases_at ~n alpha ~upto = scan ~n alpha ~upto ~on_violation:(fun _ -> ())

let completed_sections ~n alpha =
  let counts = Array.make n 0 in
  Lb_util.Vec.iter
    (fun (s : Step.t) ->
      match s.Step.action with
      | Step.Crit Step.Rem when s.Step.who >= 0 && s.Step.who < n ->
        counts.(s.Step.who) <- counts.(s.Step.who) + 1
      | Step.Crit _ | Step.Read _ | Step.Write _ | Step.Rmw _ -> ())
    alpha;
  counts
