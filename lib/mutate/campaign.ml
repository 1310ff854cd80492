open Lb_shmem

type layer = Lint | Model_check | Schedule | Deep_check

let layer_name = function
  | Lint -> "lint"
  | Model_check -> "model_check"
  | Schedule -> "schedule"
  | Deep_check -> "deep_check"

let staged = [ Lint; Model_check; Schedule ]
let layers = staged @ [ Deep_check ]

type outcome =
  | Kill of { name : string; detail : string }
  | Clean
  | Inconclusive of string

type config = {
  sizes : int list;
  kinds : string list;
  passes : Lb_analysis.Pass.t list;
  rounds : int;
  max_states : int;
  mem_budget : int option;
  max_steps : int;
  seeds : int list;
  escalate : bool;
  deep_states : int;
}

let default =
  {
    sizes = [ 2; 3 ];
    kinds = Op.kinds;
    passes = Lb_analysis.Driver.default_passes;
    rounds = 1;
    max_states = 200_000;
    mem_budget = None;
    max_steps = 20_000;
    seeds = [ 1; 2 ];
    escalate = true;
    deep_states = 2_000_000;
  }

type row = {
  r_algo : string;
  r_n : int;
  r_op : string;
  r_kind : string;
  r_legs : (layer * outcome * float) list;
  r_triage : string option;
}

type status =
  | Killed of { layer : layer; name : string; detail : string }
  | Survived
  | Undecided of string

let status row =
  let kill =
    List.find_map
      (fun (layer, leg, _) ->
        match leg with
        | Kill { name; detail } -> Some (Killed { layer; name; detail })
        | Clean | Inconclusive _ -> None)
      row.r_legs
  in
  match kill with
  | Some k -> k
  | None -> (
      match
        List.find_map
          (fun (_, leg, _) ->
            match leg with
            | Inconclusive reason -> Some reason
            | Kill _ | Clean -> None)
          row.r_legs
      with
      | Some reason -> Undecided reason
      | None -> Survived)

let gates row =
  match (status row, row.r_triage) with
  | Killed _, _ -> false
  | (Survived | Undecided _), Some _ -> false
  | (Survived | Undecided _), None -> true

type t = { rows : row list; config : config; algo_names : string list }

(* ------------------------------ the stack ----------------------------- *)

let baseline_rules ~passes algo ~n =
  let report =
    Lb_analysis.Driver.run ~passes ~sizes:[ n ] ~jobs:1
      ~allow:(fun _ -> [])
      [ algo ]
  in
  List.sort_uniq String.compare
    (List.map
       (fun (f : Lb_analysis.Finding.t) -> f.Lb_analysis.Finding.rule)
       (Lb_analysis.Driver.failures report))

let lint_leg ~passes ~baseline algo ~n =
  let report =
    Lb_analysis.Driver.run ~passes ~sizes:[ n ] ~jobs:1
      ~allow:(fun _ -> [])
      [ algo ]
  in
  let fresh =
    List.filter
      (fun (f : Lb_analysis.Finding.t) ->
        not (List.mem f.Lb_analysis.Finding.rule baseline))
      (Lb_analysis.Driver.failures report)
  in
  match fresh with
  | f :: _ ->
      Kill
        {
          name = f.Lb_analysis.Finding.rule;
          detail = f.Lb_analysis.Finding.message;
        }
  | [] -> Clean

(* As in the chaos matrix: the system model rejecting an impossible
   access with Invalid_argument "System: ..." IS the detection. *)
let is_system_rejection = function
  | Invalid_argument msg ->
      String.length msg >= 7 && String.sub msg 0 7 = "System:"
  | _ -> false

let mc_leg ?rounds ?max_states ~config algo ~n =
  let rounds = Option.value rounds ~default:config.rounds in
  let max_states = Option.value max_states ~default:config.max_states in
  match
    Lb_mutex.Model_check.explore algo ~n ~rounds ~max_states
      ?mem_budget:config.mem_budget ~jobs:1
  with
  | r -> (
      match r.Lb_mutex.Model_check.verdict with
      | Lb_mutex.Model_check.Verified -> Clean
      | Lb_mutex.Model_check.Mutex_violation _ ->
          Kill { name = "mutex_violation"; detail = "" }
      | Lb_mutex.Model_check.Deadlock _ -> Kill { name = "deadlock"; detail = "" }
      | Lb_mutex.Model_check.Ill_formed { who; detail; _ } ->
          Kill { name = "ill_formed"; detail = Printf.sprintf "p%d: %s" who detail }
      | Lb_mutex.Model_check.Bound_exceeded k ->
          Inconclusive (Printf.sprintf "bound_exceeded at %d states" k)
      | Lb_mutex.Model_check.Mem_exceeded k ->
          Inconclusive (Printf.sprintf "mem_exceeded at %d states" k)
      | Lb_mutex.Model_check.Deadline_exceeded k ->
          Inconclusive (Printf.sprintf "deadline_exceeded at %d states" k))
  | exception e when is_system_rejection e ->
      Kill { name = "invalid_access"; detail = Printexc.to_string e }
  | exception e ->
      Kill { name = "uncaught_exception"; detail = Printexc.to_string e }

let violation_name = function
  | Lb_mutex.Checker.Not_well_formed _ -> "ill_formed"
  | Lb_mutex.Checker.Mutex_violated _ -> "mutex_violation"

let sched_leg ~config algo ~n =
  let checked exec fallback =
    match Lb_mutex.Checker.check ~n exec with
    | Ok () -> fallback
    | Error v ->
        Kill
          {
            name = violation_name v;
            detail = Lb_mutex.Checker.violation_to_string v;
          }
  in
  let run_one (label, mk_picker) =
    match Runner.run algo ~n ~max_steps:config.max_steps (mk_picker ()) with
    | exec, _sys -> checked exec Clean
    | exception Runner.Out_of_fuel exec ->
        checked exec (Kill { name = "out_of_fuel"; detail = label })
    | exception Runner.Stuck -> Kill { name = "stuck"; detail = label }
    | exception e when is_system_rejection e ->
        Kill { name = "invalid_access"; detail = Printexc.to_string e }
    | exception e ->
        Kill { name = "uncaught_exception"; detail = Printexc.to_string e }
  in
  let schedules =
    ("round_robin", fun () -> Runner.round_robin ())
    :: List.map
         (fun seed ->
           ( Printf.sprintf "random:%d" seed,
             fun () -> Runner.random (Lb_util.Rng.create seed) () ))
         config.seeds
  in
  let rec go = function
    | [] -> Clean
    | s :: rest -> ( match run_one s with Clean -> go rest | k -> k)
  in
  go schedules

let stack ?(config = default) ?(short_circuit = true) ?(baseline = []) algo ~n =
  let leg = function
    | Lint -> lint_leg ~passes:config.passes ~baseline algo ~n
    | Model_check -> mc_leg ~config algo ~n
    | Schedule -> sched_leg ~config algo ~n
    | Deep_check ->
        mc_leg ~rounds:(config.rounds + 1)
          ~max_states:(max config.max_states config.deep_states)
          ~config algo ~n
  in
  let timed layer =
    let t0 = Unix.gettimeofday () in
    let out = leg layer in
    (layer, out, Unix.gettimeofday () -. t0)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | layer :: rest ->
        let ((_, out, _) as step) = timed layer in
        let acc = step :: acc in
        let killed = match out with Kill _ -> true | _ -> false in
        if killed && short_circuit then List.rev acc else go acc rest
  in
  let legs = go [] staged in
  (* Escalation: a mutant every staged layer passed clean gets one
     deeper model check (rounds + 1) before being declared a survivor.
     The one-round bound is blind to faults that only bite on re-entry
     — a duplicated release write clobbering the next holder's
     acquisition, say — and the deep check is cheap exactly because it
     only runs on the stack's survivors. An inconclusive staged leg
     already marks the row undecided, so escalating it would prove
     nothing. *)
  let all_clean = List.for_all (fun (_, out, _) -> out = Clean) legs in
  if config.escalate && all_clean then legs @ [ timed Deep_check ] else legs

(* ----------------------------- the campaign --------------------------- *)

let run ?(config = default) ?jobs ?cancel ?short_circuit ~allow algos =
  let units =
    List.concat_map
      (fun (a : Algorithm.t) ->
        List.filter_map
          (fun n -> if Algorithm.supports a n then Some (a, n) else None)
          config.sizes)
      algos
  in
  (* Stage 1 — per (algorithm, size): explore the lint automaton once to
     discover sites, and compute the baseline rule set. *)
  let prepped =
    Lb_util.Pool.map ?jobs ?cancel
      (fun (a, n) ->
        let auto = Lb_analysis.Automaton.explore a ~n in
        let ops = Op.sites ~kinds:config.kinds auto in
        let baseline = baseline_rules ~passes:config.passes a ~n in
        (a, n, ops, baseline))
      units
  in
  let work =
    List.concat_map
      (fun (a, n, ops, baseline) -> List.map (fun op -> (a, n, op, baseline)) ops)
      prepped
  in
  (* Stage 2 — every mutant through the staged stack. *)
  let rows =
    Lb_util.Pool.map ?jobs ?cancel
      (fun ((a : Algorithm.t), n, op, baseline) ->
        let m = Mutant.make a ~n op in
        let legs = stack ~config ?short_circuit ~baseline m.Mutant.algo ~n in
        let triage =
          List.assoc_opt m.Mutant.op_id (allow a.Algorithm.name)
        in
        {
          r_algo = a.Algorithm.name;
          r_n = n;
          r_op = m.Mutant.op_id;
          r_kind = Op.kind_of op;
          r_legs = legs;
          r_triage = triage;
        })
      work
  in
  { rows; config; algo_names = List.map (fun a -> a.Algorithm.name) algos }

(* ------------------------------ accounting ---------------------------- *)

let total t = List.length t.rows

let kills t =
  List.map
    (fun layer ->
      ( layer,
        List.length
          (List.filter
             (fun r ->
               match status r with
               | Killed { layer = l; _ } -> l = layer
               | Survived | Undecided _ -> false)
             t.rows) ))
    layers

let killed_count t = List.fold_left (fun acc (_, k) -> acc + k) 0 (kills t)

let survivors t =
  List.filter
    (fun r -> match status r with Killed _ -> false | _ -> true)
    t.rows

let undecided t =
  List.filter
    (fun r -> match status r with Undecided _ -> true | _ -> false)
    t.rows

let untriaged t = List.filter gates t.rows
let clean t = untriaged t = []

let score t =
  let n = total t in
  if n = 0 then 0.0 else float_of_int (killed_count t) /. float_of_int n

let stale_triage t =
  List.concat_map
    (fun r ->
      match (status r, r.r_triage) with
      | Killed _, Some _
        when not
               (List.exists
                  (fun r' ->
                    r'.r_algo = r.r_algo && r'.r_op = r.r_op
                    && match status r' with Killed _ -> false | _ -> true)
                  t.rows) ->
          [ (r.r_algo, r.r_op) ]
      | _ -> [])
    t.rows
  |> List.sort_uniq compare

let layer_seconds t =
  List.map
    (fun layer ->
      ( layer,
        List.fold_left
          (fun acc r ->
            List.fold_left
              (fun acc (l, _, dt) -> if l = layer then acc +. dt else acc)
              acc r.r_legs)
          0.0 t.rows ))
    layers

(* ------------------------------ rendering ----------------------------- *)

let format_version = 1

let row_result r =
  match (status r, r.r_triage) with
  | Killed { layer; name; detail }, _ ->
      Printf.sprintf "killed @ %s: %s%s" (layer_name layer) name
        (if detail = "" then "" else " (" ^ detail ^ ")")
  | Survived, Some reason -> Printf.sprintf "survived (triaged: %s)" reason
  | Survived, None -> "SURVIVED (UNTRIAGED)"
  | Undecided reason, Some why ->
      Printf.sprintf "inconclusive: %s (triaged: %s)" reason why
  | Undecided reason, None -> Printf.sprintf "INCONCLUSIVE (UNTRIAGED): %s" reason

let pp ppf t =
  Format.fprintf ppf "%-18s %-3s %-26s %s@." "algo" "n" "mutant" "result";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-18s %-3d %-26s %s@." r.r_algo r.r_n r.r_op
        (row_result r))
    t.rows;
  let k = killed_count t in
  let n = total t in
  let by_layer =
    String.concat ", "
      (List.map
         (fun (l, c) -> Printf.sprintf "%s %d" (layer_name l) c)
         (kills t))
  in
  let surv = survivors t in
  let triaged = List.filter (fun r -> r.r_triage <> None) surv in
  Format.fprintf ppf
    "mutation score %d/%d (%.1f%%) — kills: %s; survivors: %d triaged, %d \
     untriaged, %d inconclusive@."
    k n
    (100.0 *. score t)
    by_layer (List.length triaged)
    (List.length (untriaged t))
    (List.length (undecided t));
  List.iter
    (fun (algo, op) ->
      Format.fprintf ppf "note: stale triage entry %s: %s (mutant is killed)@."
        algo op)
    (stale_triage t)

module Json = Lb_util.Json

let json_strings xs = "[" ^ String.concat ", " (List.map Json.escape xs) ^ "]"

let json_ints xs = "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]"

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"format_version\": %d,\n" format_version);
  Buffer.add_string b
    (Printf.sprintf
       "  \"campaign\": {\"algos\": %s, \"sizes\": %s, \"operators\": %s, \
        \"passes\": %s, \"rounds\": %d, \"max_states\": %d, \"mem_budget\": \
        %s, \"max_steps\": %d, \"seeds\": %s, \"escalate\": %b, \
        \"deep_states\": %d},\n"
       (json_strings t.algo_names) (json_ints t.config.sizes)
       (json_strings t.config.kinds)
       (json_strings
          (List.map (fun (p : Lb_analysis.Pass.t) -> p.Lb_analysis.Pass.name)
             t.config.passes))
       t.config.rounds t.config.max_states
       (match t.config.mem_budget with
       | None -> "null"
       | Some bytes -> string_of_int bytes)
       t.config.max_steps (json_ints t.config.seeds) t.config.escalate
       t.config.deep_states);
  Buffer.add_string b "  \"mutants\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      let status_s, layer_s, name_s, detail_s =
        match status r with
        | Killed { layer; name; detail } ->
            ( "killed",
              Json.escape (layer_name layer),
              Json.escape name,
              Json.escape detail )
        | Survived -> ("survived", "null", "null", "null")
        | Undecided reason -> ("inconclusive", "null", "null", Json.escape reason)
      in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"algo\": %s, \"n\": %d, \"op\": %s, \"kind\": %s, \
            \"status\": %s, \"layer\": %s, \"killed_by\": %s, \"detail\": \
            %s, \"layers_run\": %s, \"triage\": %s}"
           (Json.escape r.r_algo) r.r_n (Json.escape r.r_op)
           (Json.escape r.r_kind) (Json.escape status_s)
           layer_s name_s detail_s
           (json_strings (List.map (fun (l, _, _) -> layer_name l) r.r_legs))
           (match r.r_triage with
           | None -> "null"
           | Some reason -> Json.escape reason)))
    t.rows;
  let surv = survivors t in
  let triaged = List.filter (fun r -> r.r_triage <> None) surv in
  Buffer.add_string b
    (Printf.sprintf
       "\n  ],\n  \"summary\": {\"mutants\": %d, \"killed\": %d, \"score\": \
        %.4f, \"kills\": {%s}, \"survived\": %d, \"inconclusive\": %d, \
        \"triaged\": %d, \"untriaged\": %d},\n"
       (total t) (killed_count t) (score t)
       (String.concat ", "
          (List.map
             (fun (l, c) -> Printf.sprintf "\"%s\": %d" (layer_name l) c)
             (kills t)))
       (List.length (List.filter (fun r -> status r = Survived) t.rows))
       (List.length (undecided t))
       (List.length triaged)
       (List.length (untriaged t)));
  Buffer.add_string b
    (Printf.sprintf "  \"stale_triage\": %s,\n"
       (json_strings
          (List.map (fun (a, o) -> a ^ ":" ^ o) (stale_triage t))));
  Buffer.add_string b (Printf.sprintf "  \"clean\": %b\n}\n" (clean t));
  Buffer.contents b
