(* The mutation-testing harness: operator site discovery is sound and
   deterministic, mutant wrappers behave per their contracts, the staged
   stack kills the deliberately-faulty controls through more than one
   independent layer, the deep-check escalation catches re-entry faults
   the one-round bound verifies, and campaign reports are byte-identical
   at every job count. *)

open Lb_shmem
module Op = Lb_mutate.Op
module Mutant = Lb_mutate.Mutant
module Campaign = Lb_mutate.Campaign

let registry name = Lb_algos.Registry.find_exn name
let auto_of algo ~n = Lb_analysis.Automaton.explore algo ~n

let site_ids algo ~n =
  let auto = auto_of algo ~n in
  let specs = algo.Algorithm.registers ~n in
  List.map (Op.id ~specs) (Op.sites auto)

(* ------------------------- operator catalogue ------------------------ *)

let test_validate_kinds () =
  (match Op.validate_kinds [ "drop_write"; "guard_flip" ] with
  | Ok ks ->
      Alcotest.(check (list string))
        "canonical order" [ "guard_flip"; "drop_write" ] ks
  | Error e -> Alcotest.fail e);
  (match Op.validate_kinds [ "no_such_op" ] with
  | Ok _ -> Alcotest.fail "unknown operator accepted"
  | Error msg ->
      Alcotest.(check bool)
        "names the offender" true
        (Astring_contains.contains msg "no_such_op"));
  match Op.validate_kinds [] with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty selection should be Ok []"

let test_sites_peterson2 () =
  let ids = site_ids (registry "peterson2") ~n:2 in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " discovered") true
        (List.mem expected ids))
    [ "guard_flip@turn"; "drop_write@turn"; "dup_write@turn"; "stmt_swap@flag1" ];
  (* flag0 is written by process 0 only: a dup_write there could never
     clobber a rival write, so the site must not be generated. *)
  Alcotest.(check bool) "no dup_write on single-writer flag0" false
    (List.mem "dup_write@flag0" ids);
  (* no RMW anywhere in peterson2 *)
  Alcotest.(check bool) "no rmw_split sites" false
    (List.exists (fun id -> Astring_contains.contains id "rmw_split") ids)

let test_sites_deterministic () =
  let a = registry "filter" in
  Alcotest.(check (list string))
    "same sites on re-exploration" (site_ids a ~n:3) (site_ids a ~n:3)

let test_sites_rmw () =
  let ids = site_ids (registry "tas") ~n:2 in
  Alcotest.(check bool) "rmw_split@lock discovered" true
    (List.mem "rmw_split@lock" ids)

let test_apply_rmw () =
  Alcotest.(check int) "tas" 1 (Mutant.apply_rmw Step.Test_and_set 0);
  Alcotest.(check int) "fetch_add" 7 (Mutant.apply_rmw (Step.Fetch_add 3) 4);
  Alcotest.(check int) "swap" 9 (Mutant.apply_rmw (Step.Swap 9) 4);
  Alcotest.(check int) "cas hit" 5
    (Mutant.apply_rmw (Step.Cas { expect = 4; replace = 5 }) 4);
  Alcotest.(check int) "cas miss" 3
    (Mutant.apply_rmw (Step.Cas { expect = 4; replace = 5 }) 3)

(* Mutant reprs stay injective where the base's were: distinct wrapped
   states never share a repr (spot-checked by a short breadth-first walk
   over the mutant automaton). *)
let test_mutant_repr_injective () =
  let base = registry "peterson2" in
  let auto = auto_of base ~n:2 in
  List.iter
    (fun op ->
      let m = Mutant.make base ~n:2 op in
      let mauto = Lb_analysis.Automaton.explore m.Mutant.algo ~n:2 in
      Alcotest.(check bool)
        (m.Mutant.op_id ^ " repr-collision-free")
        true
        (mauto.Lb_analysis.Automaton.collisions = []))
    (Op.sites auto)

(* --------------------------- faulty controls ------------------------- *)

(* Each deliberately-faulty control must be caught by at least two
   layers working independently — the point of a stacked defence. The
   stack runs un-short-circuited on the unmutated control itself. *)
let control_kill_layers name ~n =
  let algo = registry name in
  let legs = Campaign.stack ~short_circuit:false algo ~n in
  List.filter_map
    (fun (layer, out) ->
      match out with
      | Campaign.Kill _ -> Some (Campaign.layer_name layer)
      | Campaign.Clean | Campaign.Inconclusive _ -> None)
    legs
  |> List.sort_uniq String.compare

let test_control_broken_spinlock () =
  let layers = control_kill_layers "broken_spinlock" ~n:2 in
  Alcotest.(check bool)
    (Printf.sprintf "killed by >= 2 layers (got %s)"
       (String.concat "," layers))
    true
    (List.length layers >= 2)

let test_control_flat_ya () =
  (* the flat tree is only wrong at odd n: its n=3 padding deadlocks *)
  let layers = control_kill_layers "yang_anderson_flat" ~n:3 in
  Alcotest.(check bool)
    (Printf.sprintf "killed by >= 2 layers (got %s)"
       (String.concat "," layers))
    true
    (List.length layers >= 2)

(* ------------------------------ the stack ---------------------------- *)

(* domain_shrink mutants never change execution, so only lint can see
   them — and with short-circuiting the report must prove lint ran
   first and alone. *)
let test_domain_shrink_lint_only () =
  let base = registry "peterson2" in
  let auto = auto_of base ~n:2 in
  let shrinks =
    List.filter
      (fun op -> Op.kind_of op = "domain_shrink")
      (Op.sites auto)
  in
  Alcotest.(check bool) "peterson2 has domain_shrink sites" true (shrinks <> []);
  List.iter
    (fun op ->
      let m = Mutant.make base ~n:2 op in
      let legs = Campaign.stack m.Mutant.algo ~n:2 in
      match legs with
      | [ (Campaign.Lint, Campaign.Kill { name; _ }) ] ->
          Alcotest.(check string)
            (m.Mutant.op_id ^ " rule")
            "register-discipline/domain-violation" name
      | _ ->
          Alcotest.fail
            (m.Mutant.op_id ^ ": expected a lone lint kill, got "
            ^ string_of_int (List.length legs)
            ^ " legs"))
    shrinks

(* The escalation leg: duplicating the tas release write only breaks
   mutual exclusion on re-entry, so every staged layer at rounds = 1
   passes clean and the deep check must catch it. *)
let test_escalation_catches_reentry () =
  let base = registry "tas" in
  let op = Op.Dup_write { reg = 0 } in
  let m = Mutant.make base ~n:2 op in
  let legs = Campaign.stack m.Mutant.algo ~n:2 in
  let killer =
    List.find_map
      (fun (layer, out) ->
        match out with
        | Campaign.Kill { name; _ } -> Some (Campaign.layer_name layer, name)
        | _ -> None)
      legs
  in
  match killer with
  | Some (layer, verdict) ->
      Alcotest.(check string) "caught by the deep check" "deep_check" layer;
      Alcotest.(check string) "as a mutex violation" "mutex_violation" verdict
  | None -> Alcotest.fail "dup_write@lock survived the whole stack"

let test_escalation_off () =
  let base = registry "tas" in
  let m = Mutant.make base ~n:2 (Op.Dup_write { reg = 0 }) in
  let config = { Campaign.default with escalate = false } in
  let legs = Campaign.stack ~config m.Mutant.algo ~n:2 in
  Alcotest.(check bool) "no deep check leg" false
    (List.exists (fun (l, _) -> l = Campaign.Deep_check) legs);
  Alcotest.(check bool) "and no kill without it" false
    (List.exists
       (fun (_, out) -> match out with Campaign.Kill _ -> true | _ -> false)
       legs)

(* ----------------------------- the campaign -------------------------- *)

let small_config =
  {
    Campaign.default with
    sizes = [ 2 ];
    kinds = [ "guard_flip"; "drop_write"; "domain_shrink" ];
  }

let test_campaign_gates () =
  let t =
    Campaign.run ~config:small_config ~allow:(fun _ -> []) [ registry "peterson2" ]
  in
  Alcotest.(check bool) "found mutants" true (Campaign.total t > 0);
  Alcotest.(check bool) "all killed (peterson2 is airtight at n=2)" true
    (Campaign.clean t);
  Alcotest.(check int) "no survivors" 0 (List.length (Campaign.survivors t));
  let lint_kills = List.assoc Campaign.Lint (Campaign.kills t) in
  Alcotest.(check bool) "lint killed the domain shrinks" true (lint_kills > 0)

let test_campaign_triage_and_stale () =
  (* Force a survivor by restricting the stack to an operator tas cannot
     die from without the deep check, with escalation off. *)
  let config =
    {
      Campaign.default with
      sizes = [ 2 ];
      kinds = [ "dup_write" ];
      escalate = false;
    }
  in
  let untriaged = Campaign.run ~config ~allow:(fun _ -> []) [ registry "tas" ] in
  Alcotest.(check bool) "survivor fails the campaign" false
    (Campaign.clean untriaged);
  let allow = function
    | "tas" -> [ ("dup_write@lock", "needs a second entry round") ]
    | _ -> []
  in
  let triaged = Campaign.run ~config ~allow [ registry "tas" ] in
  Alcotest.(check bool) "triage makes it clean" true (Campaign.clean triaged);
  Alcotest.(check (list (pair string string)))
    "nothing stale" [] (Campaign.stale_triage triaged);
  (* With escalation back on the mutant dies, so the entry goes stale. *)
  let config = { config with escalate = true } in
  let killed = Campaign.run ~config ~allow [ registry "tas" ] in
  Alcotest.(check (list (pair string string)))
    "stale entry reported"
    [ ("tas", "dup_write@lock") ]
    (Campaign.stale_triage killed);
  Alcotest.(check bool) "stale triage never gates" true (Campaign.clean killed)

let test_json_shape () =
  let t =
    Campaign.run ~config:small_config ~allow:(fun _ -> []) [ registry "peterson2" ]
  in
  let json = Campaign.to_json t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true
        (Astring_contains.contains json needle))
    [
      "\"format_version\": 1";
      "\"campaign\"";
      "\"mutants\"";
      "\"summary\"";
      "\"clean\": true";
      "\"layers_run\"";
    ]

(* ------------------------ determinism properties --------------------- *)

let quick_algos =
  [ registry "peterson2"; registry "dekker"; registry "tas" ]

let arb_selection =
  let gen =
    QCheck.Gen.(
      pair (oneofl quick_algos)
        (oneofl
           [
             [ "guard_flip" ];
             [ "drop_write"; "dup_write" ];
             [ "reg_swap"; "stmt_swap" ];
             Op.kinds;
           ]))
  in
  QCheck.make
    ~print:(fun (a, ks) ->
      Printf.sprintf "(%s, %s)" a.Algorithm.name (String.concat "," ks))
    gen

let report_identical_any_jobs =
  QCheck.Test.make ~name:"campaign JSON byte-identical at any job count"
    ~count:8 arb_selection (fun (algo, kinds) ->
      let config = { Campaign.default with sizes = [ 2 ]; kinds } in
      let allow _ = [] in
      let seq = Campaign.run ~config ~jobs:1 ~allow [ algo ] in
      let par = Campaign.run ~config ~jobs:4 ~allow [ algo ] in
      String.equal (Campaign.to_json seq) (Campaign.to_json par))

let suite =
  [
    Alcotest.test_case "validate_kinds" `Quick test_validate_kinds;
    Alcotest.test_case "sites: peterson2" `Quick test_sites_peterson2;
    Alcotest.test_case "sites: deterministic" `Quick test_sites_deterministic;
    Alcotest.test_case "sites: rmw" `Quick test_sites_rmw;
    Alcotest.test_case "apply_rmw" `Quick test_apply_rmw;
    Alcotest.test_case "mutant reprs injective" `Quick test_mutant_repr_injective;
    Alcotest.test_case "control: broken_spinlock, >= 2 layers" `Quick
      test_control_broken_spinlock;
    Alcotest.test_case "control: yang_anderson_flat, >= 2 layers" `Quick
      test_control_flat_ya;
    Alcotest.test_case "domain_shrink: lint-only kill" `Quick
      test_domain_shrink_lint_only;
    Alcotest.test_case "escalation: re-entry fault" `Quick
      test_escalation_catches_reentry;
    Alcotest.test_case "escalation: off" `Quick test_escalation_off;
    Alcotest.test_case "campaign: gates" `Quick test_campaign_gates;
    Alcotest.test_case "campaign: triage + stale" `Quick
      test_campaign_triage_and_stale;
    Alcotest.test_case "campaign: json shape" `Quick test_json_shape;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ report_identical_any_jobs ]
