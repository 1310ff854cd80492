module L = Lb_core.Linearize
module C = Lb_core.Construct
module P = Lb_core.Permutation
open Lb_shmem

let ya = Lb_algos.Yang_anderson.algorithm
let bakery = Lb_algos.Bakery.algorithm

let test_of_metastep_order () =
  let c = C.run ya ~n:2 (P.identity 2) in
  let order = L.metastep_order c in
  let exec = L.of_metastep_order c order in
  Alcotest.(check bool) "equals canonical" true
    (Execution.equal exec (L.execution c));
  (* total step count = sum of metastep sizes *)
  let total = ref 0 in
  Lb_core.Metastep.iter c.C.arena (fun m -> total := !total + Lb_core.Metastep.size m);
  Alcotest.(check int) "step count" !total (Execution.length exec)

let test_random_order_valid () =
  let rng = Lb_util.Rng.create 5 in
  let c = C.run bakery ~n:3 (P.reverse 3) in
  for _ = 1 to 10 do
    let order = L.random_metastep_order rng c in
    Alcotest.(check int) "covers all"
      (Lb_core.Metastep.count c.C.arena)
      (List.length order);
    (* respects the poset *)
    let pos = Hashtbl.create 64 in
    List.iteri (fun i id -> Hashtbl.replace pos id i) order;
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a <> b && Lb_core.Poset.leq c.C.order a b then
              Alcotest.(check bool) "order respected" true
                (Hashtbl.find pos a < Hashtbl.find pos b))
          order)
      order
  done

let test_random_executions_same_projections () =
  let rng = Lb_util.Rng.create 6 in
  let c = C.run ya ~n:4 (P.of_array [| 1; 3; 0; 2 |]) in
  let canonical = Execution.projections (L.execution c) ~n:4 in
  for _ = 1 to 5 do
    let exec = Execution.projections (L.random_execution rng c) ~n:4 in
    for i = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "projection p%d (Lemma 5.4)" i)
        true
        (List.equal Step.equal exec.(i) canonical.(i))
    done
  done

let test_random_executions_costs_match () =
  (* Lemma 6.1 on a wider sample than Verify's default *)
  let rng = Lb_util.Rng.create 7 in
  let c = C.run bakery ~n:4 (P.identity 4) in
  let reference = Lb_cost.State_change.cost bakery ~n:4 (L.execution c) in
  for _ = 1 to 10 do
    Alcotest.(check int) "cost invariant" reference
      (Lb_cost.State_change.cost bakery ~n:4 (L.random_execution rng c))
  done

let test_seq_expansion_structure () =
  (* in every linearization, within a write metastep the winning write is
     the last write before the reads; we verify via value observation:
     every reader of a write metastep observes the winner's value *)
  let c = C.run bakery ~n:4 (P.reverse 4) in
  let exec = L.execution c in
  let sys = System.init bakery ~n:4 in
  (* map each read step to the value it observes; compare with the
     metastep's winner value *)
  let read_values = Hashtbl.create 64 in
  Lb_util.Vec.iter
    (fun (s : Step.t) ->
      let outcome = System.apply sys s in
      match s.Step.action, outcome.System.response with
      | Step.Read r, Step.Got v -> Hashtbl.add read_values (s.Step.who, r) v
      | _ -> ())
    exec;
  Lb_core.Metastep.iter c.C.arena (fun m ->
      if m.Lb_core.Metastep.kind = Lb_core.Metastep.Write_meta then
        List.iter
          (fun (rs : Step.t) ->
            match rs.Step.action with
            | Step.Read r ->
              let observed = Hashtbl.find_all read_values (rs.Step.who, r) in
              Alcotest.(check bool) "reader saw winner's value" true
                (List.mem (Lb_core.Metastep.value m) observed)
            | _ -> ())
          m.Lb_core.Metastep.reads)

let suite =
  [
    Alcotest.test_case "of_metastep_order" `Quick test_of_metastep_order;
    Alcotest.test_case "random order valid" `Quick test_random_order_valid;
    Alcotest.test_case "random projections stable" `Quick test_random_executions_same_projections;
    Alcotest.test_case "random costs match" `Quick test_random_executions_costs_match;
    Alcotest.test_case "readers see winner value" `Quick test_seq_expansion_structure;
  ]
