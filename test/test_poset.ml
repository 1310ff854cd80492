module Poset = Lb_core.Poset

let chain n =
  let p = Poset.create () in
  for i = 0 to n - 1 do
    Poset.add_element p i
  done;
  for i = 0 to n - 2 do
    Poset.add_edge p i (i + 1)
  done;
  p

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  let p = Poset.create () in
  List.iter (Poset.add_element p) [ 0; 1; 2; 3 ];
  List.iter (fun (a, b) -> Poset.add_edge p a b) [ (0, 1); (0, 2); (1, 3); (2, 3) ];
  p

let test_elements () =
  let p = chain 4 in
  Alcotest.(check int) "cardinal" 4 (Poset.cardinal p);
  Alcotest.(check (list int)) "elements" [ 0; 1; 2; 3 ] (Poset.elements p);
  Alcotest.(check bool) "mem" true (Poset.mem p 2);
  Alcotest.(check bool) "not mem" false (Poset.mem p 9);
  Alcotest.(check bool) "negative not mem" false (Poset.mem p (-1));
  Alcotest.check_raises "duplicate" (Invalid_argument "Poset.add_element: duplicate")
    (fun () -> Poset.add_element p 0);
  Alcotest.check_raises "negative" (Invalid_argument "Poset.add_element: negative id")
    (fun () -> Poset.add_element p (-1))

let test_leq_chain () =
  let p = chain 5 in
  Alcotest.(check bool) "0 <= 4" true (Poset.leq p 0 4);
  Alcotest.(check bool) "4 <= 0 false" false (Poset.leq p 4 0);
  Alcotest.(check bool) "reflexive" true (Poset.leq p 2 2)

let test_leq_diamond () =
  let p = diamond () in
  Alcotest.(check bool) "0 <= 3" true (Poset.leq p 0 3);
  Alcotest.(check bool) "1 and 2 incomparable" false
    (Poset.leq p 1 2 || Poset.leq p 2 1)

let test_cycle_rejected () =
  let p = chain 3 in
  (match Poset.add_edge p 2 0 with
  | () -> Alcotest.fail "cycle accepted"
  | exception Poset.Cycle (2, 0) -> ());
  (* self edges are ignored, duplicates idempotent *)
  Poset.add_edge p 1 1;
  Poset.add_edge p 0 1;
  Alcotest.(check (list int)) "no duplicate succ" [ 1 ] (Poset.succs p 0)

let test_down_set () =
  let p = diamond () in
  Alcotest.(check (list int)) "down of 3" [ 0; 1; 2; 3 ]
    (List.sort compare (Poset.down_set p 3));
  Alcotest.(check (list int)) "down of 1" [ 0; 1 ]
    (List.sort compare (Poset.down_set p 1));
  Alcotest.(check (list int)) "down of 0" [ 0 ] (Poset.down_set p 0)

let test_down_set_stopping () =
  let p = chain 5 in
  Alcotest.(check (list int)) "stop at executed" [ 3; 4 ]
    (List.sort compare
       (Poset.down_set_stopping p 4 ~stop:(fun x -> x <= 2)));
  Alcotest.(check (list int)) "stopped root" []
    (Poset.down_set_stopping p 4 ~stop:(fun _ -> true))

let test_maximal_among () =
  let p = diamond () in
  let none _ = false in
  Alcotest.(check (list int)) "maximal among all" [ 3 ]
    (Poset.maximal_among p [ 0; 1; 2; 3 ] ~stop:none);
  Alcotest.(check (list int)) "maximal among 1,2" [ 1; 2 ]
    (Poset.maximal_among p [ 1; 2 ] ~stop:none);
  Alcotest.(check (list int)) "list order kept" [ 2; 1 ]
    (Poset.maximal_among p [ 2; 0; 1 ] ~stop:none);
  Alcotest.(check (list int)) "stopped below" [ 3 ]
    (Poset.maximal_among p [ 1; 3 ] ~stop:(fun x -> x = 0))

let test_topo_sort () =
  let p = diamond () in
  Alcotest.(check (list int)) "deterministic topo" [ 0; 1; 2; 3 ]
    (Poset.topo_sort p [ 3; 2; 1; 0 ]);
  (* subset sort *)
  Alcotest.(check (list int)) "subset" [ 1; 3 ] (Poset.topo_sort p [ 3; 1 ]);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Poset.topo_sort: input not acyclic or contains duplicates")
    (fun () -> ignore (Poset.topo_sort p [ 0; 0 ]));
  Alcotest.check_raises "unknown" (Invalid_argument "Poset: unknown element 9")
    (fun () -> ignore (Poset.topo_sort p [ 0; 9 ]))

(* random DAG property tests *)

let random_dag seed size =
  let rng = Lb_util.Rng.create seed in
  let p = Poset.create () in
  for i = 0 to size - 1 do
    Poset.add_element p i
  done;
  (* only forward edges: guaranteed acyclic *)
  for i = 0 to size - 1 do
    for j = i + 1 to size - 1 do
      if Lb_util.Rng.int rng 4 = 0 then Poset.add_edge p i j
    done
  done;
  p

let topo_respects_order =
  QCheck.Test.make ~name:"topo_sort respects leq" ~count:50
    QCheck.(pair small_int (int_range 2 15))
    (fun (seed, size) ->
      let p = random_dag seed size in
      let order = Poset.topo_sort p (Poset.elements p) in
      let pos = Hashtbl.create size in
      List.iteri (fun i x -> Hashtbl.replace pos x i) order;
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              (not (Poset.leq p a b)) || a = b
              || Hashtbl.find pos a < Hashtbl.find pos b)
            (Poset.elements p))
        (Poset.elements p))

let down_set_is_leq =
  QCheck.Test.make ~name:"down_set = {x | x leq m}" ~count:50
    QCheck.(pair small_int (int_range 2 12))
    (fun (seed, size) ->
      let p = random_dag seed size in
      List.for_all
        (fun m ->
          let ds = List.sort_uniq compare (Poset.down_set p m) in
          let expected =
            List.filter (fun x -> Poset.leq p x m) (Poset.elements p)
          in
          ds = List.sort compare expected)
        (Poset.elements p))

let leq_transitive =
  QCheck.Test.make ~name:"leq transitive" ~count:30
    QCheck.(pair small_int (int_range 3 10))
    (fun (seed, size) ->
      let p = random_dag seed size in
      let els = Poset.elements p in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              List.for_all
                (fun c ->
                  (not (Poset.leq p a b && Poset.leq p b c)) || Poset.leq p a c)
                els)
            els)
        els)

(* Larger DAGs whose ids are not a topological order, so the poset's
   arrays must grow past their initial capacity and the smallest-id-first
   order differs from id order. *)
let random_big_dag seed size =
  let rng = Lb_util.Rng.create seed in
  let rank = Lb_util.Rng.permutation rng size in
  let p = Poset.create () in
  for i = 0 to size - 1 do
    Poset.add_element p i
  done;
  for i = 0 to size - 1 do
    for j = i + 1 to size - 1 do
      if Lb_util.Rng.int rng 16 = 0 then Poset.add_edge p rank.(i) rank.(j)
    done
  done;
  (rng, p)

let random_subset rng xs = List.filter (fun _ -> Lb_util.Rng.int rng 3 = 0) xs

(* The pairwise definition the one-pass search replaces. *)
let pairwise_maximal p xs =
  List.filter
    (fun x -> not (List.exists (fun y -> x <> y && Poset.leq p x y) xs))
    xs

(* Kahn's algorithm, smallest ready id first, over the edges between
   members of [xs] only. *)
let kahn_reference p xs =
  let rec go remaining acc =
    match
      List.filter
        (fun x ->
          not (List.exists (fun q -> List.mem q remaining) (Poset.preds p x)))
        remaining
    with
    | [] -> List.rev acc
    | ready ->
      let x = List.fold_left min max_int ready in
      go (List.filter (fun y -> y <> x) remaining) (x :: acc)
  in
  go xs []

let big_dag = QCheck.(pair small_int (int_range 65 160))

let maximal_matches_pairwise =
  QCheck.Test.make ~name:"maximal_among ~stop = pairwise leq" ~count:40 big_dag
    (fun (seed, size) ->
      let rng, p = random_big_dag seed size in
      let below = Poset.down_set p (Lb_util.Rng.int rng size) in
      let stop x = List.mem x below in
      let xs =
        random_subset rng
          (List.filter (fun x -> not (stop x)) (Poset.elements p))
      in
      let xs = Array.of_list xs in
      Lb_util.Rng.shuffle rng xs;
      let xs = Array.to_list xs in
      Poset.maximal_among p xs ~stop = pairwise_maximal p xs)

let topo_matches_kahn =
  QCheck.Test.make ~name:"topo_sort = smallest-id-first Kahn" ~count:40 big_dag
    (fun (seed, size) ->
      let rng, p = random_big_dag seed size in
      let xs = random_subset rng (Poset.elements p) in
      Poset.topo_sort p xs = kahn_reference p xs
      && Poset.topo_sort p (Poset.elements p)
         = kahn_reference p (Poset.elements p))

let down_set_stopping_topological =
  QCheck.Test.make
    ~name:"down_set_stopping ~stop = {x leq m | not stop}, in topological order"
    ~count:40 big_dag
    (fun (seed, size) ->
      let rng, p = random_big_dag seed size in
      let below = Poset.down_set p (Lb_util.Rng.int rng size) in
      let stop x = List.mem x below in
      List.for_all
        (fun _ ->
          let m = Lb_util.Rng.int rng size in
          let ds = Poset.down_set_stopping p m ~stop in
          let pos = Hashtbl.create size in
          List.iteri (fun i x -> Hashtbl.replace pos x i) ds;
          List.sort compare ds
          = List.filter
              (fun x -> Poset.leq p x m && not (stop x))
              (Poset.elements p)
          && List.for_all
               (fun x ->
                 List.for_all
                   (fun q -> stop q || Hashtbl.find pos q < Hashtbl.find pos x)
                   (Poset.preds p x))
               ds)
        [ 1; 2; 3; 4; 5 ])

let suite =
  [
    Alcotest.test_case "elements" `Quick test_elements;
    Alcotest.test_case "leq chain" `Quick test_leq_chain;
    Alcotest.test_case "leq diamond" `Quick test_leq_diamond;
    Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
    Alcotest.test_case "down_set" `Quick test_down_set;
    Alcotest.test_case "down_set_stopping" `Quick test_down_set_stopping;
    Alcotest.test_case "maximal_among" `Quick test_maximal_among;
    Alcotest.test_case "topo_sort" `Quick test_topo_sort;
    QCheck_alcotest.to_alcotest topo_respects_order;
    QCheck_alcotest.to_alcotest down_set_is_leq;
    QCheck_alcotest.to_alcotest leq_transitive;
    QCheck_alcotest.to_alcotest maximal_matches_pairwise;
    QCheck_alcotest.to_alcotest topo_matches_kahn;
    QCheck_alcotest.to_alcotest down_set_stopping_topological;
  ]
