open Lb_shmem
module C = Lb_core.Construct
module P = Lb_core.Permutation
module V = Lb_core.Verify
module L = Lb_core.Linearize
module M = Lb_core.Metastep
module Pl = Lb_core.Pipeline

let ya = Lb_algos.Yang_anderson.algorithm
let bakery = Lb_algos.Bakery.algorithm
let burns = Lb_algos.Burns.algorithm

let check_ok label = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label e

let run_all_checks algo n pi =
  let c = C.run algo ~n pi in
  List.iter (fun (label, r) -> check_ok label r) (V.all c)

let verify_cases =
  List.concat_map
    (fun (algo : Algorithm.t) ->
      List.map
        (fun n ->
          Alcotest.test_case
            (Printf.sprintf "invariants %s n=%d" algo.Algorithm.name n)
            `Quick
            (fun () ->
              List.iter (run_all_checks algo n)
                (if n <= 3 then P.all n else [ P.identity n; P.reverse n ])))
        [ 1; 2; 3; 5 ])
    [ ya; bakery; burns; Lb_algos.Filter.algorithm; Lb_algos.Tournament.algorithm ]

let test_solo_construction () =
  (* n=1: the construction is a solo run of p0 *)
  let c = C.run ya ~n:1 (P.identity 1) in
  let exec = L.execution c in
  Alcotest.(check (list int)) "enter order" [ 0 ] (Execution.crit_order exec);
  (* every metastep contains exactly p0 *)
  Lb_core.Metastep.iter c.C.arena (fun m ->
      Alcotest.(check (list int)) "only p0" [ 0 ] (Lb_core.Metastep.own m))

let test_stage_order_is_pi () =
  List.iter
    (fun pi ->
      let c = C.run ya ~n:4 pi in
      let exec = L.execution c in
      Alcotest.(check (list int)) "CS order is pi"
        (Array.to_list (P.to_array pi))
        (Execution.crit_order exec))
    (P.all 4)

let test_all_perms_distinct_executions () =
  let fps =
    List.map
      (fun pi -> Execution.fingerprint (L.execution (C.run ya ~n:4 pi)))
      (P.all 4)
  in
  Alcotest.(check int) "24 distinct canonical executions" 24
    (List.length (List.sort_uniq compare fps))

let test_invisibility () =
  (* the definitive invisibility check: in the canonical linearization, a
     process never READS a value written by a higher-pi-indexed process.
     We replay and track who wrote each register's current value. *)
  let check algo n pi =
    let c = C.run algo ~n pi in
    let exec = L.execution c in
    let nregs = Array.length (algo.Algorithm.registers ~n) in
    let last_writer = Array.make nregs (-1) in
    let sys = System.init algo ~n in
    Lb_util.Vec.iter
      (fun (s : Step.t) ->
        (match s.Step.action with
        | Step.Read reg ->
          let writer = last_writer.(reg) in
          if writer >= 0 && not (P.lower_or_equal pi writer s.Step.who) then
            Alcotest.failf "p%d read a value written by later process p%d"
              s.Step.who writer
        | Step.Write (reg, _) -> last_writer.(reg) <- s.Step.who
        | Step.Rmw _ | Step.Crit _ -> ());
        ignore (System.apply sys s))
      exec
  in
  List.iter
    (fun pi -> check ya 4 pi)
    (P.all 4);
  List.iter (fun pi -> check bakery 3 pi) (P.all 3)

let test_write_chain_contents () =
  let c = C.run bakery ~n:3 (P.reverse 3) in
  (* every write metastep appears in exactly one chain, at its register *)
  let in_chain = Hashtbl.create 64 in
  Hashtbl.iter
    (fun reg arr ->
      Array.iter
        (fun id ->
          Alcotest.(check bool) "no duplicate chain membership" false
            (Hashtbl.mem in_chain id);
          Hashtbl.replace in_chain id ();
          let m = Lb_core.Metastep.get c.C.arena id in
          Alcotest.(check int) "chain register" reg m.Lb_core.Metastep.reg)
        arr)
    c.C.write_chain;
  Lb_core.Metastep.iter c.C.arena (fun m ->
      if m.Lb_core.Metastep.kind = Lb_core.Metastep.Write_meta then
        Alcotest.(check bool) "write metastep in a chain" true
          (Hashtbl.mem in_chain m.Lb_core.Metastep.id))

let test_proc_meta_complete () =
  let n = 3 in
  let c = C.run ya ~n (P.identity n) in
  (* each process's chain covers exactly the metasteps containing it *)
  for i = 0 to n - 1 do
    let chain = C.metasteps_of c i in
    let from_arena = ref [] in
    Lb_core.Metastep.iter c.C.arena (fun m ->
        if Lb_core.Metastep.contains m i then
          from_arena := m.Lb_core.Metastep.id :: !from_arena);
    Alcotest.(check (list int))
      (Printf.sprintf "chain of p%d" i)
      (List.sort compare (Array.to_list chain))
      (List.sort compare !from_arena)
  done

let test_pc () =
  let c = C.run ya ~n:2 (P.identity 2) in
  let chain = C.metasteps_of c 0 in
  Alcotest.(check int) "first metastep is Pc 1" 1 (C.pc c 0 chain.(0));
  Alcotest.(check int) "last metastep" (Array.length chain)
    (C.pc c 0 chain.(Array.length chain - 1));
  match C.pc c 0 (-1) with
  | _ -> Alcotest.fail "found bogus metastep"
  | exception Not_found -> ()

let test_rejects_rmw () =
  match C.run Lb_algos.Rmw_locks.ticket ~n:2 (P.identity 2) with
  | _ -> Alcotest.fail "rmw algorithm accepted"
  | exception C.Unsupported_primitive _ -> ()

let test_rejects_bad_n () =
  (match C.run ya ~n:2 (P.identity 3) with
  | _ -> Alcotest.fail "size mismatch accepted"
  | exception Invalid_argument _ -> ());
  match C.run Lb_algos.Peterson2.algorithm ~n:3 (P.identity 3) with
  | _ -> Alcotest.fail "unsupported n accepted"
  | exception Invalid_argument _ -> ()

let test_linearization_replays () =
  (* replaying the canonical linearization validates every step against
     the automata -- run across algorithms and permutations *)
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun pi ->
          let c = C.run algo ~n:3 pi in
          ignore (Execution.replay algo ~n:3 (L.execution c)))
        (P.all 3))
    [ ya; bakery; burns ]

let test_random_linearizations_replay () =
  let rng = Lb_util.Rng.create 17 in
  let c = C.run bakery ~n:4 (P.reverse 4) in
  for _ = 1 to 10 do
    let exec = L.random_execution rng c in
    ignore (Execution.replay bakery ~n:4 exec);
    match Lb_mutex.Checker.check ~n:4 exec with
    | Ok () -> ()
    | Error v -> Alcotest.fail (Lb_mutex.Checker.violation_to_string v)
  done

let test_lemma_5_4_across_stages () =
  (* Lemma 5.4 verbatim: for stages i <= j <= k, the projection of the
     stage-i process is identical in linearizations of (M_j, ⪯_j) and
     (M_k, ⪯_k) — later stages never disturb what earlier processes
     experienced *)
  List.iter
    (fun (algo : Algorithm.t) ->
      let n = 4 in
      List.iter
        (fun pi ->
          let lins =
            List.init n (fun j ->
                L.execution (C.run_stages algo ~n ~stages:(j + 1) pi))
          in
          let projs = List.map (fun l -> Execution.projections l ~n) lins in
          for i = 0 to n - 1 do
            let p = P.process_at pi i in
            let reference = (List.nth projs (n - 1)).(p) in
            for j = i to n - 2 do
              Alcotest.(check bool)
                (Printf.sprintf "%s: stage %d proj of p%d at j=%d"
                   algo.Algorithm.name i p j)
                true
                (List.equal Step.equal (List.nth projs j).(p) reference)
            done
          done)
        [ P.identity 4; P.reverse 4; P.of_array [| 2; 0; 3; 1 |] ])
    [ ya; bakery; burns ]

let test_run_stages_partial () =
  (* only the first k processes of pi appear in a k-stage construction *)
  let pi = P.of_array [| 2; 0; 1 |] in
  let c = C.run_stages ya ~n:3 ~stages:2 pi in
  let exec = L.execution c in
  Alcotest.(check (list int)) "only stages 0,1 enter" [ 2; 0 ]
    (Execution.crit_order exec);
  Alcotest.(check int) "p1 has no metasteps" 0
    (Array.length (C.metasteps_of c 1))

let test_metastep_order_is_topo () =
  let c = C.run ya ~n:3 (P.identity 3) in
  let order = L.metastep_order c in
  Alcotest.(check int) "covers all metasteps"
    (Lb_core.Metastep.count c.C.arena)
    (List.length order);
  let pos = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace pos id i) order;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Lb_core.Poset.leq c.C.order a b && a <> b then
            Alcotest.(check bool) "respects poset" true
              (Hashtbl.find pos a < Hashtbl.find pos b))
        order)
    order

(* Negative tests for Verify's structural checks: each tampering of a
   fresh construction must be rejected by its own check, and by
   Pipeline.check under that check's label. *)
let fresh_result algo = Pl.run algo ~n:4 (P.reverse 4)

let swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let swap_write_chain (c : C.t) =
  let write_chain = Hashtbl.copy c.C.write_chain in
  let reg =
    Hashtbl.fold
      (fun reg ids acc -> if Array.length ids >= 2 then min reg acc else acc)
      write_chain max_int
  in
  if reg = max_int then Alcotest.fail "no register with two write metasteps";
  let ids = Array.copy (Hashtbl.find write_chain reg) in
  swap ids 0 1;
  Hashtbl.replace write_chain reg ids;
  { c with C.write_chain }

let swap_proc_meta (c : C.t) =
  let proc_meta = Array.map Array.copy c.C.proc_meta in
  swap proc_meta.(0) 0 1;
  { c with C.proc_meta }

let find_metastep (c : C.t) pred =
  let found = ref None in
  M.iter c.C.arena (fun m -> if !found = None && pred m then found := Some m);
  match !found with
  | Some m -> m
  | None -> Alcotest.fail "no metastep to tamper with"

(* promote a losing write over the pi-minimal winner *)
let demote_winner (c : C.t) =
  let m =
    find_metastep c (fun m -> m.M.kind = M.Write_meta && m.M.writes <> [])
  in
  let w = Option.get m.M.win in
  m.M.win <- Some (List.hd m.M.writes);
  m.M.writes <- w :: List.tl m.M.writes;
  c

let break_pread_of (c : C.t) =
  let m = find_metastep c (fun m -> m.M.pread_of <> None) in
  m.M.pread_of <- None;
  c

(* lamport_fast's constructions hide losing writes inside write
   metasteps; bakery's have prereads. *)
let tamper_cases =
  [
    ("write_chain swap", "write chains total (Lemma 5.3)", V.write_chains_total,
     bakery, swap_write_chain);
    ("proc_meta swap", "process chains total", V.process_chains_total, bakery,
     swap_proc_meta);
    ("non-minimal winner", "winner pi-minimal (Lemma 5.8)",
     V.winner_is_pi_minimal, Lb_algos.Lamport_fast.algorithm, demote_winner);
    ("broken pread_of", "metasteps well-formed (Def 5.1)",
     V.metasteps_well_formed, bakery, break_pread_of);
  ]

let test_tampering_rejected (what, label, check, algo, tamper) () =
  let r = fresh_result algo in
  check_ok ("fresh " ^ label) (check r.Pl.construction);
  let tampered = tamper r.Pl.construction in
  (match check tampered with
  | Ok () -> Alcotest.failf "%s: %s accepted it" what label
  | Error _ -> ());
  match Pl.check algo ~n:4 { r with Pl.construction = tampered } with
  | Ok () -> Alcotest.failf "%s: Pipeline.check accepted it" what
  | Error e ->
    if not (String.starts_with ~prefix:(label ^ ": ") e) then
      Alcotest.failf "%s: Pipeline.check error %S does not name %S" what e
        label

let test_exit_status () =
  let c = (fresh_result bakery).Pl.construction in
  Alcotest.(check int) "all checks pass" 0 (V.exit_status (V.all c));
  Alcotest.(check int) "a failing check" 1
    (V.exit_status (V.all (swap_proc_meta c)))

(* Digests of whole constructions — every metastep's printout and
   expansion, every element's predecessor and successor lists, and every
   process's chain — recorded from the implementation that compared
   outstanding reads pairwise and kept the order in hash tables. *)
let construction_digest (c : C.t) =
  let b = Buffer.create 65536 in
  let ints l = String.concat "," (List.map string_of_int l) in
  M.iter c.C.arena (fun m ->
      let id = m.M.id in
      Printf.bprintf b "%s|%s|%s|%s\n"
        (Format.asprintf "%a" M.pp m)
        (String.concat ";" (List.map Step.to_string (M.seq m)))
        (ints (Lb_core.Poset.preds c.C.order id))
        (ints (Lb_core.Poset.succs c.C.order id)));
  Array.iter
    (fun ids -> Printf.bprintf b "%s\n" (ints (Array.to_list ids)))
    c.C.proc_meta;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_digests =
  [
    ("yang_anderson", 16, 1, "cae7103a8eaaa6bfc7b8d40f60887462");
    ("yang_anderson", 16, 2, "d1b28a1f136bed6c55212526e3429504");
    ("yang_anderson", 16, 3, "da0512946faa4ea14e9b3149ada540ac");
    ("bakery", 12, 1, "eb65a6cc17f88cf31293d93014a0ad05");
    ("bakery", 12, 2, "8321c7ca64df76edf878ef6ea2cabc41");
    ("bakery", 12, 3, "92e124b29f3eb83c7924fc41bbe37beb");
    ("filter", 6, 1, "463ca84d52c8a5ac33684e9de749d169");
    ("filter", 6, 2, "132fa3607ea9b646b41b215cf912fde3");
    ("filter", 6, 3, "e7a22f35d299b49462ce6754f47f913a");
  ]

let test_construction_digests () =
  List.iter
    (fun (name, n, seed, expected) ->
      let pi = P.random (Lb_util.Rng.create seed) n in
      Alcotest.(check string)
        (Printf.sprintf "%s n=%d seed=%d" name n seed)
        expected
        (construction_digest (C.run (Lb_algos.Registry.find_exn name) ~n pi)))
    expected_digests

(* [algo] with every automaton transition counted per process id, and
   the counts. *)
let counting (algo : Algorithm.t) ~n =
  let counts = Array.make n 0 in
  let rec wrap (p : Proc.t) =
    {
      p with
      Proc.advance =
        (fun r ->
          counts.(p.Proc.id) <- counts.(p.Proc.id) + 1;
          wrap (p.Proc.advance r));
    }
  in
  ({ algo with Algorithm.spawn = (fun ~n ~me -> wrap (algo.Algorithm.spawn ~n ~me)) },
   counts)

(* Stage i runs only pi_i's automaton: later stages apply pi_i's steps to
   the registers without advancing it, so its transition count is final
   once its own stage ends. *)
let test_own_stage_only () =
  List.iter
    (fun (name, n) ->
      let algo = Lb_algos.Registry.find_exn name in
      List.iter
        (fun seed ->
          let pi = P.random (Lb_util.Rng.create seed) n in
          let advances ~stages =
            let algo, counts = counting algo ~n in
            ignore (C.run_stages algo ~n ~stages pi);
            counts
          in
          let full = advances ~stages:n in
          for i = 0 to n - 1 do
            let p = P.process_at pi i in
            Alcotest.(check int)
              (Printf.sprintf "%s n=%d seed=%d: p%d (stage %d)" name n seed p i)
              (advances ~stages:(i + 1)).(p) full.(p)
          done)
        [ 1; 2 ])
    [ ("yang_anderson", 16); ("bakery", 12); ("filter", 6) ]

(* [algo] whose process 0 is impure: its transition out of the initial
   state alternates, call by call, between the real one and one that
   also acknowledges the write after try, so every other run of process
   0 from the initial state skips that write. *)
let impure (algo : Algorithm.t) =
  let calls = ref 0 in
  let spawn ~n ~me =
    let p = algo.Algorithm.spawn ~n ~me in
    if me <> 0 then p
    else
      {
        p with
        Proc.advance =
          (fun r ->
            let q = p.Proc.advance r in
            incr calls;
            match q.Proc.pending with
            | Step.Write _ when !calls mod 2 = 0 -> q.Proc.advance Step.Ack
            | _ -> q);
      }
  in
  { algo with Algorithm.spawn }

(* Construct runs each automaton once, in its own stage; the replays that
   follow it (Decode, the SC cost, the checker) must still reject an
   automaton that does not repeat itself. *)
let test_impure_never_certified () =
  let pi = P.of_array [| 1; 0; 2 |] in
  (match Pl.run_checked (impure ya) ~n:3 pi with
  | _ -> Alcotest.fail "run_checked certified an impure automaton"
  | exception _ -> ());
  Test_store.with_store (fun store ->
      let cert, r =
        Lb_store.Sweep.certify ~store ~resume:true (impure ya) ~n:3 ~perms:[ pi ] ()
      in
      Alcotest.(check bool) "no certificate" true (cert = None);
      Alcotest.(check int) "unit quarantined" 1
        (List.length r.Lb_store.Sweep.failures))

let suite =
  verify_cases
  @ [
      Alcotest.test_case "solo construction" `Quick test_solo_construction;
      Alcotest.test_case "CS order = pi (all S4)" `Quick test_stage_order_is_pi;
      Alcotest.test_case "distinct executions" `Quick test_all_perms_distinct_executions;
      Alcotest.test_case "invisibility of later processes" `Quick test_invisibility;
      Alcotest.test_case "write chain contents" `Quick test_write_chain_contents;
      Alcotest.test_case "proc_meta complete" `Quick test_proc_meta_complete;
      Alcotest.test_case "pc positions" `Quick test_pc;
      Alcotest.test_case "rejects rmw" `Quick test_rejects_rmw;
      Alcotest.test_case "rejects bad n" `Quick test_rejects_bad_n;
      Alcotest.test_case "linearizations replay" `Quick test_linearization_replays;
      Alcotest.test_case "random linearizations replay" `Quick test_random_linearizations_replay;
      Alcotest.test_case "Lemma 5.4 across stages" `Quick test_lemma_5_4_across_stages;
      Alcotest.test_case "run_stages partial" `Quick test_run_stages_partial;
      Alcotest.test_case "metastep order is topological" `Quick test_metastep_order_is_topo;
    ]
  @ List.map
      (fun ((what, _, _, _, _) as case) ->
        Alcotest.test_case ("structural checks reject " ^ what) `Quick
          (test_tampering_rejected case))
      tamper_cases
  @ [
      Alcotest.test_case "construct exit status" `Quick test_exit_status;
      Alcotest.test_case "construction digests" `Quick test_construction_digests;
      Alcotest.test_case "each automaton runs only in its own stage" `Quick
        test_own_stage_only;
      Alcotest.test_case "impure automaton never certified" `Quick
        test_impure_never_certified;
    ]
