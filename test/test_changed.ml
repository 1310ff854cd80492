(* Proc.t.changed against the repr it replaces on the hot paths: on
   every transition the lint automaton explores, [changed] must hold
   exactly when the repr changes; and the certify path must build no
   repr at all. *)

open Lb_shmem

let responses (auto : Lb_analysis.Automaton.t) (action : Step.action) =
  match action with
  | Step.Write _ | Step.Crit _ -> [ Step.Ack ]
  | Step.Read r | Step.Rmw (r, _) ->
    if r < 0 || r >= Array.length auto.responses then []
    else List.map (fun v -> Step.Got v) auto.responses.(r)

(* The first explored transition whose [changed] disagrees with its
   reprs, as a printable line, and the number of transitions checked.
   Each process's automaton is driven under every response its
   environment permits, which over-approximates the reachable
   transitions. *)
let disagreement (algo : Algorithm.t) ~n =
  let auto = Lb_analysis.Automaton.explore algo ~n in
  let checked = ref 0 in
  let found = ref None in
  Array.iter
    (fun (pa : Lb_analysis.Automaton.proc_auto) ->
      Array.iter
        (fun (node : Lb_analysis.Automaton.node) ->
          List.iter
            (fun resp ->
              match node.proc.Proc.advance resp with
              | exception _ -> ()
              | p' ->
                incr checked;
                let repr' = p'.Proc.repr () in
                if !found = None && p'.Proc.changed <> (repr' <> node.repr)
                then
                  found :=
                    Some
                      (Printf.sprintf "%s n=%d p%d: %s -(%s)-> %s, changed=%b"
                         algo.Algorithm.name n pa.me node.repr
                         (Lb_analysis.Finding.response_to_string resp)
                         repr' p'.Proc.changed))
            (responses auto node.pending))
        pa.nodes)
    auto.autos;
  (!found, !checked)

let check_agree algo ~n =
  match disagreement algo ~n with
  | Some line, _ -> Alcotest.fail line
  | None, checked ->
    if checked = 0 then
      Alcotest.failf "%s n=%d: no transition explored" algo.Algorithm.name n

let test_registry () =
  List.iter
    (fun algo ->
      List.iter
        (fun n -> if Algorithm.supports algo n then check_agree algo ~n)
        [ 2; 3; 4 ])
    Lb_algos.Registry.all

let test_chaos_plans () =
  List.iter
    (fun (cell : Lb_faults.Matrix.cell) ->
      let base = Lb_algos.Registry.find_exn cell.algo in
      check_agree (Lb_faults.Inject.wrap cell.plan base) ~n:cell.n)
    Lb_faults.Matrix.shipped

(* Every operator kind, a superset of the op set the CI mutation gate
   runs, at every site of the algorithms it mutates. *)
let test_mutants () =
  List.iter
    (fun name ->
      let base = Lb_algos.Registry.find_exn name in
      let n = 2 in
      let auto = Lb_analysis.Automaton.explore base ~n in
      let ops = Lb_mutate.Op.sites auto in
      if ops = [] then Alcotest.failf "%s: no mutation site" name;
      List.iter
        (fun op -> check_agree (Lb_mutate.Mutant.make base ~n op).algo ~n)
        ops)
    [ "peterson2"; "tas"; "yang_anderson"; "bakery" ]

(* An automaton whose spin read, spin RMW and looping write each leave
   its state unchanged, so on those steps a wrapper's own phase (a
   fault countdown, a firing, a mutation phase) is the only change. The
   registry's writes always change state, so only this automaton shows
   the wrappers the write-side case. *)
module Stutter = struct
  type state = Start | Spin | Tas | Put | Enter | Cs | Rem

  let initial ~n:_ ~me:_ = Start

  let pending ~n:_ ~me st : Step.action =
    match st with
    | Start -> Step.Crit Step.Try
    | Spin -> Step.Read 0
    | Tas -> Step.Rmw (1, Step.Test_and_set)
    | Put -> Step.Write (0, me + 1)
    | Enter -> Step.Crit Step.Enter
    | Cs -> Step.Crit Step.Exit
    | Rem -> Step.Crit Step.Rem

  (* p0 spins on register 0, then on a test-and-set of register 1; the
     others write register 0 forever *)
  let advance ~n:_ ~me st (resp : Step.response) =
    match (st, resp) with
    | Start, _ -> if me = 0 then Spin else Put
    | Spin, Step.Got 0 -> Spin
    | Spin, _ -> Tas
    | Tas, Step.Got 0 -> Enter
    | Tas, _ -> Tas
    | Put, _ -> Put
    | Enter, _ -> Cs
    | Cs, _ -> Rem
    | Rem, _ -> Start

  let repr = function
    | Start -> "start"
    | Spin -> "spin"
    | Tas -> "tas"
    | Put -> "put"
    | Enter -> "enter"
    | Cs -> "cs"
    | Rem -> "rem"
end

module Stutter_spawn = Proc.Make_spawn (Stutter)

let stutter =
  {
    Algorithm.name = "stutter";
    description = "every access kind can leave the state unchanged";
    kind = Algorithm.Uses_rmw;
    registers =
      (fun ~n:_ -> [| Register.spec ~domain:(0, 2) "a"; Register.spec "b" |]);
    spawn = Stutter_spawn.spawn;
    max_n = Some 2;
  }

let test_stutter_wrappers () =
  let module F = Lb_faults.Fault in
  let n = 2 in
  check_agree stutter ~n;
  let faults proc =
    List.concat_map
      (fun nth ->
        [
          F.Crash { proc; at = F.After_steps nth };
          F.Lost_write { proc; nth };
          F.Stale_read { proc; nth };
          F.Corrupt_write { proc; nth; off_domain = nth = 2 };
        ])
      [ 1; 2; 3 ]
    @ List.map
        (fun c -> F.Crash { proc; at = F.In_section c })
        [ Step.Try; Step.Enter; Step.Exit; Step.Rem ]
  in
  List.iter
    (fun fault ->
      let plan = { F.label = F.fault_to_string fault; faults = [ fault ] } in
      check_agree (Lb_faults.Inject.wrap plan stutter) ~n)
    (faults 0 @ faults 1);
  let ops =
    Lb_mutate.Op.Reg_swap { r1 = 0; r2 = 1 }
    :: List.concat_map
         (fun reg ->
           Lb_mutate.Op.
             [
               Guard_flip { reg }; Spin_invert { reg }; Drop_write { reg };
               Dup_write { reg }; Domain_shrink { reg }; Rmw_split { reg };
               Stmt_swap { reg };
             ])
         [ 0; 1 ]
  in
  List.iter
    (fun op -> check_agree (Lb_mutate.Mutant.make stutter ~n op).algo ~n)
    ops

(* Negative control: a spawn whose [changed] ignores the entry program
   counter of yang_anderson's state; the check must see it disagree. *)
module Ya = Lb_algos.Yang_anderson.State

module Blind_spawn = struct
  let erase : Ya.state -> Ya.state = function
    | Ya.Entry { k; _ } -> Ya.Entry { k; epc = Ya.Set_c }
    | st -> st

  let rec wrap ~n ~me ~changed st =
    {
      Proc.id = me;
      pending = Ya.pending ~n ~me st;
      advance =
        (fun resp ->
          let st' = Ya.advance ~n ~me st resp in
          wrap ~n ~me ~changed:(erase st' <> erase st) st');
      changed;
      repr = (fun () -> Ya.repr st);
    }

  let spawn ~n ~me = wrap ~n ~me ~changed:false (Ya.initial ~n ~me)
end

let test_blind_spawn () =
  let ya = Lb_algos.Yang_anderson.algorithm in
  match disagreement { ya with Algorithm.spawn = Blind_spawn.spawn } ~n:2 with
  | Some _, _ -> ()
  | None, _ -> Alcotest.fail "a spawn blind to the entry pc agreed"

(* Wrap [algo] so that every [repr ()] call, at any depth, counts. *)
let counted (algo : Algorithm.t) calls =
  let rec wrap (p : Proc.t) =
    {
      p with
      Proc.repr =
        (fun () ->
          Atomic.incr calls;
          p.Proc.repr ());
      advance = (fun resp -> wrap (p.Proc.advance resp));
    }
  in
  {
    algo with
    Algorithm.spawn = (fun ~n ~me -> wrap (algo.Algorithm.spawn ~n ~me));
  }

let test_certify_builds_no_repr () =
  List.iter
    (fun (name, n) ->
      let calls = Atomic.make 0 in
      let algo = counted (Lb_algos.Registry.find_exn name) calls in
      let pi = Lb_core.Permutation.random (Lb_util.Rng.create 20060723) n in
      ignore (Lb_core.Pipeline.run_checked algo ~n pi);
      Alcotest.(check int) (Printf.sprintf "%s n=%d repr calls" name n) 0
        (Atomic.get calls);
      (* the counter itself works *)
      ignore (System.state_repr (System.init algo ~n) 0);
      Alcotest.(check int) (name ^ " counter counts") 1 (Atomic.get calls))
    [ ("yang_anderson", 16); ("bakery", 12); ("filter", 6) ]

let suite =
  [
    Alcotest.test_case "agreement: registry at n=2,3,4" `Quick test_registry;
    Alcotest.test_case "agreement: shipped chaos plans" `Quick test_chaos_plans;
    Alcotest.test_case "agreement: mutants" `Quick test_mutants;
    Alcotest.test_case "agreement: wrappers on a stuttering automaton" `Quick
      test_stutter_wrappers;
    Alcotest.test_case "agreement: a blind spawn disagrees" `Quick
      test_blind_spawn;
    Alcotest.test_case "certify path builds no repr" `Quick
      test_certify_builds_no_repr;
  ]
