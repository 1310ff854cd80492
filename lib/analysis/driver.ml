open Lb_shmem
module Json = Lb_util.Json

type unit_report = {
  u_algo : string;
  u_n : int;
  u_nodes : int;
  u_complete : bool;
}

type report = {
  findings : (Finding.t * bool) list;
  units : unit_report list;
}

(* Schema version of the machine-readable report, as store entries
   carry: bump on any shape change so downstream tooling can gate. *)
let format_version = 1

let default_passes =
  [ Pass_repr.pass; Pass_register.pass; Pass_kind.pass; Pass_liveness.pass ]

let default_sizes = [ 2; 3; 4 ]

let pass_ids () = List.map (fun (p : Pass.t) -> p.name) default_passes

let passes_for ids =
  let ids = List.sort_uniq String.compare ids in
  let unknown =
    List.filter
      (fun id ->
        not (List.exists (fun (p : Pass.t) -> p.name = id) default_passes))
      ids
  in
  match unknown with
  | id :: _ ->
    Error
      (Printf.sprintf "unknown rule family %S; valid families: %s" id
         (String.concat ", " (pass_ids ())))
  | [] ->
    Ok (List.filter (fun (p : Pass.t) -> List.mem p.name ids) default_passes)

let analyze ~settings ~passes (algo : Algorithm.t) n =
  match Automaton.explore ~settings algo ~n with
  | exception e ->
    ( { u_algo = algo.name; u_n = n; u_nodes = 0; u_complete = false },
      [
        Finding.make ~rule:"lint/analysis-crashed" ~severity:Finding.Error
          ~algo:algo.name ~n
          (Printf.sprintf "exploration raised: %s" (Printexc.to_string e));
      ] )
  | auto ->
    let findings =
      List.concat_map
        (fun (p : Pass.t) ->
          match p.run auto with
          | fs -> fs
          | exception e ->
            [
              Finding.make
                ~rule:(p.name ^ "/pass-crashed")
                ~severity:Finding.Error ~algo:algo.name ~n
                (Printf.sprintf "pass raised: %s" (Printexc.to_string e));
            ])
        passes
    in
    let extra =
      if auto.complete then []
      else
        [
          Finding.make ~rule:"lint/analysis-incomplete"
            ~severity:Finding.Info ~algo:algo.name ~n
            "exploration hit a node, value or round budget; verdicts that \
             need a complete state space were skipped for this unit";
        ]
    in
    ( {
        u_algo = algo.name;
        u_n = n;
        u_nodes = Automaton.total_nodes auto;
        u_complete = auto.complete;
      },
      findings @ extra )

let run ?(settings = Automaton.default_settings)
    ?(passes = default_passes) ?(sizes = default_sizes) ?jobs ?cancel ~allow
    algos =
  let items =
    List.concat_map
      (fun (algo : Algorithm.t) ->
        List.filter_map
          (fun n ->
            if Algorithm.supports algo n then Some (algo, n) else None)
          sizes)
      algos
  in
  let results =
    Lb_util.Pool.map ?jobs ?cancel
      (fun (algo, n) -> analyze ~settings ~passes algo n)
      items
  in
  let units = List.map fst results in
  let findings =
    results
    |> List.concat_map snd
    |> List.stable_sort Finding.compare
    |> List.map (fun (f : Finding.t) ->
           (f, List.mem f.rule (allow f.algo)))
  in
  { findings; units }

let failures report =
  List.filter_map
    (fun ((f : Finding.t), allowlisted) ->
      if allowlisted || f.severity = Finding.Info then None else Some f)
    report.findings

let clean report = failures report = []

let pp ~verbose ppf report =
  List.iter
    (fun ((f : Finding.t), allowlisted) ->
      Format.fprintf ppf "%a%s@." Finding.pp f
        (if allowlisted then " [expected]" else "");
      if verbose then
        match f.witness with
        | None -> ()
        | Some w -> Format.fprintf ppf "  %a@." Finding.pp_witness w)
    report.findings;
  let count sev =
    List.length
      (List.filter (fun ((f : Finding.t), _) -> f.severity = sev)
         report.findings)
  in
  let allowed =
    List.length (List.filter snd report.findings)
  in
  let nodes =
    List.fold_left (fun acc u -> acc + u.u_nodes) 0 report.units
  in
  let incomplete =
    List.length (List.filter (fun u -> not u.u_complete) report.units)
  in
  Format.fprintf ppf
    "analyzed %d units (%d automaton nodes, %d incomplete): %d errors, %d \
     warnings, %d infos (%d expected)@."
    (List.length report.units)
    nodes incomplete
    (count Finding.Error)
    (count Finding.Warning)
    (count Finding.Info)
    allowed;
  if clean report then Format.fprintf ppf "lint: clean@."
  else
    Format.fprintf ppf "lint: %d unexpected finding(s)@."
      (List.length (failures report))

let to_json report =
  Json.Obj
    [
      ("format_version", Json.Int format_version);
      ("clean", Json.Bool (clean report));
      ( "findings",
        Json.List
          (List.map
             (fun (f, allowlisted) -> Finding.to_json ~allowlisted f)
             report.findings) );
      ( "units",
        Json.List
          (List.map
             (fun u ->
               Json.Obj
                 [
                   ("algo", Json.String u.u_algo);
                   ("n", Json.Int u.u_n);
                   ("nodes", Json.Int u.u_nodes);
                   ("complete", Json.Bool u.u_complete);
                 ])
             report.units) );
    ]
