open Lb_shmem

let acyclic (c : Construct.t) =
  match Poset.topo_sort c.Construct.order (Poset.elements c.Construct.order) with
  | _ -> Ok ()
  | exception Invalid_argument m -> Error m

(* Name the first consecutive pair of [ids] out of ⪯ order. Walking
   consecutive pairs suffices: by transitivity it also shows that the
   whole list is a chain. *)
let first_unordered (c : Construct.t) ids =
  let rec go i =
    if i + 1 >= Array.length ids then None
    else if Poset.leq c.Construct.order ids.(i) ids.(i + 1) then go (i + 1)
    else Some (ids.(i), ids.(i + 1))
  in
  go 0

let write_chains_total (c : Construct.t) =
  let bad = ref None in
  Hashtbl.iter
    (fun reg chain ->
      if !bad = None then
        match first_unordered c chain with
        | None -> ()
        | Some (a, b) ->
          bad :=
            Some (Printf.sprintf "chain on r%d out of ⪯ order at m%d, m%d" reg a b))
    c.Construct.write_chain;
  match !bad with None -> Ok () | Some m -> Error m

let process_chains_total (c : Construct.t) =
  let rec per_proc i =
    if i >= c.Construct.n then Ok ()
    else
      match first_unordered c (Construct.metasteps_of c i) with
      | None -> per_proc (i + 1)
      | Some (a, b) ->
        Error (Printf.sprintf "chain of p%d out of ⪯ order at m%d, m%d" i a b)
  in
  per_proc 0

let metasteps_well_formed (c : Construct.t) =
  let bad = ref None in
  let err m = if !bad = None then bad := Some m in
  Metastep.iter c.Construct.arena (fun m ->
      let id = m.Metastep.id in
      (* no duplicate process *)
      let owners = Metastep.own m in
      if List.length (List.sort_uniq compare owners) <> List.length owners then
        err (Printf.sprintf "m%d: duplicate process" id);
      (match m.Metastep.kind with
      | Metastep.Write_meta ->
        (match m.Metastep.win with
        | None -> err (Printf.sprintf "m%d: write metastep without winner" id)
        | Some w -> (
          match w.Step.action with
          | Step.Write (r, _) when r = m.Metastep.reg -> ()
          | _ -> err (Printf.sprintf "m%d: winner accesses wrong register" id)));
        List.iter
          (fun (s : Step.t) ->
            match s.Step.action with
            | Step.Write (r, _) when r = m.Metastep.reg -> ()
            | _ -> err (Printf.sprintf "m%d: stray write step" id))
          m.Metastep.writes;
        List.iter
          (fun (s : Step.t) ->
            match s.Step.action with
            | Step.Read r when r = m.Metastep.reg -> ()
            | _ -> err (Printf.sprintf "m%d: stray read step" id))
          m.Metastep.reads;
        List.iter
          (fun mu ->
            let mum = Metastep.get c.Construct.arena mu in
            if mum.Metastep.kind <> Metastep.Read_meta then
              err (Printf.sprintf "m%d: preread %d is not a read metastep" id mu);
            if mum.Metastep.pread_of <> Some id then
              err (Printf.sprintf "m%d: preread %d back-reference broken" id mu);
            if not (Poset.leq c.Construct.order mu id) then
              err (Printf.sprintf "m%d: preread %d not ordered before it" id mu))
          m.Metastep.pread
      | Metastep.Read_meta ->
        if List.length m.Metastep.reads <> 1 then
          err (Printf.sprintf "m%d: read metastep is not a singleton" id);
        if m.Metastep.win <> None || m.Metastep.writes <> [] then
          err (Printf.sprintf "m%d: read metastep contains writes" id)
      | Metastep.Crit_meta ->
        if m.Metastep.crit = None || Metastep.size m <> 1 then
          err (Printf.sprintf "m%d: malformed critical metastep" id)));
  match !bad with None -> Ok () | Some m -> Error m

let winner_is_pi_minimal (c : Construct.t) =
  let bad = ref None in
  Metastep.iter c.Construct.arena (fun m ->
      if !bad = None && m.Metastep.kind = Metastep.Write_meta then begin
        let w = Metastep.winner m in
        let min_owner = Permutation.min_by c.Construct.pi (Metastep.own m) in
        if w <> min_owner then
          bad :=
            Some
              (Printf.sprintf "m%d: winner p%d but pi-minimal owner is p%d"
                 m.Metastep.id w min_owner)
      end);
  match !bad with None -> Ok () | Some m -> Error m

let projections_stable ?(samples = 5) ?(seed = 42) (c : Construct.t) =
  let rng = Lb_util.Rng.create seed in
  let n = c.Construct.n in
  let reference = Execution.projections (Linearize.execution c) ~n in
  let rec go k =
    if k >= samples then Ok ()
    else begin
      let exec = Linearize.random_execution rng c in
      match Execution.replay c.Construct.algo ~n exec with
      | exception System.Step_mismatch { who; _ } ->
        Error (Printf.sprintf "sample %d: replay mismatch at p%d" k who)
      | _ ->
        let sample = Execution.projections exec ~n in
        let rec proj i =
          if i >= n then go (k + 1)
          else if List.equal Step.equal sample.(i) reference.(i) then proj (i + 1)
          else Error (Printf.sprintf "sample %d: projection of p%d differs" k i)
        in
        proj 0
    end
  in
  go 0

let cost_invariant ?(samples = 5) ?(seed = 43) (c : Construct.t) =
  let rng = Lb_util.Rng.create seed in
  let algo = c.Construct.algo and n = c.Construct.n in
  let reference = Lb_cost.State_change.cost algo ~n (Linearize.execution c) in
  let rec go k =
    if k >= samples then Ok ()
    else begin
      let cost = Lb_cost.State_change.cost algo ~n (Linearize.random_execution rng c) in
      if cost = reference then go (k + 1)
      else
        Error (Printf.sprintf "sample %d: cost %d <> canonical %d" k cost reference)
    end
  in
  go 0

let enter_order_is_pi (c : Construct.t) =
  let order = Execution.crit_order (Linearize.execution c) in
  if order = Array.to_list (Permutation.to_array c.Construct.pi) then Ok ()
  else
    Error
      (Printf.sprintf "CS order %s <> pi %s"
         (String.concat "," (List.map string_of_int order))
         (Permutation.to_string c.Construct.pi))

(* Walk every prefix of the canonical metastep order (each is a
   down-closed N), maintaining per-register lists of unexecuted write/read
   metasteps, and run [check] on each configuration. *)
let over_prefixes (c : Construct.t) ~check =
  let order = Linearize.metastep_order c in
  let arena = c.Construct.arena in
  (* start with everything unexecuted, in canonical order per register *)
  let unexec_writes : (int, Metastep.id list ref) Hashtbl.t = Hashtbl.create 16 in
  let unexec_reads : (int, Metastep.id list ref) Hashtbl.t = Hashtbl.create 16 in
  let bucket tbl reg =
    match Hashtbl.find_opt tbl reg with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace tbl reg l;
      l
  in
  List.iter
    (fun id ->
      let m = Metastep.get arena id in
      match m.Metastep.kind with
      | Metastep.Write_meta ->
        let b = bucket unexec_writes m.Metastep.reg in
        b := !b @ [ id ]
      | Metastep.Read_meta ->
        let b = bucket unexec_reads m.Metastep.reg in
        b := !b @ [ id ]
      | Metastep.Crit_meta -> ())
    order;
  let executed : (Metastep.id, unit) Hashtbl.t = Hashtbl.create 64 in
  let error = ref None in
  List.iter
    (fun id ->
      if !error = None then begin
        (match check ~executed ~unexec_writes ~unexec_reads with
        | Ok () -> ()
        | Error e -> error := Some e);
        (* execute id: drop it from its bucket *)
        let m = Metastep.get arena id in
        let drop tbl =
          match Hashtbl.find_opt tbl m.Metastep.reg with
          | Some l -> l := List.filter (fun x -> x <> id) !l
          | None -> ()
        in
        Hashtbl.replace executed id ();
        (match m.Metastep.kind with
        | Metastep.Write_meta -> drop unexec_writes
        | Metastep.Read_meta -> drop unexec_reads
        | Metastep.Crit_meta -> ())
      end)
    order;
  match !error with None -> Ok () | Some e -> Error e

let lemma_5_8 (c : Construct.t) =
  let arena = c.Construct.arena in
  over_prefixes c ~check:(fun ~executed ~unexec_writes ~unexec_reads:_ ->
      (* decode-reachable instances: process i's next metastep (the first
         unexecuted one on its chain) is a write metastep where i writes;
         then it must be the globally first unexecuted write metastep on
         its register *)
      let err = ref None in
      for i = 0 to c.Construct.n - 1 do
        match
          Array.find_opt
            (fun id -> not (Hashtbl.mem executed id))
            (Construct.metasteps_of c i)
        with
        | None -> ()
        | Some m_next -> (
          let m = Metastep.get arena m_next in
          if m.Metastep.kind = Metastep.Write_meta then
            match (Metastep.step_of m i).Lb_shmem.Step.action with
            | Lb_shmem.Step.Write _ -> (
              match Hashtbl.find_opt unexec_writes m.Metastep.reg with
              | Some { contents = front :: _ } when front <> m_next ->
                if !err = None then
                  err :=
                    Some
                      (Printf.sprintf
                         "Lemma 5.8: p%d's next metastep m%d is not the \
                          front write m%d on r%d"
                         i m_next front m.Metastep.reg)
              | Some _ | None -> ())
            | Lb_shmem.Step.Read _ | Lb_shmem.Step.Rmw _
            | Lb_shmem.Step.Crit _ -> ())
      done;
      match !err with None -> Ok () | Some e -> Error e)

let lemma_5_10 (c : Construct.t) =
  let arena = c.Construct.arena in
  over_prefixes c ~check:(fun ~executed ~unexec_writes ~unexec_reads:_ ->
      (* decode-reachable instances: process i's next metastep is a read
         metastep marked as a preread; if unexecuted writes remain on its
         register, the preread's target must be the front one (otherwise
         the decoder's preread count would credit the wrong metastep) *)
      let err = ref None in
      for i = 0 to c.Construct.n - 1 do
        match
          Array.find_opt
            (fun id -> not (Hashtbl.mem executed id))
            (Construct.metasteps_of c i)
        with
        | None -> ()
        | Some m_next -> (
          let m = Metastep.get arena m_next in
          if m.Metastep.kind = Metastep.Read_meta then
            match m.Metastep.pread_of with
            | None -> ()
            | Some target -> (
              match Hashtbl.find_opt unexec_writes m.Metastep.reg with
              | Some { contents = front :: _ } when front <> target ->
                if !err = None then
                  err :=
                    Some
                      (Printf.sprintf
                         "Lemma 5.10: preread m%d of p%d targets m%d but \
                          the front write on r%d is m%d"
                         m_next i target m.Metastep.reg front)
              | Some _ | None -> ()))
      done;
      match !err with None -> Ok () | Some e -> Error e)

let structural =
  [
    ("acyclic (Lemma 5.2)", acyclic);
    ("write chains total (Lemma 5.3)", write_chains_total);
    ("process chains total", process_chains_total);
    ("metasteps well-formed (Def 5.1)", metasteps_well_formed);
    ("winner pi-minimal (Lemma 5.8)", winner_is_pi_minimal);
  ]

let all ?samples ?seed c =
  List.map (fun (label, check) -> (label, check c)) structural
  @ [
      ("projections stable (Lemma 5.4)", projections_stable ?samples ?seed c);
      ("cost invariant (Lemma 6.1)", cost_invariant ?samples ?seed c);
      ("enter order = pi (Theorem 5.5)", enter_order_is_pi c);
    ]

let exit_status results =
  if List.for_all (fun (_, r) -> Result.is_ok r) results then 0 else 1
