open Lb_shmem

type settings = {
  max_nodes : int;
  max_values : int;
  max_rounds : int;
  collision_depth : int;
  max_collision_checks : int;
}

let default_settings =
  {
    max_nodes = 4000;
    max_values = 64;
    max_rounds = 12;
    collision_depth = 2;
    max_collision_checks = 16;
  }

type node = {
  id : int;
  repr : string;
  proc : Proc.t;
  pending : Step.action;
  mutable edges : (Step.response * int) list;
  parent : (int * Step.response) option;
}

type proc_auto = { me : int; nodes : node array; truncated : bool }

type collision = {
  c_proc : int;
  c_repr : string;
  c_node : int;
  c_via : int * Step.response;
  c_responses : Step.response list;
  c_detail : string;
}

type write_obs = {
  w_proc : int;
  w_node : int;
  w_value : Step.value;
  w_via : Step.action;
}

type t = {
  algo : Algorithm.t;
  n : int;
  specs : Register.spec array;
  autos : proc_auto array;
  responses : Step.value list array;
  writes : write_obs list array;
  reads : (int * int) list array;
  oob : (int * int * Step.action) list;
  rmw_nodes : (int * int) list;
  partial : (int * int * Step.response * string) list;
  collisions : collision list;
  complete : bool;
}

(* Minimal growable array (Dynarray is OCaml >= 5.2). *)
module Vec = struct
  type 'a t = { mutable arr : 'a array; mutable len : int }

  let create () = { arr = [||]; len = 0 }

  let push v x =
    (if v.len = Array.length v.arr then
       let cap = max 8 (2 * Array.length v.arr) in
       let arr = Array.make cap x in
       Array.blit v.arr 0 arr 0 v.len;
       v.arr <- arr);
    v.arr.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.arr.(i)
  let to_array v = Array.sub v.arr 0 v.len
end

let responses_for ~nregs ~(snapshot : Step.value list array)
    (action : Step.action) =
  match action with
  | Step.Write _ | Step.Crit _ -> [ Step.Ack ]
  | Step.Read r | Step.Rmw (r, _) ->
    if r < 0 || r >= nregs then []
    else List.map (fun v -> Step.Got v) snapshot.(r)

(* Depth-bounded behavioral comparison of two states sharing a repr: the
   observable behavior of a state is its pending action and, recursively,
   the behavior of its successor under every environment-permitted
   response. Successor reprs are deliberately NOT compared — two distinct
   reprs may legitimately denote behaviorally identical states; only a
   behavioral difference proves the shared repr is a soundness bug. *)
let behavior_diff ~specs ~snapshot ~fuel ~depth (p0 : Proc.t) (q0 : Proc.t) =
  let nregs = Array.length specs in
  let rec diff depth p q =
    if not (Step.equal_action p.Proc.pending q.Proc.pending) then
      Some
        ( [],
          Printf.sprintf "pending %s vs %s"
            (Finding.action_to_string specs p.Proc.pending)
            (Finding.action_to_string specs q.Proc.pending) )
    else if depth <= 0 || !fuel <= 0 then None
    else
      let rec go = function
        | [] -> None
        | resp :: rest -> (
          decr fuel;
          let a =
            try Ok (p.Proc.advance resp)
            with e -> Error (Printexc.to_string e)
          in
          let b =
            try Ok (q.Proc.advance resp)
            with e -> Error (Printexc.to_string e)
          in
          match (a, b) with
          | Error _, Error _ -> go rest
          | Error e, Ok _ | Ok _, Error e ->
            Some
              ( [ resp ],
                Printf.sprintf "advance diverges (one side raised: %s)" e )
          | Ok p', Ok q' -> (
            match diff (depth - 1) p' q' with
            | Some (path, d) -> Some (resp :: path, d)
            | None -> go rest))
      in
      go (responses_for ~nregs ~snapshot p.Proc.pending)
  in
  diff depth p0 q0

type round = {
  r_autos : proc_auto array;
  r_writes : write_obs list array;
  r_reads : (int * int) list array;
  r_oob : (int * int * Step.action) list;
  r_rmw : (int * int) list;
  r_partial : (int * int * Step.response * string) list;
  r_colls : collision list;
  r_truncated : bool;
}

let explore_round ~settings ~specs ~snapshot (algo : Algorithm.t) ~n =
  let nregs = Array.length specs in
  let writes_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let writes = Array.make nregs [] in
  let reads_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let reads = Array.make nregs [] in
  let oob = ref [] in
  let rmw = ref [] in
  let partial = ref [] in
  let colls = ref [] in
  let any_truncated = ref false in
  let record_write ~me ~node ~via r v =
    if not (Hashtbl.mem writes_seen (r, v)) then begin
      Hashtbl.add writes_seen (r, v) ();
      writes.(r) <-
        { w_proc = me; w_node = node; w_value = v; w_via = via } :: writes.(r)
    end
  in
  let explore_proc me =
    let nodes : node Vec.t = Vec.create () in
    let tbl : (string, int) Hashtbl.t = Hashtbl.create 256 in
    let checks : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let coll_seen : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let fuel = ref 100_000 (* advance-call budget for collision checks *) in
    let truncated = ref false in
    let rmw_recorded = ref false in
    let partial_recorded = ref false in
    let add_node proc repr parent =
      let id = nodes.Vec.len in
      Vec.push nodes
        { id; repr; proc; pending = proc.Proc.pending; edges = []; parent };
      Hashtbl.add tbl repr id;
      id
    in
    let p0 = algo.Algorithm.spawn ~n ~me in
    ignore (add_node p0 (p0.Proc.repr ()) None);
    let i = ref 0 in
    while !i < nodes.Vec.len do
      let node = Vec.get nodes !i in
      (* observations from the node's unique pending action *)
      (match node.pending with
      | Step.Write (r, v) ->
        if r < 0 || r >= nregs then oob := (me, node.id, node.pending) :: !oob
        else record_write ~me ~node:node.id ~via:node.pending r v
      | Step.Rmw (r, op) ->
        if r < 0 || r >= nregs then oob := (me, node.id, node.pending) :: !oob
        else begin
          if not !rmw_recorded then begin
            rmw_recorded := true;
            rmw := (me, node.id) :: !rmw
          end;
          List.iter
            (fun v ->
              record_write ~me ~node:node.id ~via:node.pending r
                (System.rmw_result v op))
            snapshot.(r)
        end
      | Step.Read r ->
        if r < 0 || r >= nregs then oob := (me, node.id, node.pending) :: !oob
        else if not (Hashtbl.mem reads_seen (r, me)) then begin
          Hashtbl.add reads_seen (r, me) ();
          reads.(r) <- (me, node.id) :: reads.(r)
        end
      | Step.Crit _ -> ());
      (* successors under every permitted response *)
      List.iter
        (fun resp ->
          match node.proc.Proc.advance resp with
          | exception e ->
            if not !partial_recorded then begin
              partial_recorded := true;
              partial :=
                (me, node.id, resp, Printexc.to_string e) :: !partial
            end
          | p' -> (
            let repr' = p'.Proc.repr () in
            match Hashtbl.find_opt tbl repr' with
            | Some id' ->
              node.edges <- (resp, id') :: node.edges;
              let done_here =
                Option.value ~default:0 (Hashtbl.find_opt checks node.id)
              in
              if
                done_here < settings.max_collision_checks
                && not (Hashtbl.mem coll_seen repr')
              then begin
                Hashtbl.replace checks node.id (done_here + 1);
                match
                  behavior_diff ~specs ~snapshot ~fuel
                    ~depth:settings.collision_depth p'
                    (Vec.get nodes id').proc
                with
                | None -> ()
                | Some (path, detail) ->
                  Hashtbl.add coll_seen repr' ();
                  colls :=
                    {
                      c_proc = me;
                      c_repr = repr';
                      c_node = id';
                      c_via = (node.id, resp);
                      c_responses = path;
                      c_detail = detail;
                    }
                    :: !colls
              end
            | None ->
              if nodes.Vec.len >= settings.max_nodes then truncated := true
              else
                let id' = add_node p' repr' (Some (node.id, resp)) in
                node.edges <- (resp, id') :: node.edges))
        (responses_for ~nregs ~snapshot node.pending);
      node.edges <- List.rev node.edges;
      incr i
    done;
    if !truncated then any_truncated := true;
    { me; nodes = Vec.to_array nodes; truncated = !truncated }
  in
  let autos = Array.init n explore_proc in
  {
    r_autos = autos;
    r_writes = Array.map List.rev writes;
    r_reads = Array.map List.rev reads;
    r_oob = List.rev !oob;
    r_rmw = List.rev !rmw;
    r_partial = List.rev !partial;
    r_colls = List.rev !colls;
    r_truncated = !any_truncated;
  }

let explore ?(settings = default_settings) (algo : Algorithm.t) ~n =
  let specs = algo.Algorithm.registers ~n in
  let nregs = Array.length specs in
  let values : (Step.value, unit) Hashtbl.t array =
    Array.init nregs (fun _ -> Hashtbl.create 16)
  in
  let values_truncated = ref false in
  let add_value r v =
    if Hashtbl.mem values.(r) v then false
    else if Hashtbl.length values.(r) >= settings.max_values then begin
      values_truncated := true;
      false
    end
    else begin
      Hashtbl.add values.(r) v ();
      true
    end
  in
  Array.iteri
    (fun r spec ->
      ignore (add_value r spec.Register.init);
      match Register.domain_values spec with
      | None -> ()
      | Some vs -> List.iter (fun v -> ignore (add_value r v)) vs)
    specs;
  let snapshot () =
    Array.map
      (fun tbl ->
        List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) tbl []))
      values
  in
  let rec loop round =
    let snap = snapshot () in
    let res = explore_round ~settings ~specs ~snapshot:snap algo ~n in
    let grew = ref false in
    Array.iteri
      (fun r obs ->
        List.iter (fun w -> if add_value r w.w_value then grew := true) obs)
      res.r_writes;
    if (not !grew) || round + 1 >= settings.max_rounds then
      let converged = not !grew in
      {
        algo;
        n;
        specs;
        autos = res.r_autos;
        responses = snap;
        writes = res.r_writes;
        reads = res.r_reads;
        oob = res.r_oob;
        rmw_nodes = res.r_rmw;
        partial = res.r_partial;
        collisions = res.r_colls;
        complete = converged && (not res.r_truncated) && not !values_truncated;
      }
    else loop (round + 1)
  in
  loop 0

let witness_to t ~me id =
  let auto = t.autos.(me) in
  let rec parents id acc =
    match auto.nodes.(id).parent with
    | None -> acc
    | Some (p, resp) -> parents p ((p, resp) :: acc)
  in
  let steps =
    List.map
      (fun (p, resp) ->
        let node = auto.nodes.(p) in
        {
          Finding.repr = node.repr;
          action = Finding.action_to_string t.specs node.pending;
          response = Finding.response_to_string resp;
        })
      (parents id [])
  in
  { Finding.proc = me; steps; target = auto.nodes.(id).repr }

let witness_via t ~me id resp ~target =
  let w = witness_to t ~me id in
  let node = t.autos.(me).nodes.(id) in
  let extra =
    {
      Finding.repr = node.repr;
      action = Finding.action_to_string t.specs node.pending;
      response = Finding.response_to_string resp;
    }
  in
  { w with Finding.steps = w.steps @ [ extra ]; target }

let total_nodes t =
  Array.fold_left (fun acc a -> acc + Array.length a.nodes) 0 t.autos
