let node_label (c : Construct.t) (m : Metastep.t) =
  let specs =
    c.Construct.algo.Lb_shmem.Algorithm.registers ~n:c.Construct.n
  in
  match m.Metastep.kind with
  | Metastep.Crit_meta -> (
    match m.Metastep.crit with
    | Some s -> Lb_shmem.Step.to_string s
    | None -> "crit?")
  | Metastep.Read_meta ->
    Printf.sprintf "m%d: read %s by {%s}%s" m.Metastep.id
      (Lb_shmem.Register.name specs m.Metastep.reg)
      (String.concat "," (List.map string_of_int (Metastep.own m)))
      (match m.Metastep.pread_of with
      | Some w -> Printf.sprintf " (preread of m%d)" w
      | None -> "")
  | Metastep.Write_meta ->
    Printf.sprintf "m%d: write %s win=p%d %s" m.Metastep.id
      (Lb_shmem.Register.name specs m.Metastep.reg)
      (Metastep.winner m)
      (Format.asprintf "%a" Signature.pp (Signature.of_metastep m))

(* Is there a path a -> b that avoids the direct edge? Then a -> b is not
   a covering edge and we skip it for readability. *)
let covering (order : Poset.t) a b =
  not
    (List.exists
       (fun mid -> mid <> b && Poset.leq order mid b)
       (List.filter (fun mid -> mid <> b) (Poset.succs order a)))

let of_construction (c : Construct.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph metasteps {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  Metastep.iter c.Construct.arena (fun m ->
      let shape =
        match m.Metastep.kind with
        | Metastep.Crit_meta -> "ellipse"
        | Metastep.Read_meta -> "box"
        | Metastep.Write_meta -> "box, style=bold"
      in
      Buffer.add_string buf
        (Printf.sprintf "  m%d [label=\"%s\", shape=%s];\n" m.Metastep.id
           (String.map (fun ch -> if ch = '"' then '\'' else ch) (node_label c m))
           shape));
  Metastep.iter c.Construct.arena (fun m ->
      let a = m.Metastep.id in
      List.iter
        (fun b ->
          if covering c.Construct.order a b then begin
            let dashed =
              let mb = Metastep.get c.Construct.arena b in
              List.mem a mb.Metastep.pread
            in
            Buffer.add_string buf
              (Printf.sprintf "  m%d -> m%d%s;\n" a b
                 (if dashed then " [style=dashed]" else ""))
          end)
        (Poset.succs c.Construct.order a));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let save ~path c = Lb_util.Fsio.write_atomic ~path (of_construction c)
