type outcome =
  | Done of string
  | Failed of string * string
  | Pending of string

type t = {
  m_algo : string;
  m_fp : string;
  m_n : int;
  m_model : string;
  m_total : int;
  m_outcomes : (Lb_core.Permutation.t * outcome) list;
}

let magic = "mutexlb-manifest"

let to_string m =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s %d\n" magic Store_key.format_version);
  Buffer.add_string buf (Printf.sprintf "algo %s\n" m.m_algo);
  Buffer.add_string buf (Printf.sprintf "fp %s\n" m.m_fp);
  Buffer.add_string buf (Printf.sprintf "n %d\n" m.m_n);
  Buffer.add_string buf (Printf.sprintf "model %s\n" m.m_model);
  Buffer.add_string buf (Printf.sprintf "perms %d\n" m.m_total);
  List.iter
    (fun (pi, o) ->
      let pi = Lb_core.Permutation.to_csv pi in
      Buffer.add_string buf
        (match o with
        | Done key -> Printf.sprintf "done %s %s\n" key pi
        | Pending key -> Printf.sprintf "pending %s %s\n" key pi
        | Failed (key, msg) ->
          (* String.escaped keeps the message on one line *)
          Printf.sprintf "failed %s %s %s\n" key pi (String.escaped msg)))
    m.m_outcomes;
  Buffer.contents buf

let of_string s =
  let ( let* ) = Result.bind in
  let field = Lb_util.Record.field and int_field = Lb_util.Record.int_field in
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  let* () =
    match lines with
    | l :: _ when l = Printf.sprintf "%s %d" magic Store_key.format_version ->
      Ok ()
    | l :: _ -> Error (Printf.sprintf "bad manifest magic %S" l)
    | [] -> Error "empty manifest"
  in
  let lines = List.tl lines in
  let* algo, lines = field "algo" lines in
  let* fp, lines = field "fp" lines in
  let* n, lines = int_field "n" lines in
  let* model, lines = field "model" lines in
  let* total, lines = int_field "perms" lines in
  let* outcomes =
    List.fold_left
      (fun acc l ->
        let* acc = acc in
        match String.split_on_char ' ' l with
        | "done" :: key :: pi :: [] ->
          let* pi = Lb_core.Permutation.of_csv pi in
          Ok ((pi, Done key) :: acc)
        | "pending" :: key :: pi :: [] ->
          let* pi = Lb_core.Permutation.of_csv pi in
          Ok ((pi, Pending key) :: acc)
        | "failed" :: key :: pi :: msg ->
          let* pi = Lb_core.Permutation.of_csv pi in
          let msg = String.concat " " msg in
          let msg = try Scanf.unescaped msg with Scanf.Scan_failure _ -> msg in
          Ok ((pi, Failed (key, msg)) :: acc)
        | _ -> Error (Printf.sprintf "bad manifest line %S" l))
      (Ok []) lines
  in
  Ok
    {
      m_algo = algo;
      m_fp = fp;
      m_n = n;
      m_model = model;
      m_total = total;
      m_outcomes = List.rev outcomes;
    }

let save ~path m = Lb_util.Fsio.write_atomic ~path (to_string m)

let load ~path =
  match Lb_util.Fsio.read ~max_bytes:Lb_util.Fsio.text_max_bytes ~path () with
  | s -> of_string s
  | exception Sys_error msg -> Error ("unreadable: " ^ msg)

let counts m =
  List.fold_left
    (fun (d, f, p) (_, o) ->
      match o with
      | Done _ -> (d + 1, f, p)
      | Failed _ -> (d, f + 1, p)
      | Pending _ -> (d, f, p + 1))
    (0, 0, 0) m.m_outcomes
