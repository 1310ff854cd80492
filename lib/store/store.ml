type entry = {
  e_algo : string;
  e_fp : string;
  e_n : int;
  e_pi : Lb_core.Permutation.t;
  e_model : string;
  e_cost : int;
  e_bits : int;
  e_exec_fp : string;
  e_ebits : bool array option;
}

type t = { root : string }

let magic = "mutexlb-store-entry"
let mkdir_p = Lb_util.Fsio.mkdir_p

let objects_dir t = Filename.concat t.root "objects"
let manifests_dir t = Filename.concat t.root "manifests"

let open_ ~dir =
  let t = { root = dir } in
  mkdir_p (objects_dir t);
  mkdir_p (manifests_dir t);
  t

let dir t = t.root

let key_of_entry e =
  Store_key.derive ~fp:e.e_fp ~algo:e.e_algo ~n:e.e_n ~pi:e.e_pi
    ~model:e.e_model

let shard_dir t ~key = Filename.concat (objects_dir t) (String.sub key 0 2)
let object_path t ~key = Filename.concat (shard_dir t ~key) key

let manifest_path t ~id = Filename.concat (manifests_dir t) (id ^ ".manifest")

let manifest_paths t =
  match Sys.readdir (manifests_dir t) with
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".manifest")
    |> List.sort compare
    |> List.map (Filename.concat (manifests_dir t))
  | exception Sys_error _ -> []

(* --------------------------- serialization --------------------------- *)

let entry_to_string e =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s %d\n" magic Store_key.format_version);
  Buffer.add_string buf (Printf.sprintf "key %s\n" (key_of_entry e));
  Buffer.add_string buf (Printf.sprintf "algo %s\n" e.e_algo);
  Buffer.add_string buf (Printf.sprintf "fp %s\n" e.e_fp);
  Buffer.add_string buf (Printf.sprintf "n %d\n" e.e_n);
  Buffer.add_string buf
    (Printf.sprintf "pi %s\n" (Lb_core.Permutation.to_csv e.e_pi));
  Buffer.add_string buf (Printf.sprintf "model %s\n" e.e_model);
  Buffer.add_string buf (Printf.sprintf "cost %d\n" e.e_cost);
  Buffer.add_string buf (Printf.sprintf "bits %d\n" e.e_bits);
  Buffer.add_string buf (Printf.sprintf "exec %s\n" e.e_exec_fp);
  (match e.e_ebits with
  | None -> ()
  | Some bits ->
    Buffer.add_string buf
      (Printf.sprintf "ebits %d %s\n" (Array.length bits)
         (Lb_bitio.Hex_bits.to_hex bits)));
  Lb_util.Record.seal (Buffer.contents buf)

let entry_of_string ~key s =
  let ( let* ) = Result.bind in
  let field = Lb_util.Record.field and int_field = Lb_util.Record.int_field in
  let* payload = Lb_util.Record.unseal s in
  let lines = String.split_on_char '\n' payload in
  let lines = List.filter (fun l -> l <> "") lines in
  let* () =
    match lines with
    | l :: _ when l = Printf.sprintf "%s %d" magic Store_key.format_version ->
      Ok ()
    | l :: _ when String.length l >= String.length magic
                  && String.sub l 0 (String.length magic) = magic ->
      Error
        (Printf.sprintf "stale format version %S (this build writes %s %d)" l
           magic Store_key.format_version)
    | l :: _ -> Error (Printf.sprintf "bad magic %S" l)
    | [] -> Error "empty entry payload"
  in
  let lines = List.tl lines in
  let* stored_key, lines = field "key" lines in
  let* algo, lines = field "algo" lines in
  let* fp, lines = field "fp" lines in
  let* n, lines = int_field "n" lines in
  let* pi_s, lines = field "pi" lines in
  let* pi = Lb_core.Permutation.of_csv pi_s in
  let* model, lines = field "model" lines in
  let* cost, lines = int_field "cost" lines in
  let* bits, lines = int_field "bits" lines in
  let* exec_fp, lines = field "exec" lines in
  let* ebits =
    match lines with
    | [] -> Ok None
    | _ ->
      let* eb, rest = field "ebits" lines in
      let* () =
        if rest = [] then Ok () else Error "trailing junk after ebits field"
      in
      (match String.split_on_char ' ' eb with
      | [ count; hex ] -> (
        match int_of_string_opt count with
        | Some total ->
          Result.map Option.some (Lb_bitio.Hex_bits.of_hex ~total hex)
        | None -> Error "bad bit count in ebits field")
      | _ -> Error "expected `ebits <count> <hex>`")
  in
  let e =
    {
      e_algo = algo;
      e_fp = fp;
      e_n = n;
      e_pi = pi;
      e_model = model;
      e_cost = cost;
      e_bits = bits;
      e_exec_fp = exec_fp;
      e_ebits = ebits;
    }
  in
  if stored_key <> key then
    Error
      (Printf.sprintf "entry carries key %s but is filed under %s" stored_key
         key)
  else if key_of_entry e <> key then
    Error "key does not match the entry's own fields (not content-addressed)"
  else Ok e

(* ------------------------------ file ops ----------------------------- *)

type lookup = [ `Absent | `Hit of entry | `Damaged of string ]

let lookup t ~key : lookup =
  let path = object_path t ~key in
  if not (Sys.file_exists path) then `Absent
  else
    match Lb_util.Fsio.read ~max_bytes:Lb_util.Fsio.text_max_bytes ~path () with
    | s -> (
      match entry_of_string ~key s with
      | Ok e -> `Hit e
      | Error msg -> `Damaged msg)
    | exception Sys_error msg -> `Damaged ("unreadable: " ^ msg)

let put t e =
  let key = key_of_entry e in
  mkdir_p (shard_dir t ~key);
  Lb_util.Fsio.write_atomic ~path:(object_path t ~key) (entry_to_string e)

let remove t ~key =
  let path = object_path t ~key in
  if Sys.file_exists path then Sys.remove path

let object_keys t =
  match Sys.readdir (objects_dir t) with
  | exception Sys_error _ -> []
  | shards ->
    Array.to_list shards
    |> List.concat_map (fun shard ->
           let d = Filename.concat (objects_dir t) shard in
           if not (Sys.is_directory d) then []
           else
             Array.to_list (Sys.readdir d) |> List.filter Store_key.is_key)
    |> List.sort compare

let fold t ~init ~f =
  List.fold_left
    (fun acc key ->
      let r =
        match lookup t ~key with
        | `Hit e -> Ok e
        | `Damaged msg -> Error msg
        | `Absent -> Error "vanished during fold"
      in
      f acc ~key r)
    init (object_keys t)

type stat = {
  s_entries : int;
  s_damaged : int;
  s_with_trace : int;
  s_bytes : int;
  s_manifests : int;
  s_by_algo : (string * int * int) list;
}

let stat t =
  let by_algo = Hashtbl.create 16 in
  let entries = ref 0 and damaged = ref 0 and with_trace = ref 0 in
  let bytes = ref 0 in
  List.iter
    (fun key ->
      let path = object_path t ~key in
      (try bytes := !bytes + (Unix.stat path).Unix.st_size
       with Unix.Unix_error _ -> ());
      match lookup t ~key with
      | `Hit e ->
        incr entries;
        if e.e_ebits <> None then incr with_trace;
        let k = (e.e_algo, e.e_n) in
        Hashtbl.replace by_algo k
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_algo k))
      | `Damaged _ -> incr damaged
      | `Absent -> ())
    (object_keys t);
  {
    s_entries = !entries;
    s_damaged = !damaged;
    s_with_trace = !with_trace;
    s_bytes = !bytes;
    s_manifests = List.length (manifest_paths t);
    s_by_algo =
      Hashtbl.fold (fun (a, n) c acc -> (a, n, c) :: acc) by_algo []
      |> List.sort compare;
  }
