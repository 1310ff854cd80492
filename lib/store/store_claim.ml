let default_ttl = 30.0

type t = { c_dir : string }

let claims_root st = Filename.concat (Store.dir st) "claims"

let open_ st ~sweep_id =
  let dir = Filename.concat (claims_root st) sweep_id in
  Lb_util.Fsio.mkdir_p dir;
  { c_dir = dir }

(* Not created here: the first take creates it (see [create_excl]), so
   a read-only probe leaves a store without a locks directory as is. *)
let locks st = { c_dir = Filename.concat (Store.dir st) "locks" }

let dir t = t.c_dir

type claim = {
  cl_t : t;
  cl_key : string;
  cl_epoch : int;
  mutable cl_live : bool;
}

let key c = c.cl_key
let epoch c = c.cl_epoch

type slot =
  | Free
  | Held of { epoch : int; age : float }
  | Released of { epoch : int }

let claim_path t ~key ~epoch =
  Filename.concat t.c_dir (Printf.sprintf "%s.%d.claim" key epoch)

let quit_path t ~key ~epoch =
  Filename.concat t.c_dir (Printf.sprintf "%s.%d.quit" key epoch)

let failed_path t ~key = Filename.concat t.c_dir (key ^ ".failed")

(* [<key>.<epoch>.claim|quit] -> (key, epoch, is_claim). Anything
   else in the directory — .failed records, torn temp files, fuzz
   debris, an older binary's [epoch] file or [readers/] directory —
   parses to None and is ignored by the protocol. Which keys count is
   the caller's business: a sweep's keys are store keys, the writer
   lease's is [writer]. *)
let parse_name name =
  match String.split_on_char '.' name with
  | [ key; e; kind ] when key <> "" -> (
    match (int_of_string_opt e, kind) with
    | Some e, "claim" when e >= 1 -> Some (key, e, true)
    | Some e, "quit" when e >= 1 -> Some (key, e, false)
    | _ -> None)
  | _ -> None

(* mtime distance from now, in either direction: a file stamped in the
   future (skewed writer, rsync'd store) must age out like any other,
   or it would hold its claim forever. [None] when the file is gone. *)
let age_of path =
  match Unix.stat path with
  | st -> Some (abs_float (Unix.gettimeofday () -. st.Unix.st_mtime))
  | exception Unix.Unix_error _ -> None

(* Each key's highest (epoch, is_claim) among the names [keep] accepts,
   and the keys [keep] accepts that have a [.failed] record. Both files
   at one epoch (release raced a fuzzer's duplicate): the .claim is the
   conservative read. *)
let scan t ~keep =
  let table = Hashtbl.create 64 and failed = Hashtbl.create 8 in
  (match Sys.readdir t.c_dir with
  | names ->
    Array.iter
      (fun name ->
        match parse_name name with
        | Some (key, e, is_claim) when keep key -> (
          match Hashtbl.find_opt table key with
          | Some (e', was_claim)
            when e' > e || (e' = e && (was_claim || not is_claim)) ->
            ()
          | Some _ | None -> Hashtbl.replace table key (e, is_claim))
        | Some _ -> ()
        | None -> (
          match Filename.chop_suffix_opt ~suffix:".failed" name with
          | Some key when keep key -> Hashtbl.replace failed key ()
          | Some _ | None -> ()))
      names
  | exception Sys_error _ -> ());
  (table, failed)

(* The stat comes after the readdir, so a claim file can vanish between
   the two: its holder released it (renamed it to .quit) or a stealer
   swept it as debris. Either way the epoch is no longer held, and
   reading it as an expired hold would steal a key nobody holds. *)
let slot_of t ~key (e, is_claim) =
  if is_claim then
    match age_of (claim_path t ~key ~epoch:e) with
    | Some age -> Held { epoch = e; age }
    | None -> Released { epoch = e }
  else Released { epoch = e }

type snapshot = {
  slots : (string, slot) Hashtbl.t;
  failed : (string, unit) Hashtbl.t;
}

let snapshot t =
  let table, failed = scan t ~keep:Store_key.is_key in
  let slots = Hashtbl.create (Hashtbl.length table) in
  Hashtbl.iter (fun key top -> Hashtbl.replace slots key (slot_of t ~key top)) table;
  { slots; failed }

let probe_slot t ~key =
  match Hashtbl.find_opt (fst (scan t ~keep:(String.equal key))) key with
  | Some top -> slot_of t ~key top
  | None -> Free

(* ------------------------------ holder body --------------------------- *)

type held = {
  h_pid : int;
  h_host : string;
  h_purpose : string;
  h_since : float;
}

let host = Unix.gethostname ()

let holder_body ~purpose =
  Printf.sprintf "pid %d\nhost %s\npurpose %s\nsince %.3f\n" (Unix.getpid ())
    host purpose (Unix.gettimeofday ())

let body_field body name =
  let p = String.length name + 1 in
  List.find_map
    (fun l ->
      if String.length l > p && String.starts_with ~prefix:(name ^ " ") l then
        Some (String.sub l p (String.length l - p))
      else None)
    (String.split_on_char '\n' body)

let parse_holder body =
  let field = body_field body in
  match (field "pid", field "host", field "purpose", field "since") with
  | Some pid, Some h, Some purpose, Some since -> (
    match (int_of_string_opt pid, float_of_string_opt since) with
    | Some pid, Some since ->
      Some { h_pid = pid; h_host = h; h_purpose = purpose; h_since = since }
    | _ -> None)
  | _ -> None

let holder t ~key ~epoch =
  match Lb_util.Fsio.read ~path:(claim_path t ~key ~epoch) () with
  | body -> parse_holder body
  | exception Sys_error _ -> None

(* -------------------------------- take -------------------------------- *)

(* After taking epoch [below], remove the key's older claim and quit
   files. The readdir bounds the work by what is on disk: an epoch that
   grows by one per take (the writer lease's) would otherwise cost a
   loop over its whole history. *)
let sweep_lower_debris t ~key ~below =
  if below > 1 then
    match Sys.readdir t.c_dir with
    | names ->
      Array.iter
        (fun name ->
          match parse_name name with
          | Some (k, e, _) when k = key && e < below -> (
            try Sys.remove (Filename.concat t.c_dir name) with Sys_error _ -> ())
          | Some _ | None -> ())
        names
    | exception Sys_error _ -> ()

let create_excl path body =
  let create () =
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> ignore (Unix.write_substring fd body 0 (String.length body)))
  in
  match create () with
  | () -> true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> (
    (* directory scrubbed under us (or never made) — create it and retry
       once *)
    Lb_util.Fsio.mkdir_p (Filename.dirname path);
    match create () with () -> true | exception Unix.Unix_error _ -> false)

let take t ~key ~purpose ~slot ~stale =
  let target_epoch =
    match slot with
    | Free -> Some 1
    | Released { epoch } -> Some (epoch + 1)
    | Held { epoch; age } -> if stale ~epoch ~age then Some (epoch + 1) else None
  in
  match target_epoch with
  | None -> None
  | Some e ->
    if create_excl (claim_path t ~key ~epoch:e) (holder_body ~purpose) then begin
      sweep_lower_debris t ~key ~below:e;
      Some { cl_t = t; cl_key = key; cl_epoch = e; cl_live = true }
    end
    else None

let try_claim ?slot t ~key ~ttl =
  if ttl <= 0.0 then invalid_arg "Store_claim.try_claim: ttl must be positive";
  let slot = match slot with Some s -> s | None -> probe_slot t ~key in
  take t ~key ~purpose:"work" ~slot ~stale:(fun ~epoch:_ ~age -> age > ttl)

let refresh c =
  c.cl_live
  &&
  let path = claim_path c.cl_t ~key:c.cl_key ~epoch:c.cl_epoch in
  (* utimes with 0.0 0.0 stamps the current time — the filesystem's
     clock, shared by every worker on the store. ENOENT means a stealer
     fenced us out. *)
  match Unix.utimes path 0.0 0.0 with
  | () -> true
  | exception Unix.Unix_error _ -> false

let release c =
  if c.cl_live then begin
    c.cl_live <- false;
    let from = claim_path c.cl_t ~key:c.cl_key ~epoch:c.cl_epoch in
    let into = quit_path c.cl_t ~key:c.cl_key ~epoch:c.cl_epoch in
    try Sys.rename from into with Sys_error _ -> ()
  end

let abandon = release

(* Link-from-temp publish: the target name appears atomically with its
   complete content (no torn .failed is ever observable), and link(2)
   fails with EEXIST for every publisher but the first. *)
let publish_failure t ~key ~message =
  let target = failed_path t ~key in
  let tmp =
    Filename.concat t.c_dir
      (Printf.sprintf ".failed.tmp.%d.%s" (Unix.getpid ()) key)
  in
  let write_tmp () =
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc message)
  in
  (try write_tmp ()
   with Sys_error _ ->
     Lb_util.Fsio.mkdir_p t.c_dir;
     write_tmp ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      match Unix.link tmp target with
      | () -> true
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false)

let failure t ~key =
  match Lb_util.Fsio.read ~path:(failed_path t ~key) () with
  | s -> Some s
  | exception Sys_error _ -> None

let live_claims st ~ttl =
  let root = claims_root st in
  let sweeps =
    match Sys.readdir root with
    | names -> Array.to_list names |> List.sort compare
    | exception Sys_error _ -> []
  in
  List.concat_map
    (fun sweep_id ->
      let dir = Filename.concat root sweep_id in
      match Sys.readdir dir with
      | names ->
        Array.to_list names
        |> List.filter_map (fun name ->
               match parse_name name with
               | Some (key, _e, true) when Store_key.is_key key -> (
                 match age_of (Filename.concat dir name) with
                 | Some age when age <= ttl -> Some (sweep_id, key)
                 | Some _ | None -> None)
               | Some _ | None -> None)
        |> List.sort_uniq compare
      | exception Sys_error _ -> [])
    sweeps
