let mkdir_p path =
  let rec go path =
    if not (Sys.file_exists path) then begin
      go (Filename.dirname path);
      try Unix.mkdir path 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
    else if not (Sys.is_directory path) then
      raise (Sys_error (path ^ ": exists and is not a directory"))
  in
  go path

let write_atomic ~path content =
  let tmp =
    try Filename.temp_file ~temp_dir:(Filename.dirname path) ".mutexlb" ".tmp"
    with Sys_error msg ->
      raise (Sys_error (Printf.sprintf "cannot write %s: %s" path msg))
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc content)
  with
  | () -> Sys.rename tmp path
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let default_max_bytes = 256 * 1024 * 1024
let text_max_bytes = 64 * 1024 * 1024

(* Read all of [ic], which this closes, into [buf] if it fits. *)
let read_channel ?(max_bytes = default_max_bytes) ~path ic buf =
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      if max_bytes < 1 then invalid_arg "Fsio.read: max_bytes must be >= 1";
      let len = in_channel_length ic in
      if len > max_bytes then
        raise
          (Sys_error
             (Printf.sprintf "%s is %d bytes, over the %d-byte limit" path len
                max_bytes));
      let buf = if len <= Bytes.length buf then buf else Bytes.create len in
      really_input ic buf 0 len;
      (buf, len))

let read_into ?max_bytes ~path buf =
  read_channel ?max_bytes ~path (open_in_bin path) buf

(* into an empty buffer: one allocation, of exactly the file's length *)
let read ?max_bytes ~path () =
  Bytes.unsafe_to_string (fst (read_into ?max_bytes ~path Bytes.empty))

let read_opt ?max_bytes ~path () =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | fd ->
    let ic = Unix.in_channel_of_descr fd in
    let buf, _ = read_channel ?max_bytes ~path ic Bytes.empty in
    Some (Bytes.unsafe_to_string buf)
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ENOTDIR), _, _) -> None
  | exception Unix.Unix_error (e, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message e))
