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

let read_into ?(max_bytes = default_max_bytes) ~path buf =
  if max_bytes < 1 then invalid_arg "Fsio.read: max_bytes must be >= 1";
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      if len > max_bytes then
        raise
          (Sys_error
             (Printf.sprintf "%s is %d bytes, over the %d-byte limit" path len
                max_bytes));
      let buf = if len <= Bytes.length buf then buf else Bytes.create len in
      really_input ic buf 0 len;
      (buf, len))

(* into an empty buffer: one allocation, of exactly the file's length *)
let read ?max_bytes ~path () =
  Bytes.unsafe_to_string (fst (read_into ?max_bytes ~path Bytes.empty))
