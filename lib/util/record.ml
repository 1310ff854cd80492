let sum_line payload =
  Printf.sprintf "sum %s\n" (Digest.to_hex (Digest.string payload))

let seal payload = payload ^ sum_line payload

let unseal s =
  let len = String.length s in
  if len = 0 then Error "empty file"
  else if s.[len - 1] <> '\n' then Error "truncated (no final newline)"
  else
    let start =
      match String.rindex_from_opt s (len - 2) '\n' with
      | Some i -> i + 1
      | None -> 0
    in
    match String.split_on_char ' ' (String.sub s start (len - start - 1)) with
    | [ "sum"; hex ] ->
      let payload = String.sub s 0 start in
      if Digest.to_hex (Digest.string payload) = hex then Ok payload
      else Error "checksum mismatch (corrupt file)"
    | _ -> Error "truncated (missing sum line)"

let field key = function
  | line :: rest when String.starts_with ~prefix:(key ^ " ") line ->
    let k = String.length key + 1 in
    Ok (String.sub line k (String.length line - k), rest)
  | line :: _ -> Error (Printf.sprintf "expected `%s ...`, got %S" key line)
  | [] -> Error (Printf.sprintf "missing `%s` field" key)

let int_field key lines =
  match field key lines with
  | Error _ as e -> e
  | Ok (v, rest) -> (
    match int_of_string_opt v with
    | Some i -> Ok (i, rest)
    | None -> Error (Printf.sprintf "bad integer %S in `%s` field" v key))
