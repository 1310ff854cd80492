open Lb_shmem

exception Parse_error of { line : int; detail : string }

let fail line detail = raise (Parse_error { line; detail })

(* ------------------------------ actions ------------------------------ *)

let action_to_string (a : Step.action) =
  match a with
  | Step.Read r -> Printf.sprintf "read %d" r
  | Step.Write (r, v) -> Printf.sprintf "write %d %d" r v
  | Step.Rmw (r, Step.Test_and_set) -> Printf.sprintf "tas %d" r
  | Step.Rmw (r, Step.Fetch_add v) -> Printf.sprintf "fadd %d %d" r v
  | Step.Rmw (r, Step.Swap v) -> Printf.sprintf "swap %d %d" r v
  | Step.Rmw (r, Step.Cas { expect; replace }) ->
    Printf.sprintf "cas %d %d %d" r expect replace
  | Step.Crit c -> Step.crit_name c

let action_of_tokens line = function
  | [ "read"; r ] -> Step.Read (int_of_string r)
  | [ "write"; r; v ] -> Step.Write (int_of_string r, int_of_string v)
  | [ "tas"; r ] -> Step.Rmw (int_of_string r, Step.Test_and_set)
  | [ "fadd"; r; v ] -> Step.Rmw (int_of_string r, Step.Fetch_add (int_of_string v))
  | [ "swap"; r; v ] -> Step.Rmw (int_of_string r, Step.Swap (int_of_string v))
  | [ "cas"; r; e; p ] ->
    Step.Rmw
      ( int_of_string r,
        Step.Cas { expect = int_of_string e; replace = int_of_string p } )
  | [ "try" ] -> Step.Crit Step.Try
  | [ "enter" ] -> Step.Crit Step.Enter
  | [ "exit" ] -> Step.Crit Step.Exit
  | [ "rem" ] -> Step.Crit Step.Rem
  | toks -> fail line ("bad action: " ^ String.concat " " toks)

(* ------------------------------ headers ------------------------------ *)

(* Parsers work on [(original line number, content)] pairs: blank lines
   are skipped but numbering always refers to the physical line in the
   input, so an error in a hand-edited file with blank separators points
   at the real line. [eof] is the first line number past the input, used
   when a required line is missing altogether. *)

let numbered_non_empty_lines s =
  let lines = String.split_on_char '\n' s in
  let numbered = List.mapi (fun i l -> (i + 1, l)) lines in
  (List.filter (fun (_, l) -> String.trim l <> "") numbered,
   List.length lines + 1)

let parse_header ~magic lines =
  match lines with
  | (_, first) :: rest when first = magic ^ " 1" -> rest
  | (ln, first) :: _ ->
    fail ln (Printf.sprintf "bad magic %S (want %S 1)" first magic)
  | [] -> fail 1 "empty input"

let parse_meta ~eof lines =
  let algo_of ln line =
    match String.split_on_char ' ' line with
    | [ "algo"; name ] -> name
    | _ -> fail ln "expected `algo <name>`"
  in
  match lines with
  | (ln1, algo_line) :: (ln2, n_line) :: rest -> (
    let name = algo_of ln1 algo_line in
    match String.split_on_char ' ' n_line with
    | [ "n"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> (name, n, rest)
      | Some _ | None -> fail ln2 "bad n")
    | _ -> fail ln2 "expected `n <int>`")
  | [ (ln1, algo_line) ] ->
    ignore (algo_of ln1 algo_line);
    fail eof "missing `n <int>` line"
  | [] -> fail eof "missing `algo <name>` and `n <int>` lines"

(* ----------------------------- executions ---------------------------- *)

let execution_to_string ~algo ~n exec =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "mutexlb-trace 1\n";
  Buffer.add_string buf (Printf.sprintf "algo %s\n" algo);
  Buffer.add_string buf (Printf.sprintf "n %d\n" n);
  Lb_util.Vec.iter
    (fun (s : Step.t) ->
      Buffer.add_string buf
        (Printf.sprintf "step %d %s\n" s.Step.who (action_to_string s.Step.action)))
    exec;
  Buffer.contents buf

let default_max_steps = 1_000_000

let execution_of_string ?(max_steps = default_max_steps) s =
  if max_steps < 1 then
    invalid_arg "Trace_io.execution_of_string: max_steps must be >= 1";
  let lines, eof = numbered_non_empty_lines s in
  let rest = parse_header ~magic:"mutexlb-trace" lines in
  let algo, n, rest = parse_meta ~eof rest in
  let exec = Execution.create () in
  List.iter
    (fun (lineno, line) ->
      match String.split_on_char ' ' line with
      | "step" :: who :: action_tokens -> (
        if Execution.length exec >= max_steps then
          fail lineno
            (Printf.sprintf
               "trace exceeds the %d-step limit (raise ?max_steps to parse \
                bigger traces)"
               max_steps);
        match int_of_string_opt who with
        | Some who when who >= 0 && who < n ->
          Execution.append exec (Step.step who (action_of_tokens lineno action_tokens))
        | Some _ | None -> fail lineno "bad process index")
      | _ -> fail lineno ("expected a step line, got " ^ line))
    rest;
  (algo, n, exec)

(* ------------------------------- bits -------------------------------- *)

let bits_to_string ~algo ~n bits =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "mutexlb-bits 1\n";
  Buffer.add_string buf (Printf.sprintf "algo %s\n" algo);
  Buffer.add_string buf (Printf.sprintf "n %d\n" n);
  Buffer.add_string buf
    (Printf.sprintf "bits %d %s\n" (Array.length bits)
       (Lb_bitio.Hex_bits.to_hex bits));
  Buffer.contents buf

let default_max_bits = 1 lsl 25

let bits_of_string ?(max_bits = default_max_bits) s =
  if max_bits < 1 then
    invalid_arg "Trace_io.bits_of_string: max_bits must be >= 1";
  let lines, eof = numbered_non_empty_lines s in
  let rest = parse_header ~magic:"mutexlb-bits" lines in
  let algo, n, rest = parse_meta ~eof rest in
  match rest with
  | [ (ln, bits_line) ] -> (
    match String.split_on_char ' ' bits_line with
    | [ "bits"; count; hex ] -> (
      match int_of_string_opt count with
      | Some total when total > max_bits ->
        fail ln
          (Printf.sprintf
             "declared %d bits exceeds the %d-bit limit (raise ?max_bits to \
              parse bigger encodings)"
             total max_bits)
      | Some total -> (
        match Lb_bitio.Hex_bits.of_hex ~total hex with
        | Ok bits -> (algo, n, bits)
        | Error detail -> fail ln detail)
      | None -> fail ln "bad bit count")
    | _ -> fail ln "expected `bits <count> <hex>`")
  | [] -> fail eof "expected a `bits <count> <hex>` line"
  | _ :: (ln, _) :: _ -> fail ln "expected exactly one bits line"
