open Lb_shmem
module T = Lb_core.Trace_io
module P = Lb_core.Permutation
module Fsio = Lb_util.Fsio

let ya = Lb_algos.Yang_anderson.algorithm

let test_execution_roundtrip () =
  let exec = (Lb_mutex.Canonical.run ya ~n:3).Lb_mutex.Canonical.exec in
  let s = T.execution_to_string ~algo:"yang_anderson" ~n:3 exec in
  let algo, n, exec' = T.execution_of_string s in
  Alcotest.(check string) "algo" "yang_anderson" algo;
  Alcotest.(check int) "n" 3 n;
  Alcotest.(check bool) "steps equal" true (Execution.equal exec exec');
  (* the parsed trace replays cleanly *)
  ignore (Execution.replay ya ~n:3 exec')

let test_execution_rmw_roundtrip () =
  let mcs = Lb_algos.Queue_locks.mcs in
  let exec = (Lb_mutex.Canonical.run_round_robin mcs ~n:3).Lb_mutex.Canonical.exec in
  let s = T.execution_to_string ~algo:"mcs" ~n:3 exec in
  let _, _, exec' = T.execution_of_string s in
  Alcotest.(check bool) "rmw steps survive" true (Execution.equal exec exec')

let test_execution_bad_input () =
  let cases =
    [
      ("", "empty");
      ("garbage 1\nalgo x\nn 2\n", "bad magic");
      ("mutexlb-trace 1\nalgo x\nn 0\n", "bad n");
      ("mutexlb-trace 1\nalgo x\nn 2\nstep 5 try\n", "bad pid");
      ("mutexlb-trace 1\nalgo x\nn 2\nstep 0 fly 1\n", "bad action");
      ("mutexlb-trace 1\nalgo x\nn 2\nnope\n", "bad line");
    ]
  in
  List.iter
    (fun (input, label) ->
      match T.execution_of_string input with
      | _ -> Alcotest.failf "%s accepted" label
      | exception T.Parse_error _ -> ())
    cases

let expect_error_at label input parse expected_line =
  match parse input with
  | _ -> Alcotest.failf "%s accepted" label
  | exception T.Parse_error { line; _ } ->
    Alcotest.(check int) (label ^ " line number") expected_line line

let test_error_line_numbers () =
  (* regression: blank lines used to be filtered before numbering, and
     header errors hardcoded lines 1-4, so errors in files with blank
     separators pointed at the wrong physical line *)
  let e = expect_error_at in
  let exec = T.execution_of_string and bits = T.bits_of_string in
  (* bad step pid on physical line 9 (blank lines at 2, 4, 6, 8) *)
  e "bad pid after blanks"
    "mutexlb-trace 1\n\nalgo x\n\nn 2\n\nstep 0 try\n\nstep 9 try\n" exec 9;
  (* bad action keyword on physical line 5 *)
  e "bad action after blank" "mutexlb-trace 1\nalgo x\nn 2\n\nstep 0 fly\n" exec 5;
  (* bad magic shifted down by leading blank lines *)
  e "bad magic at line 3" "\n\ngarbage 1\nalgo x\nn 2\n" exec 3;
  (* bad n on physical line 5, not hardcoded 3 *)
  e "bad n at line 5" "mutexlb-trace 1\n\nalgo x\n\nn 0\n" exec 5;
  (* malformed algo line reported where it is *)
  e "bad algo at line 2" "mutexlb-trace 1\nalgorithm x\nn 2\n" exec 2;
  (* bits line errors use the physical bits line *)
  e "bad hex at line 6" "mutexlb-bits 1\nalgo x\nn 2\n\n\nbits 8 z0\n" bits 6;
  (* missing lines point just past the end of input *)
  e "missing n" "mutexlb-trace 1\nalgo x\n" exec 4;
  e "missing bits line" "mutexlb-bits 1\nalgo x\nn 2\n" bits 5

let test_blank_lines_accepted () =
  (* blank and whitespace-only lines are still skipped, not errors *)
  let algo, n, exec =
    T.execution_of_string
      "mutexlb-trace 1\n\nalgo x\n   \nn 2\n\nstep 0 try\n\nstep 1 try\n\n"
  in
  Alcotest.(check string) "algo" "x" algo;
  Alcotest.(check int) "n" 2 n;
  Alcotest.(check int) "steps" 2 (Execution.length exec)

let test_bits_padding_canonical () =
  (* 5 bits -> 2 hex digits, 3 padding bits in the final digit. The
     writer zero-fills them; nonzero padding must be rejected or
     distinct strings would decode to the same bits (non-injective). *)
  let ok = "mutexlb-bits 1\nalgo x\nn 2\nbits 5 88\n" in
  let _, _, decoded = T.bits_of_string ok in
  Alcotest.(check bool) "canonical accepted" true
    (decoded = [| true; false; false; false; true |]);
  List.iter
    (fun (input, label) ->
      expect_error_at label input T.bits_of_string 4)
    [
      ("mutexlb-bits 1\nalgo x\nn 2\nbits 5 89\n", "low padding bit set");
      ("mutexlb-bits 1\nalgo x\nn 2\nbits 5 8c\n", "high padding bit set");
      ("mutexlb-bits 1\nalgo x\nn 2\nbits 2 1\n", "two-bit padding set");
    ]

let test_bits_roundtrip () =
  let r = Lb_core.Pipeline.run ya ~n:4 (P.reverse 4) in
  let bits = r.Lb_core.Pipeline.encoding.Lb_core.Encode.bits in
  let s = T.bits_to_string ~algo:"yang_anderson" ~n:4 bits in
  let algo, n, bits' = T.bits_of_string s in
  Alcotest.(check string) "algo" "yang_anderson" algo;
  Alcotest.(check int) "n" 4 n;
  Alcotest.(check bool) "bits equal" true (bits = bits');
  (* and the reloaded bits still decode to the same execution *)
  let decoded = Lb_core.Decode.run_bits ya ~n:4 bits' in
  Alcotest.(check bool) "decodes identically" true
    (Execution.equal decoded r.Lb_core.Pipeline.decoded)

let test_bits_odd_lengths () =
  (* exercise hex padding at every bit count mod 4 *)
  List.iter
    (fun len ->
      let bits = Array.init len (fun i -> i mod 3 = 0) in
      let s = T.bits_to_string ~algo:"x" ~n:1 bits in
      let _, _, bits' = T.bits_of_string s in
      Alcotest.(check bool) (Printf.sprintf "len %d" len) true (bits = bits'))
    [ 0; 1; 2; 3; 4; 5; 7; 8; 9; 15; 16; 17 ]

let test_bits_bad_input () =
  List.iter
    (fun (input, label) ->
      match T.bits_of_string input with
      | _ -> Alcotest.failf "%s accepted" label
      | exception T.Parse_error _ -> ())
    [
      ("mutexlb-bits 1\nalgo x\nn 2\nbits 8 z0\n", "bad hex");
      ("mutexlb-bits 1\nalgo x\nn 2\nbits 8 0\n", "short hex");
      ("mutexlb-bits 1\nalgo x\nn 2\n", "missing bits");
    ]

let test_file_roundtrip () =
  let path = Filename.temp_file "mutexlb" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let exec = (Lb_mutex.Canonical.run ya ~n:2).Lb_mutex.Canonical.exec in
      Fsio.write_atomic ~path (T.execution_to_string ~algo:"yang_anderson" ~n:2 exec);
      let _, _, exec' = T.execution_of_string (Fsio.read ~path ()) in
      Alcotest.(check bool) "file roundtrip" true (Execution.equal exec exec'))

let test_resource_caps () =
  (* a hostile artifact cannot balloon memory: the parsers refuse
     oversized inputs with a Parse_error naming the limit *)
  let big_trace =
    "mutexlb-trace 1\nalgo x\nn 2\n"
    ^ String.concat "" (List.init 10 (fun _ -> "step 0 try\n"))
  in
  (match T.execution_of_string ~max_steps:5 big_trace with
  | _ -> Alcotest.fail "oversized trace accepted"
  | exception T.Parse_error { detail; _ } ->
    Alcotest.(check bool) "names the step limit" true
      (Astring_contains.contains detail "5-step limit"));
  (* the default limit still parses it *)
  ignore (T.execution_of_string big_trace);
  (* declared bit count over the cap is rejected before allocation *)
  (match T.bits_of_string ~max_bits:8 "mutexlb-bits 1\nalgo x\nn 2\nbits 16 abcd\n" with
  | _ -> Alcotest.fail "oversized bits accepted"
  | exception T.Parse_error { detail; _ } ->
    Alcotest.(check bool) "names the bit limit" true
      (Astring_contains.contains detail "8-bit limit"));
  (* an absurd declared count must not OOM even without an explicit cap *)
  (match T.bits_of_string "mutexlb-bits 1\nalgo x\nn 2\nbits 999999999999 00\n" with
  | _ -> Alcotest.fail "absurd bit count accepted"
  | exception T.Parse_error _ -> ());
  (* file-size cap: refused before reading the content in *)
  let path = Filename.temp_file "mutexlb" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fsio.write_atomic ~path "mutexlb-trace 1\nalgo x\nn 2\nstep 0 try\n";
      match Fsio.read ~max_bytes:8 ~path () with
      | _ -> Alcotest.fail "oversized file accepted"
      | exception Sys_error detail ->
        Alcotest.(check bool) "names the byte limit" true
          (Astring_contains.contains detail "8-byte limit"))

let test_save_is_atomic_replace () =
  (* save writes a temp file and renames it into place: overwriting an
     existing artifact leaves the new content, and no temp files stay
     behind in the directory *)
  let dir = Filename.temp_file "mutexlb_dir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "artifact.trace" in
      Fsio.write_atomic ~path "first version\n";
      Fsio.write_atomic ~path "second version\n";
      Alcotest.(check string) "latest content wins" "second version\n"
        (Fsio.read ~path ());
      Alcotest.(check (list string)) "no temp files left" [ "artifact.trace" ]
        (Array.to_list (Sys.readdir dir)))

let execution_roundtrip_prop =
  QCheck.Test.make ~name:"trace roundtrip on random canonical runs" ~count:30
    QCheck.(pair (int_range 1 6) (int_range 0 1000))
    (fun (n, seed) ->
      let exec = (Lb_mutex.Canonical.run_random ~seed ya ~n).Lb_mutex.Canonical.exec in
      let s = T.execution_to_string ~algo:"ya" ~n exec in
      let _, _, exec' = T.execution_of_string s in
      Execution.equal exec exec')

let suite =
  [
    Alcotest.test_case "execution roundtrip" `Quick test_execution_roundtrip;
    Alcotest.test_case "rmw roundtrip" `Quick test_execution_rmw_roundtrip;
    Alcotest.test_case "execution bad input" `Quick test_execution_bad_input;
    Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
    Alcotest.test_case "blank lines accepted" `Quick test_blank_lines_accepted;
    Alcotest.test_case "bits padding canonical" `Quick test_bits_padding_canonical;
    Alcotest.test_case "resource caps" `Quick test_resource_caps;
    Alcotest.test_case "save atomic replace" `Quick test_save_is_atomic_replace;
    Alcotest.test_case "bits roundtrip" `Quick test_bits_roundtrip;
    Alcotest.test_case "bits odd lengths" `Quick test_bits_odd_lengths;
    Alcotest.test_case "bits bad input" `Quick test_bits_bad_input;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    QCheck_alcotest.to_alcotest execution_roundtrip_prop;
  ]

(* ------------------------------- Dot --------------------------------- *)

let test_dot_export () =
  let c = Lb_core.Construct.run ya ~n:3 (P.of_array [| 1; 2; 0 |]) in
  let dot = Lb_core.Dot.of_construction c in
  Alcotest.(check bool) "header" true (Astring_contains.contains dot "digraph metasteps");
  (* one node line per metastep *)
  let nodes =
    List.length
      (List.filter
         (fun l -> Astring_contains.contains l "label=")
         (String.split_on_char '\n' dot))
  in
  Alcotest.(check int) "one node per metastep"
    (Lb_core.Metastep.count c.Lb_core.Construct.arena)
    nodes;
  (* covering edges only: strictly fewer than all poset edges, and the
     transitive closure must be preserved -- spot-check that every process
     chain is still connected in sequence *)
  Alcotest.(check bool) "has edges" true (Astring_contains.contains dot "->");
  (* dashed preread edges appear iff prereads exist *)
  let has_pread = ref false in
  Lb_core.Metastep.iter c.Lb_core.Construct.arena (fun m ->
      if m.Lb_core.Metastep.pread <> [] then has_pread := true);
  if !has_pread then
    Alcotest.(check bool) "dashed edges" true
      (Astring_contains.contains dot "style=dashed")

let test_dot_save () =
  let path = Filename.temp_file "mutexlb" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let c = Lb_core.Construct.run ya ~n:2 (P.identity 2) in
      Lb_core.Dot.save ~path c;
      Alcotest.(check bool) "file written" true
        (Astring_contains.contains (Fsio.read ~path ()) "digraph"))

let suite =
  suite
  @ [
      Alcotest.test_case "dot export" `Quick test_dot_export;
      Alcotest.test_case "dot save" `Quick test_dot_save;
    ]
