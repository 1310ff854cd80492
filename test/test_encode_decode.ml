open Lb_shmem
module C = Lb_core.Construct
module P = Lb_core.Permutation
module E = Lb_core.Encode
module D = Lb_core.Decode
module S = Lb_core.Signature
module L = Lb_core.Linearize

let ya = Lb_algos.Yang_anderson.algorithm
let bakery = Lb_algos.Bakery.algorithm

(* ----------------------------- Signature ----------------------------- *)

let test_signature_of_metastep () =
  let a = Lb_core.Metastep.create_arena () in
  let m = Lb_core.Metastep.new_write a ~reg:0 ~win:(Step.step 0 (Step.Write (0, 1))) in
  Lb_core.Metastep.add_write_step m (Step.step 1 (Step.Write (0, 2)));
  Lb_core.Metastep.add_read_step m (Step.step 2 (Step.Read 0));
  let s = S.of_metastep m in
  Alcotest.(check int) "writes incl winner" 2 s.S.writes;
  Alcotest.(check int) "reads" 1 s.S.reads;
  Alcotest.(check int) "prereads" 0 s.S.prereads;
  Alcotest.(check string) "paper notation" "PR0R1W2" (Format.asprintf "%a" S.pp s)

let test_signature_bits_positive () =
  List.iter
    (fun (pr, r, w) ->
      let s = { S.prereads = pr; reads = r; writes = w } in
      Alcotest.(check bool) "bits > 0" true (S.encoded_bits s > 0))
    [ (0, 0, 1); (3, 5, 2); (10, 100, 7) ]

(* ------------------------------ Encode ------------------------------- *)

let encode_of algo n pi =
  let c = C.run algo ~n pi in
  (c, E.encode c)

let test_cells_shape () =
  let c, e = encode_of ya 3 (P.identity 3) in
  Alcotest.(check int) "n columns" 3 (Array.length e.E.cells);
  Array.iteri
    (fun i column ->
      Alcotest.(check int)
        (Printf.sprintf "column %d length = chain length" i)
        (Array.length (C.metasteps_of c i))
        (Array.length column))
    e.E.cells

let test_cell_types_align () =
  (* every process's first cell is the try metastep: C; last is rem: C *)
  let _, e = encode_of bakery 3 (P.reverse 3) in
  Array.iter
    (fun column ->
      Alcotest.(check string) "first cell C" "C" (E.cell_to_string column.(0));
      Alcotest.(check string) "last cell C" "C"
        (E.cell_to_string column.(Array.length column - 1)))
    e.E.cells

let test_exactly_one_wsig_per_write_metastep () =
  let c, e = encode_of bakery 4 (P.identity 4) in
  let wsig = ref 0 and wm = ref 0 in
  Array.iter
    (Array.iter (function E.Cell_wsig _ -> incr wsig | _ -> ()))
    e.E.cells;
  Lb_core.Metastep.iter c.C.arena (fun m ->
      if m.Lb_core.Metastep.kind = Lb_core.Metastep.Write_meta then incr wm);
  Alcotest.(check int) "one signature per write metastep" !wm !wsig

let test_parse_roundtrip () =
  List.iter
    (fun pi ->
      let _, e = encode_of ya 4 pi in
      let cells = E.parse ~n:4 e.E.bits in
      Alcotest.(check bool) "cells roundtrip" true (cells = e.E.cells))
    (P.all 4)

let test_parse_garbage () =
  (* tag 7 is invalid *)
  match E.parse ~n:1 [| true; true; true |] with
  | _ -> Alcotest.fail "garbage parsed"
  | exception Invalid_argument _ -> ()

let test_ascii_form () =
  let _, e = encode_of ya 2 (P.identity 2) in
  let ascii = E.to_ascii e in
  Alcotest.(check bool) "has separators" true (Astring_contains.contains ascii "#");
  Alcotest.(check int) "two column terminators" 2
    (String.fold_left (fun acc ch -> if ch = '$' then acc + 1 else acc) 0 ascii);
  Alcotest.(check bool) "has signature" true (Astring_contains.contains ascii "W,PR")

let test_stats () =
  let c, e = encode_of bakery 3 (P.identity 3) in
  let st = E.stats c e in
  Alcotest.(check int) "total bits" (E.length_bits e) st.E.total_bits;
  Alcotest.(check bool) "some crit cells" true (st.E.crit_cells = 3 * 4);
  let cell_total =
    st.E.crit_cells + st.E.sr_cells + st.E.pr_cells + st.E.r_cells
    + st.E.w_cells + st.E.wsig_cells
  in
  let expected =
    Array.fold_left (fun acc col -> acc + Array.length col) 0 e.E.cells
  in
  Alcotest.(check int) "cells partitioned" expected cell_total

let test_encoding_linear_in_cost () =
  (* Theorem 6.2: |E_pi| <= c * C(alpha_pi); measure the constant over a
     family and require it bounded (it is ~7 bits/unit in practice) *)
  let worst = ref 0.0 in
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun n ->
          List.iter
            (fun pi ->
              let c = C.run algo ~n pi in
              let e = E.encode c in
              let cost =
                Lb_cost.State_change.cost algo ~n (L.execution c)
              in
              worst := Float.max !worst (float_of_int (E.length_bits e) /. float_of_int cost))
            [ P.identity n; P.reverse n ])
        [ 2; 4; 8; 16 ])
    [ ya; bakery ];
  Alcotest.(check bool) "bits/cost bounded by 12" true (!worst < 12.0)

(* ------------------------------ Decode ------------------------------- *)

let test_decode_equals_linearization () =
  List.iter
    (fun pi ->
      let c, e = encode_of ya 4 pi in
      let decoded = Execution.projections (D.run_bits ya ~n:4 e.E.bits) ~n:4 in
      let canonical = Execution.projections (L.execution c) ~n:4 in
      (* same per-process projections (Theorem 7.4: both linearize (M,⪯)) *)
      for i = 0 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "projection p%d" i)
          true
          (List.equal Step.equal decoded.(i) canonical.(i))
      done)
    (P.all 4)

let test_decode_does_not_know_pi () =
  (* decoding uses only bits: two different permutations give different
     decoded executions *)
  let _, e1 = encode_of ya 3 (P.identity 3) in
  let _, e2 = encode_of ya 3 (P.reverse 3) in
  let d1 = D.run_bits ya ~n:3 e1.E.bits in
  let d2 = D.run_bits ya ~n:3 e2.E.bits in
  Alcotest.(check bool) "different decodes" false (Execution.equal d1 d2);
  Alcotest.(check (list int)) "d1 order" [ 0; 1; 2 ] (Execution.crit_order d1);
  Alcotest.(check (list int)) "d2 order" [ 2; 1; 0 ] (Execution.crit_order d2)

let test_decode_injective_s4 () =
  let decodes =
    List.map
      (fun pi ->
        let _, e = encode_of ya 4 pi in
        Execution.fingerprint (D.run_bits ya ~n:4 e.E.bits))
      (P.all 4)
  in
  Alcotest.(check int) "24 distinct decodes" 24
    (List.length (List.sort_uniq compare decodes))

let test_decode_valid_execution () =
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun pi ->
          let _, e = encode_of algo 3 pi in
          let d = D.run_bits algo ~n:3 e.E.bits in
          ignore (Execution.replay algo ~n:3 d);
          match Lb_mutex.Checker.check ~n:3 d with
          | Ok () -> ()
          | Error v -> Alcotest.fail (Lb_mutex.Checker.violation_to_string v))
        (P.all 3))
    [ ya; bakery; Lb_algos.Filter.algorithm ]

let test_decode_rejects_truncated () =
  let _, e = encode_of ya 2 (P.identity 2) in
  let truncated = Array.sub e.E.bits 0 (Array.length e.E.bits - 4) in
  match D.run_bits ya ~n:2 truncated with
  | _ -> Alcotest.fail "truncated input decoded"
  | exception D.Decode_error _ -> ()

let test_decode_rejects_wrong_algo () =
  (* an encoding for bakery fed to the YA decoder must fail loudly *)
  let _, e = encode_of bakery 3 (P.identity 3) in
  match D.run_bits ya ~n:3 e.E.bits with
  | _ -> Alcotest.fail "cross-algorithm decode succeeded"
  | exception D.Decode_error _ -> ()

let bit_flip_robustness =
  (* corrupting any single bit of E_pi must be detected: the decoder either
     raises, or its output fails to be the original linearization *)
  QCheck.Test.make ~name:"decoder detects single-bit corruption" ~count:80
    QCheck.(pair (int_range 1 5) (int_range 0 10_000))
    (fun (n, salt) ->
      let pi = P.random (Lb_util.Rng.create salt) n in
      let c, e = encode_of ya n pi in
      let original = L.execution c in
      let bits = Array.copy e.E.bits in
      let pos = salt mod Array.length bits in
      bits.(pos) <- not bits.(pos);
      match D.run_bits ya ~n bits with
      | exception D.Decode_error _ -> true
      | decoded ->
        (* decoding "succeeded": it must not reproduce alpha_pi *)
        not
          (Array.for_all2 (List.equal Step.equal)
             (Execution.projections decoded ~n)
             (Execution.projections original ~n)))

let test_ascii_roundtrip () =
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun pi ->
          let _, e = encode_of algo 4 pi in
          let cells = E.of_ascii (E.to_ascii e) in
          Alcotest.(check bool) "ascii roundtrip" true (cells = e.E.cells);
          (* the ASCII form is decodable, not just printable *)
          let d = D.run algo ~n:4 cells in
          Alcotest.(check (list int)) "decodes to pi"
            (Array.to_list (P.to_array pi))
            (Execution.crit_order d))
        [ P.identity 4; P.reverse 4 ])
    [ ya; bakery ]

let test_ascii_rejects_garbage () =
  List.iter
    (fun s ->
      match E.of_ascii s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Invalid_argument _ -> ())
    [ "C#"; "C$"; "X#$"; "W,PR1R2#$"; "C#W,PRxRyWz#$" ]

let scan_order_invariance =
  (* the decoder's output projections are invariant under the order in
     which the main loop polls processes (the nondeterminism Lemma 7.2
     tolerates) *)
  QCheck.Test.make ~name:"decode invariant under scan order" ~count:40
    QCheck.(pair (int_range 2 6) (int_range 0 100_000))
    (fun (n, salt) ->
      let pi = P.random (Lb_util.Rng.create salt) n in
      let _, e = encode_of ya n pi in
      let reference = D.run ya ~n e.E.cells in
      let scan = P.to_array (P.random (Lb_util.Rng.create (salt + 1)) n) in
      let other = D.run ~scan_order:scan ya ~n e.E.cells in
      Array.for_all2 (List.equal Step.equal)
        (Execution.projections reference ~n)
        (Execution.projections other ~n))

(* Decode's output, pinned. The firing order fixes the decoded execution
   and with it the fingerprint certificates and store entries record.
   These values are the oracle for that order: they were generated by
   the earlier decoder, which walked a [Hashtbl], and must never change.
   Each fixture is
   (algorithm, n, seed): pi is drawn from [seed], and eight single-bit
   flips of E_pi from [seed + 1]. A flipped input pins its outcome: the
   fingerprint, or the Decode_error with its detail and cells consumed
   (0 for bits that do not parse). *)
let decode_digests =
  [
    ( ("yang_anderson", 16, 1),
      "a7df62cab0d3e461d2752a0fd6886cd4",
      "705448d54e4332642eb5fb63c9908ebd",
      [
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: trailing bits)";
        "Decode_error(56, p14: cell expects a write but pending is read(r43))";
        "Decode_error(0, Encode.parse: bad tag 7)";
      ] );
    ( ("yang_anderson", 32, 2),
      "6b705e0a73ce76247aed809e6663d35c",
      "2b5bf49b726529125653f4c6660a6f10",
      [
        "Decode_error(675, no progress (waiting=0,4,10,11,13,14,15,18,19,20,21,22,25,26,27,28))";
        "Decode_error(438, no progress (waiting=0,4,6,10,11,12,13,14,15,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31))";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(302, no progress (waiting=0,1,2,3,4,5,6,8,10,11,12,13,14,15,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31))";
        "Decode_error(0, Encode.parse: trailing bits)";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(773, no progress (waiting=0,4,10,11,13,15,18,19,20,21,25,27,28))";
        "Decode_error(810, no progress (waiting=0,10,11,13,15,18,19,20,21,25,27))";
      ] );
    ( ("bakery", 12, 3),
      "0829e866acffef72e2e5693acd67a7f6",
      "39863b767c7172778aa4a39873567e51",
      [
        "Decode_error(0, Encode.parse: trailing bits)";
        "Decode_error(481, p11: C cell but pending is read(r1))";
        "Decode_error(57, p7: C cell but pending is read(r20))";
        "Decode_error(60, no progress (waiting=0,1,2,3,4,5,6,7,8,9,10,11))";
        "Decode_error(49, no progress (waiting=0,1,2,3,4,5,6,7,8,9,10,11))";
        "Decode_error(123, no progress (waiting=0,1,2,3,4,5,8,9,10,11))";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: trailing bits)";
      ] );
    ( ("filter", 6, 4),
      "32d91051ae18ec4bf4423c7771018c43",
      "1425d3f7d8b9ff82b2bca40d696dcbda",
      [
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: bits end inside a cell)";
        "Decode_error(203, p1: cell expects a read but pending is exit)";
        "Decode_error(184, p1: C cell but pending is read(r5))";
        "Decode_error(0, Encode.parse: trailing bits)";
        "Decode_error(108, no progress (waiting=1,2,3,4))";
        "Decode_error(237, p2: cell expects a write but pending is enter)";
        "Decode_error(37, p5: C cell but pending is read(r2))";
      ] );
    ( ("tournament", 8, 5),
      "d5a35348c84eec109f602967d8861d53",
      "e40a7779e67624d5c1b1d78c147abca5",
      [
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(120, no progress (waiting=3,6))";
        "Decode_error(0, Encode.parse: trailing bits)";
        "Decode_error(0, Encode.parse: trailing bits)";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(96, no progress (waiting=2,3,5,6))";
        "Decode_error(51, no progress (waiting=0,1,2,3,4,5,6,7))";
      ] );
    ( ("szymanski", 5, 6),
      "6393b2730064b0d40379b6a8ed71890b",
      "f4d4fae26ebc93357ad8669e6af54443",
      [
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: trailing bits)";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: trailing bits)";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: bits end inside a cell)";
        "Decode_error(52, no progress (waiting=1,2,3))";
        "Decode_error(102, no progress (waiting=3))";
      ] );
    ( ("lamport_fast", 6, 7),
      "accdbb7e2bb0eac91758f3d5ef4ea192",
      "ff6fc8bf703f094c0b58612f784a3a69",
      [
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(0, Encode.parse: trailing bits)";
        "Decode_error(0, Encode.parse: bits end inside a cell)";
        "Decode_error(100, p1: cell expects a read but pending is write(r0,2))";
        "Decode_error(0, Encode.parse: trailing bits)";
        "Decode_error(0, Encode.parse: bad tag 7)";
        "Decode_error(38, p4: cell expects a read but pending is exit)";
      ] );
  ]

let decode_outcome algo ~n bits =
  match D.run_bits algo ~n bits with
  | d -> Execution.fingerprint d
  | exception D.Decode_error { detail; consumed } ->
    Printf.sprintf "Decode_error(%d, %s)" consumed detail
  | exception e -> Printexc.to_string e

let test_decode_digests () =
  List.iter
    (fun ((name, n, seed), fingerprint, events_md5, flips) ->
      let algo = Lb_algos.Registry.find_exn name in
      let label what = Printf.sprintf "%s n=%d seed=%d: %s" name n seed what in
      let pi = P.random (Lb_util.Rng.create seed) n in
      let _, e = encode_of algo n pi in
      let events = Buffer.create 4096 in
      let d =
        D.run
          ~trace:(fun ev ->
            Buffer.add_string events (Format.asprintf "%a" D.pp_event ev);
            Buffer.add_char events '\n')
          algo ~n e.E.cells
      in
      Alcotest.(check string) (label "fingerprint") fingerprint
        (Execution.fingerprint d);
      Alcotest.(check string) (label "event stream") events_md5
        (Digest.to_hex (Digest.string (Buffer.contents events)));
      Alcotest.(check string) (label "untraced run") fingerprint
        (Execution.fingerprint (D.run_bits algo ~n e.E.bits));
      let rng = Lb_util.Rng.create (seed + 1) in
      List.iteri
        (fun k expected ->
          let bits = Array.copy e.E.bits in
          let pos = Lb_util.Rng.int rng (Array.length bits) in
          bits.(pos) <- not bits.(pos);
          Alcotest.(check string)
            (label (Printf.sprintf "flip %d at bit %d" k pos))
            expected (decode_outcome algo ~n bits))
        flips)
    decode_digests

(* The firing order is defined by a key (see decode.mli) instead of by
   walking a hash table; it must agree with what [Hashtbl.iter] does on
   a [Hashtbl.create 64]. 1-600 registers cross the resizes at 129 and
   257 keys, so a stdlib change to bucketing or resizing fails here
   rather than silently changing fingerprints. *)
let visit_order_is_hashtbl_order =
  QCheck.Test.make ~name:"visit order = Hashtbl.iter order" ~count:200
    QCheck.(pair (int_range 1 600) (int_range 0 100_000))
    (fun (k, salt) ->
      let ids =
        Array.to_list
          (Array.sub (Lb_util.Rng.permutation (Lb_util.Rng.create salt) (4 * k)) 0 k)
      in
      let tbl = Hashtbl.create ~random:false 64 in
      List.iter (fun r -> Hashtbl.replace tbl r ()) ids;
      let iterated = ref [] in
      Hashtbl.iter (fun r () -> iterated := r :: !iterated) tbl;
      D.visit_order ids = List.rev !iterated)

let test_trace_events () =
  let _, e = encode_of ya 2 (P.identity 2) in
  let events = ref [] in
  ignore (D.run ~trace:(fun ev -> events := ev :: !events) ya ~n:2 e.E.cells);
  let events = List.rev !events in
  let count p = List.length (List.filter p events) in
  (* every cell is consumed exactly once *)
  let total_cells =
    Array.fold_left (fun acc col -> acc + Array.length col) 0 e.E.cells
  in
  Alcotest.(check int) "cells consumed" total_cells
    (count (function D.Cell_consumed _ -> true | _ -> false));
  (* one Fired event per write metastep (= per signature install) *)
  Alcotest.(check int) "fired = signatures"
    (count (function D.Signature_installed _ -> true | _ -> false))
    (count (function D.Fired _ -> true | _ -> false));
  (* events render *)
  List.iter
    (fun ev -> Alcotest.(check bool) "prints" true
        (String.length (Format.asprintf "%a" D.pp_event ev) > 0))
    events

let suite =
  [
    QCheck_alcotest.to_alcotest bit_flip_robustness;
    QCheck_alcotest.to_alcotest scan_order_invariance;
    QCheck_alcotest.to_alcotest visit_order_is_hashtbl_order;
    Alcotest.test_case "decode digests" `Quick test_decode_digests;
    Alcotest.test_case "ascii roundtrip + decode" `Quick test_ascii_roundtrip;
    Alcotest.test_case "ascii rejects garbage" `Quick test_ascii_rejects_garbage;
    Alcotest.test_case "decoder trace events" `Quick test_trace_events;
    Alcotest.test_case "signature of metastep" `Quick test_signature_of_metastep;
    Alcotest.test_case "signature bits" `Quick test_signature_bits_positive;
    Alcotest.test_case "cells shape" `Quick test_cells_shape;
    Alcotest.test_case "cell types align" `Quick test_cell_types_align;
    Alcotest.test_case "one wsig per write metastep" `Quick test_exactly_one_wsig_per_write_metastep;
    Alcotest.test_case "parse roundtrip (all S4)" `Quick test_parse_roundtrip;
    Alcotest.test_case "parse garbage" `Quick test_parse_garbage;
    Alcotest.test_case "ascii form" `Quick test_ascii_form;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "encoding linear in cost" `Quick test_encoding_linear_in_cost;
    Alcotest.test_case "decode = linearization (all S4)" `Quick test_decode_equals_linearization;
    Alcotest.test_case "decode independent of pi" `Quick test_decode_does_not_know_pi;
    Alcotest.test_case "decode injective on S4" `Quick test_decode_injective_s4;
    Alcotest.test_case "decode is valid execution" `Quick test_decode_valid_execution;
    Alcotest.test_case "decode rejects truncated" `Quick test_decode_rejects_truncated;
    Alcotest.test_case "decode rejects wrong algorithm" `Quick test_decode_rejects_wrong_algo;
  ]
