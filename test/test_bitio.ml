module Bw = Lb_bitio.Bit_writer
module Br = Lb_bitio.Bit_reader

let test_single_bits () =
  let w = Bw.create () in
  List.iter (Bw.bit w) [ true; false; true; true; false ];
  Alcotest.(check int) "length" 5 (Bw.length_bits w);
  let r = Br.of_writer w in
  Alcotest.(check (list bool))
    "roundtrip"
    [ true; false; true; true; false ]
    (List.init 5 (fun _ -> Br.bit r));
  Alcotest.(check bool) "at end" true (Br.at_end r)

let test_fixed_width () =
  let w = Bw.create () in
  Bw.bits w ~value:0b1011 ~width:4;
  Bw.bits w ~value:0 ~width:3;
  Bw.bits w ~value:1 ~width:1;
  let r = Br.of_writer w in
  Alcotest.(check int) "first" 0b1011 (Br.bits r ~width:4);
  Alcotest.(check int) "second" 0 (Br.bits r ~width:3);
  Alcotest.(check int) "third" 1 (Br.bits r ~width:1)

let test_width_checks () =
  let w = Bw.create () in
  Alcotest.check_raises "value too large"
    (Invalid_argument "Bit_writer.bits: value out of range") (fun () ->
      Bw.bits w ~value:8 ~width:3);
  Alcotest.check_raises "negative width" (Invalid_argument "Bit_writer.bits: width")
    (fun () -> Bw.bits w ~value:0 ~width:(-1))

let test_gamma_known () =
  (* gamma(1) = "1", gamma(2) = "010", gamma(5) = "00101" *)
  let bits_of n =
    let w = Bw.create () in
    Bw.gamma w n;
    Array.to_list (Bw.to_bool_array w)
  in
  Alcotest.(check (list bool)) "gamma 1" [ true ] (bits_of 1);
  Alcotest.(check (list bool)) "gamma 2" [ false; true; false ] (bits_of 2);
  Alcotest.(check (list bool))
    "gamma 5"
    [ false; false; true; false; true ]
    (bits_of 5)

let test_gamma_lengths () =
  List.iter
    (fun n ->
      let w = Bw.create () in
      Bw.gamma w n;
      Alcotest.(check int)
        (Printf.sprintf "gamma length %d" n)
        ((2 * Lb_util.Xmath.floor_log2 n) + 1)
        (Bw.length_bits w))
    [ 1; 2; 3; 4; 7; 8; 100; 1000 ]

let test_exhausted () =
  let w = Bw.create () in
  Bw.bit w true;
  let r = Br.of_writer w in
  ignore (Br.bit r);
  Alcotest.check_raises "exhausted" Br.Exhausted (fun () -> ignore (Br.bit r))

let test_to_bytes_padding () =
  let w = Bw.create () in
  Bw.bits w ~value:0b101 ~width:3;
  let b = Bw.to_bytes w in
  Alcotest.(check int) "one byte" 1 (Bytes.length b);
  Alcotest.(check int) "msb-first padded" 0b10100000 (Char.code (Bytes.get b 0))

let gamma_roundtrip =
  QCheck.Test.make ~name:"gamma roundtrip" ~count:500
    QCheck.(list (int_range 1 1_000_000))
    (fun xs ->
      let w = Bw.create () in
      List.iter (Bw.gamma w) xs;
      let r = Br.of_writer w in
      let ys = List.map (fun _ -> Br.gamma r) xs in
      ys = xs && Br.at_end r)

let gamma0_roundtrip =
  QCheck.Test.make ~name:"gamma0 roundtrip" ~count:500
    QCheck.(list (int_range 0 1_000_000))
    (fun xs ->
      let w = Bw.create () in
      List.iter (Bw.gamma0 w) xs;
      let r = Br.of_writer w in
      List.map (fun _ -> Br.gamma0 r) xs = xs)

let mixed_roundtrip =
  QCheck.Test.make ~name:"mixed fields roundtrip" ~count:300
    QCheck.(list (pair (int_range 0 255) (int_range 1 1000)))
    (fun xs ->
      let w = Bw.create () in
      List.iter
        (fun (a, b) ->
          Bw.bits w ~value:a ~width:8;
          Bw.gamma w b)
        xs;
      let r = Br.of_writer w in
      List.for_all
        (fun (a, b) -> Br.bits r ~width:8 = a && Br.gamma r = b)
        xs)

let bool_array_roundtrip =
  QCheck.Test.make ~name:"to_bool_array matches bit sequence" ~count:300
    QCheck.(list bool)
    (fun bs ->
      let w = Bw.create () in
      List.iter (Bw.bit w) bs;
      Array.to_list (Bw.to_bool_array w) = bs)

(* the spill-run read path: a writer's packed bytes, reopened through
   of_string, replay the exact bit stream — values, positions, padding *)
let test_of_string () =
  let w = Bw.create () in
  Bw.bits w ~value:0b1011 ~width:4;
  Bw.gamma0 w 41;
  Bw.gamma w 7;
  Bw.bit w true;
  let packed = Bytes.to_string (Bw.to_bytes w) in
  let r = Br.of_string ~bits:(Bw.length_bits w) packed in
  Alcotest.(check int) "fixed" 0b1011 (Br.bits r ~width:4);
  Alcotest.(check int) "gamma0" 41 (Br.gamma0 r);
  Alcotest.(check int) "gamma" 7 (Br.gamma r);
  Alcotest.(check bool) "bit" true (Br.bit r);
  Alcotest.(check bool) "bounded at the written length" true (Br.at_end r);
  (* without ~bits the zero padding is readable, by design *)
  let r2 = Br.of_string packed in
  Alcotest.(check int) "padding visible" (8 * String.length packed)
    (Br.remaining r2);
  let over = (8 * String.length packed) + 1 in
  Alcotest.check_raises "bits beyond the string"
    (Invalid_argument
       (Printf.sprintf "Bit_reader.of_string: %d bits in a %d-byte string" over
          (String.length packed)))
    (fun () -> ignore (Br.of_string ~bits:over packed))

(* ------------------- packed reader vs the bit loop -------------------- *)

type field = Bits of int * int | Gamma of int | Gamma0 of int

let show_field = function
  | Bits (w, v) -> Printf.sprintf "bits %d:%d" w v
  | Gamma v -> Printf.sprintf "gamma %d" v
  | Gamma0 v -> Printf.sprintf "gamma0 %d" v

(* values of 2^28 and up can outrun a 63-bit window; up to 2^59 some
   codes (119 bits) outrun any *)
let gen_field =
  let open QCheck.Gen in
  let big = map (fun x -> Int64.to_int x land max_int) ui64 in
  let magnitude =
    frequency [ (6, int_range 0 10); (2, int_range 11 27); (2, int_range 28 58) ]
  in
  let sized = map2 (fun e r -> (1 lsl e) lor (r land ((1 lsl e) - 1))) magnitude big in
  frequency
    [
      (2, map2 (fun w r -> Bits (w, r land ((1 lsl w) - 1))) (int_range 0 62) big);
      (3, map (fun v -> Gamma v) sized);
      (3, map (fun v -> Gamma0 (v - 1)) sized);
    ]

let write_field w = function
  | Bits (width, value) -> Bw.bits w ~value ~width
  | Gamma v -> Bw.gamma w v
  | Gamma0 v -> Bw.gamma0 w v

let read_field r = function
  | Bits (width, _) -> Br.bits r ~width
  | Gamma _ -> Br.gamma r
  | Gamma0 _ -> Br.gamma0 r

(* each field's value and the position after it, then how the stream
   ended: [Some (i, pos)] if field [i] raised Exhausted, leaving [pos] *)
let replay r fields =
  let rec go i acc = function
    | [] -> (List.rev acc, None)
    | f :: rest -> (
      match read_field r f with
      | v -> go (i + 1) ((v, Br.pos r) :: acc) rest
      | exception Br.Exhausted -> (List.rev acc, Some (i, Br.pos r)))
  in
  go 0 [] fields

(* the packing [to_bytes] did through the bool array: the oracle for
   the writer's byte output *)
let to_bytes_oracle w =
  let bits = Bw.to_bool_array w in
  let out = Bytes.make ((Array.length bits + 7) / 8) '\000' in
  Array.iteri
    (fun i b ->
      if b then
        Bytes.set out (i / 8)
          (Char.chr (Char.code (Bytes.get out (i / 8)) lor (1 lsl (7 - (i mod 8))))))
    bits;
  out

let packed_agrees_with_bit_loop =
  QCheck.Test.make ~name:"packed reader = bit loop, every truncation" ~count:200
    (QCheck.make
       ~print:(fun fs -> String.concat "; " (List.map show_field fs))
       QCheck.Gen.(list_size (int_range 0 24) gen_field))
    (fun fields ->
      let w = Bw.create () in
      List.iter (write_field w) fields;
      let total = Bw.length_bits w in
      let packed = Bw.to_bytes w in
      let bools = Bw.to_bool_array w in
      Bytes.equal packed (to_bytes_oracle w)
      && replay (Br.of_writer w) fields
         = replay (Br.of_string ~bits:total (Bytes.to_string packed)) fields
      && List.for_all
           (fun k ->
             replay (Br.of_bool_array (Array.sub bools 0 k)) fields
             = replay (Br.of_bytes ~bits:k packed) fields)
           (List.init (total + 1) Fun.id))

(* ------------------------------ Key_run ------------------------------ *)

module Kr = Lb_bitio.Key_run
module Spill = Lb_mutex.Check_spill

let with_dir f =
  let d = Filename.temp_file "mutexlb_keyrun" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    (fun () -> f d)

(* write a spill run, then stream it back *)
let run_roundtrip ~keylen keys =
  with_dir (fun dir ->
      Spill.write_run ~dir ~layer:0 keys;
      let acc = ref [] in
      Spill.iter_run_keys ~buf:(Spill.buffer ()) ~dir ~layer:0 ~keylen
        ~count:(List.length keys)
        (fun k -> acc := Array.copy k :: !acc);
      let bytes =
        (Unix.stat (Filename.concat dir "layer_000000.keys")).Unix.st_size
      in
      (List.rev !acc, bytes))

let zigzag_roundtrip =
  QCheck.Test.make ~name:"Key_run zigzag roundtrip" ~count:1000
    QCheck.(int_range (-(1 lsl 59)) ((1 lsl 59) - 1))
    (fun v -> Kr.unzig (Kr.zig v) = v && Kr.zig v >= 0)

let spill_run_roundtrip =
  (* shared-prefix delta coding through a spill run file: write, then
     stream back the exact key sequence. Random key lists exercise long
     shared prefixes (duplicated draws differing in one slot), repeated
     keys and prefix 0 *)
  QCheck.Test.make ~name:"spill run roundtrip" ~count:300
    QCheck.(pair (int_range 1 6) (small_list (small_list small_signed_int)))
    (fun (keylen, raw) ->
      let keys =
        List.map
          (fun xs ->
            Array.init keylen (fun i ->
                match List.nth_opt xs i with Some v -> v | None -> 0))
          raw
      in
      fst (run_roundtrip ~keylen keys) = keys)

let test_key_run_non_byte_aligned_tail () =
  (* three one-slot keys pack to a bit count that is not a multiple of
     8; the zero padding in the final byte must not decode as a
     phantom key *)
  let keys = [ [| 0 |]; [| 1 |]; [| 2 |] ] in
  let got, bytes = run_roundtrip ~keylen:1 keys in
  (* a 5-bit count header and 12 bits of records round up to 3 bytes —
     7 bits of padding *)
  Alcotest.(check int) "packed tail rounds up" 3 bytes;
  Alcotest.(check (list (list int)))
    "keys back"
    [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (List.map Array.to_list got)

let test_key_run_spill_codec_compat () =
  (* a Check_spill run file is a gamma0 key count followed by the
     write_key records: a stream hand-rolled from the primitives decodes
     through read_key, and is byte-for-byte the run file's body *)
  let keys = [| [| 3; -1; 4 |]; [| 3; -1; 5 |]; [| 3; 0; -9 |] |] in
  let w = Bw.create () in
  Bw.gamma0 w (Array.length keys);
  let prev = ref [||] in
  Array.iter
    (fun k ->
      Kr.write_key w ~prev:!prev k;
      prev := k)
    keys;
  let r = Br.of_writer w in
  Alcotest.(check int) "count header" 3 (Br.gamma0 r);
  let buf = Array.make 3 0 in
  let got = ref [] in
  for _ = 1 to 3 do
    Kr.read_key r buf;
    got := Array.to_list buf :: !got
  done;
  Alcotest.(check (list (list int)))
    "read_key replays write_key"
    (Array.to_list keys |> List.map Array.to_list)
    (List.rev !got);
  with_dir (fun dir ->
      Spill.write_run ~dir ~layer:0 (Array.to_list keys);
      Alcotest.(check string)
        "run file = hand-rolled stream"
        (Bytes.to_string (Bw.to_bytes w))
        (Lb_util.Fsio.read ~path:(Filename.concat dir "layer_000000.keys") ()))

let suite =
  [
    Alcotest.test_case "single bits" `Quick test_single_bits;
    Alcotest.test_case "of_string packed bytes" `Quick test_of_string;
    Alcotest.test_case "fixed width" `Quick test_fixed_width;
    Alcotest.test_case "width checks" `Quick test_width_checks;
    Alcotest.test_case "gamma known codes" `Quick test_gamma_known;
    Alcotest.test_case "gamma lengths" `Quick test_gamma_lengths;
    Alcotest.test_case "exhausted" `Quick test_exhausted;
    Alcotest.test_case "to_bytes padding" `Quick test_to_bytes_padding;
    Alcotest.test_case "key run non-byte-aligned tail" `Quick
      test_key_run_non_byte_aligned_tail;
    Alcotest.test_case "key run spill codec compat" `Quick
      test_key_run_spill_codec_compat;
    QCheck_alcotest.to_alcotest gamma_roundtrip;
    QCheck_alcotest.to_alcotest gamma0_roundtrip;
    QCheck_alcotest.to_alcotest mixed_roundtrip;
    QCheck_alcotest.to_alcotest bool_array_roundtrip;
    QCheck_alcotest.to_alcotest packed_agrees_with_bit_loop;
    QCheck_alcotest.to_alcotest zigzag_roundtrip;
    QCheck_alcotest.to_alcotest spill_run_roundtrip;
  ]
