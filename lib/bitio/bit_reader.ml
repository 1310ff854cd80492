type src = Bools of bool array | Packed of Bytes.t

type t = { src : src; len : int; mutable pos : int }

exception Exhausted

let of_bool_array data = { src = Bools data; len = Array.length data; pos = 0 }
let of_writer w = of_bool_array (Bit_writer.to_bool_array w)

let packed ~fn ?bits b =
  let max_bits = 8 * Bytes.length b in
  let len =
    match bits with
    | None -> max_bits
    | Some n ->
      if n < 0 || n > max_bits then
        invalid_arg
          (Printf.sprintf "Bit_reader.%s: %d bits in a %d-byte string" fn n
             (Bytes.length b));
      n
  in
  { src = Packed b; len; pos = 0 }

(* the reader never writes its source, so aliasing [s] is safe *)
let of_string ?bits s = packed ~fn:"of_string" ?bits (Bytes.unsafe_of_string s)
let of_bytes ?bits b = packed ~fn:"of_bytes" ?bits b

let pos t = t.pos
let remaining t = t.len - t.pos
let at_end t = remaining t = 0

let bit t =
  if t.pos >= t.len then raise Exhausted;
  let b =
    match t.src with
    | Bools data -> Array.unsafe_get data t.pos
    | Packed s ->
      (Char.code (Bytes.unsafe_get s (t.pos lsr 3))
       lsr (7 - (t.pos land 7)))
      land 1
      = 1
  in
  t.pos <- t.pos + 1;
  b

let bits t ~width =
  if width < 0 || width > 62 then invalid_arg "Bit_reader.bits: width";
  let acc = ref 0 in
  for _ = 1 to width do
    acc := (!acc lsl 1) lor (if bit t then 1 else 0)
  done;
  !acc

let gamma_loop t =
  let k = ref 0 in
  while not (bit t) do
    incr k
  done;
  (* we consumed the leading 1 of the binary representation *)
  let rest = bits t ~width:!k in
  (1 lsl !k) lor rest

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* leading zeros of the 9-bit values 1..511: a table, because the codes
   of a spill run spread their lengths so evenly that any branch on
   them is mispredicted *)
let lz9 =
  String.init 512 (fun x ->
      Char.chr (if x = 0 then 9 else 8 - Lb_util.Xmath.floor_log2 x))

(* A code of k zeros then the k+1 bits of its value is read from a
   63-bit window: one 64-bit load at the code's byte, the code's first
   bit moved to the int's top (sign) bit, zero fill below the 63 - (pos
   land 7) stream bits. The code is taken from the window when its 2k+1
   bits lie in it and in the readable length; anything else — a longer
   code, the buffer's last 7 bytes, a code cut off by the readable
   length — takes the bit loop, so values, [pos] and [Exhausted] are
   the loop's. *)
let gamma t =
  match t.src with
  | Packed s when (t.pos lsr 3) + 8 <= Bytes.length s ->
    let p = t.pos in
    let w = get64u s (p lsr 3) in
    let w = if Sys.big_endian then w else bswap64 w in
    let v = Int64.to_int (Int64.shift_right_logical w 1) lsl (p land 7) in
    let top = v lsr 54 in
    let k =
      if top <> 0 then Char.code (String.unsafe_get lz9 top)
      else if v = 0 then 63
      else 62 - Lb_util.Xmath.floor_log2 v
    in
    let n = (2 * k) + 1 in
    if n <= 63 - (p land 7) && n <= t.len - p then begin
      t.pos <- p + n;
      v lsr (62 - (2 * k))
    end
    else gamma_loop t
  | Packed _ | Bools _ -> gamma_loop t

let gamma0 t = gamma t - 1
