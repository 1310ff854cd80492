type t = { buf : Buffer.t; mutable acc : int; mutable nacc : int; mutable total : int }

let create () = { buf = Buffer.create 64; acc = 0; nacc = 0; total = 0 }

let length_bits t = t.total

(* [acc] holds the [nacc < 8] bits not yet in [buf], low-aligned, every
   bit above them zero. A field is shifted into [acc] whole and the full
   bytes flushed, so a field of up to 55 bits goes in as one piece and a
   wider one as two. *)

(* Append the low [width] bits of [value], which has no bit above them;
   requires [t.nacc + width <= 62], so [acc] never reaches the sign bit. *)
let push t value width =
  let acc = (t.acc lsl width) lor value in
  let nacc = ref (t.nacc + width) in
  while !nacc >= 8 do
    nacc := !nacc - 8;
    Buffer.add_char t.buf (Char.unsafe_chr ((acc lsr !nacc) land 0xff))
  done;
  t.acc <- acc land ((1 lsl !nacc) - 1);
  t.nacc <- !nacc;
  t.total <- t.total + width

(* [push] for any [width <= 62]: one that does not fit beside the
   pending bits (so [width >= 56]) goes as its high [width - 32] bits,
   then its low 32. *)
let append t value width =
  if t.nacc + width <= 62 then push t value width
  else begin
    push t (value lsr 32) (width - 32);
    push t (value land 0xffff_ffff) 32
  end

let bit t b = push t (if b then 1 else 0) 1

let bits t ~value ~width =
  if width < 0 || width > 62 then invalid_arg "Bit_writer.bits: width";
  if value < 0 || (width < 62 && value >= 1 lsl width) then
    invalid_arg "Bit_writer.bits: value out of range";
  append t value width

(* [k] zeros, then the [k + 1] bits of [n]: [n] itself, [2k + 1] bits
   wide, when that fits in one piece *)
let gamma t n =
  if n < 1 then invalid_arg "Bit_writer.gamma: n < 1";
  let k = Lb_util.Xmath.floor_log2 n in
  if t.nacc + (2 * k) + 1 <= 62 then push t n ((2 * k) + 1)
  else begin
    append t 0 k;
    append t n (k + 1)
  end

let gamma0 t n =
  if n < 0 then invalid_arg "Bit_writer.gamma0: n < 0";
  gamma t (n + 1)

let to_bool_array t =
  let out = Array.make t.total false in
  let bytes = Buffer.to_bytes t.buf in
  let full = Bytes.length bytes * 8 in
  for i = 0 to t.total - 1 do
    if i < full then begin
      let byte = Char.code (Bytes.get bytes (i / 8)) in
      out.(i) <- (byte lsr (7 - (i mod 8))) land 1 = 1
    end
    else begin
      (* bit still in the accumulator *)
      let off = i - full in
      out.(i) <- (t.acc lsr (t.nacc - 1 - off)) land 1 = 1
    end
  done;
  out

let to_bytes t =
  let full = Buffer.length t.buf in
  let out = Bytes.create (if t.nacc > 0 then full + 1 else full) in
  Buffer.blit t.buf 0 out 0 full;
  (* the accumulator holds fewer than 8 bits: pad them to one byte *)
  if t.nacc > 0 then
    Bytes.set out full (Char.chr ((t.acc lsl (8 - t.nacc)) land 0xff));
  out
