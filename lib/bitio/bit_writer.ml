type t = { buf : Buffer.t; mutable acc : int; mutable nacc : int; mutable total : int }

let create () = { buf = Buffer.create 64; acc = 0; nacc = 0; total = 0 }

let length_bits t = t.total

let flush_full t =
  while t.nacc >= 8 do
    let shift = t.nacc - 8 in
    Buffer.add_char t.buf (Char.chr ((t.acc lsr shift) land 0xff));
    t.acc <- t.acc land ((1 lsl shift) - 1);
    t.nacc <- shift
  done

let bit t b =
  t.acc <- (t.acc lsl 1) lor (if b then 1 else 0);
  t.nacc <- t.nacc + 1;
  t.total <- t.total + 1;
  flush_full t

let bits t ~value ~width =
  if width < 0 || width > 62 then invalid_arg "Bit_writer.bits: width";
  if value < 0 || (width < 62 && value >= 1 lsl width) then
    invalid_arg "Bit_writer.bits: value out of range";
  for i = width - 1 downto 0 do
    bit t ((value lsr i) land 1 = 1)
  done

let gamma t n =
  if n < 1 then invalid_arg "Bit_writer.gamma: n < 1";
  let k = Lb_util.Xmath.floor_log2 n in
  for _ = 1 to k do
    bit t false
  done;
  bits t ~value:n ~width:(k + 1)

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
