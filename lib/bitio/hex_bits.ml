let digits = "0123456789abcdef"

let to_hex bits =
  let buf = Buffer.create ((Array.length bits + 3) / 4) in
  let nibble = ref 0 and count = ref 0 in
  Array.iter
    (fun b ->
      nibble := (!nibble lsl 1) lor (if b then 1 else 0);
      incr count;
      if !count = 4 then begin
        Buffer.add_char buf digits.[!nibble];
        nibble := 0;
        count := 0
      end)
    bits;
  if !count > 0 then Buffer.add_char buf digits.[!nibble lsl (4 - !count)];
  Buffer.contents buf

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> -1

let of_hex ~total hex =
  let len = String.length hex in
  if total < 0 then Error "negative bit count"
  else if len <> (total + 3) / 4 then
    Error (Printf.sprintf "hex length %d does not match %d bits" len total)
  else if String.exists (fun c -> nibble c < 0) hex then Error "bad hex digit"
  else if
    total mod 4 <> 0
    && nibble hex.[len - 1] land ((1 lsl (4 - (total mod 4))) - 1) <> 0
  then Error "non-canonical padding in final hex digit"
  else
    Ok
      (Array.init total (fun i ->
           (nibble hex.[i / 4] lsr (3 - (i mod 4))) land 1 = 1))
