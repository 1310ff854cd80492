(* The per-key record codec of the model checker's spill runs:
   shared-prefix + zigzag gamma0 delta coding over int-array keys.
   [Check_spill] frames a layer's keys with a gamma0 count and writes
   them through [write_key]/[read_key]. *)

module Bw = Bit_writer
module Br = Bit_reader

let zig v = (v lsl 1) lxor (v asr 62)
let unzig z = (z lsr 1) lxor (- (z land 1))

let write_key w ~prev k =
  let kl = Array.length k in
  let pl = Array.length prev in
  let p = ref 0 in
  while
    !p < kl && !p < pl && Array.unsafe_get k !p = Array.unsafe_get prev !p
  do
    incr p
  done;
  Bw.gamma0 w !p;
  for j = !p to kl - 1 do
    Bw.gamma0 w (zig (Array.unsafe_get k j))
  done

let read_key r k =
  let kl = Array.length k in
  let p = Br.gamma0 r in
  if p < 0 || p > kl then
    failwith (Printf.sprintf "Key_run.read_key: prefix %d for keylen %d" p kl);
  for j = p to kl - 1 do
    k.(j) <- unzig (Br.gamma0 r)
  done

let compare_keys (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let n = if la < lb then la else lb in
  let rec go i =
    if i = n then compare la lb
    else
      let c = compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0
