(** The per-key record codec of the model checker's spill runs.

    A key is an int array. Each record stores the length of the key's
    common prefix with its predecessor (gamma0), then the remaining
    positions as zigzag gamma0 codes. [Check_spill.write_run] frames a
    layer's keys with a gamma0 key count and encodes them through
    {!write_key}; [Check_spill.iter_run_keys] decodes them through
    {!read_key}. Sorting keys by {!compare_keys} first keeps
    neighbouring keys close, which is what makes the delta coding
    small. *)

val zig : int -> int
val unzig : int -> int
(** Zigzag coding: signed to non-negative and back. *)

val write_key : Bit_writer.t -> prev:int array -> int array -> unit
(** One key record: shared-prefix length vs [prev] (use [[||]] for the
    first key), then raw zigzag gamma0 for the rest.  Values must stay
    below 2^60 in magnitude. *)

val read_key : Bit_reader.t -> int array -> unit
(** Decode one key record in place; the array must hold the previous
    key (or anything, for a record with prefix 0) and has the key
    length.  Fails on a malformed prefix. *)

val compare_keys : int array -> int array -> int
(** Lexicographic order on keys — the order a spill run sorts each
    shard's keys in. *)
