(** Append-only bit stream writer.

    The paper's encoding step (Section 6) produces a string [E_pi] whose
    length must be measured exactly to check Theorem 6.2 (|E_pi| = O(C)) and
    Theorem 7.5 (some |E_pi| >= log2 n!). This writer produces real bits:
    fixed-width fields for cell tags and Elias-gamma codes for counts. *)

type t

val create : unit -> t

val length_bits : t -> int
(** Number of bits written so far. *)

val bit : t -> bool -> unit
(** Append a single bit. *)

val bits : t -> value:int -> width:int -> unit
(** [bits t ~value ~width] appends [width] bits, most significant first.
    Requires [0 <= width <= 62] and [0 <= value < 2^width]. *)

val gamma : t -> int -> unit
(** [gamma t n] appends the Elias-gamma code of [n >= 1]:
    [floor(log2 n)] zero bits followed by the binary representation of [n]
    ([2*floor(log2 n) + 1] bits total). *)

val gamma0 : t -> int -> unit
(** [gamma0 t n] encodes [n >= 0] as [gamma (n+1)]. *)

val to_bytes : t -> Bytes.t
(** The written stream, padded with zero bits to a byte boundary: the
    full bytes written so far plus the pending bits of the last one. *)

val to_bool_array : t -> bool array
(** The exact bit sequence (no padding). *)
