(** Sequential reader over a bit stream produced by {!Bit_writer}.

    The paper's decoding step consumes the encoding one cell at a time; this
    reader provides exactly the inverse primitives of the writer. *)

type t

exception Exhausted
(** Raised when reading past the end of the stream. *)

val of_bool_array : bool array -> t

val of_writer : Bit_writer.t -> t
(** Reader over the exact bits of the writer (no padding). *)

val of_string : ?bits:int -> string -> t
(** Reader over a packed byte string (MSB-first within each byte) — the
    inverse of writing {!Bit_writer.to_bytes} to a file. The string is
    not copied or expanded, so reading an on-disk spill run costs its
    file size, not 8x it. [bits] bounds the readable prefix (default:
    every bit of the string, including any zero padding the writer
    added); raises [Invalid_argument] if it exceeds [8 * length].

    Over a packed source {!gamma} reads a code from a 63-bit window,
    one 64-bit load at the code's first byte: the window's leading
    zeros are the code's, and a shift gives its value. The window
    holds 56 to 63 bits past the read position, so values below 2^28
    always fit. A longer code, one that runs past the readable prefix,
    or one that starts in the buffer's last 7 bytes is read by the bit
    loop the bool-array source uses, so values, {!pos} and {!Exhausted}
    are the same from either source. *)

val of_bytes : ?bits:int -> Bytes.t -> t
(** {!of_string} over a buffer, e.g. one a caller reuses from file to
    file; bytes past [bits] may hold anything. The reader aliases the
    buffer: do not change it while reading. *)

val pos : t -> int
(** Bits consumed so far. *)

val remaining : t -> int

val at_end : t -> bool

val bit : t -> bool

val bits : t -> width:int -> int
(** [bits t ~width] reads [width] bits, most significant first. *)

val gamma : t -> int
(** Inverse of {!Bit_writer.gamma}; returns an integer [>= 1]. *)

val gamma0 : t -> int
(** Inverse of {!Bit_writer.gamma0}; returns an integer [>= 0]. *)
