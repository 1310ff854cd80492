(** The one text spelling of a bit string (E_pi in store entries and
    bits files): hex digits, most significant bit first within each
    digit, the final digit zero-padded. Nonzero padding is rejected,
    so every bit string has exactly one spelling. *)

val to_hex : bool array -> string

val of_hex : total:int -> string -> (bool array, string) result
(** Parse [total] bits. Checks the length against [total] before
    allocating, then every digit, then the padding; the error names
    what is wrong. *)
