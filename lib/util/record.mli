(** Line records: the text shape shared by store entries, sweep
    manifests and the model checker's spill manifests.

    A record is a magic line followed by [key value] lines in an order
    fixed by its format. A {e sealed} record ends with one more line,
    [sum <md5>], the digest of every byte before it, so a torn write,
    a truncation or a flipped bit is reported rather than trusted:

    {v
    mutexlb-store-entry 1
    key 4a13ac0769be7f563bd1e4367319053b
    ...
    sum ea3ce096e6dd7fd6ae7e1b15b7c1e5c3
    v}

    Each format keeps its own fields, field order and value escaping;
    this module owns only the seal and the ordered field reader. *)

val seal : string -> string
(** [seal payload] appends the [sum <md5>] line of [payload], which
    should end in a newline. *)

val unseal : string -> (string, string) result
(** Split off and verify the final [sum] line; returns the payload
    before it. Rejects an input with no final newline, no [sum] line or
    a digest that does not match. *)

val field : string -> string list -> (string * string list, string) result
(** [field key lines] reads the first line, which must be [key value],
    and returns [value] and the lines after it. *)

val int_field : string -> string list -> (int * string list, string) result
(** {!field} whose value must parse with [int_of_string_opt]. *)
