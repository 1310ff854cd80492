(** Textual serialization of executions and encodings.

    A stable, human-diffable line format so experiment artifacts (witness
    traces, constructed executions, the bit strings E_pi) can be saved,
    inspected and re-verified later:

    {v
    mutexlb-trace 1
    algo yang_anderson
    n 4
    step 0 try
    step 0 write 3 1
    step 2 read 0
    ...
    v}

    Encodings serialize as [mutexlb-bits 1] followed by the bit string in
    {!Lb_bitio.Hex_bits}'s spelling with an exact bit count (the same
    spelling as a store entry's [ebits] field). Parsers skip blank lines
    but report errors with the {e physical} line number of the input.

    This module parses and prints; files are read and written with
    {!Lb_util.Fsio}. *)

exception Parse_error of { line : int; detail : string }
(** Parse or resource-limit failure. [line] is the physical line of the
    input. *)

val execution_to_string :
  algo:string -> n:int -> Lb_shmem.Execution.t -> string

val execution_of_string :
  ?max_steps:int -> string -> string * int * Lb_shmem.Execution.t
(** Returns (algorithm name, n, execution). The caller resolves the name
    against its registry and may replay-validate. Rejects traces longer
    than [max_steps] (default one million) with a {!Parse_error} naming
    the limit — a hostile or corrupted artifact cannot balloon memory. *)

val bits_to_string : algo:string -> n:int -> bool array -> string

val bits_of_string : ?max_bits:int -> string -> string * int * bool array
(** Rejects encodings whose declared bit count exceeds [max_bits]
    (default [2{^25}]) {e before} allocating for them. *)
