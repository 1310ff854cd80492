(** A packaged mutual-exclusion algorithm.

    Bundles the register file and a process factory so that engines,
    checkers and the lower-bound pipeline can treat algorithms uniformly
    (the paper's machinery is generic in the algorithm [A]). *)

type kind =
  | Registers_only
      (** uses only reads and writes of registers — the paper's model; the
          lower-bound pipeline accepts exactly these *)
  | Uses_rmw
      (** uses read-modify-write primitives — the §8 extension; accepted by
          runners and cost models but rejected by the pipeline *)

type t = {
  name : string;  (** short unique identifier, e.g. ["yang_anderson"] *)
  description : string;  (** one-line human description *)
  kind : kind;
  registers : n:int -> Register.spec array;
  spawn : n:int -> me:int -> Proc.t;
  max_n : int option;  (** [Some k] if the algorithm only supports [n <= k] *)
}

val supports : t -> int -> bool
(** [supports a n] holds when the algorithm can be instantiated for [n]
    processes. *)

val registers_only : t -> bool

val kind_name : kind -> string
(** ["registers"] or ["rmw"]. *)

val pp : Format.formatter -> t -> unit
