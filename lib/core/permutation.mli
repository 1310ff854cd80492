(** Permutations of [0 .. n-1] (the paper's [pi] in [S_n], §3.1).

    A permutation is stored as the array [pi] with [pi.(stage)] = the
    process taking steps in stage [stage] of the construction; i.e. the
    paper's sequence (pi_1, ..., pi_n) with 0-based stages and process
    indices. *)

type t = private int array

val of_array : int array -> t
(** Validates that the argument is a permutation of [0 .. n-1]; copies. *)

val to_array : t -> int array
(** A fresh copy of the underlying array. *)

val n : t -> int

val identity : int -> t

val reverse : int -> t
(** [n-1, n-2, ..., 0]. *)

val stage_of : t -> int -> int
(** [stage_of pi i] is [pi^-1(i)]: the stage in which process [i] runs.
    The paper writes [pi^-1(i)]. *)

val process_at : t -> int -> int
(** [process_at pi k] is [pi_k+1] in paper notation: the process of stage
    [k]. *)

val lower_or_equal : t -> int -> int -> bool
(** [lower_or_equal pi i j] is the paper's [i <=pi j]: process [i] appears
    no later than [j] in [pi]. *)

val min_by : t -> int list -> int
(** [min_by pi s] is [min_pi S]: the process of [s] with the earliest
    stage. Raises [Invalid_argument] on the empty list. *)

val inverse : t -> t

val compose : t -> t -> t
(** [compose a b] maps stage [k] to [a.(b.(k))]. *)

val equal : t -> t -> bool

val rank : t -> int
(** Lehmer rank in [0 .. n!-1]; requires [n <= 20]. *)

val unrank : n:int -> int -> t
(** Inverse of {!rank}; requires [n <= 20] and a rank in range. *)

val all : int -> t list
(** All [n!] permutations in rank order; requires [n <= 8]. *)

val random : Lb_util.Rng.t -> int -> t

val sample :
  Lb_util.Rng.t -> n:int -> count:int -> t list
(** [min count n!] {e distinct} permutations, uniformly: by shuffling all
    of [S_n] when the space is small, by rejection sampling otherwise.
    Distinctness matters — the certificates of Theorem 7.5 count the
    permutations examined. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** The {!pp} spelling, [(2 0 1)]: diagnostics and store keys. *)

val to_csv : t -> string
(** The comma spelling, [2,0,1], of store entries, sweep manifests,
    sweep telemetry and the CLI's [-p]. *)

val of_csv : ?n:int -> string -> (t, string) result
(** Inverse of {!to_csv}: comma-separated [int_of_string] indices that
    form a permutation, and, given [n], exactly [n] of them. The error
    is a whole one-line diagnostic naming the input. *)
