(** Executions: finite sequences of steps (paper §3.1).

    Because the system has a unique initial state and all automata are
    deterministic, a sequence of steps determines the whole alternating
    state/step sequence; we therefore represent executions as step
    sequences, exactly as the paper does ("both representations are
    equivalent"). *)

type t = Step.t Lb_util.Vec.t

val create : unit -> t

val of_steps : Step.t list -> t

val length : t -> int

val append : t -> Step.t -> unit

val get : t -> int -> Step.t

val steps : t -> Step.t list

val copy : t -> t

val equal : t -> t -> bool
(** Structural equality of the step sequences. *)

val projections : t -> n:int -> Step.t list array
(** [(projections alpha ~n).(i)] is [alpha|i]: the subsequence of [i]'s
    steps, for every [i < n], built in one pass. Steps of processes
    outside [0 .. n-1] appear in no projection. *)

val replay : Algorithm.t -> n:int -> t -> System.t
(** Replay from the initial state; raises {!System.Step_mismatch} when the
    sequence is not an execution of the algorithm. *)

val replay_prefix : Algorithm.t -> n:int -> t -> len:int -> System.t
(** Replay only the first [len] steps. *)

val replay_onto : System.t -> t -> from:int -> unit
(** [replay_onto sys alpha ~from] applies steps [from ..] of [alpha] to
    [sys], mutating it. *)

val fold_outcomes :
  Algorithm.t -> n:int -> t -> init:'a ->
  f:('a -> System.t -> Step.t -> System.outcome -> 'a) -> 'a
(** Replay while folding over each step's outcome; [f] receives the system
    state {e after} the step was applied. *)

val crit_order : t -> int list
(** Processes in order of their first [Enter] step — the order in which the
    critical section is granted. *)

val count_crit : t -> Step.crit -> int array
(** Per-process count of the given critical step. *)

val fingerprint : t -> string
(** A canonical string identifying the execution (used for distinctness
    checks across permutations, Theorem 7.5). *)

val pp : Format.formatter -> t -> unit

val pp_with_names : Register.spec array -> Format.formatter -> t -> unit
