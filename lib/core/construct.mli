(** The construction step (paper §5, Figure 1).

    [run algo ~n pi] executes the n-stage construction: stage [k] inserts
    the steps of process [pi_k+1] into the growing set of metasteps [M]
    and partial order [⪯], placing each write either inside an existing
    write metastep (where the eventual winner overwrites it) or as a new
    write metastep ordered after the maximal outstanding reads on its
    register, and each read either inside the first outstanding write
    metastep whose value would change the reader's state, or as a new
    singleton read metastep. The result is that in every linearization of
    [(M, ⪯)] the processes complete their critical sections once each, in
    the order [pi], and no process ever reads a value written by a
    process ordered after it in [pi].

    Implementation notes (documented deviations: none — but two
    refinements the paper leaves implicit):
    {ul
    {- Within a stage, the prefix linearization [Plin(M, ⪯, m')] is
       maintained {e incrementally}: each time [m'] advances, exactly the
       newly-reachable down-set is executed, in the topological order
       {!Poset.down_set_stopping} returns it, on the stage's own copy of
       one initial {!Lb_shmem.System.t}. The set of executed metasteps
       always equals the down-set of [m'], so the paper's "[µ ⋠ m']"
       tests become executed-set membership tests. A stage reads only
       its process [j]'s state and the register values of [Plin], so
       [j]'s automaton is the only one it runs: [j]'s step in the
       metastep it just moved onto goes through
       {!Lb_shmem.System.apply}, and every other step acts on the
       registers alone — a write stores its value (so a write metastep
       leaves its winner's value), a read or critical step stores
       nothing. The register file after a down-set does not depend on
       the topological order: each register holds the value of the last
       executed write metastep in its chain, which is [⪯]-total
       (Lemma 5.3).}
    {- The maximal outstanding reads on a register, which a new write
       metastep is ordered after, come from one backward search from all
       of them at once ({!Poset.maximal_among}). It stops at executed
       metasteps: the executed set is down-closed, so no path between
       two outstanding reads crosses it. The reads the search never
       reaches are the maximal ones.}
    {- Every earlier process's read metastep is checked when a later
       stage executes it: its register must hold the value the read saw
       in its own stage (Lemma 5.4), else {!Stage_stuck} reports a
       construction bug. Equal read values give every earlier process
       the same responses, so by determinism the same states and
       pending actions as in its own stage; a construction bug cannot
       silently produce a sequence that is not an execution of the
       algorithm. Reads inside write metasteps follow the winner and
       need no check. The automata themselves are re-run from the
       initial state after Construct, by {!Decode}, by the SC cost and
       by the two checker replays of {!Pipeline.check}.}} *)

exception
  Unsupported_primitive of {
    algo : string;
    who : int;
    action : Lb_shmem.Step.action;
  }
(** Raised when the algorithm performs a non-register shared-memory action
    (the lower bound covers registers only; see §8 for extensions). *)

exception
  Stage_stuck of {
    algo : string;
    pi : Permutation.t;
    stage : int;
    detail : string;
  }
(** Raised when a stage exceeds its fuel or a read can neither join a
    write metastep nor change the reader's state — for a livelock-free
    algorithm this indicates a bug in the algorithm, not the
    construction. Also raised, with a [detail] starting
    ["construction bug: "], when an earlier process's read sees a
    different value in a later stage than in its own; the detail names
    the reader, the metastep, the stage and both values. *)

type t = {
  algo : Lb_shmem.Algorithm.t;
  n : int;
  pi : Permutation.t;
  arena : Metastep.arena;  (** the metasteps M (= M_n) *)
  order : Poset.t;  (** the partial order ⪯ (= ⪯_n) *)
  proc_meta : Metastep.id array array;
      (** [proc_meta.(i)] — the metasteps containing process [i], in
          [⪯]-order (they form a chain); gives the encoder's [Pc] *)
  write_chain : (Lb_shmem.Step.reg, Metastep.id array) Hashtbl.t;
      (** per register, its write metasteps in [⪯]-order (Lemma 5.3) *)
}

val run : Lb_shmem.Algorithm.t -> n:int -> Permutation.t -> t
(** Run the full construction. The algorithm must be register-based and
    support [n] processes. *)

val run_stages :
  Lb_shmem.Algorithm.t -> n:int -> stages:int -> Permutation.t -> t
(** Run only the first [stages] stages, producing [(M_i, ⪯_i)] for
    [i = stages]: only processes [pi_1 .. pi_stages] take steps. Used to
    check Lemma 5.4 — a process cannot distinguish linearizations from
    later stages: for [i <= j <= k],
    [Lin(M_j)|pi_i = Lin(M_k)|pi_i]. *)

val metasteps_of : t -> int -> Metastep.id array
(** Chain of metasteps containing the given process. *)

val pc : t -> int -> Metastep.id -> int
(** [pc t p m] is the paper's [Pc(p, m)]: the 1-based position of
    metastep [m] within process [p]'s chain. Raises [Not_found]. *)
