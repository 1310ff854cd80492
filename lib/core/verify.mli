(** Invariant checks on a finished construction — executable versions of
    the paper's lemmas. The five {!structural} checks run in every
    {!Pipeline.check}, so every certified permutation gets them; {!all}
    adds the sampled and Theorem 5.5 checks, run by the [construct] verb,
    the E7 experiment and the test suite. Each check returns [Ok ()] or a
    description of the first violation. *)

val acyclic : Construct.t -> (unit, string) Result.t
(** Lemma 5.2: [⪯] is a partial order (our poset rejects cycles on edge
    insertion; this re-validates by topologically sorting everything). *)

val write_chains_total : Construct.t -> (unit, string) Result.t
(** Lemma 5.3: for every register, its write metasteps are totally ordered
    by [⪯], and the recorded chain lists them in that order. Checked on
    consecutive pairs of the chain, which by transitivity shows both. *)

val process_chains_total : Construct.t -> (unit, string) Result.t
(** §6: the metasteps containing any one process are totally ordered, in
    the order [proc_meta] lists them (checked like
    {!write_chains_total}). *)

val metasteps_well_formed : Construct.t -> (unit, string) Result.t
(** Definition 5.1: every write metastep has a winning write; all steps of
    a read/write metastep access its register; no process appears twice in
    a metastep; read metasteps are singletons; prereads are read metasteps
    ordered before their write metastep, each a preread of at most one. *)

val winner_is_pi_minimal : Construct.t -> (unit, string) Result.t
(** The winner of every write metastep is the pi-minimal process it
    contains (the observation inside Lemma 5.8's proof: later-stage
    processes only ever join existing write metasteps as losers). *)

val projections_stable : ?samples:int -> ?seed:int -> Construct.t -> (unit, string) Result.t
(** Lemma 5.4 (linearization half): sampled random linearizations replay
    correctly and give every process the same projection as the canonical
    one. *)

val cost_invariant : ?samples:int -> ?seed:int -> Construct.t -> (unit, string) Result.t
(** Lemma 6.1: sampled random linearizations all have the canonical SC
    cost. *)

val enter_order_is_pi : Construct.t -> (unit, string) Result.t
(** Theorem 5.5 on the canonical linearization. *)

val lemma_5_8 : Construct.t -> (unit, string) Result.t
(** Lemma 5.8 in the form the decoder relies on (its hypotheses quantify
    over the configurations Decode actually reaches — Lemma 7.2's case W):
    over every prefix [N] of the canonical metastep order (each is a
    down-closed set), whenever a process's {e next} metastep (the first
    unexecuted one on its chain) is a write metastep in which it writes,
    that metastep is the globally first unexecuted write metastep on its
    register. Quadratic in |M| — used by tests at small n, not by
    {!all}. *)

val lemma_5_10 : Construct.t -> (unit, string) Result.t
(** Lemma 5.10, decoder form (Lemma 7.2's case PR): over every prefix,
    whenever a process's next metastep is a preread, its target write
    metastep is the first unexecuted write metastep on that register — so
    the decoder's preread count always credits the metastep about to
    fire. Quadratic in |M| — used by tests at small n, not by {!all}. *)

val structural : (string * (Construct.t -> (unit, string) Result.t)) list
(** The five structural checks, labelled, in order: {!acyclic},
    {!write_chains_total}, {!process_chains_total},
    {!metasteps_well_formed} and {!winner_is_pi_minimal}. *)

val all : ?samples:int -> ?seed:int -> Construct.t -> (string * (unit, string) Result.t) list
(** {!structural}, then {!projections_stable}, {!cost_invariant} and
    {!enter_order_is_pi}, labelled. *)

val exit_status : (string * (unit, string) Result.t) list -> int
(** [0] when every labelled result is [Ok], else [1]: the [construct]
    verb's exit status over {!all}. *)
