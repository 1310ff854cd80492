(** The process automaton abstraction (paper §3.1).

    A process is a deterministic automaton: from its current local state it
    {e pends} exactly one action; feeding it the response of that action
    yields the next local state. The SC cost model (Definition 3.1) and
    the construction's [SC] predicate (Fig. 1) only ever ask whether one
    transition changed the local state, so every transition answers that
    question itself, in [changed]: {!Make_spawn} compares the old and new
    state values structurally. The canonical string [repr] is built only
    on demand, where a state is printed or hash-consed (the model
    checker's interner, lint).

    Processes are closure records rather than a functor so that engines,
    registries and experiment drivers can mix algorithms freely. Use
    {!Make_spawn} to derive the closure form from a conventional
    state-transition module. *)

type t = {
  id : int;  (** process index in [0 .. n-1] *)
  pending : Step.action;  (** the unique next step (determinism, §3.1) *)
  advance : Step.response -> t;  (** pure transition on the observed response *)
  changed : bool;
      (** did the transition that produced this process change its local
          state? [false] for a freshly spawned process. *)
  repr : unit -> string;
      (** canonical encoding of the local state, built on each call *)
}

val pp : Format.formatter -> t -> unit

(** Conventional description of an algorithm's per-process automaton. *)
module type STATE = sig
  type state
  (** Compared structurally ([==], then [<>]) to decide [changed], so it
      must be an immutable value: a closure makes the comparison raise,
      and a transition that updated a mutable field in place and
      returned the same state would read as no change. Every registry
      algorithm uses a variant of ints. *)

  val initial : n:int -> me:int -> state
  (** Initial local state of process [me] among [n] processes. The paper
      assumes the initial step of each process is [try] (§3.2 end); the
      algorithms in [Lb_algos] all satisfy this. *)

  val pending : n:int -> me:int -> state -> Step.action

  val advance : n:int -> me:int -> state -> Step.response -> state

  val repr : state -> string
  (** Injective on reachable states: distinct reachable states must
      produce distinct strings, so that two states have the same repr
      exactly when they are structurally equal. No other shape
      constraint — reprs are hash-consed (never concatenated) by every
      consumer that packs states, so delimiter characters such as [';']
      or ['|'] are safe to use. *)
end

module Make_spawn (S : STATE) : sig
  val spawn : n:int -> me:int -> t
end
