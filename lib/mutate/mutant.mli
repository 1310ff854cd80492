(** Turn an operator instance into a runnable mutant: an
    {!Lb_shmem.Algorithm.t} wrapping the base algorithm the way
    [Lb_faults.Inject.wrap] splices fault plans — permanently-transparent
    closures that keep the mutation status as trailing ['|']-segments of
    the repr, preserving repr injectivity. A wrapped step's
    {!Lb_shmem.Proc.t.changed} is the wrapped automaton's flag, or [true]
    when the step moves the mutation phase, so it holds exactly when the
    wrapped repr changes. Unlike fault plans the
    wrappers are permanent and seed-free: the mutation is "in the code",
    active from the first step, identical on every run — so mutation
    campaigns are byte-reproducible.

    The one exception to the wrapping rule is [domain_shrink], which
    rewrites the {e register specification} and leaves execution
    untouched: specs are declarative, so a tighter bound changes what
    the static analyzer may assume, not what the automaton does. *)

open Lb_shmem

type t = {
  base : Algorithm.t;  (** the unmutated algorithm *)
  n : int;  (** system size the site was discovered at *)
  op : Op.t;
  op_id : string;  (** {!Op.id} under [base]'s registers at [n] *)
  algo : Algorithm.t;
      (** the mutant, named [base.name ^ "!" ^ op_id]; run this *)
}

val make : Algorithm.t -> n:int -> Op.t -> t
(** Build the mutant. The wrapper closes over the register file for the
    size it is spawned at, so the same [t] can be instantiated at other
    sizes, but the operator's site indices were chosen at [n]. *)

val apply_rmw : Step.rmw_op -> Step.value -> Step.value
(** The value an RMW primitive stores when it reads [v] — the
    write half of the [rmw_split] operator, exposed for tests. *)
