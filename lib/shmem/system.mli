(** System state and step semantics (paper §3.1).

    A system state is the tuple of all register values and all process
    local states. [apply] executes one step: it computes the response of the
    step's action against the registers, advances the issuing process, and
    reports whether that process changed local state — the quantity the SC
    cost model charges for (Definition 3.1). *)

type t = {
  n : int;
  algo : Algorithm.t;
  regs : Step.value array;  (** current register values (mutable in place) *)
  procs : Proc.t array;  (** current process automata *)
}

exception
  Step_mismatch of {
    who : int;
    expected : Step.action;
    actual : Step.action;
  }
(** Raised by {!apply} when a replayed step disagrees with the process's
    pending action — executions of a deterministic algorithm admit exactly
    one action per process per state, so any disagreement means the
    execution is not an execution of this algorithm. *)

type outcome = {
  response : Step.response;  (** what the process observed *)
  state_changed : bool;
      (** did [who]'s local state change? The advanced process's
          {!Proc.t.changed}: no repr is built. *)
  old_value : Step.value;
      (** previous value of the accessed register ([0] for critical steps) *)
}

val init : Algorithm.t -> n:int -> t
(** Fresh system in the default initial state [s0]. *)

val rmw_result : Step.value -> Step.rmw_op -> Step.value
(** [rmw_result old op] is the value a register holding [old] contains
    after [op] (the returned {e response} of an RMW is always [old]).
    Exposed for the static analyzer, which folds it over a register's
    value set to over-approximate what RMW steps can store. *)

val copy : t -> t
(** Deep copy (registers and process array). *)

val apply : t -> Step.t -> outcome
(** Execute one step, mutating [t]. Raises {!Step_mismatch} if the step's
    action differs from the issuing process's pending action, and
    [Invalid_argument] on a bad process index or register. *)

val is_rejection : exn -> bool
(** True for the [Invalid_argument] {!apply} raises on a register that
    does not exist: the system model rejecting an impossible access. A
    corrupted value can flow into a register index, and the chaos
    matrix and the mutation campaign count this rejection as the
    detection. *)

val response_of : t -> Step.action -> Step.response
(** The response the action would get in the current state, without
    executing it. *)

val advance_proc : t -> int -> Proc.t
(** [advance_proc t i] is process [i] advanced by the response its pending
    action would receive in the current state — one automaton transition,
    without mutating [t]. {!would_change_state} reads its
    {!Proc.t.changed}; the model checker feeds it to {!copy_with} so each
    successor costs exactly one transition. *)

val would_change_state : t -> int -> bool
(** [would_change_state t i] — would process [i] change local state if it
    performed its pending action right now? Used by SC-aware schedulers:
    a busy-waiting process (pending read observing an unhelpful value)
    answers [false]. *)

val copy_with : t -> int -> Proc.t -> t
(** [copy_with t i p'] is a copy of [t] in which process [i]'s pending
    action has taken effect on the registers and [i] has been replaced by
    [p'] — normally [advance_proc t i]. Equivalent to {!copy} followed by
    {!apply} of [i]'s pending step, but does not repeat the automaton
    transition the caller already performed to obtain [p']. *)

val peek_after_read : t -> int -> Step.value -> bool
(** [peek_after_read t i v] — would process [i], whose pending action must
    be a [Read], change state upon observing value [v]? This is the paper's
    [SC(alpha, m, i)] predicate specialised to the current state (Fig. 1,
    bottom). Raises [Invalid_argument] if [i]'s pending action is not a
    read. *)

val num_regs : t -> int
(** Size of the register file — the fixed-width prefix of a packed state
    key (see {!Lb_mutex.Model_check}). *)

val state_repr : t -> int -> string
(** [state_repr t i] is [st(alpha, i)] — process [i]'s local state
    witness, built on each call. *)

val pending_of : t -> int -> Step.action

val pp : Format.formatter -> t -> unit
