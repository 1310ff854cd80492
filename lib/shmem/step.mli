(** Steps, actions and responses of the shared-memory model (paper §3.1).

    A system is a set of deterministic process automata communicating
    through multi-reader multi-writer registers. A process's transition
    function proposes an {!action}; executing the action against the shared
    state yields a {!response} which drives the automaton to its next local
    state. A {!t} is one event of an execution: a process index together
    with the action it performed.

    The paper restricts shared objects to registers ([Read]/[Write]); the
    [Rmw] actions implement the "stronger primitives" extension sketched in
    §8 and are rejected by the lower-bound pipeline. *)

type reg = int
(** Index of a register in the algorithm's register file. *)

type value = int
(** Register contents. Algorithms encode [nil] as [0] and process
    identifiers as [1..n] (see [Lb_algos.Common]). *)

type crit = Try | Enter | Exit | Rem
(** The four critical steps [try_i], [enter_i], [exit_i], [rem_i] (§3.2). *)

type rmw_op =
  | Test_and_set  (** set to 1, return old value *)
  | Fetch_add of value  (** add, return old value *)
  | Swap of value  (** replace, return old value *)
  | Cas of { expect : value; replace : value }
      (** compare-and-swap; returns the old value (success iff old =
          expect) *)

type action =
  | Read of reg
  | Write of reg * value
  | Rmw of reg * rmw_op
  | Crit of crit

type response =
  | Got of value  (** result of a [Read] or [Rmw] *)
  | Ack  (** completion of a [Write] or [Crit] *)

type t = { who : int; action : action }
(** One step of an execution: process [who] performs [action]. *)

val step : int -> action -> t

val is_shared_access : action -> bool
(** True for [Read], [Write] and [Rmw]; false for critical steps. The SC
    cost model only ever charges shared accesses (Definition 3.1). *)

val is_register_action : action -> bool
(** True for [Read] and [Write] only. *)

val reg_of : action -> reg option
(** The register accessed, if the action is a shared access. *)

val crit_name : crit -> string

val equal_crit : crit -> crit -> bool

val equal_action : action -> action -> bool

val equal : t -> t -> bool

val compare : t -> t -> int

val add_to_buffer : Buffer.t -> t -> unit
(** [add_to_buffer buf t] appends [t]'s rendering, e.g. [p3:write(r5,2)],
    [p0:rmw(r1,cas(0,1))] or [p2:enter]. It is the one renderer of steps:
    {!to_string}, {!pp} and {!pp_action} print the same bytes, and
    {!Execution.fingerprint} digests them. *)

val pp_action : Format.formatter -> action -> unit

val pp : Format.formatter -> t -> unit

val to_string : t -> string
