(** Execution checkers for the mutual exclusion problem (paper §3.2).

    The paper demands of every finite execution: {e well-formedness} (each
    process's critical steps form a prefix of try·enter·exit·rem repeated)
    and {e mutual exclusion} (no two processes simultaneously between
    [enter] and [exit]). Livelock freedom quantifies over fair infinite
    executions and cannot be decided from one finite trace; the drivers in
    {!Canonical} and the explorer in {!Model_check} check the finite
    consequences we rely on (every scheduled process completes, no
    reachable deadlock). *)

type phase = Remainder | Trying | Critical | Exit_section

val phase_name : phase -> string

type violation =
  | Not_well_formed of { who : int; at : int; detail : string }
      (** process [who]'s critical step at index [at] breaks the
          try/enter/exit/rem cycle *)
  | Mutex_violated of { a : int; b : int; at : int }
      (** at step index [at], processes [a] and [b] are both critical *)

val pp_violation : Format.formatter -> violation -> unit

val violation_to_string : violation -> string

val violation_slug : violation -> string
(** ["ill_formed"] or ["mutex_violation"]: the outcome the chaos matrix
    and the mutation campaign name a violation by. *)

val check : n:int -> Lb_shmem.Execution.t -> (unit, violation) result
(** Structural check of well-formedness and mutual exclusion. Does not
    replay the automata — combine with {!Lb_shmem.Execution.replay} to also
    validate that the trace is an execution of a given algorithm. *)

val check_algorithm :
  Lb_shmem.Algorithm.t ->
  n:int ->
  Lb_shmem.Execution.t ->
  (int, [ `Violation of violation | `Mismatch of string ]) result
(** {!check} plus a replay through the algorithm's automata. The replay
    is {!Lb_cost.State_change.cost}'s, so [Ok c] carries the execution's
    SC cost [c] and callers need not replay it again. *)

val phases_at : n:int -> Lb_shmem.Execution.t -> upto:int -> phase array
(** Phase of every process after the first [upto] steps. *)

val completed_sections : n:int -> Lb_shmem.Execution.t -> int array
(** Number of completed critical sections (= [rem] steps) per process. *)
