(** Turn a fault plan into a wrapped algorithm.

    {!wrap} intercepts the target processes' {!Lb_shmem.Proc.t} closures
    and replays the plan's faults at their trigger points; every engine
    in the tree — runner, checker, model checker, cost models, lint —
    consumes the wrapped algorithm unchanged, because it {e is} an
    ordinary {!Lb_shmem.Algorithm.t}.

    {2 Determinism and state hygiene}

    Faults fire as a pure function of the target's own transition
    history, so wrapped automata are exactly as deterministic as the
    originals. The wrapper keeps its status (armed countdown / fired) as
    a suffix on the underlying repr — [underlying ^ "|a3"] while armed,
    [underlying ^ "|f"] after firing. The suffix is the final
    ['|']-separated segment and contains no ['|'] itself, so the wrapped
    repr is injective whenever the underlying one is: hash-consing
    consumers ({!Lb_mutex.Model_check}) see a faithful state witness.
    For the same reason a wrapped step's {!Lb_shmem.Proc.t.changed} is
    the wrapped automaton's own flag, or [true] when the step moves the
    countdown or fires: exactly when the wrapped repr changes. Countdowns
    only decrement on matching accesses and freeze once the
    fault fires, so wrapping inflates the reachable state space by at
    most the (small) trigger counter — never unboundedly. *)

val wrap : Fault.plan -> Lb_shmem.Algorithm.t -> Lb_shmem.Algorithm.t
(** [wrap plan algo] is [algo] with the plan's register and crash faults
    spliced into the targeted processes' automata. The result is named
    [algo.name ^ "+" ^ plan.label]. {!Fault.Starve} faults do not alter
    the automata (see {!starve}); they still contribute to the name.
    Faults are applied in list order; a crash restarts the target as a
    fresh automaton with any {e earlier-listed} faults re-armed.
    Raises [Invalid_argument] (at [spawn] time, when [n] is known) if
    the plan fails {!Fault.validate}. *)

val starve : Fault.fault list -> Lb_shmem.Runner.picker -> Lb_shmem.Runner.picker
(** [starve faults picker] refuses each {!Fault.Starve} target during
    its window of global steps, re-asking [picker] (up to [2n + 2]
    times) for an alternative. If every retry yields a starved process —
    nothing else is schedulable — the starved choice is yielded anyway
    rather than stalling the run; the window is unfairness, not a
    guarantee the process never runs. Non-[Starve] faults are
    ignored. *)
