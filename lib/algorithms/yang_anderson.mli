(** Yang and Anderson's local-spin mutual exclusion algorithm (1995) —
    the algorithm the paper cites as the matching O(n log n) upper bound
    for the state change cost model (§1, §2).

    Processes climb a binary arbitration tree of height ⌈log₂ n⌉. Each
    internal node [v] runs a three-variable two-process protocol over
    [C v 0], [C v 1] (announcement cells for the two subtrees) and [T v]
    (a tie-breaker); a blocked process spins on its {e own} per-process
    register [P i], which its rival updates to wake it. Because every
    busy-wait reads a single register whose value it is waiting to see
    change, the SC model charges O(1) per node visit, hence O(log n) per
    entry and O(n log n) per canonical execution. [P i] is homed at
    process [i] for the DSM model. A process has one spin register per
    tree level, [P i_k]; {!flat}, the ablation, has one in all. *)

val algorithm : Lb_shmem.Algorithm.t

val flat : Lb_shmem.Algorithm.t
(** ABLATION ([yang_anderson_flat]): the same automaton with a single
    spin register [P i] per process instead of one per (process, level).

    This variant is {e deliberately faulty}. When a process's node rival
    loses a race and performs its wake-up write [P rival := 1] after the
    rival has already climbed to a higher tree node (and reset the same
    register for the {e new} competition), the stale write corrupts the
    higher-level hand-shake and the tree deadlocks — the bounded model
    checker exhibits a 33-step witness at n = 3. {!algorithm} therefore
    uses per-(process, level) spin registers; [flat] exists so the
    ablation is reproducible (DESIGN.md §4, experiment
    `mutexlb check -a yang_anderson_flat -n 3`). *)

val levels : n:int -> int
(** Height of the arbitration tree: [⌈log₂ (max n 2)⌉]. *)

(** The state-transition module behind {!algorithm}, exposed so tests
    can derive controlled variants (the lint suite rebuilds the
    pre-PR-2 ["rt2"] repr collision by overriding [repr] alone and
    checks that [mutexlb lint] catches it statically). *)
module State : sig
  type entry_pc =
    | Set_c
    | Set_t
    | Reset_p
    | Read_rival
    | Read_t of int
    | Read_rival_p of int
    | Set_rival_p of int
    | Await_p1
    | Read_t2
    | Await_p2

  type exit_pc = Clear_c | X_read_t | X_set_rival_p of int

  type pc =
    | Start
    | Entry of { k : int; epc : entry_pc }
    | Enter
    | In_cs
    | Exit_ of { k : int; xpc : exit_pc }
    | Rem

  type state = pc

  val initial : n:int -> me:int -> state
  val pending : n:int -> me:int -> state -> Lb_shmem.Step.action
  val advance : n:int -> me:int -> state -> Lb_shmem.Step.response -> state
  val repr : state -> string
end
