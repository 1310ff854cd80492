(** A growing partial order over integer element ids.

    Backs the construction's order [⪯] on metasteps (paper §5). Elements
    are added once; edges only accumulate, so reachability ([leq]) is the
    reflexive–transitive closure of the edge relation. The construction
    adds edges only from already-present elements, which keeps the relation
    acyclic; {!add_edge} enforces this with an explicit check.

    Ids are non-negative and index arrays directly, so they should be
    dense — metastep ids are arena indices. Queries write visit stamps
    inside the poset: a poset must not be queried from two domains at
    once, nor from inside a [stop] callback. Every construction is built,
    queried and dropped by one domain. *)

type t

val create : unit -> t

val add_element : t -> int -> unit
(** Register a new element id. Ids must be registered before use; raises
    [Invalid_argument] on duplicates and on negative ids. *)

val mem : t -> int -> bool

val cardinal : t -> int

val elements : t -> int list
(** All element ids in registration order. *)

exception Cycle of int * int
(** Raised by {!add_edge} when the new edge would create a cycle. *)

val add_edge : t -> int -> int -> unit
(** [add_edge t a b] records [a ⪯ b]. Idempotent on duplicate edges.
    Raises {!Cycle} if [b ⪯ a] already holds (with [a <> b]). *)

val preds : t -> int -> int list
(** Direct predecessors, most recently added first. *)

val succs : t -> int -> int list
(** Direct successors, most recently added first. *)

val leq : t -> int -> int -> bool
(** [leq t a b] — does [a ⪯ b] hold (reflexively, transitively)? *)

val down_set : t -> int -> int list
(** All elements [⪯ m], including [m] itself, in the topological order
    of {!down_set_stopping}. *)

val down_set_stopping : t -> int -> stop:(int -> bool) -> int list
(** Like {!down_set} but does not traverse below elements satisfying
    [stop] (the stopped elements themselves are excluded). The result is
    in a topological order: every element comes after each of its
    predecessors in the result, so [m] comes last. When [stop] is
    down-closed, as the construction's executed set is, the result is
    exactly [{x ⪯ m | not (stop x)}]. One depth-first search, with an
    explicit stack; used to collect, ready to execute, the
    not-yet-executed part of a down-set. *)

val maximal_among : t -> int list -> stop:(int -> bool) -> int list
(** The elements of the list with no strict successor in the list, in
    list order. One backward search from the whole list, which does not
    traverse elements satisfying [stop]: the answer is exact when no
    member satisfies [stop] and no path between two members passes
    through one — which holds when [stop] is down-closed, as the
    construction's executed set is. *)

val topo_sort : t -> int list -> int list
(** Topological order of the given elements (which must be closed enough
    that comparisons outside the list don't matter — we only use edges
    between listed elements), smallest id first among ready elements, so
    the order is deterministic. Raises [Invalid_argument] on an unknown
    or repeated element. *)
