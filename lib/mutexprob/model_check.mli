(** Bounded exhaustive exploration of an algorithm's reachable state space.

    Replaces the paper's hand proofs of algorithm correctness with
    machine checking on small instances: starting from the initial system
    state, explore every interleaving in which each process completes at
    most [rounds] critical sections, and look for (a) two processes
    simultaneously critical, (b) well-formedness violations, and (c)
    deadlocks — states where no unfinished process can ever change state
    again.

    {2 State representation}

    A state is identified by one packed int array: the register file
    followed by one slot per process combining its hash-consed local
    state ({!Lb_util.Interner} over [Proc.repr] — injective by
    construction, so reprs may contain any characters), its checker
    phase, and its completed-section count. Expansion workers resolve
    reprs against a per-layer interner snapshot; reprs first seen in a
    layer are interned by a short sequential patch step, in stream
    order — never concurrently — so a packed key is a pure function of
    the explored graph: identical at every job count and stable across a
    kill/resume boundary. The node table
    stores, per state, only the parent's index and the incoming step;
    witness traces (and, on resume, frontier states) are rebuilt by
    replaying parent chains through [System.apply].

    Hash-consing relies on reprs being faithful witnesses: two distinct
    local states of one process must not share a repr (reprs need not be
    unique across processes). The explorer also memoizes automaton
    transitions on (process, state id, response) — the automata are
    deterministic, so the hot path runs each distinct transition's
    [advance] and repr construction once.

    {2 Scheduling}

    The search is breadth-first, layer by layer, as a two-stage
    pipeline: successor generation fans out across domains
    ({!Lb_util.Pool}) in order-preserving chunks, and deduplication then
    fans out again, one worker per visited-set shard (each shard owns
    its candidates in stream order). Every parallel stage of every
    layer runs on one team of worker domains, opened for the whole
    exploration. Expansion emits only each successor's packed key and
    what the commit needs to build the rest; the successor's system,
    phase and section arrays and its step are built only for the
    states that survive deduplication. Every successor carries a global
    stream position — [(frontier index) * (n+1) + 1 + (successor
    index)] — and verdict events are resolved to the smallest position
    in a sequential epilogue, so the verdict, the state and transition
    counts and any witness trace are identical at every job count. Node
    ids follow a deterministic [(shard, shard-local index)] schema:
    surviving candidates are committed by walking shards in index order.
    At [jobs = 1], for small frontiers, or inside a pool worker, every
    stage runs in the calling domain — the same canonical order, so
    results and spill bytes do not depend on the scheduling. Reads that
    cannot change the reader's local state (busy-wait spins) are
    recognized as self-loops and counted without being materialized.

    {2 Out-of-core checking}

    The visited set is exact: 64 hash-table shards, selected by an
    independent hash. With a [spill_dir], each completed layer
    checkpoints to disk: the layer's newly inserted keys as a
    delta-coded run ({!Check_spill}, shard-grouped and sorted within
    each shard), the frontier's node indices, the node log, the
    interner's new names, and an atomically rewritten manifest. Under a
    [mem_budget], the largest resident shards are then evicted; keys are
    already durable in the runs, so membership for an evicted shard
    streams the runs once per layer (delayed duplicate detection)
    instead of holding the keys in RAM. That scan splits the runs into
    [jobs] groups balanced by key count, one per domain and reused read
    buffer, and marks the duplicates its groups report after the join,
    so its result does not depend on the split. A killed or
    deadline-stopped check resumes from its last completed layer and
    produces the same verdict, counts and spill bytes as an
    uninterrupted run, whatever job count wrote the checkpoint. *)

type verdict =
  | Verified  (** the bounded state space is exhausted with no violation *)
  | Mutex_violation of Lb_shmem.Execution.t
      (** a witness trace ending with two processes critical *)
  | Deadlock of Lb_shmem.Execution.t
      (** a witness trace to a stuck, unfinished state *)
  | Ill_formed of {
      trace : Lb_shmem.Execution.t;
      who : int;
      detail : string;
    }
      (** a witness trace whose final step breaks process [who]'s
          try/enter/exit/rem cycle. Unreachable for the well-formed
          automata of the zoo; fault-wrapped algorithms
          ({!Lb_faults.Inject}) reach it routinely — e.g. a process that
          crashes mid-protocol and restarts in the remainder section
          issues a second [try] from a non-remainder phase *)
  | Bound_exceeded of int
      (** the state budget filled up; carries the number of states
          actually stored, which never exceeds [max_states] — the bound
          fires at a deterministic stream position (the first stored
          candidate past the budget), so the count is identical at every
          job count *)
  | Deadline_exceeded of int
      (** the wall-clock budget expired mid-exploration; carries the
          number of states stored so far. Like {!Bound_exceeded} this is
          a graceful bounded verdict with partial statistics, not an
          error — but unlike every other verdict it depends on machine
          speed, so determinism-sensitive consumers (the chaos matrix)
          must treat it as inconclusive. With a [spill_dir], the last
          completed layer's checkpoint survives and the check can be
          resumed *)
  | Mem_exceeded of int
      (** the memory budget cannot be met: without a [spill_dir] the
          accounted footprint exceeded [mem_budget] at a layer boundary;
          with one, it still exceeded the budget after evicting every
          evictable shard. Carries the number of states stored. Like
          {!Bound_exceeded}, deterministic at every job count *)

type stats = {
  expand_seconds : float;
      (** wall-clock spent generating successors (the parallel
          expansion stage) *)
  merge_seconds : float;
      (** wall-clock spent interning, deduplicating (including the
          delayed duplicate-detection scans), resolving verdicts and
          inserting survivors *)
  spill_seconds : float;
      (** wall-clock spent in durable checkpoints, eviction and resume
          reload *)
  layers : int;  (** completed BFS layers *)
  scan_layers : int;
      (** layers whose merge scanned the spilled runs: those after the
          first eviction with a new candidate that no resident shard
          could decide. A count, not a time, and the same at every job
          count; [0] in RAM, and a resumed check counts only the layers
          it ran itself *)
  domains : int;
      (** worker domains the exploration started: the team of its one
          {!Lb_util.Pool.scope}, started at the first parallel stage and
          running every later one. [0] at [jobs = 1], when no layer
          reaches the parallel threshold, inside a pool worker, or when
          the domain budget is full *)
}
(** Per-stage breakdown ([mutexlb check --stats]). The seconds are
    wall-clock figures, so not deterministic — everything else in a
    {!report} except [seconds] is; [domains] depends on the job count
    and the domain budget, never on the explored graph. *)

type report = {
  verdict : verdict;
  states : int;  (** distinct states stored in the node table *)
  transitions : int;  (** steps generated, including duplicate targets *)
  live_words : int;
      (** peak words retained by the exploration, deterministically
          accounted from fixed per-structure constants (visited keys,
          node records, interned names, memo entries) — two identical
          runs report identical figures, unlike a [Gc.stat] sample,
          which moves with allocator noise from other domains *)
  seconds : float;  (** wall-clock exploration time *)
  stats : stats;  (** per-stage timing breakdown *)
}

val explore :
  ?rounds:int ->
  ?max_states:int ->
  ?jobs:int ->
  ?deadline:float ->
  ?mem_budget:int ->
  ?spill_dir:string ->
  ?resume:bool ->
  Lb_shmem.Algorithm.t ->
  n:int ->
  report
(** [explore algo ~n] runs the breadth-first exploration. [rounds]
    defaults to [1], [max_states] to [200_000], [jobs] to
    {!Lb_util.Pool.default_jobs} (layers are expanded sequentially when
    the frontier is small or when already inside a pool worker).
    [verdict], [states] and [transitions] do not depend on [jobs].
    [deadline] is a wall-clock budget in seconds
    from the start of the call; when it expires the exploration stops
    with {!Deadline_exceeded} and partial statistics (the clock is
    polled between pipeline stages, so the overrun is bounded by one
    stage of one layer).

    [mem_budget] bounds the accounted footprint, in bytes, checked at
    layer boundaries. Without a [spill_dir], exceeding it yields {!Mem_exceeded}; with one,
    visited-set shards spill to disk and the check completes with the
    exact in-RAM verdict and counts.

    [spill_dir] enables per-layer durable checkpoints in that directory
    (created if needed). [resume] (requires [spill_dir]) continues from
    the directory's manifest: an empty or absent directory starts
    fresh, a running checkpoint restarts from its last completed layer,
    and a directory holding a final verdict returns that report without
    re-exploring: the same verdict, witness, [states], [transitions] and
    [live_words], rebuilt from the manifest's final record and the node
    log (timings are zero). The manifest pins algorithm, [n], [rounds] and
    [max_states]; resuming with mismatched parameters raises
    [Invalid_argument]. A directory written by an older lossy check
    (manifest [lossy] field other than [none]) is refused with
    [Failure] naming the mode: it may have dropped states, so it is
    never resumed as exact.

    Raises [Invalid_argument] if [rounds], [jobs], [max_states] or
    [mem_budget] is out of range, or if [resume] is set without [spill_dir];
    [Failure] on a damaged or inconsistent spill directory — including
    a key run whose key count disagrees with the manifest. *)

val states_per_sec : report -> float
(** Exploration throughput, [states /. seconds]. *)

val bytes_per_state : report -> float
(** Peak retained bytes per stored state,
    [live_words * word-size / states]. *)

val pp_verdict : Format.formatter -> verdict -> unit

val verdict_slug : verdict -> string
(** The verdict's constructor as a snake_case word (["verified"],
    ["mutex_violation"], …) — the ["verdict"] field of [check --json],
    of the job service's check results and of a final spill manifest
    ({!Check_spill.final}). *)
