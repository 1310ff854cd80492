(** Shared plumbing for the experiment drivers (EXPERIMENTS.md).

    Every experiment is deterministic given [seed]; tables are rendered
    through {!Lb_util.Table} so [mutexlb experiments] regenerates the
    same rows every run. *)

val default_seed : int
(** Seed of the tables in EXPERIMENTS.md and the default of
    [mutexlb experiments]: 20060723 (the paper's TR date). *)

val perms_for :
  seed:int -> n:int -> budget:int -> Lb_core.Permutation.t list * bool
(** Permutations to sweep for size [n]: all of [S_n] when [n! <= budget]
    (returns [true] for exhaustive), else [budget] samples. Raises
    [Invalid_argument] when [budget < 1] — an empty family would feed
    empty samples to {!Lb_util.Stats.summarize} and
    {!Lb_core.Pipeline.certify}, which both (rightly) refuse them. *)

val map_perms :
  ?jobs:int ->
  (Lb_core.Permutation.t -> 'a) ->
  Lb_core.Permutation.t list ->
  'a list
(** The experiments' π-sweep primitive: {!Lb_util.Pool.map} over a
    permutation family. Order-preserving, so tables built from the
    result are identical at every job count; [jobs] defaults to the
    process-wide {!Lb_util.Pool.default_jobs} (the CLI's [--jobs]). *)

val map_cells : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!Lb_util.Pool.map} over a table's (algo, n) grid cells, for
    experiments whose unit of work is a whole cell rather than one
    permutation (E1's certificates, E5's anatomy rows). Nested
    {!map_perms} calls inside a cell degrade to sequential, so grids of
    certify sweeps cannot oversubscribe the machine. *)

val set_store : ?resume:bool -> Lb_store.Store.t option -> unit
(** Route the experiments' pipeline sweeps through a durable result
    store (the CLI's [experiments --store DIR]). [resume] additionally
    quarantines per-π failures instead of failing fast. Process-global;
    set before running any experiment. *)

val certify_sweep :
  Lb_shmem.Algorithm.t ->
  n:int ->
  perms:Lb_core.Permutation.t list ->
  exhaustive:bool ->
  Lb_core.Bounds.certificate
(** {!Lb_core.Pipeline.certify} when no store is configured, else the
    durable {!Lb_store.Sweep.certify} — byte-identical certificates
    either way for failure-free sweeps, with completed permutations
    served from (and new ones written to) the store. *)

val records_for :
  Lb_shmem.Algorithm.t ->
  n:int ->
  Lb_core.Permutation.t list ->
  Lb_core.Pipeline.record list
(** Per-permutation pipeline records in family order — the store-aware
    sibling of [map_perms (record_of_result ∘ run_checked)]. With a
    store and [resume], quarantined failures still abort the experiment
    (a partial sample would silently skew its statistics), but only
    after the rest of the family has been computed and persisted. *)

val sc_cost_of_canonical : Lb_shmem.Algorithm.t -> n:int -> int
(** SC cost of the greedy canonical execution (identity priority). *)

val heading : string -> string -> unit
(** [heading id title] prints the experiment banner. *)
