(** One body per job kind, run by the batch verb and by the server.

    [mutexlb check|lint|chaos|mutate|certify --store] and the same job
    POSTed to [mutexlb serve] call one function here, so a verdict,
    report or certificate cannot depend on which of the two asked.
    Each body takes the job's {!Protocol} spec, a cancel token, and the
    parameters only the CLI sets: the server passes the values the verb
    uses when their flags are omitted, and the JSON grammar names none
    of them, so a POST body cannot reach a server path. [Error] is a
    one-line diagnostic about the parameters (an unknown algorithm, an
    empty list). A cancelled job raises [Lb_util.Pool.Cancelled];
    certify reports it instead. *)

type check = {
  reports : (Lb_shmem.Algorithm.t * Lb_mutex.Model_check.report) list;
  skipped : Lb_shmem.Algorithm.t list;  (** listed, but not supporting [n] *)
}

val check :
  cancel:Lb_util.Pool.Cancel.t ->
  deadline:float option ->
  mem_budget:int option ->
  spill_dir:string option ->
  resume:bool ->
  Protocol.check_spec ->
  (check, string) result
(** Explore each listed algorithm that supports [n], fanned out over
    the pool; [mem_budget] is in bytes, [spill_dir] holds one
    [ALGO_nN_rR] directory per algorithm. A spill directory [resume]
    cannot continue raises [Sys_error] naming it. *)

val lint :
  cancel:Lb_util.Pool.Cancel.t ->
  settings:Lb_analysis.Automaton.settings ->
  passes:Lb_analysis.Pass.t list ->
  allowlist:bool ->
  Protocol.lint_spec ->
  (Lb_analysis.Driver.report, string) result

val chaos :
  cancel:Lb_util.Pool.Cancel.t ->
  deadline:float option ->
  Protocol.chaos_spec ->
  Lb_faults.Matrix.t
(** The shipped cells, then [h_random] random ones. *)

val mutate :
  cancel:Lb_util.Pool.Cancel.t ->
  config:Lb_mutate.Campaign.config ->
  short_circuit:bool ->
  allowlist:bool ->
  Protocol.mutate_spec ->
  (Lb_mutate.Campaign.t, string) result

type certify =
  | Swept of Lb_core.Bounds.certificate option * Lb_store.Sweep.report
  | Interrupted of string option
      (** the cancel token fired; the manifest last checkpointed *)
  | Busy of Lb_store.Store_lock.held  (** the writer lease never freed *)

val certify :
  store:Lb_store.Store.t ->
  cancel:Lb_util.Pool.Cancel.t ->
  on_event:(Lb_store.Sweep.event -> unit) ->
  jobs:int option ->
  checkpoint_every:int option ->
  Protocol.certify_spec ->
  (certify, string) result
(** {!Lb_store.Sweep.certify} over the spec's {!family}; [None] for
    [jobs] or [checkpoint_every] is the sweep's own default. *)

val family : Protocol.certify_spec -> Lb_core.Permutation.t list * bool
(** {!Protocol.family} at the spec's clamped [perms]. *)
