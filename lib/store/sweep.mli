(** Checkpointed, resumable π-sweeps over the content-addressed store.

    The sweep engine wraps the per-π lower-bound pipeline
    ({!Lb_core.Pipeline.run_checked}) with durability:

    {ul
    {- every completed permutation is written to the {!Store} as its own
       atomic entry {e immediately}, so a crash or Ctrl-C loses at most
       the in-flight work of each worker domain;}
    {- on (re-)run, permutations whose key already resolves to a valid
       entry are skipped — their recorded cost/bits/decode-fingerprint
       feed the certificate without touching Construct/Encode/Decode;}
    {- damaged entries (truncated, corrupt, stale format version) are
       diagnosed, surfaced as an event, and transparently recomputed;}
    {- with [~resume:true], a per-π pipeline failure is {e quarantined}
       (recorded in the manifest, reported in the result) instead of
       aborting the sweep — the rest of the family still completes;
       without it the first failure propagates fail-fast, exactly like
       {!Lb_core.Pipeline.certify};}
    {- a {!Manifest} snapshot is checkpointed atomically every
       [checkpoint_every] completions, {e eagerly} on every quarantined
       failure (so the on-disk manifest names a failure as soon as it is
       quarantined — failures are stored nowhere else, and a resumed run
       recomputes them by design), and finalized at the end. The final
       manifest and certificate are pure functions of the inputs:
       byte-identical whether the sweep ran once or was interrupted and
       resumed, at any job count.}}

    Work fans out across domains via {!Lb_util.Pool.map} (inheriting
    its nested-sequential degradation), so a store-backed sweep can sit
    inside a parallel experiment grid.

    Everything below the engine loop — input checks, keys, the per-unit
    compute-and-publish step, reading a unit back as a record, the
    manifest and the certificate — is the {!plan} and the four functions
    beside it, shared with the distributed engine ({!Sweep_dist}) and
    the job service's warm path. *)

(** {2 The unit plan} *)

type plan = private {
  u_store : Store.t;
  u_algo : Lb_shmem.Algorithm.t;
  u_n : int;
  u_save_traces : bool;
  u_pi_timeout : float option;
  u_fp : string;  (** {!Store_key.fingerprint} of the algorithm at [u_n] *)
  u_pis : Lb_core.Permutation.t array;  (** the family, in order *)
  u_keys : string array;  (** [u_keys.(i)] is the store key of [u_pis.(i)] *)
  u_sweep_id : string;  (** {!Store_key.sweep_id} of the family *)
  u_manifest : string;  (** the sweep's manifest path in [u_store] *)
}
(** One sweep family, checked and keyed once. Unit [i] is the pipeline
    run on [u_pis.(i)]. *)

val plan :
  who:string ->
  store:Store.t ->
  ?save_traces:bool ->
  ?pi_timeout:float ->
  Lb_shmem.Algorithm.t ->
  n:int ->
  perms:Lb_core.Permutation.t list ->
  plan
(** Check the inputs and derive the fingerprint, the per-unit keys, the
    sweep id and the manifest path. Raises [Invalid_argument], its
    message prefixed by [who], on an empty family, an RMW algorithm, an
    [n] the algorithm does not support, or [pi_timeout <= 0].
    [save_traces] defaults to [false], [pi_timeout] to none. *)

val lookup :
  plan ->
  int ->
  [ `Hit of Lb_core.Pipeline.record | `Absent | `Damaged of string ]
(** Unit [i] as stored: its record on a valid entry, or why there is
    none ({!Store.lookup}'s diagnostic for a damaged entry). *)

val compute : plan -> int -> Lb_core.Pipeline.record
(** Run unit [i] through {!Lb_core.Pipeline.run_checked} and publish it
    with {!Store.put} — with the E_pi bits when the plan saves traces.
    Raises {!Pi_timeout} (before the put) when the unit overran the
    plan's [pi_timeout]; pipeline failures propagate unchanged. *)

val save_manifest :
  plan -> (int -> [ `Pending | `Done | `Failed of string ]) -> unit
(** Atomically write the sweep manifest, unit [i]'s line from
    [outcome_of i]. *)

val certificate :
  Lb_shmem.Algorithm.t ->
  n:int ->
  exhaustive:bool ->
  Lb_core.Pipeline.record list ->
  Lb_core.Bounds.certificate option
(** {!Lb_core.Pipeline.certificate_of_records} over records in family
    order; [None] when there are none. *)

val pi_json : Lb_core.Permutation.t -> string
(** A permutation as the JSON string ["2,0,1"] — the [pi] field of
    both engines' events. *)

(** {2 The single-process engine} *)

type item_outcome =
  | Hit  (** served from the store *)
  | Computed  (** ran the pipeline, entry written *)
  | Failed of string  (** quarantined pipeline failure ([~resume:true]) *)

type progress = {
  p_total : int;
  p_done : int;  (** hits + computed + failed *)
  p_hits : int;
  p_computed : int;
  p_failed : int;
  p_elapsed_s : float;
  p_rate : float;  (** completions per second, wall clock *)
  p_eta_s : float;  (** remaining/rate; 0 when finished, inf when unknown *)
}

type event =
  | Start of { total : int; sweep_id : string }
  | Item of {
      index : int;  (** position in the permutation family *)
      pi : Lb_core.Permutation.t;
      outcome : item_outcome;
      progress : progress;
    }
  | Damaged_entry of { key : string; diagnostic : string }
      (** emitted before the unit is recomputed *)
  | Checkpoint of { manifest : string; done_ : int; total : int }
  | Finished of { progress : progress; manifest : string }

exception Pi_timeout of { pi : Lb_core.Permutation.t; limit : float }
(** A unit overran the [pi_timeout] budget. The deadline is cooperative
    and post-hoc — a pipeline unit cannot be preempted mid-run, so the
    overrunning computation completes, its result is discarded {e before}
    reaching the store, and the unit is quarantined (under [~resume]) or
    the exception propagates (without). The quarantine message names the
    limit but never the measured time, so two sweeps timing out on the
    same units produce byte-identical manifests. *)

type failure = { f_pi : Lb_core.Permutation.t; f_message : string }

val failure_message : exn -> string
(** The deterministic quarantine message recorded for a failed unit —
    shared with the distributed engine ({!Sweep_dist}) so both record
    byte-identical manifests for the same failing family. *)

type report = {
  records : Lb_core.Pipeline.record list;
      (** successful units, in family order *)
  failures : failure list;  (** quarantined units, in family order *)
  progress : progress;
  manifest_path : string;
}

val sweep :
  store:Store.t ->
  ?resume:bool ->
  ?jobs:int ->
  ?checkpoint_every:int ->
  ?save_traces:bool ->
  ?pi_timeout:float ->
  ?on_event:(event -> unit) ->
  ?cancel:Lb_util.Pool.Cancel.t ->
  ?lease_wait:float ->
  Lb_shmem.Algorithm.t ->
  n:int ->
  perms:Lb_core.Permutation.t list ->
  unit ->
  report
(** Run (or resume) the sweep. [resume] defaults to [false] (fail-fast);
    [checkpoint_every] to [64] — it paces only the periodic manifest
    rewrites (failures checkpoint eagerly regardless), trading crash
    re-work window against manifest write traffic; [save_traces] (store
    the E_pi bit strings in each entry) to [false]. [pi_timeout] (seconds, default
    none) bounds each unit's wall clock — see {!Pi_timeout} for the
    exact (cooperative) semantics. [on_event] is called under the
    engine's lock — keep it cheap; event order between items reflects
    completion order and is not deterministic across job counts (the
    manifest and report are). Raises [Invalid_argument] on what {!plan}
    refuses or a [checkpoint_every] below 1, before taking the lease.

    Concurrency: the sweep holds the store's {!Store_lock} writer lease
    for its whole run, acquired here (waiting up to [lease_wait]
    seconds, default [60.0]; {!Store_lock.Busy} if it never frees) and
    released on every exit path. Each checkpoint refreshes the lease
    before it writes the manifest. A false refresh means another
    process broke the lease (a [store gc --lease-ttl] shorter than the
    checkpoint interval, say) and the sweep is fenced: it writes no
    more manifest, and raises {!Store_lock.Busy} naming the new holder
    when it next starts a unit or finishes. Entries it already wrote
    stay: they are content-addressed and idempotent, and a later run
    finds them as hits. [cancel] is a cooperative stop token polled
    between units: on {!Lb_util.Pool.Cancel.set} (or an elapsed
    deadline) the sweep checkpoints the manifest — every completed unit
    is already a durable store entry — releases the lease, and raises
    [Lb_util.Pool.Cancelled]; a later run with the same inputs resumes
    from the checkpoint. This is what SIGTERM maps to, both in the CLI
    and in the serve drain path. *)

val certify :
  store:Store.t ->
  ?resume:bool ->
  ?jobs:int ->
  ?checkpoint_every:int ->
  ?save_traces:bool ->
  ?pi_timeout:float ->
  ?on_event:(event -> unit) ->
  ?cancel:Lb_util.Pool.Cancel.t ->
  ?lease_wait:float ->
  Lb_shmem.Algorithm.t ->
  n:int ->
  perms:Lb_core.Permutation.t list ->
  ?exhaustive:bool ->
  unit ->
  Lb_core.Bounds.certificate option * report
(** {!sweep}, then aggregate the Theorem 7.5 certificate over the
    successful units with {!Lb_core.Pipeline.certificate_of_records} —
    for a failure-free sweep the certificate is byte-identical to a
    direct {!Lb_core.Pipeline.certify} of the same family. [None] when
    every unit was quarantined. *)

val pp_progress : Format.formatter -> progress -> unit
(** ["42/720 done (12 hits, 30 computed, 0 failed) 9.3/s eta 73s"]. *)

val event_to_json : event -> string
(** One JSONL object per event, for the [--events] telemetry log. *)
