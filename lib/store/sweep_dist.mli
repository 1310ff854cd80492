(** The distributed sweep engine: K independent worker processes, one
    sweep, coordinated only through the store directory.

    Where {!Sweep} serializes on the store-wide {!Store_lock} writer
    lease, a distributed worker holds {e no} store-wide lock — it takes
    {!Store_claim} per-entry leases instead, so K workers make K-way
    progress on one family, and their live claims keep GC from
    running. Each round a worker:

    {ol
    {- lists the claims directory once, which gives every key's claim
       slot and every published [.failed] record;}
    {- re-derives unresolved units' states from {e durable} facts: a
       valid store entry means Done, a [.failed] record means Failed,
       anything else is Pending. The first round probes the store for
       every unit; later rounds only for units whose key has a claim
       file or a [.failed] record, where a peer worker's progress
       shows. A key nobody has claimed stays Pending without I/O;
       the unit is probed again under its claim before it is computed,
       so an entry another engine stored is still a hit;}
    {- claims a batch of pending units nobody holds a live claim on —
       including units whose claim {e expired} (worker killed, clock
       skewed), which are stolen with epoch fencing so the previous
       holder, should it resume, cannot interfere;}
    {- computes its batch on the domain pool, publishing each result
       content-addressed (idempotent) or each failure through the
       exactly-once [.failed] channel. The worker refreshes its held
       claims from its own loop — at the top of each round, in each
       backoff nap and after each unit — once [ttl/6] has passed since
       the last refresh; no domain is spawned for it;}
    {- checkpoints the shared manifest — {e derived} from the durable
       facts above, so every worker writes the same bytes for the same
       store state — and backs off with seeded jitter when it found
       nothing to claim.}}

    The loop ends when every unit is resolved. Because the final
    manifest, the failure list and the certificate records are all
    pure functions of durable state in family order, they are
    byte-identical to a single-worker {!Sweep} run — for any worker
    count, any interleaving, any crash pattern. A SIGKILL'd worker
    loses only its in-flight units: their claims expire, survivors
    steal them, and the store entries it already published stand.

    On [cancel] (SIGTERM drain) the worker stops claiming, lets
    in-flight units finish (their results publish), abandons its
    unstarted claims so survivors pick them up immediately — no TTL
    wait — checkpoints, and raises {!Lb_util.Pool.Cancelled}. *)

type outcome =
  | Hit  (** already resolved in the store (by anyone, ever) *)
  | Computed  (** this worker ran the pipeline and published the entry *)
  | Failed of string
      (** this worker computed the unit and published (or deferred to)
          its quarantine record *)

type event =
  | Start of { total : int; sweep_id : string }
  | Unit of {
      index : int;  (** position in the permutation family *)
      pi : Lb_core.Permutation.t;
      outcome : outcome;
      resolved : int;  (** cluster-wide resolved units, as of this round *)
      total : int;
    }
  | Stolen of { key : string; epoch : int }
      (** this worker re-granted an expired claim to itself *)
  | Fenced of { key : string }
      (** this worker's own claim expired and was stolen mid-compute;
          its publication remains safe, it just stops claiming the key *)
  | Round of { claimed : int; resolved : int; total : int; backoff : float }
      (** end of a claim round; [backoff] > 0 when it found nothing *)
  | Checkpoint of { manifest : string; resolved : int; total : int }
  | Finished of { resolved : int; failed : int; total : int; manifest : string }

type report = {
  d_total : int;
  d_hits : int;  (** units this worker resolved without computing *)
  d_computed : int;  (** units this worker computed (incl. failures) *)
  d_stolen : int;  (** expired claims this worker re-granted to itself *)
  d_failed : int;  (** cluster-wide failed units at finish *)
  d_records : Lb_core.Pipeline.record list;
      (** successful units in family order, read back from the store —
          identical for every worker and to the single-worker sweep *)
  d_failures : Sweep.failure list;  (** family order, from [.failed] *)
  d_manifest_path : string;
}

val work :
  store:Store.t ->
  ?jobs:int ->
  ?ttl:float ->
  ?batch:int ->
  ?checkpoint_every:int ->
  ?save_traces:bool ->
  ?pi_timeout:float ->
  ?on_event:(event -> unit) ->
  ?cancel:Lb_util.Pool.Cancel.t ->
  ?seed:int ->
  Lb_shmem.Algorithm.t ->
  n:int ->
  perms:Lb_core.Permutation.t list ->
  unit ->
  report
(** Run one worker until the whole sweep is resolved (or [cancel]
    fires). [ttl] (default {!Store_claim.default_ttl}) is the claim
    expiry. Claims are refreshed between units, so a claim goes
    unrefreshed for up to max([ttl/6], the longest unit in flight): a
    unit that runs longer than 5/6 of [ttl] can be stolen from a live
    worker (safe — duplicated work, identical bytes — but wasteful), so
    [ttl] must comfortably exceed one unit's compute time. [batch] (default [2 × jobs]) bounds claims
    held at once; [seed] (default the pid) feeds only the contention
    jitter — it cannot affect results. [on_event] may be called from
    pool workers; keep it cheap and thread-safe. Failures are always
    quarantined ([{!Sweep}]'s [~resume:true] semantics — fail-fast is
    meaningless when the failing unit may belong to another worker).
    Raises [Invalid_argument] on what {!Sweep.plan} refuses, a
    non-positive [ttl] or a [checkpoint_every] below 1 — before any
    claim or failure record is written; {!Lb_util.Pool.Cancelled} on
    drain. *)

val certify :
  store:Store.t ->
  ?jobs:int ->
  ?ttl:float ->
  ?batch:int ->
  ?checkpoint_every:int ->
  ?save_traces:bool ->
  ?pi_timeout:float ->
  ?on_event:(event -> unit) ->
  ?cancel:Lb_util.Pool.Cancel.t ->
  ?seed:int ->
  Lb_shmem.Algorithm.t ->
  n:int ->
  perms:Lb_core.Permutation.t list ->
  ?exhaustive:bool ->
  unit ->
  Lb_core.Bounds.certificate option * report
(** {!work}, then aggregate the certificate over [d_records] exactly as
    {!Sweep.certify} does — byte-identical output for the same family,
    whichever engine (and however many workers) resolved it. *)

val event_to_json : event -> string
(** One JSONL object per event, for the [--events] telemetry log. *)
