(** Key derivation for the content-addressed result store.

    A store key names one unit of sweep work — "run the lower-bound
    pipeline for algorithm [A] at size [n] on permutation [pi] under cost
    model [m]" — such that two units collide exactly when their results
    must be interchangeable. The key is a hex digest of

    {ul
    {- the store {e format version} (bumping it invalidates every old
       entry at once);}
    {- the algorithm name {e and} its behavioral {!fingerprint} (so an
       edited algorithm silently stops matching its stale cache);}
    {- [n], [pi] and the cost-model id.}}

    Keys are stable across processes, job counts and OCaml versions:
    every ingredient is serialized through explicit strings, never
    [Hashtbl.hash] or memory addresses. *)

val format_version : int
(** Version of the key derivation {e and} of the on-disk entry format.
    Entries written under any other version are rejected as stale and
    transparently recomputed. *)

val sc_model : string
(** Cost-model id of the state-change (SC) model the pipeline certifies
    under — currently the only model the sweep engine caches. *)

val fingerprint : Lb_shmem.Algorithm.t -> n:int -> string
(** [fingerprint algo ~n] is a hex digest of the algorithm's observable
    definition at size [n]: its name, kind, declared register file
    (names, initial values, homes, domains) and the {e solo traces} of
    all [n] process automata — each process run alone against an
    initially-quiescent register file until it leaves its exit section
    (or a step budget trips, which is also recorded). Any change to an
    algorithm's registers or transition behavior perturbs some solo
    trace, so cached results written under the old definition no longer
    match and [store gc] can drop them. Total: never raises on registry
    algorithms, including the deliberately-faulty controls.

    Computed once per (algorithm, [n]) per process: the digest is
    remembered under the name and [n] together with the record it was
    computed for, and reused only for that same record ([==]), so a
    same-named record with another automaton gets its own digest. *)

val derive :
  fp:string ->
  algo:string ->
  n:int ->
  pi:Lb_core.Permutation.t ->
  model:string ->
  string
(** The content-addressed key (32 hex chars) for one (algorithm,
    fingerprint, n, pi, cost model) work unit. *)

val sweep_id :
  fp:string ->
  algo:string ->
  n:int ->
  perms:Lb_core.Permutation.t list ->
  model:string ->
  string
(** Digest naming a whole sweep (the key ingredients plus the full
    permutation family in order) — the manifest filename stem, so an
    interrupted sweep resumed with identical inputs checkpoints into
    the same manifest. *)

val is_key : string -> bool
(** True for syntactically well-formed keys (32 lowercase hex chars). *)
