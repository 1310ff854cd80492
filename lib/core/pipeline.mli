(** End-to-end construct → encode → decode runs and their verification
    (the spine of Theorem 7.5).

    [run algo ~n pi] performs the full chain of §5–§7 for one permutation
    and returns every intermediate object; [check] validates all the
    properties the theorems assert of them. [certify] sweeps a family of
    permutations and assembles the numerical {!Bounds.certificate}. *)

type result = {
  pi : Permutation.t;
  construction : Construct.t;
  encoding : Encode.t;  (** E_pi *)
  canonical : Lb_shmem.Execution.t;  (** the deterministic linearization *)
  decoded : Lb_shmem.Execution.t;  (** Decode(E_pi) *)
  cost : int;  (** C(alpha_pi), SC cost of the canonical linearization *)
  bits : int;  (** |E_pi| *)
}

val run : Lb_shmem.Algorithm.t -> n:int -> Permutation.t -> result
(** Raises [Invalid_argument] if the algorithm is declared [Uses_rmw]:
    the construction covers only the paper's read/write-register model
    (§8 discusses the extension), and failing up front with the
    [kind-honesty/undeclared-rmw] lint rule named beats the
    [Unsupported_primitive] crash that used to surface mid-sweep.
    [certify] refuses likewise. *)

exception
  Check_failed of {
    algo : string;
    n : int;
    pi : Permutation.t;
    stage : string;
    message : string;
  }
(** A verification stage of {!check} rejected a {!result}. [stage] is one
    of ["canonical"], ["decoded"] (execution-level checks), ["projection"],
    ["cost"], ["encoding"], ["roundtrip"] or the label of one of the
    {!Verify.structural} checks, so a quarantined sweep entry or a CI log
    names the broken link of the construct → encode → decode chain, not
    just "check failed". A printer is registered with [Printexc], so
    generic handlers render it readably. *)

val check : Lb_shmem.Algorithm.t -> n:int -> result -> (unit, string) Result.t
(** Verifies, returning the first failure:
    {ol
    {- the canonical linearization is a well-formed, mutually-exclusive
       execution in which every process completes exactly one critical
       section (Theorem 5.5 via {!Lb_mutex.Checker});}
    {- processes enter their critical sections in the order [pi]
       (Theorem 5.5);}
    {- the decoded execution satisfies the same;}
    {- decode and the canonical linearization agree per process:
       [decoded|i = canonical|i] for every [i] (both are linearizations
       of [(M, ⪯)], Lemma 5.4 / Theorem 7.4);}
    {- the canonical linearization's SC cost is the recorded [cost], and
       the decoded execution's cost equals it (Lemma 6.1);}
    {- [|E_pi| > 0] and the parsed cells round-trip;}
    {- the construction passes the {!Verify.structural} checks: [⪯] is
       acyclic (Lemma 5.2), every register's writes and every process's
       metasteps form [⪯]-chains (Lemma 5.3, §6), the metasteps are
       well formed (Definition 5.1) and every write metastep's winner is
       its pi-minimal owner.}}
    Each execution is replayed once: the replay that validates it
    against the algorithm's automata ({!Lb_mutex.Checker.check_algorithm})
    also yields the SC cost the cost stage compares, and the per-process
    projections come from one pass over each execution. *)

val run_checked : Lb_shmem.Algorithm.t -> n:int -> Permutation.t -> result
(** {!run} followed by {!check}; raises {!Check_failed} on a check
    failure. *)

type record = {
  r_pi : Permutation.t;
  r_cost : int;  (** C(alpha_pi) *)
  r_bits : int;  (** |E_pi| *)
  r_exec_fp : string;  (** {!Lb_shmem.Execution.fingerprint} of the decode *)
}
(** The distilled per-permutation facts a certificate is aggregated
    from — everything {!certify} needs, and exactly what the durable
    result store ([Lb_store]) persists per entry, so warm sweeps rebuild
    certificates without re-running the pipeline. *)

val record_of_result : result -> record

val certificate_of_records :
  Lb_shmem.Algorithm.t ->
  n:int ->
  exhaustive:bool ->
  record list ->
  Bounds.certificate
(** Aggregate a certificate from records in family order. {!certify} is
    exactly [map run_checked] + this, so any source of the same records
    — a fresh sweep, a warm store, or a mix — yields a byte-identical
    certificate. Raises [Invalid_argument] on the empty list. *)

val certify :
  Lb_shmem.Algorithm.t ->
  n:int ->
  perms:Permutation.t list ->
  ?exhaustive:bool ->
  ?jobs:int ->
  unit ->
  Bounds.certificate
(** Run the checked pipeline for every permutation and aggregate the
    certificate. [distinct] is established by fingerprinting every decoded
    execution.

    The per-permutation runs are independent (each allocates a private
    metastep arena; the library holds no global mutable state) and fan
    out across [jobs] worker domains via {!Lb_util.Pool.map}, which
    collects results in input order — the certificate is identical for
    every job count. [jobs] defaults to {!Lb_util.Pool.default_jobs}.
    Raises [Invalid_argument] on an empty [perms] (an empty family has
    no well-defined certificate: its mean cost is 0/0 and its
    information bound is [log2 0]). *)
