(** Worker-level fault plans for the distributed-sweep chaos harness:
    the fault machinery pointed at the sweep {e workers} themselves.

    Three seed-reproducible attack surfaces against a
    [Store_claim]-coordinated sweep, all driven through the claims
    directory path alone (no store dependency, so the same plans serve
    in-process tests, subprocess workers and the CI smoke job):

    {ul
    {- {b crash storms} — {!kill_points} assigns each worker a seeded
       self-SIGKILL point (after its k-th computed unit), so claims die
       in flight and must expire and be re-granted;}
    {- {b clock skew} — {!skew_claims} stamps claim files into the past
       or future, as a skewed or rsync'd host would;}
    {- {b torn state} — {!fuzz_claims} truncates, bit-flips and
       duplicates claim files and drops garbage names, as crashes
       mid-write would leave them.}}

    The harness asserts that under all three the sweep still resolves
    with zero [`Damaged] entries, exactly-once non-idempotent units and
    a certificate byte-identical to the sequential oracle. *)

type claim_fuzz =
  | Truncate  (** cut a claim file's content short (torn write) *)
  | Bitflip  (** flip one content bit *)
  | Duplicate  (** plant a same-epoch [.quit] twin next to a [.claim] *)
  | Garbage  (** drop a non-protocol filename into the directory *)

val kill_points :
  seed:int -> workers:int -> survivors:int -> total:int -> int array
(** [kill_points ~seed ~workers ~survivors ~total] is one kill point
    per worker: SIGKILL yourself after that many computed units
    ([max_int] for the [survivors] workers that live). Deterministic in
    its arguments. Raises [Invalid_argument] if [workers < 1] or
    [survivors] is out of range. *)

val skew_claims : dir:string -> by:float -> int
(** Stamp every claim/quit file in [dir] to [now + by] ([by] < 0 ages
    claims toward expiry; [by] > 0 is the future-stamped skewed-host
    case). Returns how many files were stamped. *)

val fuzz_claims :
  seed:int -> count:int -> dir:string -> (claim_fuzz * string) list
(** Apply [count] seeded fuzz operations to random claim files in
    [dir]; returns the (op, basename) pairs actually applied (no-ops on
    an empty directory are skipped). *)
