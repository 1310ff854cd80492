(** Garbage collection over a live, shared store.

    GC condemns three classes of entry: damaged files, entries whose
    algorithm is unknown to (or unsupported at that size by) the
    current build, and entries whose recorded behavioral fingerprint no
    longer matches the current code. Keys embed the fingerprint, so a
    stale entry can never be {e served} by mistake — GC only reclaims
    the space.

    Concurrency protocol: refuse, then unlink.

    {ol
    {- Refuse to run while the {!Store_lock} writer lease is held
       (a sweep may be mid-flight) or a distributed worker holds an
       in-TTL {!Store_claim} claim, unless [force] overrides or [wait]
       outlasts the lease holder. A destructive pass takes the lease
       itself, so no sweep can start under it; breaking a stale lease
       to do so fences its old holder (see {!Sweep.sweep}).}
    {- Unlink every condemned entry. Readers need no protection from
       this: a lookup that opened the entry before the unlink reads it
       whole (POSIX keeps an open file's inode alive), and one that
       opens after finds it [`Absent] and recomputes — never a torn
       read. (Over NFS, a reader on another host can instead fail
       mid-read; {!Store.lookup} reports that as [`Damaged] and the
       unit is recomputed.) The pass also removes claim directories
       holding no live claim, and any [trash/] tree an older gc left
       behind.}}

    A dry run takes no lease, removes nothing, and reports what a
    destructive pass would do. *)

type reason = string
(** Human-readable condemnation reason (["damaged: ..."], ["stale
    fingerprint: ..."], ["unknown algorithm ..."]). *)

type report = {
  g_kept : int;
  g_condemned : (string * reason) list;  (** key → why, in key order *)
  g_claims_swept : int;
      (** per-sweep claim directories removed (expired distributed-sweep
          debris; always [0] on dry runs) *)
  g_dry : bool;
}

val run :
  ?dry:bool ->
  ?force:bool ->
  ?wait:float ->
  ?lease_ttl:float ->
  current_fp:(algo:string -> n:int -> string option) ->
  Store.t ->
  (report, Store_lock.held) result
(** [current_fp ~algo ~n] is the live build's fingerprint for that
    (algorithm, size), or [None] if the algorithm is unknown or the
    size unsupported (the CLI passes a registry probe; tests can pass
    anything). [lease_ttl] arms {!Store_lock}'s mtime-based stale-lease
    fallback, so leases from dead remote hosts are breakable. A
    [lease_ttl] below a live sweep's checkpoint interval breaks that
    sweep's lease too: the sweep is fenced and stops with
    {!Store_lock.Busy} instead of writing on beside the gc. [Error]
    is the refusal path: the writer lease is held, or a distributed
    worker holds a {!Store_claim} per-entry claim younger than
    {!Store_claim.default_ttl} — and [force] was not given. The caller
    renders the holder as a named error and exits nonzero. *)
