(** Concurrency control for a shared store directory.

    The store's entry and manifest invariants already make {e readers}
    safe against any single writer: every file appears atomically
    (temp-then-rename), is self-verifying, and a failed lookup is
    handled ([`Absent] → recompute). What they do not provide is

    {ul
    {- mutual exclusion {e between writers} — two sweeps writing the
       same manifest, or a GC deleting under a sweep that is about to
       trust its own just-written entry;}
    {- a liveness protocol for GC — "no registered reader can still be
       holding an entry I am about to destroy".}}

    This module adds both, with plain files under [DIR/locks/] so that
    independent processes (a live [mutexlb serve], a concurrent CLI
    [certify --store], a [store gc]) coordinate through the directory
    itself:

    {ul
    {- {b writer lease} — the {!Store_claim} claim on the key [writer]
       in [locks/]: the file [locks/writer.<E>.claim], taken by creating
       epoch [E+1] with [O_CREAT|O_EXCL], heartbeated by its mtime and
       released by renaming it to [.quit]. One writer at a time; waiters
       poll. Breaking a stale lease is a take of the next epoch, so of
       any number of processes that find the same stale lease exactly
       one wins, and the old holder is fenced: {!refresh_writer} returns
       [false] to it. A [locks/writer.lease] file is ignored.}
    {- {b reader registration} — one file per registered reader under
       [locks/readers/], recording the GC epoch the reader joined at.
       Registration is advisory for reads (lookups are safe anyway) but
       load-bearing for GC's deferred-deletion rule, see {!Store_gc}.}
    {- {b GC epoch} — [locks/epoch], a monotonic counter bumped by each
       destructive GC pass. Condemned entries are first renamed into
       [trash/epoch_N/] (atomic, so a reader mid-lookup either still
       opens the old path's bytes or sees a clean [`Absent]); the trash
       is only {e unlinked} once every live registered reader joined at
       epoch ≥ N, i.e. after the condemnation became visible to it.}}

    Liveness checks use [kill pid 0] and therefore only discriminate on
    the same host; a reader or writer file recorded by another host is
    conservatively treated as alive. *)

type held = Store_claim.held = {
  h_pid : int;
  h_host : string;
  h_purpose : string;  (** e.g. ["sweep"], ["gc"], ["serve"] *)
  h_since : float;  (** Unix time the lease was taken *)
}
(** Who holds (or held) the writer lease. *)

exception Busy of held
(** Raised by the sweep engine when the lease could not be acquired
    within the wait budget, or was broken under it. *)

val pp_held : Format.formatter -> held -> unit
(** ["pid 1234 on host (purpose sweep, since ...)"]. *)

type writer
(** A held writer lease. Release exactly once; a process that exits
    without releasing leaves a lease the staleness rule breaks. *)

val try_acquire_writer :
  ?ttl:float -> Store.t -> purpose:string -> (writer, held) result
(** One attempt: take the lease, breaking it first if stale. A lease is
    stale when its recorded pid is provably dead on this host; or —
    with [ttl] — when the lease file's mtime is more than [ttl] seconds
    from now in {e either} direction (covering dead {e remote} holders
    and clock-skewed or rsync'd lease files stamped in the future; a
    live holder keeps its mtime current via {!refresh_writer}); or when
    its body does not parse and its mtime is more than 5 seconds from
    now. [Error] carries the holder, named as in {!holder}. *)

val acquire_writer :
  ?wait:float -> ?ttl:float -> Store.t -> purpose:string -> (writer, held) result
(** Poll {!try_acquire_writer} (50 ms cadence) for up to [wait] seconds
    (default [0.0] — a single attempt). *)

val release_writer : writer -> unit
(** Rename the lease to [.quit]. Idempotent, and a no-op for a lease
    that was broken: a successor's lease is never touched. *)

val refresh_writer : writer -> bool
(** Heartbeat: re-stamp the lease file's mtime with the filesystem's
    current time, so a TTL-armed contender ({!try_acquire_writer}
    [?ttl]) never breaks a live holder. [false] when the lease was
    broken and retaken: the holder has been fenced and must write
    nothing more under it. The sweep engine calls this on every
    checkpoint. *)

val writer_held : ?ttl:float -> Store.t -> held option
(** The current lease holder, ignoring stale leases (same rule as
    {!try_acquire_writer}). *)

val holder : Store.t -> held
(** Who the newest lease file names, stale or not: what {!Busy}
    carries. A placeholder with pid [0] and purpose ["unparsable"]
    stands for a body that does not parse, and one with purpose
    ["unknown"] for no lease on disk. *)

type reader

val register_reader : ?purpose:string -> Store.t -> reader
(** Create this process's reader file, recording the current GC epoch. *)

val refresh_reader : reader -> unit
(** Bring the reader file to the current GC epoch — a long-running
    server calls this after each job so trash condemned while it was
    registered can eventually be purged. The file is rewritten only
    when the epoch differs from the one it was last written with, or
    when it is missing; otherwise this reads the epoch and writes
    nothing. Safe to call from several threads at once. *)

val release_reader : reader -> unit
(** Remove the reader file. Idempotent. *)

val live_readers : Store.t -> (int * int) list
(** [(pid, joined_epoch)] for every registered reader whose pid is
    alive (or on another host, conservatively). Sorted. *)

val reap_dead_readers : Store.t -> int
(** Remove reader files whose pid is provably dead on this host;
    returns how many were reaped. GC calls this before snapshotting
    liveness. *)

val epoch : Store.t -> int
(** Current GC epoch ([0] for a store GC has never touched). *)

val bump_epoch : Store.t -> int
(** Atomically write epoch+1; returns the new value. Call only while
    holding the writer lease. *)
