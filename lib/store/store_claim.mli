(** Epoch-file claims: the one lease protocol under the store.

    Two kinds of lease run on it. Distributed sweeps take a claim {e per
    work unit} (per store key) under

    {v DIR/claims/<sweep_id>/ v}

    so that K independent [mutexlb work] processes can share one sweep:
    cheap enough to take and release thousands of times, safe under
    [kill -9], clock skew and torn writes. {!Store_lock} takes the
    {e whole-store} writer lease as the claim on the key [writer] in
    [DIR/locks/] ({!locks}). The protocol is the same; only the rule
    that decides when a live-looking claim is stale differs (see
    {!take}).

    {2 The claim protocol}

    A claim on [key] at epoch [E] is the file [<key>.<E>.claim]. The
    whole protocol is built from one primitive — [O_CREAT|O_EXCL]
    creation of a {e specific filename} — and the rule that per-key
    epochs only ever move upward:

    {ul
    {- {b take}: create [<key>.1.claim] with [O_EXCL]. Exactly one of
       any number of racing takers wins; the rest see [EEXIST].}
    {- {b heartbeat}: the holder refreshes the file's mtime
       ([Unix.utimes]). The filesystem stamps the time, so processes on
       the same store agree on ages regardless of their process clocks.}
    {- {b expire / steal}: a claim the taker's staleness rule condemns
       is broken by creating [<key>.<E+1>.claim] with [O_EXCL]: again
       exactly one winner, however many takers judged epoch [E] stale
       from the same directory listing, and the zombie holder of epoch
       [E] {e has no name for the new file} — it can refresh or remove
       only its own [<key>.<E>.claim], which the winner deletes as
       debris. This is the fencing: the zombie's next {!refresh} returns
       [false], and it can never clobber the re-granted claim.}
    {- {b release}: rename own [<key>.<E>.claim] → [<key>.<E>.quit]. A
       [.quit] file keeps the epoch high-water mark on disk (so epoch
       [E] is never reused — the unlink-based alternative would let a
       very stale zombie release a {e successor's} claim) while marking
       the key immediately re-claimable.}}

    A take removes the key's lower-epoch files that are on disk, so a
    key whose epoch grows for the life of the store (the writer lease's
    grows by one per acquisition) keeps one file.

    A claim file's {e content} is its holder ({!held}): pid, host,
    purpose and start time, the same four lines a {!Store_lock} reader
    file carries. The work-claim rule never reads it, so a torn,
    truncated or bit-flipped claim file cannot confuse a distributed
    sweep — the corruption tests check exactly this. The writer rule
    reads it to spot a holder whose pid is dead.

    {2 Exactly-once failure publication}

    Computed results are content-addressed store entries: writing one
    twice is byte-idempotent, so duplicated {e successful} work is
    harmless (only wasteful). A {e failure} has no store entry — its
    only trace is the quarantine record — and the failing computation
    is the one non-idempotent unit of work (a [pi_timeout]'s cost is
    the whole overrun pipeline). {!publish_failure} therefore writes
    [<key>.failed] via hard-link-from-temp: the file appears atomically
    with its full content, and exactly one publisher wins; everyone
    else sees [EEXIST] and defers. Workers treat an existing [.failed]
    as terminal and never re-claim the key. *)

type t
(** A handle on one claims directory: a sweep's, or {!locks}. *)

val open_ : Store.t -> sweep_id:string -> t
(** Open (creating as needed) [DIR/claims/<sweep_id>/]. *)

val locks : Store.t -> t
(** The store-wide lock directory [DIR/locks/], which holds the writer
    lease. Created by the first take, not here. *)

val dir : t -> string
(** The claims directory path (for the fault machinery and tests). *)

type claim
(** A held per-key claim. Release exactly once; a crash releases it
    implicitly once a taker's staleness rule condemns it. *)

val key : claim -> string
val epoch : claim -> int

type slot =
  | Free  (** no claim file — take epoch 1 *)
  | Held of { epoch : int; age : float }
      (** live [.claim]; [age = |now - mtime|], stealable when stale *)
  | Released of { epoch : int }
      (** [.quit] high-water mark, or a [.claim] that vanished between
          the [readdir] and its [stat] (released or swept by a take
          meanwhile); take epoch+1 *)

type snapshot = {
  slots : (string, slot) Hashtbl.t;
      (** the slot of every store key that has a claim or quit file;
          absent keys are [Free] *)
  failed : (string, unit) Hashtbl.t;
      (** every store key that has a [.failed] record *)
}

val snapshot : t -> snapshot
(** One [readdir] pass over the claims directory. Unparsable filenames
    are ignored as debris. *)

val probe_slot : t -> key:string -> slot
(** One [readdir] pass: the current slot of [key]. *)

val take :
  t ->
  key:string ->
  purpose:string ->
  slot:slot ->
  stale:(epoch:int -> age:float -> bool) ->
  claim option
(** One attempt to claim [key] from [slot] (a {!probe_slot} or
    {!snapshot} reading): epoch 1 when [Free], [E+1] after a
    [Released E], and [E+1] over a [Held E] only when [stale ~epoch
    ~age] says so. A stale [slot] only ever causes a lost race
    ([None]), never a double grant, because the [O_EXCL] create is the
    arbiter. [None] means someone else holds a live claim or won the
    race. The new file's body is this process's holder with
    [purpose]. On success, the key's lower-epoch files are removed. *)

val try_claim : ?slot:slot -> t -> key:string -> ttl:float -> claim option
(** {!take} with the work-claim rule: a [Held] claim is stale when its
    mtime is more than [ttl] seconds from now, in either direction.
    [slot] defaults to {!probe_slot}; [purpose] is ["work"]. [None]
    means back off and rescan. [ttl] must be positive. *)

val refresh : claim -> bool
(** Heartbeat: bump own claim file's mtime. [false] if the file is gone
    — the claim expired and was stolen. A fenced work claim covers one
    unit, so a worker finishes its in-flight unit (publication stays
    safe: entries are idempotent, failures go through
    {!publish_failure}) but claims nothing more from this handle; a
    fenced writer lease stops its whole sweep (see {!Sweep.sweep}). *)

val release : claim -> unit
(** Rename own [.claim] → [.quit]. Idempotent; a no-op if the claim was
    stolen. *)

val abandon : claim -> unit
(** {!release} for a unit that was {e not} completed (SIGTERM drain):
    identical on-disk effect — the [.quit] marks the key immediately
    re-claimable by a surviving worker. *)

val publish_failure : t -> key:string -> message:string -> bool
(** Atomically publish the quarantine record [<key>.failed] (hard link
    from a temp file: full content or nothing, exactly one winner).
    [true] if this call published, [false] if a record already existed
    — the caller drops its own message and re-reads {!failure}. *)

val failure : t -> key:string -> string option
(** The published quarantine message, if any. *)

val live_claims : Store.t -> ttl:float -> (string * string) list
(** [(sweep_id, key)] of every in-TTL [.claim] across {e all} sweeps of
    the store — GC's "is anyone working here?" probe, the per-entry
    analogue of {!Store_lock.writer_held}. Sorted. *)

(** {2 Holder bodies} *)

type held = {
  h_pid : int;
  h_host : string;
  h_purpose : string;  (** e.g. ["sweep"], ["gc"], ["work"] *)
  h_since : float;  (** Unix time the file was written *)
}
(** Who wrote a claim, lease or reader file. *)

val holder_body : purpose:string -> string
(** This process's holder as a file body: [pid], [host], [purpose] and
    [since] lines, each ["name value"]. A reader file appends its GC
    epoch as one more line. *)

val body_field : string -> string -> string option
(** [body_field body name]: the value of the first ["name value"] line
    of [body], if it has a non-empty value. *)

val parse_holder : string -> held option
(** The holder a {!holder_body} wrote; [None] if a field is missing or
    malformed (a torn write). *)

val holder : t -> key:string -> epoch:int -> held option
(** The parsed body of [<key>.<epoch>.claim]; [None] if it is gone or
    does not parse. *)

val default_ttl : float
(** The claim TTL used by the CLI and serve paths when none is given:
    [30.0] seconds — several heartbeat intervals past the longest
    expected unit, so a live-but-slow worker is not spuriously stolen
    from, while a SIGKILL'd worker's units are re-granted within a
    minute. *)
