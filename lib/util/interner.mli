(** Hash-consing of strings into dense integer ids.

    The bounded model checker packs system states into int-array keys;
    the variable-length component — each process's local-state [repr]
    string — is first interned here, so state keys never embed raw
    strings (and thus never suffer delimiter-collision hazards) and
    repeated reprs are hashed exactly once per distinct string.

    Ids are dense ([0, 1, 2, ...] in first-intern order), so they pack
    into a few bits of an int-array slot. All operations are safe to
    call from multiple domains concurrently (a single mutex guards the
    table); the id {e values} assigned under concurrent interning depend
    on arrival order, so treat ids as opaque within one interner's
    lifetime. *)

type t

val create : ?size_hint:int -> unit -> t
(** Fresh, empty interner. [size_hint] pre-sizes the hash table
    (default [64]). *)

val intern : t -> string -> int
(** [intern t s] returns the id of [s], assigning the next dense id the
    first time [s] is seen. [intern t s = intern t s'] iff
    [String.equal s s']. *)

val lookup : t -> string -> int option
(** The id of [s] if it has been interned, without interning it. *)

val name : t -> int -> string
(** Inverse of {!intern}. Raises [Invalid_argument] on an id that was
    never assigned. *)

val size : t -> int
(** Number of distinct strings interned so far. *)

(** {1 Snapshots}

    The model checker's parallel expansion phase resolves repr strings
    to ids without touching the shared lock: it takes one {!snapshot}
    per BFS layer and completes successor keys via lock-free {!find}.
    Strings missing from the snapshot (reprs first seen in this layer)
    are deferred to a short sequential patch step that calls {!intern}
    in deterministic stream order — so id assignment order, and hence
    the persisted names file, is independent of job count and merge
    mode. *)

type snapshot
(** An immutable copy of the id table at a point in time. *)

val snapshot : t -> snapshot
(** Copy the current id table under one lock acquisition. *)

val find : snapshot -> string -> int option
(** Lock-free lookup in a snapshot; [None] for strings interned after
    the snapshot was taken (or never). Safe to call from any domain. *)

val names_from : t -> int -> string list
(** [names_from t from] is the list of names with ids [from, size)], in
    id order, read under one lock acquisition — the model checker's
    checkpoint flush uses it to persist exactly the names interned since
    the previous checkpoint. Raises [Invalid_argument] if [from] is
    negative or beyond {!size}. *)
