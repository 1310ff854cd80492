(** A stdlib-only pool of worker domains ([Domain] + [Mutex] +
    [Condition]) for the π-sweeps.

    Every sweep in the reproduction — {!Lb_core.Pipeline.certify}, the
    experiment tables, the bounded model checker's per-algorithm runs —
    applies an expensive pure function to each element of a list. This
    module provides the one primitive they all share: {!map}, a
    parallel [List.map] that

    {ul
    {- preserves order: the result list lines up with the input list
       exactly as [List.map]'s would, whatever order the workers finish
       in;}
    {- propagates exceptions fail-fast: the first exception raised by
       [f] is re-raised (with its backtrace) in the calling domain, and
       workers stop picking up new items as soon as a failure is
       recorded;}
    {- is deterministic: for a pure [f], [map ~jobs:k f xs = List.map f xs]
       for every [k] — parallelism only changes wall-clock time, never
       results. The test suite checks this with a qcheck property over
       random certify sweeps.}}

    Workers are spawned per {!map} call and joined before it returns,
    and the calling domain works as one of them; a call never leaves
    domains behind. Calls from inside a worker — e.g.
    a parallel {!Lb_core.Pipeline.certify} cell inside a parallel
    experiment grid — are detected with domain-local storage and run
    sequentially, so nested maps can never deadlock or oversubscribe the
    machine. *)

val default_jobs : unit -> int
(** The job count used when {!map} is called without [?jobs]: the value
    of {!set_default_jobs} if it was called, else the [MUTEXLB_JOBS]
    environment variable if set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Override the default job count for the whole process (the CLI's
    [--jobs] flag). Raises [Invalid_argument] unless the argument is
    [>= 1]. *)

(** {2 Cooperative cancellation}

    A {!Cancel.t} token lets an outside party — a drain handler, a
    SIGTERM handler, a serve-job deadline — stop a running {!map}
    between items. Cancellation is cooperative: items already being
    applied run to completion (a pipeline unit cannot be preempted
    mid-run), no {e new} items are started once the token fires, and
    the [map] call raises {!Cancelled} after the in-flight items have
    drained. Combined with the sweep engine's finally-checkpoint, this
    is exactly the "checkpoint the manifest and exit cleanly" shape the
    long-running service needs. *)

module Cancel : sig
  type t

  val create : unit -> t

  val set : t -> unit
  (** Request cancellation now. Idempotent; safe from any domain and
      from an OCaml signal handler (the token is a pair of atomics). *)

  val set_deadline : t -> float -> unit
  (** Arm the token to fire at an absolute [Unix.gettimeofday] time —
      the drain shape: in-flight work gets a grace period, then stops
      at the next item boundary. Overwrites any earlier deadline. *)

  val requested : t -> bool
  (** True once {!set} has been called or the deadline has passed. *)
end

exception Cancelled
(** Raised by {!map} (in the calling domain, after all in-flight items
    have drained) when its [?cancel] token fired before the input was
    exhausted. Results computed so far are discarded — durable engines
    (the store sweep) persist each completed unit independently, so
    nothing of value is lost. *)

val map : ?jobs:int -> ?cancel:Cancel.t -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], computed by up to [jobs]
    domains (the calling domain participates as one of the workers).
    [jobs] defaults to {!default_jobs}; [jobs = 1], an empty or
    singleton [xs], and calls from inside a pool worker all degrade to a
    plain sequential [List.map]. [cancel] is polled before each item on
    both the parallel and sequential paths; see {!Cancelled}. Raises
    [Invalid_argument] if [jobs < 1]. *)

val iter : ?jobs:int -> ?cancel:Cancel.t -> ('a -> unit) -> 'a list -> unit
(** [iter ~jobs f xs] is [ignore (map ~jobs f xs)] without building the
    result list's contents. *)

val map_chunked :
  ?jobs:int -> ?cancel:Cancel.t -> chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_chunked ~jobs ~chunk f xs] is {!map} with [chunk] consecutive
    items batched per scheduled task, for fine-grained work where
    per-item scheduling overhead would dominate (e.g. per-successor
    dedup in the model checker). Results, ordering, determinism and
    fail-fast semantics are identical to [map ~jobs f xs] — only the
    task granularity differs. Raises [Invalid_argument] if
    [chunk < 1]. *)

val chunk_list : int -> 'a list -> 'a list list
(** [chunk_list size xs] splits [xs] into consecutive chunks of [size]
    (the last one possibly shorter), preserving order.
    [chunk_list 3 [1;2;3;4]] is [[[1;2;3];[4]]]. *)

val in_worker : unit -> bool
(** True inside a function being applied by a {!map} worker domain —
    the condition under which nested {!map} calls run sequentially. *)
