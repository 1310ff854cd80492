(** A stdlib-only pool of worker domains ([Domain] + [Mutex] +
    [Condition]) for the π-sweeps and the model checker.

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

    Workers belong to a {!scope}: a team started at the scope's first
    parallel call, reused by every later {!Team.map} of the scope, and
    joined when the scope ends. {!map} is a scope used for one call, so
    it never leaves domains behind; the model checker opens one scope
    per exploration, so its many parallel stages share one team. The
    calling domain works as one of the workers. Calls from inside a
    worker — e.g. a parallel {!Lb_core.Pipeline.certify} cell inside a
    parallel experiment grid — are detected with domain-local storage
    and run sequentially, so nested calls can never deadlock.

    The pool owns every domain the process runs, and one count covers
    them all: the main domain, each team worker and each {!on_domain}
    domain. A team whose scope was opened with [jobs] starts only the
    workers that fit under [jobs] beside the domains already counted,
    so a [map] inside an {!on_domain} while the main domain runs (a
    served job beside the listener) adds none at [jobs = 2].
    {!on_domain} itself always starts its domain. A domain started
    other than through this module is not counted. *)

val default_jobs : unit -> int
(** The job count used when {!map} or {!scope} is called without
    [?jobs]: the value of {!set_default_jobs} if it was called, else the
    [MUTEXLB_JOBS] environment variable if set to a positive integer,
    else [Domain.recommended_domain_count ()]. *)

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
(** Raised by {!map} and {!Team.map} (in the calling domain, after all
    in-flight items have drained) when its [?cancel] token fired before
    the input was exhausted. Results computed so far are discarded —
    durable engines (the store sweep) persist each completed unit
    independently, so nothing of value is lost. *)

val map : ?jobs:int -> ?cancel:Cancel.t -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], computed by the calling domain
    and at most [jobs − r] worker domains, where [r] is the number of
    domains the pool counts as running (1 from a lone main domain, so
    [jobs − 1] workers there). It is [scope ~jobs (fun t -> Team.map t
    f xs)]: the workers are reserved atomically, so concurrent calls
    never start more than the budget between them, and their slots come
    back when [map] returns or raises. A call granted no worker —
    [jobs = 1], a full budget, an empty or singleton [xs], or a call
    from inside a pool worker — is a plain sequential [List.map] on the
    calling domain. [cancel] is polled before each item on both the
    parallel and sequential paths; see {!Cancelled}. If spawning a
    worker raises, the workers already started are joined and [map]
    re-raises that exception. Raises [Invalid_argument] if [jobs < 1]. *)

(** A team of worker domains, living for one {!scope}. *)
module Team : sig
  type t

  val map : t -> ?cancel:Cancel.t -> ('a -> 'b) -> 'a list -> 'b list
  (** [Team.map t f xs] is {!map}'s parallel [List.map] on [t]'s
      workers, with the same order, fail-fast and {!Cancelled}
      semantics. A call that could use [k] workers — [k = length xs − 1]
      — first tops the team up toward [k] with the workers the budget
      grants; the workers wait on a condition variable between calls.
      An empty or singleton [xs], a call from inside a pool worker, or a
      team granted no worker runs [List.map] on the calling domain and
      starts nothing. Only the domain that opened the scope may call
      it. *)

  val domains : t -> int
  (** The worker domains [t] has started so far; [0] for a team whose
      calls all ran sequentially. *)
end

val scope : ?jobs:int -> (Team.t -> 'a) -> 'a
(** [scope ~jobs f] runs [f t] on a fresh team [t] whose workers count
    against the [jobs] budget (defaults to {!default_jobs}); no domain
    starts before [f]'s first parallel {!Team.map}. When [f] returns or
    raises, the workers are joined and their budget slots given back.
    Raises [Invalid_argument] if [jobs < 1]. *)

val on_domain : (unit -> 'a) -> 'a
(** [on_domain f] runs [f ()] on a freshly spawned domain, waits for
    it, and returns its result or re-raises its exception. The domain
    always starts, whatever the budget, and counts against every team
    while it runs. Apart from the teams' workers, the library and the
    CLI start every domain through it. *)

val iter : ?jobs:int -> ?cancel:Cancel.t -> ('a -> unit) -> 'a list -> unit
(** [iter ~jobs f xs] is [ignore (map ~jobs f xs)] without building the
    result list's contents. *)

val chunk_list : int -> 'a list -> 'a list list
(** [chunk_list size xs] splits [xs] into consecutive chunks of [size]
    (the last one possibly shorter), preserving order.
    [chunk_list 3 [1;2;3;4]] is [[[1;2;3];[4]]]. *)

val in_worker : unit -> bool
(** True inside a function being applied by a pool worker, the calling
    domain included — the condition under which nested {!map} and
    {!Team.map} calls run sequentially. *)
