(** The [mutexlb serve] daemon: a long-running, multi-client job
    service over one content-addressed store.

    A thread per connection, a domain per granted job, one request
    per connection: each accepted connection is served by a systhread
    of the listener's domain, and a job the {!Scheduler} grants
    computes on a domain spawned for it while that thread waits. POST
    [/v1/jobs] streams JSONL events over a chunked response:
    [accepted] → ([rejected] on drain | [granted] → sweep telemetry →
    ([result] | [drained] | [error])). Warm certify jobs — every
    permutation already a store hit — are answered from the store
    directly with a plain (non-chunked) result, bypassing the
    scheduler entirely.

    Lifecycle: SIGTERM (or SIGINT) starts a graceful drain — stop
    accepting, reject every queued ticket with a retry-after hint, give
    running sweeps a cooperative cancel deadline of [grace] seconds
    (they checkpoint their manifest and release the store lease on the
    way out), join every connection thread, exit. A store left by a drained
    server resumes exactly like one left by Ctrl-C. *)

type config = {
  host : string;  (** default ["127.0.0.1"] — this is a local service *)
  port : int;  (** [0] picks an ephemeral port *)
  port_file : string option;
      (** write the bound port here once listening — how tests and
          scripts find an ephemeral port *)
  store_dir : string;
  jobs : int option;  (** worker domains per running job *)
  sched : Scheduler.config;
  grace : float;  (** drain deadline for running jobs, seconds *)
  verbose : bool;  (** request log on stderr *)
}

val default : store_dir:string -> config
(** Port 8944, scheduler defaults, 20 s grace. *)

val run : config -> unit
(** Serve until SIGTERM/SIGINT, drain, return. Installs signal
    handlers (and ignores SIGPIPE) for the whole process — this is the
    daemon entry point, not a library call to embed. *)
