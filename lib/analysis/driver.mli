(** The lint driver: fans (algorithm × n) analysis units out over a
    {!Lb_util.Pool} of domains, runs every pass on each unit, and folds
    the findings into one report filtered through an allowlist of
    expected findings (so deliberately-faulty registry entries like
    [broken_spinlock] stay green in CI while still being analyzed).

    The driver stays independent of [Lb_algos]: callers pass the
    algorithm list and the allowlist function (the CLI wires in
    [Registry.expected_findings]). *)

open Lb_shmem

type unit_report = {
  u_algo : string;
  u_n : int;
  u_nodes : int;  (** total automaton nodes explored across processes *)
  u_complete : bool;
}

type report = {
  findings : (Finding.t * bool) list;
      (** sorted by {!Finding.compare}; the flag marks allowlisted
          (expected) findings *)
  units : unit_report list;  (** one per (algorithm, n), input order *)
}

val format_version : int
(** Schema version stamped into {!to_json} reports. *)

val default_passes : Pass.t list
(** repr-soundness, register-discipline, kind-honesty, liveness-shape. *)

val pass_ids : unit -> string list
(** Names of the default passes (the rule-id prefixes), in pass order. *)

val passes_for : string list -> (Pass.t list, string) result
(** Resolve rule-family names (e.g. from [lint --rules]) to passes, in
    canonical {!default_passes} order, duplicates dropped; an unknown
    name yields [Error msg] naming it and the valid families. *)

val default_sizes : int list
(** [[2; 3; 4]] — each algorithm is analyzed at every size it supports. *)

val run :
  ?settings:Automaton.settings ->
  ?passes:Pass.t list ->
  ?sizes:int list ->
  ?jobs:int ->
  ?cancel:Lb_util.Pool.Cancel.t ->
  allow:(string -> string list) ->
  Algorithm.t list ->
  report
(** [allow name] is the list of rule ids expected (and tolerated) for
    algorithm [name]. [jobs] defaults to {!Lb_util.Pool.default_jobs}.
    [cancel] stops the sweep cooperatively between (algorithm, size)
    units, raising [Lb_util.Pool.Cancelled] — the serve drain path.
    Deterministic: the report is identical for every job count. *)

val failures : report -> Finding.t list
(** Non-allowlisted findings of severity [Error] or [Warning] — the
    findings that make {!clean} false. [Info] findings never gate. *)

val clean : report -> bool

val pp : verbose:bool -> Format.formatter -> report -> unit
(** Human-readable report: one line per finding (witness paths when
    [verbose]) and a summary tail. *)

val to_json : report -> Lb_util.Json.t
(** Machine-readable report for CI gating:
    [{"format_version":1,"clean":bool,"findings":[...],"units":[...]}],
    printed compactly by {!Lb_util.Json.to_string}. *)
