(** Structured findings of the static analyzer.

    Every {!Pass.t} emits a list of findings; the {!Driver} aggregates,
    filters them through the registry's [expected_findings] allowlist,
    and renders them human-readable (for terminals) and as JSON (for CI
    gating). A finding pinpoints one rule violation in one algorithm at
    one system size, with an optional {e witness}: the response path
    that drives the per-process automaton from its initial local state
    to the offending state. *)

type severity = Error | Warning | Info

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val severity_rank : severity -> int
(** [0] for [Error] (most severe) up to [2] for [Info] — sort key. *)

type witness_step = {
  repr : string;  (** local state the automaton was in *)
  action : string;  (** its pending action, rendered with register names *)
  response : string;  (** the response fed to [advance] (["ack"] or ["=v"]) *)
}

type witness = {
  proc : int;  (** process index the automaton belongs to *)
  steps : witness_step list;  (** path from the initial local state *)
  target : string;  (** repr of the offending state the path ends in *)
}

type t = {
  rule : string;  (** "<pass>/<rule>", e.g. ["repr-soundness/collision"] *)
  severity : severity;
  algo : string;
  n : int;
  proc : int option;  (** offending process, when the rule is per-process *)
  message : string;
  witness : witness option;
}

val make :
  rule:string ->
  severity:severity ->
  algo:string ->
  n:int ->
  ?proc:int ->
  ?witness:witness ->
  string ->
  t

val action_to_string : Lb_shmem.Register.spec array -> Lb_shmem.Step.action -> string
(** Render an action with register display names: ["W T1:=2"], ["R C1_0"],
    ["RMW tail fetch_add(1)"], ["crit enter"]. *)

val response_to_string : Lb_shmem.Step.response -> string

val compare : t -> t -> int
(** Severity first (errors before infos), then rule, algo, n, proc —
    a deterministic report order. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: ["algo n=3 p1: ERROR rule: message"]. *)

val pp_witness : Format.formatter -> witness -> unit
(** Multi-line rendering of the witness path. *)

val to_json : allowlisted:bool -> t -> Lb_util.Json.t
(** One JSON object; machine-readable CI output. *)
