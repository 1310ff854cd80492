(** The mutation campaign driver: fan (operator × site × algorithm × n)
    out over {!Lb_util.Pool}, run every mutant through the detection
    stack cheapest-first — lint, then the bounded model checker, then
    scheduled executions — short-circuiting on the first kill, and fold
    the outcomes into a per-layer mutation score.

    Kill semantics per layer:

    - {e lint}: the mutant's static report contains a gating finding
      whose rule the {e unmutated} algorithm does not also trigger at
      the same size (the baseline subtraction keeps deliberately-faulty
      bases usable). The kill names the rule.
    - {e model_check}: the bounded exploration returns
      [Mutex_violation], [Deadlock] or [Ill_formed]; a ["System:"]
      rejection of an impossible access counts as [invalid_access]
      (the detection, as in the chaos matrix). [Bound_exceeded] /
      [Mem_exceeded] are {e inconclusive}: the layer saw nothing, so
      the mutant is not killed, and the row needs triage like any
      survivor. The kill names the verdict.
    - {e schedule}: a round-robin and fixed-seed random executions; a
      checker violation, a deadlock ([stuck]), or burning the step
      budget ([out_of_fuel] — the livelock class: its cycle is in the
      state space, but {!Lb_mutex.Model_check} has no livelock verdict
      and does not search for one) kills. The kill names the outcome.
    - {e deep_check} (escalation): a mutant that every staged layer
      passed clean is re-checked at [rounds + 1] before being declared
      a survivor — the one-round bound is blind to faults that only
      bite on re-entry (e.g. a duplicated release write clobbering the
      next holder's acquisition). Runs only on would-be survivors, so
      its cost scales with the survivor count, not the mutant count.

    Every row must end killed or carry a triage reason from the
    caller's allowlist ([Registry.expected_survivors] in the CLI);
    {!clean} is false otherwise. Reports are pure data — byte-identical
    JSON at any job count. *)

open Lb_shmem

type layer = Lint | Model_check | Schedule | Deep_check

val layer_name : layer -> string
(** ["lint"], ["model_check"], ["schedule"], ["deep_check"]. *)

type outcome =
  | Kill of { name : string; detail : string }
      (** the rule / verdict / schedule outcome that caught the mutant *)
  | Clean  (** the layer ran to completion and saw nothing *)
  | Inconclusive of string  (** the layer's budget ran out first *)

type config = {
  sizes : int list;  (** system sizes to mutate at (default [[2; 3]]) *)
  kinds : string list;  (** operator families (default {!Op.kinds}) *)
  passes : Lb_analysis.Pass.t list;  (** lint passes for the first leg *)
  rounds : int;  (** model-check rounds bound (default [1]) *)
  max_states : int;  (** model-check state budget (default [200_000]) *)
  mem_budget : int option;  (** model-check memory budget, bytes *)
  max_steps : int;  (** schedule-leg step budget (default [20_000]) *)
  seeds : int list;  (** random-schedule seeds (default [[1; 2]]) *)
  escalate : bool;
      (** deep-check clean survivors at [rounds + 1] (default [true]) *)
  deep_states : int;
      (** state budget for the deep check, never below [max_states]
          (default [2_000_000]) — re-entry faults need the larger
          product space of a second round to surface *)
}

val default : config

type row = {
  r_algo : string;
  r_n : int;
  r_op : string;  (** operator instance id, the allowlist key *)
  r_kind : string;  (** operator family *)
  r_legs : (layer * outcome) list;  (** layers in run order *)
  r_triage : string option;  (** allowlist reason, when one matches *)
}

type status =
  | Killed of { layer : layer; name : string; detail : string }
  | Survived
  | Undecided of string  (** no kill, and some layer was inconclusive *)

val status : row -> status

val gates : row -> bool
(** True when the row fails the campaign: survived or undecided with no
    triage reason. *)

type t = {
  rows : row list;  (** enumeration order: algo × size × operator *)
  config : config;
  algo_names : string list;
}

val stack :
  ?config:config ->
  ?short_circuit:bool ->
  ?baseline:string list ->
  Algorithm.t ->
  n:int ->
  (layer * outcome) list
(** Run one algorithm through the staged stack. [baseline] (default
    [[]]) is the rule set subtracted from the lint leg;
    [short_circuit] (default [true]) stops after the first kill.
    Exposed so tests can drive the faulty controls through every layer
    without mutating them. *)

val baseline_rules :
  passes:Lb_analysis.Pass.t list -> Algorithm.t -> n:int -> string list
(** The gating rules the unmutated algorithm already triggers at [n]
    (sorted, deduplicated). *)

val run :
  ?config:config ->
  ?jobs:int ->
  ?cancel:Lb_util.Pool.Cancel.t ->
  ?short_circuit:bool ->
  allow:(string -> (string * string) list) ->
  Algorithm.t list ->
  t
(** Run the campaign. [allow name] is the survivor allowlist for
    algorithm [name]: [(operator id, reason)] pairs. Sites are
    discovered per (algorithm, size) from the lint automaton; both the
    discovery sweep and the mutant runs fan out over the pool, and both
    stop cooperatively (raising [Lb_util.Pool.Cancelled]) when [cancel]
    fires — the serve drain path. Deterministic: the report is
    identical at every job count. *)

val total : t -> int
val kills : t -> (layer * int) list
(** Kills attributed to the layer that caught them, every layer listed. *)

val killed_count : t -> int

val survivors : t -> row list
val untriaged : t -> row list
val score : t -> float
(** Killed fraction, [0.0] on an empty campaign. *)

val clean : t -> bool
val stale_triage : t -> (string * string) list
(** Allowlist entries [(algo, op id)] whose every matching row was
    killed — triage comments that no longer explain anything. Only
    judged for (algo, op) pairs this campaign actually ran; informative,
    never gating. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> string
(** Deterministic machine-readable report (carries [format_version],
    no timing fields): byte-identical at any [jobs]. *)

val format_version : int
