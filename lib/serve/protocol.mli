(** The serve job protocol: request parsing, the job defaults, shared
    family selection, and result rendering.

    Everything here is deliberately shared with the batch CLI — the
    acceptance bar for the service is that a certify job returns a
    certificate {e byte-identical} to [mutexlb certify] with the same
    [(algo, n, perms, seed)] at any job count. That only holds if both
    sides pick the same permutation family and render through the same
    pretty-printer, so both live in one module and the CLI calls them
    too. The jobs themselves run through {!Job}, which the CLI's job
    verbs call as well. *)

type certify_spec = {
  c_algo : string;
  c_n : int;
  c_perms : int;
  c_seed : int;
  c_resume : bool;
  c_save_traces : bool;
  c_pi_timeout : float option;
}

type check_spec = { k_algos : string; k_n : int; k_rounds : int; k_max_states : int }
type lint_spec = { l_algos : string; l_sizes : int list }
type chaos_spec = { h_max_states : int; h_random : int; h_seed : int }
type mutate_spec = { m_algos : string }

type job =
  | Certify of certify_spec
  | Check of check_spec
  | Lint of lint_spec
  | Chaos of chaos_spec
  | Mutate of mutate_spec

val kind : job -> string
(** ["certify" | "check" | "lint" | "chaos" | "mutate"]. *)

(** {2 Defaults}

    The value of each optional job field when a POST body omits it:
    certify's [perms] 24 and [seed] 1, check's [rounds] 1 and
    [max_states] 500,000, chaos's [max_states] 200,000, [random] 0 and
    [seed] 1, lint's [algo] ["all"] and [sizes]
    {!Lb_analysis.Driver.default_sizes}, mutate's [algo] ["correct"].
    The CLI's flags for these parameters read the same values, so a
    served job that omits a field runs what the verb runs when the
    flag is omitted. *)

val default_perms : int
val default_seed : int
val default_rounds : int
val default_check_states : int
val default_chaos_states : int
val default_random : int
val default_lint_algos : string
val default_mutate_algos : string

val job_of_json : Lb_util.Json.t -> (job, string) result
(** Parse a POST /v1/jobs body: an object with a ["kind"] field naming
    the job and per-kind parameters (all optional except certify's and
    check's ["algo"]/["n"]). [Error] is a one-line diagnostic for the
    400 body. Validation is structural only — unknown algorithms are
    reported when the job runs, so the warm/queued paths agree. *)

val job_summary : job -> Lb_util.Json.t
(** Canonical echo of the parsed job (defaults filled in), sent back in
    the ["accepted"] event so clients see exactly what was admitted. *)

(** {2 Shared with the CLI} *)

val sizes_ok : int list -> bool
(** A usable list of system sizes: non-empty, every size [>= 1] — the
    bound on lint's ["sizes"] and on lint's and mutate's [--sizes]. *)

val clamp_perms : n:int -> int -> int
(** Clamp a requested sample count to [n!] when it exceeds the full
    family ([n <= 20]; beyond that n! dwarfs any conceivable request).
    Each verb that clamps prints its own warning. *)

val family :
  n:int -> perms:int -> seed:int -> Lb_core.Permutation.t list * bool
(** The permutation family certify examines, and whether it is
    exhaustive: all of [S_n] when [n <= 8] and [n! <= perms] (after
    clamping), otherwise a seeded sample. Both the CLI and the server
    MUST select through this function — it is what makes their
    certificates comparable. *)

val certificate_text : Lb_core.Bounds.certificate -> string
(** Exactly the batch CLI's certificate rendering (no trailing
    newline): [Format.asprintf "%a" Bounds.pp_certificate]. *)

val certificate_json : Lb_core.Bounds.certificate -> Lb_util.Json.t
(** The certificate's fields, plus ["text"] carrying
    {!certificate_text} verbatim. *)

val resolve_algos : string -> (Lb_shmem.Algorithm.t list, string) result
(** Resolve a comma-separated name list; ["all"] is the whole registry,
    ["correct"] the correct entries only. [Error] names an unknown
    algorithm, or says that the list is empty. *)
