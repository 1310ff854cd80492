module Json = Lb_util.Json

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

let kind = function
  | Certify _ -> "certify"
  | Check _ -> "check"
  | Lint _ -> "lint"
  | Chaos _ -> "chaos"
  | Mutate _ -> "mutate"

(* ------------------------------ defaults ------------------------------ *)

let default_perms = 24
let default_seed = 1
let default_rounds = 1
let default_check_states = 500_000
let default_chaos_states = 200_000
let default_random = 0
let default_lint_algos = "all"
let default_mutate_algos = "correct"

(* ------------------------------- parsing ------------------------------ *)

let field conv what ?default j name =
  match (Json.member name j, default) with
  | Some v, _ -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S must be %s" name what))
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "missing required field %S" name)

let str_field = field Json.as_string "a string"
let int_field = field Json.as_int "an integer"
let bool_field = field Json.as_bool "a boolean"

let float_opt_field j name =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match Json.as_float v with
    | Some f when f > 0.0 -> Ok (Some f)
    | Some _ -> Error (Printf.sprintf "field %S must be positive" name)
    | None -> Error (Printf.sprintf "field %S must be a number" name))

let ( let* ) = Result.bind

let count_field ?default j name =
  let* i = int_field ?default j name in
  if i >= 1 then Ok i else Error (Printf.sprintf "field %S must be >= 1" name)

let sizes_ok sizes = sizes <> [] && List.for_all (fun n -> n >= 1) sizes

let job_of_json j =
  match j with
  | Json.Obj _ -> (
    let* k = str_field j "kind" in
    match k with
    | "certify" ->
      let* c_algo = str_field j "algo" in
      let* c_n = count_field j "n" in
      let* c_perms = count_field ~default:default_perms j "perms" in
      let* c_seed = int_field ~default:default_seed j "seed" in
      let* c_resume = bool_field ~default:false j "resume" in
      let* c_save_traces = bool_field ~default:false j "save_traces" in
      let* c_pi_timeout = float_opt_field j "pi_timeout" in
      Ok
        (Certify
           { c_algo; c_n; c_perms; c_seed; c_resume; c_save_traces; c_pi_timeout })
    | "check" ->
      let* k_algos = str_field j "algo" in
      let* k_n = count_field j "n" in
      let* k_rounds = count_field ~default:default_rounds j "rounds" in
      let* k_max_states = count_field ~default:default_check_states j "max_states" in
      Ok (Check { k_algos; k_n; k_rounds; k_max_states })
    | "lint" ->
      let* l_algos = str_field ~default:default_lint_algos j "algo" in
      let* l_sizes =
        match Json.member "sizes" j with
        | None -> Ok Lb_analysis.Driver.default_sizes
        | Some v -> (
          match Json.as_list v with
          | None -> Error "field \"sizes\" must be a list of integers"
          | Some xs -> (
            let ints = List.filter_map Json.as_int xs in
            if List.length ints <> List.length xs || not (sizes_ok ints) then
              Error "field \"sizes\" must be a non-empty list of positive integers"
            else Ok ints))
      in
      Ok (Lint { l_algos; l_sizes })
    | "chaos" ->
      let* h_max_states = count_field ~default:default_chaos_states j "max_states" in
      let* h_random = int_field ~default:default_random j "random" in
      let* h_seed = int_field ~default:default_seed j "seed" in
      if h_random < 0 then Error "field \"random\" must be >= 0"
      else Ok (Chaos { h_max_states; h_random; h_seed })
    | "mutate" ->
      let* m_algos = str_field ~default:default_mutate_algos j "algo" in
      Ok (Mutate { m_algos })
    | other -> Error (Printf.sprintf "unknown job kind %S" other))
  | _ -> Error "request body must be a JSON object"

let job_summary job =
  let fields =
    match job with
    | Certify c ->
      [
        ("algo", Json.String c.c_algo);
        ("n", Json.Int c.c_n);
        ("perms", Json.Int c.c_perms);
        ("seed", Json.Int c.c_seed);
        ("resume", Json.Bool c.c_resume);
        ("save_traces", Json.Bool c.c_save_traces);
        ( "pi_timeout",
          match c.c_pi_timeout with
          | None -> Json.Null
          | Some t -> Json.Float t );
      ]
    | Check c ->
      [
        ("algo", Json.String c.k_algos);
        ("n", Json.Int c.k_n);
        ("rounds", Json.Int c.k_rounds);
        ("max_states", Json.Int c.k_max_states);
      ]
    | Lint l ->
      [
        ("algo", Json.String l.l_algos);
        ("sizes", Json.List (List.map (fun n -> Json.Int n) l.l_sizes));
      ]
    | Chaos h ->
      [
        ("max_states", Json.Int h.h_max_states);
        ("random", Json.Int h.h_random);
        ("seed", Json.Int h.h_seed);
      ]
    | Mutate m -> [ ("algo", Json.String m.m_algos) ]
  in
  Json.Obj (("kind", Json.String (kind job)) :: fields)

(* -------------------------- shared with the CLI ----------------------- *)

let clamp_perms ~n perms =
  if n <= 20 then min perms (Lb_util.Xmath.factorial n) else perms

let family ~n ~perms ~seed =
  if n <= 8 && Lb_util.Xmath.factorial n <= perms then
    (Lb_core.Permutation.all n, true)
  else
    (Lb_core.Permutation.sample (Lb_util.Rng.create seed) ~n ~count:perms, false)

let certificate_text c =
  Format.asprintf "%a" Lb_core.Bounds.pp_certificate c

let certificate_json (c : Lb_core.Bounds.certificate) =
  Json.Obj
    [
      ("algo", Json.String c.Lb_core.Bounds.algo);
      ("n", Json.Int c.n);
      ("perms", Json.Int c.perms);
      ("exhaustive", Json.Bool c.exhaustive);
      ("max_cost", Json.Int c.max_cost);
      ("min_cost", Json.Int c.min_cost);
      ("mean_cost", Json.Float c.mean_cost);
      ("max_bits", Json.Int c.max_bits);
      ("mean_bits", Json.Float c.mean_bits);
      ("bits_per_cost", Json.Float c.bits_per_cost);
      ("lower_bound_bits", Json.Float c.lower_bound_bits);
      ("distinct", Json.Bool c.distinct);
      ("text", Json.String (certificate_text c));
    ]

let resolve_algos names =
  match String.trim names with
  | "all" -> Ok Lb_algos.Registry.all
  | "correct" -> Ok Lb_algos.Registry.correct
  | names -> (
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        match Lb_algos.Registry.find name with
        | Some a -> go (a :: acc) rest
        | None -> Error (Printf.sprintf "unknown algorithm %S" name))
    in
    match
      String.split_on_char ',' names
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    with
    | [] -> Error "no algorithm given"
    | parts -> go [] parts)
