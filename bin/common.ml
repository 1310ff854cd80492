(* What the verbs share: the common flags, the checks that refuse a
   usage error (exit 2, one stderr line) before any work starts, and
   the plumbing of the sweep verbs. *)

open Cmdliner

(* A usage error: one stderr line naming the verb, exit 2. *)
let usage ~cmd fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: %s\n" cmd msg;
      exit 2)
    fmt

let find_algo name =
  match Lb_algos.Registry.find name with
  | Some a -> a
  | None ->
    Printf.eprintf "unknown algorithm %S; try `mutexlb list`\n" name;
    exit 2

(* The algorithm a single-algorithm verb instantiates at one n. An n
   outside its range is refused here (exit 2) rather than as an
   uncaught Invalid_argument from inside, and before any store is
   touched. So is an RMW algorithm for the verbs of the lower-bound
   [pipeline], which covers only the read/write-register model, instead
   of surfacing Invalid_argument from Pipeline or Unsupported_primitive
   from inside the construction sweep. *)
let algo_at ~cmd ~n ~pipeline name =
  let algo = find_algo name in
  if pipeline && not (Lb_shmem.Algorithm.registers_only algo) then
    usage ~cmd
      "algorithm %S is declared Uses_rmw; the construction covers only the \
       paper's read/write-register model (lint rule \
       kind-honesty/undeclared-rmw). Try `mutexlb run` or `mutexlb check`, \
       which accept RMW algorithms."
      name;
  if not (Lb_shmem.Algorithm.supports algo n) then
    usage ~cmd "algorithm %S does not support n=%d" name n;
  algo

(* Counts and budgets below 1 would make a verb certify nothing or
   crash on Invalid_argument from inside; refuse them here (exit 2). *)
let require_positive ~cmd flag v =
  if v < 1 then usage ~cmd "%s must be >= 1 (got %d)" flag v

(* A job body's complaint about its parameters is a usage error. *)
let ok_or_usage ~cmd = function Ok v -> v | Error msg -> usage ~cmd "%s" msg

(* ----------------------------- arguments ----------------------------- *)

let default_algo = "yang_anderson"

let algo_arg =
  let doc = "Algorithm name (see `mutexlb list`)." in
  Arg.(value & opt string default_algo & info [ "a"; "algo" ] ~docv:"NAME" ~doc)

(* The comma-separated lists of check, lint and mutate, with their
   job's default. *)
let algos_arg ~default =
  let doc =
    "Comma-separated algorithm names, $(b,correct) for every correct \
     registry entry, or $(b,all) to include the faulty controls."
  in
  Arg.(value & opt string default & info [ "a"; "algo" ] ~docv:"NAMES" ~doc)

let n_arg =
  let doc = "Number of processes." in
  Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc)

let seed_opt ~default =
  let doc = "PRNG seed (schedules, sampled permutations)." in
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

let seed_arg = seed_opt ~default:Lb_serve.Protocol.default_seed

let jobs_arg =
  let doc =
    "Worker domains for the sweep. Defaults to $(b,MUTEXLB_JOBS) if set, \
     else the machine's recommended domain count; 1 forces a sequential \
     sweep (results are identical at every job count)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let apply_jobs = function
  | None -> ()
  | Some j when j >= 1 -> Lb_util.Pool.set_default_jobs j
  | Some j ->
    Printf.eprintf "--jobs must be >= 1 (got %d)\n" j;
    exit 2

let json_arg doc = Arg.(value & flag & info [ "json" ] ~doc)

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")

let write_out out text =
  Option.iter
    (fun path -> Out_channel.with_open_text path (fun oc -> output_string oc text))
    out

let perm_arg =
  let doc =
    "Permutation as comma-separated process indices, e.g. 2,0,1. Default: a \
     seeded random permutation."
  in
  Arg.(value & opt (some string) None & info [ "p"; "perm" ] ~docv:"PERM" ~doc)

let parse_perm ~n ~seed = function
  | None -> Lb_core.Permutation.random (Lb_util.Rng.create seed) n
  | Some s -> (
    match Lb_core.Permutation.of_csv ~n s with
    | Ok pi -> pi
    | Error msg ->
      prerr_endline msg;
      exit 2)

let csv s =
  String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "")

(* --rules of lint and --ops of mutate: a comma-separated selection,
   checked by [validate]; [None] when the flag is absent *)
let selection ~cmd ~flag ~what validate =
  Option.map (fun s ->
      match ok_or_usage ~cmd (validate (csv s)) with
      | [] -> usage ~cmd "%s selected no %s" flag what
      | xs -> xs)

(* --sizes of lint and mutate: a comma-separated list, bounded like the
   served job's "sizes" *)
let sizes_arg ~default ~doc =
  let csv = String.concat "," (List.map string_of_int default) in
  Arg.(value & opt string csv & info [ "sizes" ] ~docv:"NS" ~doc)

let parse_sizes ~cmd ~default s =
  let sizes =
    try List.map int_of_string (csv s)
    with Failure _ ->
      usage ~cmd "bad --sizes %S (want e.g. %s)" s
        (String.concat "," (List.map string_of_int default))
  in
  if not (Lb_serve.Protocol.sizes_ok sizes) then
    usage ~cmd "--sizes must list positive integers";
  sizes

(* ---------------------------- sweep verbs ----------------------------- *)

let perms_arg =
  Arg.(value & opt int Lb_serve.Protocol.default_perms
       & info [ "perms" ] ~docv:"K"
           ~doc:
             "Permutations in the family. Workers of one distributed sweep \
              must be given the same algo, n, seed and perms: the family is \
              derived from them.")

let store_arg =
  let doc =
    "Durable result store directory. Completed permutations are served from \
     the store and new ones written to it, so an interrupted sweep resumes \
     where it left off."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Quarantine per-permutation failures (recorded in the store manifest and \
     summarized at the end) instead of failing fast. Requires $(b,--store)."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let events_arg =
  let doc = "Append sweep telemetry as JSONL events to $(docv). Requires $(b,--store)." in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

let save_traces_arg =
  let doc = "Also store each permutation's E_pi bit string. Requires $(b,--store)." in
  Arg.(value & flag & info [ "save-traces" ] ~doc)

let pi_timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "pi-timeout" ] ~docv:"SECONDS"
           ~doc:
             "Per-permutation wall-clock budget: a unit that overruns is \
              quarantined (certify requires $(b,--resume) for that) or \
              aborts the sweep. The check is cooperative — the unit \
              finishes, its result is discarded before reaching the store.")

let checkpoint_every_arg =
  Arg.(value & opt (some int) None
       & info [ "checkpoint-every" ] ~docv:"K"
           ~doc:
             "Rewrite the sweep manifest after every $(docv) units resolved \
              (default 64). A quarantined failure checkpoints eagerly \
              regardless, so the on-disk manifest names it as soon as it \
              happens. Smaller values narrow the window of re-served hits \
              after a crash at the cost of more manifest rewrites.")

let require_store ?(pi_timeout = None) ~cmd ~store ~resume ~events
    ~save_traces () =
  if store = None && (resume || events <> None || save_traces || pi_timeout <> None)
  then
    usage ~cmd
      "--resume, --events, --save-traces and --pi-timeout only make sense \
       with a durable store; add --store DIR"

let require_sweep_flags ~cmd ~pi_timeout ~checkpoint_every =
  (match pi_timeout with
  | Some t when t <= 0.0 -> usage ~cmd "--pi-timeout must be positive"
  | Some _ | None -> ());
  Option.iter (require_positive ~cmd "--checkpoint-every") checkpoint_every

(* `--perms K` with K > n! would pretend to sample K distinct
   permutations when only n! exist; it clamps to the full (exhaustive)
   family with a warning instead. *)
let clamp_perms ~cmd ~n perms =
  let clamped = Lb_serve.Protocol.clamp_perms ~n perms in
  if clamped < perms then
    Printf.eprintf
      "%s: --perms %d exceeds n! = %d at n=%d; clamping to the full family\n%!"
      cmd perms clamped n;
  clamped

(* SIGTERM fires a cooperative cancel token: the sweep engine notices
   between units, checkpoints its manifest and raises (or reports)
   Cancelled, which the verb turns into the conventional 128+15 exit.
   A re-run of the same command resumes from that checkpoint. *)
let sigterm_cancel () =
  let cancel = Lb_util.Pool.Cancel.create () in
  ignore
    (Sys.signal Sys.sigterm
       (Sys.Signal_handle (fun _ -> Lb_util.Pool.Cancel.set cancel)));
  cancel

let interrupted ~who detail =
  Printf.eprintf "%s: interrupted (SIGTERM); %s\n" who detail;
  exit 143

(* --events FILE: [f] gets a sink appending each event as one JSONL
   line, written whole under a lock (the engines may call it from
   several domains) and flushed. *)
let with_events events to_json f =
  match events with
  | None -> f (fun _ -> ())
  | Some path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    let mu = Mutex.create () in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        f (fun ev ->
            Mutex.protect mu (fun () ->
                output_string oc (to_json ev);
                output_char oc '\n';
                flush oc)))

(* certify --store and work end alike: the certificate, the store, the
   engine's tally line, the manifest and the quarantined units; any
   failure makes the exit status 1. *)
let print_sweep_result ~dir ~tally ~manifest cert
    (failures : Lb_store.Sweep.failure list) =
  (match cert with
  | Some c -> Format.printf "%a@." Lb_core.Bounds.pp_certificate c
  | None ->
    Printf.printf "no certificate: every permutation in the family failed\n");
  Printf.printf "store          %s\n" dir;
  print_string tally;
  Printf.printf "manifest       %s\n" manifest;
  match failures with
  | [] -> ()
  | fs ->
    Printf.printf "failure digest (%d quarantined):\n" (List.length fs);
    List.iteri
      (fun i (f : Lb_store.Sweep.failure) ->
        if i < 10 then
          Format.printf "  %a: %s@." Lb_core.Permutation.pp
            f.Lb_store.Sweep.f_pi f.Lb_store.Sweep.f_message)
      fs;
    if List.length fs > 10 then
      Printf.printf "  ... and %d more (see manifest)\n" (List.length fs - 10);
    exit 1
