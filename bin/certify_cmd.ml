(* certify: the Theorem 7.5 certificate over a permutation family — in
   RAM, durably over a store through the certify job's one body
   (Lb_serve.Job.certify), with worker processes filling the store
   first, or submitted to a running `mutexlb serve`. *)

open Cmdliner
open Common
module Json = Lb_util.Json

(* --connect: submit the job to a server, print its certificate, and
   retry temp-fails up to [retries] times. *)
let submit ~host ~port ~client ~retries ~backoff
    (spec : Lb_serve.Protocol.certify_spec) =
  let get j name f = Option.bind (Json.member name j) f in
  let job = Lb_serve.Protocol.job_summary (Lb_serve.Protocol.Certify spec) in
  let total = ref spec.c_perms in
  let step = ref (max 1 (!total / 10)) in
  let on_event j =
    match get j "event" Json.as_string with
    | Some "start" -> (
      match get j "total" Json.as_int with
      | Some t ->
        total := t;
        step := max 1 (t / 10)
      | None -> ())
    | Some "item" -> (
      match get j "done" Json.as_int with
      | Some d when d mod !step = 0 || d = !total ->
        Printf.eprintf "certify: %d/%d done (remote)\n%!" d !total
      | _ -> ())
    | Some "granted" -> Printf.eprintf "certify: granted a server job slot\n%!"
    | _ -> ()
  in
  (* One submission attempt. Permanent outcomes print and exit right
     here; only temp-fails (unreachable, 429, drained) return to the
     retry loop — anything else would re-submit a job the server
     already answered. *)
  let attempt () =
    match Lb_serve.Client.submit ~host ~port ~client job ~on_event with
    | Error msg ->
      `Temp (3, None, Printf.sprintf "cannot reach server at %s:%d: %s" host port msg)
    | Ok o -> (
      let retry_hint =
        match o.Lb_serve.Client.o_retry_after with
        | Some ra -> Printf.sprintf " (retry after %.0fs)" ra
        | None -> ""
      in
      match o.Lb_serve.Client.o_error with
      | Some e when o.Lb_serve.Client.o_status = 429 ->
        `Temp
          ( 75,
            o.Lb_serve.Client.o_retry_after,
            Printf.sprintf "server at capacity: %s%s" e retry_hint )
      | Some e ->
        Printf.eprintf "certify: server error: %s%s\n" e retry_hint;
        exit 1
      | None -> (
        if o.Lb_serve.Client.o_drained then
          `Temp
            ( 75,
              o.Lb_serve.Client.o_retry_after,
              "server is draining; the job checkpointed (or was cancelled) \
               and a re-submission will resume" ^ retry_hint )
        else
          match o.Lb_serve.Client.o_result with
          | None ->
            Printf.eprintf "certify: connection closed without a result (HTTP %d)\n"
              o.Lb_serve.Client.o_status;
            exit 1
          | Some r -> (
            match get r "certificate" Option.some with
            | Some (Json.Obj _ as cert) ->
              (match get cert "text" Json.as_string with
              | Some text -> print_endline text
              | None -> print_endline (Json.to_string cert));
              Printf.eprintf "certify: served via %s path by %s:%d\n"
                (Option.value ~default:"?" (get r "path" Json.as_string))
                host port;
              (match get r "failed" Json.as_int with
              | Some f when f > 0 -> exit 1
              | _ -> ());
              `Done
            | _ ->
              Printf.printf "no certificate: every permutation in the family failed\n";
              exit 1)))
  in
  (* Jittered exponential backoff: attempt k sleeps about
     backoff*2^k seconds, jittered to [0.5x, 1.5x] so a fleet of
     retrying clients de-synchronizes instead of re-stampeding the
     server; a retry-after hint from the server raises the floor.
     The jitter source is deliberately not the sweep seed — retry
     timing must differ across identical commands. *)
  let rng =
    Lb_util.Rng.create
      ((Unix.getpid () * 7919) lxor int_of_float (Unix.gettimeofday () *. 1000.))
  in
  let delay_for k hint =
    let base = backoff *. (2.0 ** float_of_int (min k 6)) in
    let capped = Float.min 60.0 (base *. (0.5 +. Lb_util.Rng.float rng)) in
    match hint with Some h -> Float.max h capped | None -> capped
  in
  let rec go k =
    match attempt () with
    | `Done -> ()
    | `Temp (code, hint, why) ->
      if k >= retries then begin
        Printf.eprintf "certify: %s%s\n" why
          (if retries > 0 then Printf.sprintf " (giving up after %d attempts)" (k + 1)
           else "");
        exit code
      end
      else begin
        let d = delay_for k hint in
        Printf.eprintf "certify: %s; retrying in %.1fs (attempt %d/%d)\n%!" why d
          (k + 2) (retries + 1);
        Unix.sleepf d;
        go (k + 1)
      end
  in
  go 0

(* --workers K: pre-fill the store with K cooperating `mutexlb work`
   subprocesses (per-entry claims, no writer lease); the local sweep
   that follows mostly serves hits — and recomputes anything a crashed
   worker left pending, so it is also the healing pass. Byte-identity
   with --workers 0 holds because workers only add store entries the
   local sweep would have computed identically. *)
let spawn_workers ~workers ~dir ~checkpoint_every
    (spec : Lb_serve.Protocol.certify_spec) =
  let exe = Sys.executable_name in
  let opt flag show = function None -> [] | Some v -> [ flag; show v ] in
  let args =
    [
      exe; "work"; "--store"; dir; "--algo"; spec.c_algo; "-n"; string_of_int spec.c_n;
      "--seed"; string_of_int spec.c_seed; "--perms"; string_of_int spec.c_perms;
    ]
    @ (if spec.c_save_traces then [ "--save-traces" ] else [])
    @ opt "--pi-timeout" (Printf.sprintf "%g") spec.c_pi_timeout
    @ opt "--checkpoint-every" string_of_int checkpoint_every
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pids =
    List.init workers (fun _ ->
        Unix.create_process exe (Array.of_list args) Unix.stdin devnull Unix.stderr)
  in
  Unix.close devnull;
  Printf.eprintf "certify: spawned %d worker(s) over %s\n%!" workers dir;
  List.iter
    (fun pid ->
      let expire how =
        Printf.eprintf
          "certify: worker %d %s; its claims will expire and the aggregate \
           pass recomputes its pending units\n%!"
          pid how
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED (0 | 1) -> ()
      | _, Unix.WEXITED c -> expire (Printf.sprintf "exited %d" c)
      | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        expire (Printf.sprintf "killed by signal %d" s))
    pids

(* certify --store: the durable sweep, with progress on stderr, SIGTERM
   as a checkpointed exit 143 and a busy store as exit 75 *)
let sweep ~dir ~events ~checkpoint_every (spec : Lb_serve.Protocol.certify_spec) =
  let store = Lb_store.Store.open_ ~dir in
  let cancel = sigterm_cancel () in
  let step = max 1 (spec.c_perms / 10) in
  let outcome =
    with_events events Lb_store.Sweep.event_to_json @@ fun log ->
    let on_event ev =
      log ev;
      match ev with
      | Lb_store.Sweep.Item { progress = p; _ }
        when p.Lb_store.Sweep.p_done mod step = 0
             || p.Lb_store.Sweep.p_done = p.Lb_store.Sweep.p_total ->
        Format.eprintf "certify: %a@." Lb_store.Sweep.pp_progress p
      | Lb_store.Sweep.Damaged_entry { key; diagnostic } ->
        Format.eprintf "certify: damaged entry %s (%s); recomputing@." key diagnostic
      | _ -> ()
    in
    Lb_serve.Job.certify ~store ~cancel ~on_event ~jobs:None ~checkpoint_every spec
  in
  match ok_or_usage ~cmd:"certify" outcome with
  | Lb_serve.Job.Interrupted manifest ->
    interrupted ~who:"certify"
      (Printf.sprintf
         "manifest checkpointed%s — re-run the same command to resume"
         (match manifest with Some m -> " at " ^ m | None -> ""))
  | Lb_serve.Job.Busy h ->
    Format.eprintf
      "certify: store busy: writer lease held by %a; retry when the other \
       sweep finishes@."
      Lb_store.Store_lock.pp_held h;
    exit 75
  | Lb_serve.Job.Swept (cert, report) ->
    let p = report.Lb_store.Sweep.progress in
    print_sweep_result ~dir
      ~tally:
        (Printf.sprintf
           "store sweep    %d hits, %d computed, %d failed (%.1f%% hits)\n"
           p.Lb_store.Sweep.p_hits p.Lb_store.Sweep.p_computed
           p.Lb_store.Sweep.p_failed
           (100.0
           *. float_of_int p.Lb_store.Sweep.p_hits
           /. float_of_int (max 1 p.Lb_store.Sweep.p_done)))
      ~manifest:report.Lb_store.Sweep.manifest_path cert
      report.Lb_store.Sweep.failures

let certify_cmd =
  let connect_arg =
    Arg.(value & opt (some int) None
         & info [ "connect" ] ~docv:"PORT"
             ~doc:
               "Client mode: submit the job to a running $(b,mutexlb serve) \
                on $(docv) instead of sweeping locally. The server owns the \
                store; the certificate printed is byte-identical to a local \
                run with the same algorithm, n, perms and seed.")
  in
  let connect_host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "connect-host" ] ~docv:"HOST" ~doc:"Server host for $(b,--connect).")
  in
  let client_arg =
    Arg.(value & opt string "cli"
         & info [ "client" ] ~docv:"NAME"
             ~doc:
               "Client identity for $(b,--connect) — the server schedules \
                fairly across client names.")
  in
  let retry_arg =
    Arg.(value & opt int 0
         & info [ "retry" ] ~docv:"N"
             ~doc:
               "With $(b,--connect): retry temporary failures — server \
                unreachable, at capacity (429) or draining — up to $(docv) \
                times with jittered exponential backoff before giving up \
                with the usual exit code (75 for temp-fails, 3 for \
                unreachable). Permanent errors never retry.")
  in
  let retry_backoff_arg =
    Arg.(value & opt float 1.0
         & info [ "retry-backoff" ] ~docv:"SECONDS"
             ~doc:
               "Base delay for $(b,--retry): attempt k waits about \
                $(docv)*2^k seconds, jittered to [0.5x, 1.5x] so a fleet \
                of clients de-synchronizes, capped at 60s. A \
                server-provided retry-after hint raises the floor.")
  in
  let workers_arg =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"K"
             ~doc:
               "With $(b,--store): first spawn $(docv) `mutexlb work` \
                subprocesses that lease pending permutations from the \
                shared store per-entry and fill it cooperatively, wait for \
                them, then aggregate the certificate locally (healing any \
                units a crashed worker left pending). The certificate and \
                manifest are byte-identical to $(b,--workers) 0.")
  in
  let run c_algo c_n c_seed perms jobs store c_resume events c_save_traces
      c_pi_timeout checkpoint_every connect host client retries backoff workers =
    let cmd = "certify" in
    apply_jobs jobs;
    if perms <= 0 then
      usage ~cmd
        "--perms must be >= 1 (got %d); an empty permutation family has no \
         certificate"
        perms;
    require_store ~pi_timeout:c_pi_timeout ~cmd ~store ~resume:c_resume ~events
      ~save_traces:c_save_traces ();
    require_sweep_flags ~cmd ~pi_timeout:c_pi_timeout ~checkpoint_every;
    if retries < 0 || backoff <= 0.0 then
      usage ~cmd "--retry must be >= 0 and --retry-backoff positive";
    if retries > 0 && connect = None then
      usage ~cmd "--retry retries server temp-fails; it requires --connect";
    if workers < 0 then usage ~cmd "--workers must be >= 0 (got %d)" workers;
    if workers > 0 && store = None then
      usage ~cmd "--workers spawns processes over a shared store; add --store DIR";
    let algo = algo_at ~cmd ~n:c_n ~pipeline:true c_algo in
    let spec =
      { Lb_serve.Protocol.c_algo; c_n; c_perms = clamp_perms ~cmd ~n:c_n perms;
        c_seed; c_resume; c_save_traces; c_pi_timeout }
    in
    match (connect, store) with
    | Some _, Some _ ->
      usage ~cmd "--connect and --store are exclusive; the server owns the store"
    | Some port, None -> submit ~host ~port ~client ~retries ~backoff spec
    | None, None ->
      let pis, exhaustive = Lb_serve.Job.family spec in
      let cert = Lb_core.Pipeline.certify algo ~n:c_n ~perms:pis ~exhaustive () in
      Format.printf "%a@." Lb_core.Bounds.pp_certificate cert
    | None, Some dir ->
      if workers > 0 then spawn_workers ~workers ~dir ~checkpoint_every spec;
      sweep ~dir ~events ~checkpoint_every spec
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Aggregate the Theorem 7.5 certificate over a permutation family. \
          With --store DIR the sweep is durable: checkpointed, resumable, \
          and served from cache on re-runs.")
    Term.(const run $ algo_arg $ n_arg $ seed_arg $ perms_arg $ jobs_arg
          $ store_arg $ resume_arg $ events_arg $ save_traces_arg
          $ pi_timeout_arg $ checkpoint_every_arg $ connect_arg
          $ connect_host_arg $ client_arg $ retry_arg $ retry_backoff_arg
          $ workers_arg)
