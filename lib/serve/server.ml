module Json = Lb_util.Json
module Pool = Lb_util.Pool

type config = {
  host : string;
  port : int;
  port_file : string option;
  store_dir : string;
  jobs : int option;
  sched : Scheduler.config;
  grace : float;
  verbose : bool;
}

let default ~store_dir =
  {
    host = "127.0.0.1";
    port = 8944;
    port_file = None;
    store_dir;
    jobs = None;
    sched = Scheduler.default;
    grace = 20.0;
    verbose = false;
  }

let obj fields = Json.to_string (Json.Obj fields)
let err_body msg = obj [ ("error", Json.String msg) ]

let retry_after seconds =
  [ ("Retry-After", string_of_int (int_of_float (Float.ceil seconds))) ]

(* ----------------------------- shared state ---------------------------- *)

type state = {
  cfg : config;
  store : Lb_store.Store.t;
  reader : Lb_store.Store_lock.reader;
  sched : Scheduler.t;
  draining : bool Atomic.t;
  mu : Mutex.t;  (** guards the three fields below *)
  mutable cancels : Pool.Cancel.t list;  (** running jobs' stop tokens *)
  served : (string, int) Hashtbl.t;  (** client → completed jobs *)
  mutable jobs_done : int;
}

let with_mu st f =
  Mutex.lock st.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mu) f

let register_cancel st c =
  with_mu st (fun () ->
      st.cancels <- c :: st.cancels;
      (* a drain that already started still bounds this job *)
      if Atomic.get st.draining then
        Pool.Cancel.set_deadline c (Unix.gettimeofday () +. st.cfg.grace))

let unregister_cancel st c =
  with_mu st (fun () -> st.cancels <- List.filter (fun x -> x != c) st.cancels)

let job_served st client =
  with_mu st (fun () ->
      Hashtbl.replace st.served client
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.served client));
      st.jobs_done <- st.jobs_done + 1);
  (* let GC purge trash condemned since we joined *)
  Lb_store.Store_lock.refresh_reader st.reader

let log st fmt =
  if st.cfg.verbose then Printf.eprintf ("serve: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* ------------------------------ job runner ----------------------------- *)

(* Reports from subsystems that already render JSON are embedded
   structurally (re-parsed), not as an escaped string blob. *)
let embed_json raw =
  match Json.parse raw with Ok j -> j | Error _ -> Json.String raw

let result_event kind ok fields =
  Json.Obj
    (("event", Json.String "result")
    :: ("kind", Json.String kind)
    :: ("ok", Json.Bool ok)
    :: fields)

let error_event kind msg =
  Json.Obj
    [
      ("event", Json.String "error");
      ("kind", Json.String kind);
      ("error", Json.String msg);
    ]

let certify_result ~path ~cert ~(report : Lb_store.Sweep.report) spec =
  let p = report.Lb_store.Sweep.progress in
  let cert_fields =
    match cert with
    | None -> [ ("certificate", Json.Null) ]
    | Some c -> [ ("certificate", Protocol.certificate_json c) ]
  in
  result_event "certify"
    (cert <> None && report.Lb_store.Sweep.failures = [])
    (cert_fields
    @ [
        ("path", Json.String path);
        ("algo", Json.String spec.Protocol.c_algo);
        ("n", Json.Int spec.Protocol.c_n);
        ("hits", Json.Int p.Lb_store.Sweep.p_hits);
        ("computed", Json.Int p.Lb_store.Sweep.p_computed);
        ("failed", Json.Int p.Lb_store.Sweep.p_failed);
        ("manifest", Json.String report.Lb_store.Sweep.manifest_path);
      ])

(* The warm path: every permutation of the family already resolves to a
   valid store entry, so the certificate aggregates straight from the
   store — no scheduler slot, no lease, no worker domain. *)
let try_warm st spec =
  let open Protocol in
  match Lb_algos.Registry.find spec.c_algo with
  | None -> None
  | Some algo -> (
    let n = spec.c_n in
    let perms = Protocol.clamp_perms ~n spec.c_perms in
    let pis, exhaustive = Protocol.family ~n ~perms ~seed:spec.c_seed in
    match Lb_store.Sweep.plan ~who:"serve" ~store:st.store algo ~n ~perms:pis with
    | exception Invalid_argument _ -> None
    | plan -> (
      let total = Array.length plan.Lb_store.Sweep.u_pis in
      let rec probe acc i =
        if i = total then Some (List.rev acc)
        else
          match Lb_store.Sweep.lookup plan i with
          | `Hit r -> probe (r :: acc) (i + 1)
          | `Absent | `Damaged _ -> None
      in
      match
        Option.bind (probe [] 0) (Lb_store.Sweep.certificate algo ~n ~exhaustive)
      with
      | None -> None
      | Some cert ->
        Some
          (result_event "certify" true
             [
               ("certificate", Protocol.certificate_json cert);
               ("path", Json.String "warm");
               ("algo", Json.String algo.Lb_shmem.Algorithm.name);
               ("n", Json.Int n);
               ("hits", Json.Int total);
               ("computed", Json.Int 0);
               ("failed", Json.Int 0);
               ("manifest", Json.String plan.Lb_store.Sweep.u_manifest);
             ])))

let run_certify st ~cancel ~send spec =
  let open Protocol in
  match Lb_algos.Registry.find spec.c_algo with
  | None -> send (error_event "certify" (Printf.sprintf "unknown algorithm %S" spec.c_algo))
  | Some algo -> (
    let n = spec.c_n in
    let perms = Protocol.clamp_perms ~n spec.c_perms in
    let pis, exhaustive = Protocol.family ~n ~perms ~seed:spec.c_seed in
    let manifest = ref None in
    let on_event ev =
      (match ev with
      | Lb_store.Sweep.Checkpoint { manifest = m; _ }
      | Lb_store.Sweep.Finished { manifest = m; _ } ->
        manifest := Some m
      | _ -> ());
      send (embed_json (Lb_store.Sweep.event_to_json ev))
    in
    match
      Lb_store.Sweep.certify ~store:st.store ~resume:spec.c_resume
        ?jobs:st.cfg.jobs ~save_traces:spec.c_save_traces
        ?pi_timeout:spec.c_pi_timeout ~on_event ~cancel algo ~n ~perms:pis
        ~exhaustive ()
    with
    | cert, report -> send (certify_result ~path:"swept" ~cert ~report spec)
    | exception Invalid_argument msg -> send (error_event "certify" msg)
    | exception Pool.Cancelled ->
      send
        (Json.Obj
           ([
              ("event", Json.String "drained");
              ("kind", Json.String "certify");
              ("resumable", Json.Bool true);
              ("retry_after", Json.Float st.cfg.grace);
            ]
           @
           match !manifest with
           | Some m -> [ ("manifest", Json.String m) ]
           | None -> []))
    | exception Lb_store.Store_lock.Busy h ->
      send
        (error_event "certify"
           (Format.asprintf "store writer lease busy: %a"
              Lb_store.Store_lock.pp_held h)))

(* Non-certify jobs have no checkpoint to resume from, so draining
   them is a plain abort: cooperative (between pool units — a single
   model-check cell or pipeline leg still runs to completion), with a
   [drained] event marked non-resumable so the client exits 75 and the
   caller re-submits elsewhere. *)
let drained_event ~kind ~grace =
  Json.Obj
    [
      ("event", Json.String "drained");
      ("kind", Json.String kind);
      ("resumable", Json.Bool false);
      ("retry_after", Json.Float grace);
    ]

let cancellable st ~cancel ~send ~kind f =
  match f () with
  | () -> ()
  | exception Pool.Cancelled ->
    send (drained_event ~kind ~grace:st.cfg.grace)
  | exception e when Pool.Cancel.requested cancel ->
    (* An engine surfacing the drain as its own error (deadline,
       torn pool) still reports as drained, not as a job failure. *)
    ignore e;
    send (drained_event ~kind ~grace:st.cfg.grace)

let run_check st ~cancel ~send k_algos ~n ~rounds ~max_states =
  match Protocol.resolve_algos k_algos with
  | Error msg -> send (error_event "check" msg)
  | Ok algos -> (
    match
      List.filter (fun a -> Lb_shmem.Algorithm.supports a n) algos
    with
    | [] ->
      send (error_event "check" (Printf.sprintf "no listed algorithm supports n=%d" n))
    | algos ->
      cancellable st ~cancel ~send ~kind:"check" @@ fun () ->
      let reports =
        List.map
          (fun algo ->
            if Pool.Cancel.requested cancel then raise Pool.Cancelled;
            let r = Lb_mutex.Model_check.explore algo ~n ~rounds ~max_states in
            let certified =
              r.Lb_mutex.Model_check.verdict = Lb_mutex.Model_check.Verified
            in
            ( certified,
              Json.Obj
                [
                  ("algo", Json.String algo.Lb_shmem.Algorithm.name);
                  ("n", Json.Int n);
                  ("rounds", Json.Int rounds);
                  ( "verdict",
                    Json.String
                      (Lb_mutex.Model_check.verdict_slug
                         r.Lb_mutex.Model_check.verdict) );
                  ("states", Json.Int r.Lb_mutex.Model_check.states);
                  ("transitions", Json.Int r.Lb_mutex.Model_check.transitions);
                  ("certified", Json.Bool certified);
                ] ))
          algos
      in
      send
        (result_event "check"
           (List.for_all fst reports)
           [ ("reports", Json.List (List.map snd reports)) ]))

let run_lint st ~cancel ~send l_algos ~sizes =
  match Protocol.resolve_algos l_algos with
  | Error msg -> send (error_event "lint" msg)
  | Ok algos ->
    cancellable st ~cancel ~send ~kind:"lint" @@ fun () ->
    let report =
      Lb_analysis.Driver.run ~sizes ~cancel
        ~allow:Lb_algos.Registry.expected_findings algos
    in
    send
      (result_event "lint"
         (Lb_analysis.Driver.clean report)
         [ ("report", embed_json (Lb_analysis.Driver.to_json report)) ])

let run_chaos st ~cancel ~send ~max_states ~random ~seed =
  let cells =
    Lb_faults.Matrix.shipped
    @ (if random > 0 then Lb_faults.Matrix.random_cells ~seed ~count:random
       else [])
  in
  cancellable st ~cancel ~send ~kind:"chaos" @@ fun () ->
  let t = Lb_faults.Matrix.run ~cancel ~max_states cells in
  send
    (result_event "chaos" t.Lb_faults.Matrix.honest
       [ ("matrix", embed_json (Lb_faults.Matrix.to_json t)) ])

let run_mutate st ~cancel ~send m_algos =
  match Protocol.resolve_algos ~default_all:false m_algos with
  | Error msg -> send (error_event "mutate" msg)
  | Ok algos ->
    cancellable st ~cancel ~send ~kind:"mutate" @@ fun () ->
    let t =
      Lb_mutate.Campaign.run ~cancel
        ~allow:Lb_algos.Registry.expected_survivors algos
    in
    send
      (result_event "mutate"
         (Lb_mutate.Campaign.clean t)
         [ ("campaign", embed_json (Lb_mutate.Campaign.to_json t)) ])

let run_job st ~cancel ~send job =
  match (job : Protocol.job) with
  | Protocol.Certify spec -> run_certify st ~cancel ~send spec
  | Protocol.Check { k_algos; k_n; k_rounds; k_max_states } ->
    run_check st ~cancel ~send k_algos ~n:k_n ~rounds:k_rounds
      ~max_states:k_max_states
  | Protocol.Lint { l_algos; l_sizes } ->
    run_lint st ~cancel ~send l_algos ~sizes:l_sizes
  | Protocol.Chaos { h_max_states; h_random; h_seed } ->
    run_chaos st ~cancel ~send ~max_states:h_max_states ~random:h_random
      ~seed:h_seed
  | Protocol.Mutate { m_algos } -> run_mutate st ~cancel ~send m_algos

(* ------------------------------- requests ------------------------------ *)

let health_fields st =
  [
    ("ok", Json.Bool true);
    ("draining", Json.Bool (Atomic.get st.draining));
    ("queued", Json.Int (Scheduler.queued st.sched));
    ("running", Json.Int (Scheduler.running st.sched));
    ("jobs_done", Json.Int (with_mu st (fun () -> st.jobs_done)));
    ("epoch", Json.Int (Lb_store.Store_lock.epoch st.store));
  ]

let stats_body st =
  let s = Lb_store.Store.stat st.store in
  let clients =
    List.map
      (fun (name, queued, running) ->
        Json.Obj
          [
            ("client", Json.String name);
            ("queued", Json.Int queued);
            ("running", Json.Int running);
            ( "served",
              Json.Int
                (with_mu st (fun () ->
                     Option.value ~default:0 (Hashtbl.find_opt st.served name)))
            );
          ])
      (Scheduler.clients st.sched)
  in
  obj
    (health_fields st
    @ [
        ( "store",
          Json.Obj
            [
              ("dir", Json.String (Lb_store.Store.dir st.store));
              ("entries", Json.Int s.Lb_store.Store.s_entries);
              ("damaged", Json.Int s.Lb_store.Store.s_damaged);
              ("bytes", Json.Int s.Lb_store.Store.s_bytes);
              ("manifests", Json.Int s.Lb_store.Store.s_manifests);
            ] );
        ("clients", Json.List clients);
      ])

let handle_job st conn (req : Http.request) =
  let client =
    match Http.header req "x-client" with
    | Some c when String.trim c <> "" -> String.trim c
    | _ -> "anon"
  in
  match Json.parse req.Http.body with
  | Error msg -> Http.respond conn ~status:400 (err_body ("bad JSON: " ^ msg))
  | Ok j -> (
    match Protocol.job_of_json j with
    | Error msg -> Http.respond conn ~status:400 (err_body msg)
    | Ok job -> (
      log st "%s: %s job" client (Protocol.kind job);
      if Atomic.get st.draining then
        Http.respond conn ~status:503
          ~headers:(retry_after st.cfg.grace)
          (err_body "draining")
      else
        let warm =
          match job with
          | Protocol.Certify spec -> try_warm st spec
          | _ -> None
        in
        match warm with
        | Some result ->
          log st "%s: warm hit" client;
          job_served st client;
          Http.respond conn ~status:200 (Json.to_string result)
        | None -> (
          match Scheduler.submit st.sched ~client with
          | Error (`Rate_limited ra) ->
            Http.respond conn ~status:429 ~headers:(retry_after ra)
              (obj
                 [
                   ("error", Json.String "rate_limited");
                   ("retry_after", Json.Float ra);
                 ])
          | Error `Draining ->
            Http.respond conn ~status:503
              ~headers:(retry_after st.cfg.grace)
              (err_body "draining")
          | Ok ticket ->
            Fun.protect
              ~finally:(fun () -> Scheduler.finish st.sched ticket)
              (fun () ->
                Http.start_chunked conn ~status:200 ();
                let send ev =
                  Http.send_chunk conn (Json.to_string ev ^ "\n")
                in
                send
                  (Json.Obj
                     [
                       ("event", Json.String "accepted");
                       ("client", Json.String client);
                       ("job", Protocol.job_summary job);
                     ]);
                (match Scheduler.await st.sched ticket with
                | `Draining ->
                  send
                    (Json.Obj
                       [
                         ("event", Json.String "rejected");
                         ("reason", Json.String "draining");
                         ("retry_after", Json.Float st.cfg.grace);
                       ])
                | `Granted seq ->
                  send
                    (Json.Obj
                       [
                         ("event", Json.String "granted");
                         ("slot", Json.Int seq);
                       ]);
                  let cancel = Pool.Cancel.create () in
                  register_cancel st cancel;
                  Fun.protect
                    ~finally:(fun () -> unregister_cancel st cancel)
                    (fun () -> run_job st ~cancel ~send job);
                  job_served st client);
                Http.finish_chunked conn))))

let handle st conn =
  Unix.setsockopt_float conn Unix.SO_RCVTIMEO 10.0;
  Unix.setsockopt_float conn Unix.SO_SNDTIMEO 30.0;
  match Http.read_request conn with
  | Error msg -> Http.respond conn ~status:400 (err_body msg)
  | Ok req -> (
    match (req.Http.meth, req.Http.path) with
    | "GET", "/v1/health" ->
      Http.respond conn ~status:200 (obj (health_fields st))
    | "GET", "/v1/stats" -> Http.respond conn ~status:200 (stats_body st)
    | "POST", "/v1/jobs" -> handle_job st conn req
    | _, ("/v1/health" | "/v1/stats" | "/v1/jobs") ->
      Http.respond conn ~status:405 (err_body "method not allowed")
    | _, path ->
      Http.respond conn ~status:404
        (err_body (Printf.sprintf "no such endpoint %S" path)))

(* ------------------------------- lifecycle ----------------------------- *)

let run cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let store = Lb_store.Store.open_ ~dir:cfg.store_dir in
  let reader = Lb_store.Store_lock.register_reader ~purpose:"serve" store in
  let st =
    {
      cfg;
      store;
      reader;
      sched = Scheduler.create ~config:cfg.sched ();
      draining = Atomic.make false;
      mu = Mutex.create ();
      cancels = [];
      served = Hashtbl.create 8;
      jobs_done = 0;
    }
  in
  let stop _ = Atomic.set st.draining true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock
    (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen sock 64;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  Option.iter
    (fun path -> Lb_util.Fsio.write_atomic ~path (string_of_int port ^ "\n"))
    cfg.port_file;
  Printf.printf "serve: listening on http://%s:%d (store %s)\n%!" cfg.host port
    cfg.store_dir;
  (* Connection domains: spawned per accept, reaped cooperatively — a
     finishing handler records its id, the accept loop joins those (a
     no-op wait) so handles don't accumulate over a long-lived server. *)
  let dmu = Mutex.create () in
  let live : (Domain.id * unit Domain.t) list ref = ref [] in
  let done_ids : Domain.id list ref = ref [] in
  let with_dmu f =
    Mutex.lock dmu;
    Fun.protect ~finally:(fun () -> Mutex.unlock dmu) f
  in
  let spawn_conn conn =
    let d =
      Domain.spawn (fun () ->
          Fun.protect
            ~finally:(fun () ->
              (try Unix.close conn with Unix.Unix_error _ -> ());
              with_dmu (fun () -> done_ids := Domain.self () :: !done_ids))
            (fun () ->
              try handle st conn with
              | Unix.Unix_error _ -> ()  (* peer went away *)
              | exn -> (
                log st "handler error: %s" (Printexc.to_string exn);
                try
                  Http.respond conn ~status:500
                    (err_body (Printexc.to_string exn))
                with _ -> ())))
    in
    with_dmu (fun () -> live := (Domain.get_id d, d) :: !live)
  in
  let reap () =
    let finished =
      with_dmu (fun () ->
          let ids = !done_ids in
          done_ids := [];
          let fin, rest =
            List.partition (fun (id, _) -> List.mem id ids) !live
          in
          live := rest;
          fin)
    in
    List.iter (fun (_, d) -> Domain.join d) finished
  in
  while not (Atomic.get st.draining) do
    match Unix.select [ sock ] [] [] 0.2 with
    | [ _ ], _, _ -> (
      reap ();
      match Unix.accept sock with
      | conn, _ -> spawn_conn conn
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | _ -> reap ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* drain: stop accepting, reject the queue, deadline the running
     jobs, wait for every connection to wind down. *)
  log st "drain: stopping (grace %.0fs)" cfg.grace;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  Scheduler.drain st.sched;
  let deadline = Unix.gettimeofday () +. cfg.grace in
  with_mu st (fun () ->
      List.iter (fun c -> Pool.Cancel.set_deadline c deadline) st.cancels);
  let remaining = with_dmu (fun () -> !live) in
  List.iter (fun (_, d) -> Domain.join d) remaining;
  reap ();
  Lb_store.Store_lock.release_reader reader;
  Printf.printf "serve: drained (%d jobs served)\n%!"
    (with_mu st (fun () -> st.jobs_done))
