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

let with_mu st f = Mutex.protect st.mu f

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

(* A drained certify checkpointed its manifest and resumes on
   re-submission; the other kinds have no checkpoint, so draining them
   is a plain abort — cooperative (between pool units: a single
   model-check cell or pipeline leg still runs to completion), marked
   non-resumable so the client exits 75 and re-submits elsewhere. *)
let drained_event ~kind ~grace ~manifest resumable =
  Json.Obj
    ([
       ("event", Json.String "drained");
       ("kind", Json.String kind);
       ("resumable", Json.Bool resumable);
       ("retry_after", Json.Float grace);
     ]
    @ match manifest with Some m -> [ ("manifest", Json.String m) ] | None -> [])

let certify_result ~path ~hits ~computed ~failed ~manifest cert
    (spec : Protocol.certify_spec) =
  result_event "certify"
    (cert <> None && failed = 0)
    [
      ( "certificate",
        match cert with None -> Json.Null | Some c -> Protocol.certificate_json c );
      ("path", Json.String path);
      ("algo", Json.String spec.c_algo);
      ("n", Json.Int spec.c_n);
      ("hits", Json.Int hits);
      ("computed", Json.Int computed);
      ("failed", Json.Int failed);
      ("manifest", Json.String manifest);
    ]

(* The warm path: every permutation of the family already resolves to a
   valid store entry, so the certificate aggregates straight from the
   store — no scheduler slot, no lease, no worker domain. *)
let try_warm st (spec : Protocol.certify_spec) =
  match Lb_algos.Registry.find spec.c_algo with
  | None -> None
  | Some algo -> (
    let n = spec.c_n in
    let pis, exhaustive = Job.family spec in
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
          (certify_result ~path:"warm" ~hits:total ~computed:0 ~failed:0
             ~manifest:plan.Lb_store.Sweep.u_manifest (Some cert) spec)))

let certify_event st ~cancel ~send spec =
  let on_event ev = send (embed_json (Lb_store.Sweep.event_to_json ev)) in
  match
    Job.certify ~store:st.store ~cancel ~on_event ~jobs:st.cfg.jobs
      ~checkpoint_every:None spec
  with
  | Error msg -> error_event "certify" msg
  | Ok (Job.Swept (cert, report)) ->
    let p = report.Lb_store.Sweep.progress in
    certify_result ~path:"swept" ~hits:p.Lb_store.Sweep.p_hits
      ~computed:p.Lb_store.Sweep.p_computed ~failed:p.Lb_store.Sweep.p_failed
      ~manifest:report.Lb_store.Sweep.manifest_path cert spec
  | Ok (Job.Interrupted manifest) ->
    drained_event ~kind:"certify" ~grace:st.cfg.grace ~manifest true
  | Ok (Job.Busy h) ->
    error_event "certify"
      (Format.asprintf "store writer lease busy: %a" Lb_store.Store_lock.pp_held h)

let check_result (spec : Protocol.check_spec) (o : Job.check) =
  let reports =
    List.map
      (fun ((algo : Lb_shmem.Algorithm.t), r) ->
        let certified =
          r.Lb_mutex.Model_check.verdict = Lb_mutex.Model_check.Verified
        in
        ( certified,
          Json.Obj
            [
              ("algo", Json.String algo.Lb_shmem.Algorithm.name);
              ("n", Json.Int spec.k_n);
              ("rounds", Json.Int spec.k_rounds);
              ( "verdict",
                Json.String
                  (Lb_mutex.Model_check.verdict_slug r.Lb_mutex.Model_check.verdict)
              );
              ("states", Json.Int r.Lb_mutex.Model_check.states);
              ("transitions", Json.Int r.Lb_mutex.Model_check.transitions);
              ("certified", Json.Bool certified);
            ] ))
      o.Job.reports
  in
  (List.for_all fst reports, [ ("reports", Json.List (List.map snd reports)) ])

(* The event that ends a granted job: its result, an error about its
   parameters, or [drained] when the drain cancelled it. An engine that
   surfaces the drain as its own error (deadline, torn pool) still
   reports as drained, not as a job failure. *)
let job_event st ~cancel ~send job =
  let kind = Protocol.kind job in
  let ended f =
    match f () with
    | Ok (ok, fields) -> result_event kind ok fields
    | Error msg -> error_event kind msg
    | exception Pool.Cancelled -> drained_event ~kind ~grace:st.cfg.grace ~manifest:None false
    | exception _ when Pool.Cancel.requested cancel ->
      drained_event ~kind ~grace:st.cfg.grace ~manifest:None false
  in
  match (job : Protocol.job) with
  | Protocol.Certify spec -> certify_event st ~cancel ~send spec
  | Protocol.Check spec ->
    ended (fun () ->
        Job.check ~cancel ~deadline:None ~mem_budget:None ~spill_dir:None
          ~resume:false spec
        |> Result.map (check_result spec))
  | Protocol.Lint spec ->
    ended (fun () ->
        Job.lint ~cancel ~settings:Lb_analysis.Automaton.default_settings
          ~passes:Lb_analysis.Driver.default_passes ~allowlist:true spec
        |> Result.map (fun report ->
               ( Lb_analysis.Driver.clean report,
                 [ ("report", Lb_analysis.Driver.to_json report) ] )))
  | Protocol.Chaos spec ->
    ended (fun () ->
        let t = Job.chaos ~cancel ~deadline:None spec in
        Ok
          ( t.Lb_faults.Matrix.honest,
            [ ("matrix", embed_json (Lb_faults.Matrix.to_json t)) ] ))
  | Protocol.Mutate spec ->
    ended (fun () ->
        Job.mutate ~cancel ~config:Lb_mutate.Campaign.default
          ~short_circuit:true ~allowlist:true spec
        |> Result.map (fun t ->
               ( Lb_mutate.Campaign.clean t,
                 [ ("campaign", embed_json (Lb_mutate.Campaign.to_json t)) ] )))

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

let draining_503 st conn =
  Http.respond conn ~status:503 ~headers:(retry_after st.cfg.grace)
    (err_body "draining")

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
      if Atomic.get st.draining then draining_503 st conn
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
          | Error `Draining -> draining_503 st conn
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
                  (* the job computes on a domain of its own while this
                     thread waits, so the connection threads keep the
                     listener's domain; [Domain.join] re-raises *)
                  Fun.protect
                    ~finally:(fun () -> unregister_cancel st cancel)
                    (fun () ->
                      Domain.join
                        (Domain.spawn (fun () ->
                             send (job_event st ~cancel ~send job))));
                  job_served st client);
                Http.finish_chunked conn))))

(* [request] is what [Http.read_request] made of the connection; a
   request cut short by the drain (see [run]) is answered 503. *)
let handle st conn request =
  match request with
  | Error _ when Atomic.get st.draining -> draining_503 st conn
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

(* An accepted connection: [reading] until its request is read,
   [closed] once its handler closed [fd]. *)
type conn = { fd : Unix.file_descr; mutable reading : bool; mutable closed : bool }

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
  (* Connection threads: one systhread of this domain per accept,
     reaped cooperatively — a finishing handler records its id, the
     accept loop joins those (a no-op wait) so handles don't accumulate
     over a long-lived server. Only the accept loop touches [live];
     [tmu] guards [done_ids] and each connection's [reading] and
     [closed]. *)
  let live : (int * Thread.t * conn) list ref = ref [] in
  let tmu = Mutex.create () in
  let done_ids : int list ref = ref [] in
  let spawn_conn fd =
    let c = { fd; reading = true; closed = false } in
    let conn_thread () =
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect tmu (fun () ->
              c.closed <- true;
              (try Unix.close fd with Unix.Unix_error _ -> ());
              done_ids := Thread.id (Thread.self ()) :: !done_ids))
        (fun () ->
          try
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
            Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.0;
            let request = Http.read_request fd in
            Mutex.protect tmu (fun () -> c.reading <- false);
            handle st fd request
          with
          | Unix.Unix_error _ -> ()  (* peer went away *)
          | exn -> (
            log st "handler error: %s" (Printexc.to_string exn);
            try
              Http.respond fd ~status:500 (err_body (Printexc.to_string exn))
            with _ -> ()))
    in
    match Thread.create conn_thread () with
    | t -> live := (Thread.id t, t, c) :: !live
    | exception e ->
      (* out of threads: drop this connection, keep serving the rest *)
      log st "no thread for a connection: %s" (Printexc.to_string e);
      (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let reap () =
    let ids =
      Mutex.protect tmu (fun () ->
          let ids = !done_ids in
          done_ids := [];
          ids)
    in
    let fin, rest = List.partition (fun (id, _, _) -> List.mem id ids) !live in
    live := rest;
    List.iter (fun (_, t, _) -> Thread.join t) fin
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
     jobs, wait for every connection to wind down. A connection still
     waiting for its request would hold the drain until its receive
     timeout: shutting its receiving side ends the wait at once, and
     its handler answers 503. Under [tmu], so no fd is shut after its
     handler closed it (the number may name another file by then). *)
  log st "drain: stopping (grace %.0fs)" cfg.grace;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  Scheduler.drain st.sched;
  let deadline = Unix.gettimeofday () +. cfg.grace in
  with_mu st (fun () ->
      List.iter (fun c -> Pool.Cancel.set_deadline c deadline) st.cancels);
  Mutex.protect tmu (fun () ->
      List.iter
        (fun (_, _, c) ->
          if c.reading && not c.closed then
            try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
        !live);
  List.iter (fun (_, t, _) -> Thread.join t) !live;
  Lb_store.Store_lock.release_reader reader;
  Printf.printf "serve: drained (%d jobs served)\n%!"
    (with_mu st (fun () -> st.jobs_done))
