(* The job service and the store concurrency layer beneath it: writer
   lease + reader registration (Store_lock), epoch-based GC over a live
   store (Store_gc), the sweep engine's lease/cancel integration, the
   fair scheduler, and the served protocol end-to-end over a real
   socket — including the acceptance bar that a served certificate is
   byte-identical to the batch CLI path. *)

module Store = Lb_store.Store
module Store_key = Lb_store.Store_key
module Lock = Lb_store.Store_lock
module Claim = Lb_store.Store_claim
module Gc = Lb_store.Store_gc
module Sweep = Lb_store.Sweep
module Pool = Lb_util.Pool
module Json = Lb_util.Json
module Protocol = Lb_serve.Protocol
module Sched = Lb_serve.Scheduler

let ya = Lb_algos.Yang_anderson.algorithm

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d = Filename.temp_file "mutexlb_serve" (Printf.sprintf "_%d" !ctr) in
    Sys.remove d;
    d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_store f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f (Store.open_ ~dir))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let write_file path content =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc content;
  close_out oc

(* a pid guaranteed dead: spawn a short-lived child and reap it.
   create_process uses posix_spawn, so unlike fork it stays legal
   after other suites have spawned domains *)
let dead_pid () =
  let pid =
    Unix.create_process "/bin/true" [| "/bin/true" |] Unix.stdin Unix.stdout
      Unix.stderr
  in
  ignore (Unix.waitpid [] pid);
  pid

let cert_text c = Protocol.certificate_text c

(* the registry probe the CLI passes to gc *)
let live_fp ~algo ~n =
  match Lb_algos.Registry.find algo with
  | Some a when Lb_shmem.Algorithm.supports a n ->
    Some (Store_key.fingerprint a ~n)
  | _ -> None

let stale_fp ~algo:_ ~n:_ = Some "deadbeef"

let populate st ~n =
  let pis = Lb_core.Permutation.all n in
  let cert, report =
    Sweep.certify ~store:st ~jobs:1 ya ~n ~perms:pis ~exhaustive:true ()
  in
  (pis, Option.get cert, report)

(* ---------------------------- writer lease ---------------------------- *)

let test_lock_excludes () =
  with_store (fun st ->
      Alcotest.(check bool) "free at first" true (Lock.writer_held st = None);
      let w =
        match Lock.try_acquire_writer st ~purpose:"first" with
        | Ok w -> w
        | Error _ -> Alcotest.fail "fresh store lease refused"
      in
      (match Lock.try_acquire_writer st ~purpose:"second" with
      | Ok _ -> Alcotest.fail "double acquisition"
      | Error h ->
        Alcotest.(check string) "holder purpose" "first" h.Lock.h_purpose;
        Alcotest.(check int) "holder pid" (Unix.getpid ()) h.Lock.h_pid);
      (match Lock.writer_held st with
      | Some h -> Alcotest.(check string) "held purpose" "first" h.Lock.h_purpose
      | None -> Alcotest.fail "writer_held misses a live lease");
      Lock.release_writer w;
      Lock.release_writer w (* idempotent *);
      Alcotest.(check bool) "free after release" true (Lock.writer_held st = None);
      match Lock.try_acquire_writer st ~purpose:"third" with
      | Ok w -> Lock.release_writer w
      | Error _ -> Alcotest.fail "lease not reacquirable")

let test_lock_stale_break () =
  with_store (fun st ->
      let pid = dead_pid () in
      write_file
        (Filename.concat (Store.dir st) "locks/writer.1.claim")
        (Printf.sprintf "pid %d\nhost %s\npurpose crashed\nsince %.3f\ntoken x\n"
           pid (Unix.gethostname ()) (Unix.gettimeofday ()));
      Alcotest.(check bool) "stale lease is not held" true
        (Lock.writer_held st = None);
      match Lock.try_acquire_writer st ~purpose:"breaker" with
      | Ok w -> Lock.release_writer w
      | Error _ -> Alcotest.fail "stale lease never broken")

(* Two breakers that read the same stale lease: taking epoch E+1 with
   O_EXCL lets exactly one of them hold the store. *)
let test_lock_one_winner () =
  with_store (fun st ->
      let pid = dead_pid () in
      write_file
        (Filename.concat (Store.dir st) "locks/writer.1.claim")
        (Printf.sprintf "pid %d\nhost %s\npurpose crashed\nsince %.3f\n" pid
           (Unix.gethostname ()) (Unix.gettimeofday ()));
      let locks = Claim.locks st in
      let slot = Claim.probe_slot locks ~key:"writer" in
      (match slot with
      | Claim.Held { epoch = 1; _ } -> ()
      | _ -> Alcotest.fail "planted lease not read as Held at epoch 1");
      let take purpose =
        Claim.take locks ~key:"writer" ~purpose ~slot
          ~stale:(fun ~epoch:_ ~age:_ -> true)
      in
      let a = take "breaker-a" and b = take "breaker-b" in
      (match (a, b) with
      | Some c, None -> Alcotest.(check int) "winner at epoch 2" 2 (Claim.epoch c)
      | _ -> Alcotest.fail "expected exactly one breaker to win");
      match Lock.try_acquire_writer st ~purpose:"late" with
      | Ok _ -> Alcotest.fail "a third writer joined the winner"
      | Error h ->
        Alcotest.(check string) "names the winner" "breaker-a" h.Lock.h_purpose)

(* The writer epoch grows by one per acquisition; each take removes the
   files below it, so the lock directory holds one writer file. *)
let test_lock_debris_bounded () =
  with_store (fun st ->
      for _ = 1 to 200 do
        Lock.release_writer
          (Result.get_ok (Lock.try_acquire_writer st ~purpose:"cycle"))
      done;
      let writer_files =
        Sys.readdir (Filename.concat (Store.dir st) "locks")
        |> Array.to_list
        |> List.filter (fun f -> String.starts_with ~prefix:"writer." f)
      in
      Alcotest.(check (list string)) "one writer file" [ "writer.200.quit" ]
        writer_files)

let test_readers_epoch () =
  with_store (fun st ->
      Alcotest.(check int) "virgin epoch" 0 (Lock.epoch st);
      let r = Lock.register_reader ~purpose:"test" st in
      (match Lock.live_readers st with
      | [ (pid, epoch) ] ->
        Alcotest.(check int) "own pid" (Unix.getpid ()) pid;
        Alcotest.(check int) "joined at 0" 0 epoch
      | l -> Alcotest.failf "expected one reader, got %d" (List.length l));
      let file =
        let dir = Filename.concat (Store.dir st) "locks/readers" in
        match Sys.readdir dir with
        | [| f |] -> Filename.concat dir f
        | fs -> Alcotest.failf "expected one reader file, got %d" (Array.length fs)
      in
      let ino () = (Unix.stat file).Unix.st_ino in
      (* an unchanged epoch leaves the file as it is *)
      let ino0 = ino () in
      for i = 1 to 3 do
        Lock.refresh_reader r;
        Alcotest.(check int) (Printf.sprintf "refresh %d keeps the file" i) ino0
          (ino ())
      done;
      let joined_at what expected =
        match Lock.live_readers st with
        | [ (_, epoch) ] -> Alcotest.(check int) what expected epoch
        | _ -> Alcotest.failf "%s: reader lost" what
      in
      Alcotest.(check int) "bump" 1 (Lock.bump_epoch st);
      Lock.refresh_reader r;
      Alcotest.(check bool) "a moved epoch rewrites the file" true (ino () <> ino0);
      joined_at "refreshed epoch" 1;
      (* a file removed from under the reader is written again *)
      Sys.remove file;
      Lock.refresh_reader r;
      Alcotest.(check bool) "recreated" true (Sys.file_exists file);
      joined_at "recreated at the current epoch" 1;
      Lock.release_reader r;
      Alcotest.(check int) "gone" 0 (List.length (Lock.live_readers st)))

let test_reap_dead_readers () =
  with_store (fun st ->
      let pid = dead_pid () in
      write_file
        (Filename.concat (Store.dir st)
           (Printf.sprintf "locks/readers/%d-0.reader" pid))
        (Printf.sprintf "pid %d\nhost %s\npurpose crashed\nepoch 0\nsince %.3f\n"
           pid (Unix.gethostname ()) (Unix.gettimeofday ()));
      Alcotest.(check int) "dead reader invisible" 0
        (List.length (Lock.live_readers st));
      Alcotest.(check int) "reaped" 1 (Lock.reap_dead_readers st);
      Alcotest.(check int) "nothing to reap twice" 0 (Lock.reap_dead_readers st))

(* --------------------------------- gc --------------------------------- *)

let test_gc_refuses_under_lease () =
  with_store (fun st ->
      let _ = populate st ~n:3 in
      let w = Result.get_ok (Lock.try_acquire_writer st ~purpose:"sweep") in
      (match Gc.run ~current_fp:live_fp st with
      | Error h -> Alcotest.(check string) "names holder" "sweep" h.Lock.h_purpose
      | Ok _ -> Alcotest.fail "gc ran under a held lease");
      (* force overrides; everything is fresh so nothing is condemned *)
      (match Gc.run ~force:true ~current_fp:live_fp st with
      | Error _ -> Alcotest.fail "--force did not override"
      | Ok r ->
        Alcotest.(check int) "kept all" 6 r.Gc.g_kept;
        Alcotest.(check int) "condemned none" 0 (List.length r.Gc.g_condemned));
      Lock.release_writer w)

let test_gc_dry_run_moves_nothing () =
  with_store (fun st ->
      let _ = populate st ~n:3 in
      (match Gc.run ~dry:true ~current_fp:stale_fp st with
      | Error _ -> Alcotest.fail "dry run should never refuse"
      | Ok r ->
        Alcotest.(check bool) "dry" true r.Gc.g_dry;
        Alcotest.(check int) "all would go" 6 (List.length r.Gc.g_condemned);
        Alcotest.(check int) "epoch untouched" 0 r.Gc.g_epoch);
      Alcotest.(check int) "entries survive a dry run" 6
        (Store.stat st).Store.s_entries)

let test_gc_epochs_defer_to_readers () =
  with_store (fun st ->
      let _ = populate st ~n:3 in
      let rd = Lock.register_reader ~purpose:"holdout" st in
      (* destructive stale pass: condemn everything, but the reader
         joined at epoch 0 so the trash must survive *)
      (match Gc.run ~current_fp:stale_fp st with
      | Error _ -> Alcotest.fail "gc refused with no writer"
      | Ok r ->
        Alcotest.(check int) "condemned all" 6 (List.length r.Gc.g_condemned);
        Alcotest.(check int) "epoch bumped" 1 r.Gc.g_epoch;
        Alcotest.(check int) "nothing purged yet" 0 r.Gc.g_trash_purged;
        Alcotest.(check int) "trash deferred" 1 r.Gc.g_trash_deferred);
      Alcotest.(check int) "objects gone" 0 (Store.stat st).Store.s_entries;
      (* a second pass with the reader still at epoch 0 keeps deferring *)
      (match Gc.run ~current_fp:live_fp st with
      | Ok r ->
        Alcotest.(check int) "still deferred" 1 r.Gc.g_trash_deferred;
        Alcotest.(check int) "still nothing purged" 0 r.Gc.g_trash_purged;
        Alcotest.(check int) "no bump without condemnation" 1 r.Gc.g_epoch
      | Error _ -> Alcotest.fail "gc refused");
      (* once the reader re-joins at the current epoch, trash purges *)
      Lock.refresh_reader rd;
      (match Gc.run ~current_fp:live_fp st with
      | Ok r ->
        Alcotest.(check int) "purged" 1 r.Gc.g_trash_purged;
        Alcotest.(check int) "no deferrals left" 0 r.Gc.g_trash_deferred
      | Error _ -> Alcotest.fail "gc refused");
      Lock.release_reader rd)

(* --------------------------- sweep + lease ----------------------------- *)

let test_sweep_busy () =
  with_store (fun st ->
      let pis = Lb_core.Permutation.all 3 in
      let w = Result.get_ok (Lock.try_acquire_writer st ~purpose:"other") in
      (match
         Sweep.certify ~store:st ~jobs:1 ~lease_wait:0.05 ya ~n:3 ~perms:pis
           ~exhaustive:true ()
       with
      | _ -> Alcotest.fail "sweep ran under someone else's lease"
      | exception Lock.Busy h ->
        Alcotest.(check string) "names holder" "other" h.Lock.h_purpose);
      Lock.release_writer w)

(* A sweep whose lease is broken mid-run is fenced: it stops with Busy
   naming the taker, writes no manifest after the fence, and keeps the
   entries it already wrote. *)
let test_sweep_fenced () =
  let pis, exhaustive = Protocol.family ~n:4 ~perms:24 ~seed:0 in
  with_store (fun st ->
      let plan = Sweep.plan ~who:"test" ~store:st ya ~n:4 ~perms:pis in
      let fence = ref None and done_keys = ref [] in
      let on_event = function
        | Sweep.Item { index; _ } ->
          done_keys := plan.Sweep.u_keys.(index) :: !done_keys;
          if !fence = None then begin
            Unix.sleepf 0.01;
            match Lock.try_acquire_writer ~ttl:0.001 st ~purpose:"taker" with
            | Ok w ->
              let manifest = List.hd (Store.manifest_paths st) in
              fence := Some (w, manifest, read_file manifest)
            | Error _ -> Alcotest.fail "taker could not break the lease"
          end
        | _ -> ()
      in
      (match
         Sweep.certify ~store:st ~jobs:1 ~checkpoint_every:1 ~on_event ya ~n:4
           ~perms:pis ~exhaustive ()
       with
      | _ -> Alcotest.fail "fenced sweep ran to the end"
      | exception Lock.Busy h ->
        Alcotest.(check string) "names the taker" "taker" h.Lock.h_purpose);
      let w, manifest, at_fence = Option.get !fence in
      Alcotest.(check string) "no manifest written after the fence" at_fence
        (read_file manifest);
      Alcotest.(check bool) "stopped early" true (List.length !done_keys < 24);
      List.iter
        (fun key ->
          match Store.lookup st ~key with
          | `Hit _ -> ()
          | `Absent | `Damaged _ -> Alcotest.fail "a written entry was lost")
        !done_keys;
      Lock.release_writer w)

let test_sweep_cancel_checkpoints_and_resumes () =
  let n = 4 in
  let pis, exhaustive = Protocol.family ~n ~perms:24 ~seed:0 in
  with_store (fun ref_st ->
      let ref_cert, ref_report =
        Sweep.certify ~store:ref_st ~jobs:1 ya ~n ~perms:pis ~exhaustive ()
      in
      let ref_text = cert_text (Option.get ref_cert) in
      let ref_manifest = read_file ref_report.Sweep.manifest_path in
      with_store (fun st ->
          let cancel = Pool.Cancel.create () in
          let items = Atomic.make 0 in
          let on_event = function
            | Sweep.Item _ ->
              if Atomic.fetch_and_add items 1 = 1 then Pool.Cancel.set cancel
            | _ -> ()
          in
          (match
             Sweep.certify ~store:st ~jobs:1 ~cancel ~on_event ya ~n ~perms:pis
               ~exhaustive ()
           with
          | _ -> Alcotest.fail "cancel did not interrupt the sweep"
          | exception Pool.Cancelled -> ());
          Alcotest.(check bool) "lease released on the way out" true
            (Lock.writer_held st = None);
          Alcotest.(check bool) "manifest checkpointed" true
            (Store.manifest_paths st <> []);
          (* resume completes from the checkpoint, byte-identically *)
          let cert2, report2 =
            Sweep.certify ~store:st ~jobs:1 ya ~n ~perms:pis ~exhaustive ()
          in
          Alcotest.(check bool) "resume reused durable units" true
            (report2.Sweep.progress.Sweep.p_hits >= 2);
          Alcotest.(check string) "certificate byte-identical" ref_text
            (cert_text (Option.get cert2));
          Alcotest.(check string) "manifest byte-identical" ref_manifest
            (read_file report2.Sweep.manifest_path)))

(* ------------------------------ protocol ------------------------------- *)

(* A served job that leaves a field out runs what the verb runs when
   its flag is left out: certify and chaos seed 1 and chaos max_states
   200,000, as on the command line. *)
let test_protocol_defaults () =
  List.iter
    (fun (body, summary) ->
      match Result.bind (Json.parse body) Protocol.job_of_json with
      | Error msg -> Alcotest.failf "%s: %s" body msg
      | Ok job ->
        Alcotest.(check string) body summary
          (Json.to_string (Protocol.job_summary job)))
    [
      ( {|{"kind":"certify","algo":"bakery","n":3}|},
        {|{"kind":"certify","algo":"bakery","n":3,"perms":24,"seed":1,"resume":false,"save_traces":false,"pi_timeout":null}|}
      );
      ( {|{"kind":"check","algo":"bakery","n":3}|},
        {|{"kind":"check","algo":"bakery","n":3,"rounds":1,"max_states":500000}|} );
      ({|{"kind":"lint"}|}, {|{"kind":"lint","algo":"all","sizes":[2,3,4]}|});
      ( {|{"kind":"chaos"}|},
        {|{"kind":"chaos","max_states":200000,"random":0,"seed":1}|} );
      ({|{"kind":"mutate"}|}, {|{"kind":"mutate","algo":"correct"}|});
    ]

(* ------------------------------ scheduler ------------------------------ *)

let sched_cfg ?(max_active = 1) ?(per_client = 1) ?(rate = 1000.0)
    ?(burst = 1000.0) () =
  { Sched.max_active; per_client; rate; burst }

let test_sched_round_robin () =
  let t = Sched.create ~config:(sched_cfg ()) () in
  let tickets =
    List.map
      (fun client -> (client, Result.get_ok (Sched.submit t ~client)))
      [ "a"; "a"; "a"; "a"; "b"; "b"; "b"; "b" ]
  in
  let grants = Atomic.make [] in
  let doms =
    List.map
      (fun (client, tk) ->
        Domain.spawn (fun () ->
            match Sched.await t tk with
            | `Granted seq ->
              let rec push () =
                let old = Atomic.get grants in
                if not (Atomic.compare_and_set grants old ((client, seq) :: old))
                then push ()
              in
              push ();
              Sched.finish t tk
            | `Draining -> ()))
      tickets
  in
  List.iter Domain.join doms;
  let order =
    List.sort (fun (_, s1) (_, s2) -> compare s1 s2) (Atomic.get grants)
    |> List.map fst
  in
  (* a1 granted on submit (b not yet known); thereafter strict
     alternation while both clients have work, then b drains its tail *)
  Alcotest.(check (list string)) "round-robin grant order"
    [ "a"; "a"; "b"; "a"; "b"; "a"; "b"; "b" ]
    order;
  let seqs = List.sort compare (List.map snd (Atomic.get grants)) in
  Alcotest.(check (list int)) "dense grant sequence" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    seqs

let test_sched_rate_limit () =
  let t = Sched.create ~config:(sched_cfg ~rate:0.001 ~burst:2.0 ()) () in
  let t1 = Result.get_ok (Sched.submit t ~client:"chatty") in
  let t2 = Result.get_ok (Sched.submit t ~client:"chatty") in
  (match Sched.submit t ~client:"chatty" with
  | Ok _ -> Alcotest.fail "empty bucket admitted a job"
  | Error (`Rate_limited ra) ->
    Alcotest.(check bool) "retry hint positive" true (ra > 0.0)
  | Error `Draining -> Alcotest.fail "not draining");
  (* an unrelated client has its own bucket *)
  let t3 = Result.get_ok (Sched.submit t ~client:"quiet") in
  List.iter (Sched.finish t) [ t1; t2; t3 ]

let test_sched_drain () =
  let t = Sched.create ~config:(sched_cfg ()) () in
  let t1 = Result.get_ok (Sched.submit t ~client:"a") in
  let t2 = Result.get_ok (Sched.submit t ~client:"a") in
  Alcotest.(check int) "one queued" 1 (Sched.queued t);
  Sched.drain t;
  (match Sched.await t t2 with
  | `Draining -> ()
  | `Granted _ -> Alcotest.fail "queued ticket survived the drain");
  (match Sched.submit t ~client:"a" with
  | Error `Draining -> ()
  | _ -> Alcotest.fail "drained scheduler admitted a job");
  (* the already-granted ticket is unaffected *)
  (match Sched.await t t1 with
  | `Granted _ -> ()
  | `Draining -> Alcotest.fail "running ticket was drained");
  Sched.finish t t1;
  Sched.finish t t2

let test_sched_per_client_cap () =
  let t = Sched.create ~config:(sched_cfg ~max_active:2 ()) () in
  let t1 = Result.get_ok (Sched.submit t ~client:"a") in
  let t2 = Result.get_ok (Sched.submit t ~client:"a") in
  Alcotest.(check int) "cap holds with a free slot" 1 (Sched.running t);
  let t3 = Result.get_ok (Sched.submit t ~client:"b") in
  Alcotest.(check int) "other client fills it" 2 (Sched.running t);
  Sched.finish t t1;
  (match Sched.await t t2 with
  | `Granted _ -> ()
  | `Draining -> Alcotest.fail "freed slot not regranted");
  List.iter (Sched.finish t) [ t2; t3 ]

(* --------------------------- live server -------------------------------- *)

let certify_job ?(perms = 720) ?(seed = 0) ?(algo = "yang_anderson") ~n () =
  Json.Obj
    [
      ("kind", Json.String "certify");
      ("algo", Json.String algo);
      ("n", Json.Int n);
      ("perms", Json.Int perms);
      ("seed", Json.Int seed);
    ]

let start_server ?(max_active = 1) ?(grace = 0.5) ?jobs ~store_dir () =
  let port_file = Filename.temp_file "mutexlb_serve" ".port" in
  Sys.remove port_file;
  let cfg =
    {
      (Lb_serve.Server.default ~store_dir) with
      Lb_serve.Server.port = 0;
      port_file = Some port_file;
      jobs;
      sched = sched_cfg ~max_active ();
      grace;
    }
  in
  let d = Domain.spawn (fun () -> Lb_serve.Server.run cfg) in
  let rec wait_port tries =
    if tries = 0 then Alcotest.fail "server never wrote its port file"
    else if Sys.file_exists port_file then begin
      let line = String.trim (read_file port_file) in
      match int_of_string_opt line with
      | Some p -> p
      | None -> Alcotest.fail "unparsable port file"
    end
    else begin
      Unix.sleepf 0.05;
      wait_port (tries - 1)
    end
  in
  let port = wait_port 200 in
  Fun.protect ~finally:(fun () -> Sys.remove port_file) (fun () -> (d, port))

let stop_server d =
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Domain.join d

let json_str j name = Option.bind (Json.member name j) Json.as_string
let json_int j name = Option.bind (Json.member name j) Json.as_int

let submit_ok ?(client = "cli") ~port job ~on_event =
  match Lb_serve.Client.submit ~port ~client job ~on_event with
  | Error msg -> Alcotest.failf "transport failure: %s" msg
  | Ok o -> o

let test_server_end_to_end () =
  let store_dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf store_dir) @@ fun () ->
  let d, port = start_server ~jobs:2 ~store_dir () in
  Fun.protect ~finally:(fun () -> ignore port) @@ fun () ->
  (* health answers before any job ran *)
  (match Lb_serve.Client.health ~port () with
  | Ok j ->
    Alcotest.(check bool) "healthy" true
      (Json.member "ok" j = Some (Json.Bool true))
  | Error msg -> Alcotest.failf "health: %s" msg);
  (* malformed requests are clean 400s, not hangs or 500s *)
  let http ?body meth path =
    match Lb_serve.Http.request ~port ~meth ~path ?body () with
    | Ok (status, _, _) -> status
    | Error msg -> Alcotest.failf "%s %s: %s" meth path msg
  in
  Alcotest.(check int) "404 on unknown path" 404 (http "GET" "/nope");
  Alcotest.(check int) "405 on wrong method" 405 (http "GET" "/v1/jobs");
  Alcotest.(check int) "400 on garbage body" 400
    (http "POST" "/v1/jobs" ~body:"not json");
  Alcotest.(check int) "400 on unknown kind" 400
    (http "POST" "/v1/jobs" ~body:{|{"kind":"bogus"}|});
  Alcotest.(check int) "400 on missing algo" 400
    (http "POST" "/v1/jobs" ~body:{|{"kind":"certify","n":3}|});
  (* cold certify: full sweep, streamed events, then a result whose
     certificate is byte-identical to the batch path *)
  let n = 4 in
  let job = certify_job ~n ~perms:24 () in
  let saw_granted = ref false in
  let o =
    submit_ok ~client:"alice" ~port job ~on_event:(fun j ->
        if json_str j "event" = Some "granted" then saw_granted := true)
  in
  Alcotest.(check bool) "job granted a slot" true !saw_granted;
  let result = Option.get o.Lb_serve.Client.o_result in
  Alcotest.(check (option string)) "cold path" (Some "swept")
    (json_str result "path");
  let served_text =
    Option.get
      (Option.bind (Json.member "certificate" result) (fun c ->
           json_str c "text"))
  in
  let expected_text =
    with_store (fun ref_st ->
        let pis, exhaustive = Protocol.family ~n ~perms:24 ~seed:0 in
        let cert, _ =
          Sweep.certify ~store:ref_st ~jobs:1 ya ~n ~perms:pis ~exhaustive ()
        in
        cert_text (Option.get cert))
  in
  Alcotest.(check string) "served certificate == batch certificate"
    expected_text served_text;
  (* resubmission is a warm hit: no slot, same bytes *)
  let o2 = submit_ok ~client:"bob" ~port job ~on_event:(fun _ -> ()) in
  let result2 = Option.get o2.Lb_serve.Client.o_result in
  Alcotest.(check (option string)) "warm path" (Some "warm")
    (json_str result2 "path");
  Alcotest.(check (option string)) "warm bytes identical" (Some served_text)
    (Option.bind (Json.member "certificate" result2) (fun c ->
         json_str c "text"));
  (* stats sees both clients *)
  (match Lb_serve.Client.stats ~port () with
  | Ok j ->
    Alcotest.(check bool) "jobs done counted" true
      (match json_int j "jobs_done" with Some k -> k >= 2 | None -> false)
  | Error msg -> Alcotest.failf "stats: %s" msg);
  stop_server d

(* The status code of GET [path] on a fresh connection, or [None] when
   the server does not answer within 10 s: a server that stopped
   serving fails the test instead of hanging it. *)
let get_status ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
      path
  in
  ignore (Unix.write_substring fd req 0 (String.length req));
  (* "HTTP/1.1 200" *)
  let head = Bytes.create 12 in
  let rec fill pos =
    if pos = 12 then int_of_string_opt (Bytes.sub_string head 9 3)
    else
      match Unix.read fd head pos (12 - pos) with
      | 0 -> None
      | k -> fill (pos + k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None
  in
  fill 0

(* An idle connection holds a thread, not a domain: more of them than
   OCaml's 128 live domains leave the server answering. *)
let test_server_idle_connections () =
  let store_dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf store_dir) @@ fun () ->
  let d, port = start_server ~jobs:1 ~store_dir () in
  let job = certify_job ~n:4 ~perms:6 () in
  let path o =
    Option.bind o.Lb_serve.Client.o_result (fun r -> json_str r "path")
  in
  let o = submit_ok ~port job ~on_event:(fun _ -> ()) in
  Alcotest.(check (option string)) "cold fill" (Some "swept") (path o);
  let idle = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !idle)
    (fun () ->
      for _ = 1 to 150 do
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        idle := fd :: !idle;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
      done;
      Alcotest.(check (option int)) "health beside 150 idle connections"
        (Some 200) (get_status ~port "/v1/health");
      let o = submit_ok ~port job ~on_event:(fun _ -> ()) in
      Alcotest.(check int) "warm status" 200 o.Lb_serve.Client.o_status;
      Alcotest.(check (option string)) "warm certify" (Some "warm") (path o));
  stop_server d

let test_server_fairness () =
  let store_dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf store_dir) @@ fun () ->
  let d, port = start_server ~jobs:1 ~store_dir () in
  let slots = Atomic.make [] in
  let record label j =
    match (json_str j "event", json_int j "slot") with
    | Some "granted", Some slot ->
      let rec push () =
        let old = Atomic.get slots in
        if not (Atomic.compare_and_set slots old ((label, slot) :: old)) then
          push ()
      in
      push ()
    | _ -> ()
  in
  let submit_in_domain ~client label job accepted =
    Domain.spawn (fun () ->
        let o =
          submit_ok ~client ~port job ~on_event:(fun j ->
              if json_str j "event" = Some "accepted" then
                Atomic.set accepted true;
              record label j)
        in
        if o.Lb_serve.Client.o_result = None then
          Alcotest.failf "%s: no result" label)
  in
  let wait flag what =
    let rec go tries =
      if tries = 0 then Alcotest.failf "timed out waiting for %s" what
      else if not (Atomic.get flag) then begin
        Unix.sleepf 0.02;
        go (tries - 1)
      end
    in
    go 500
  in
  (* alice's slow job occupies the only slot... *)
  let slow_granted = Atomic.make false in
  let slow_accepted = Atomic.make false in
  let d_slow =
    Domain.spawn (fun () ->
        let o =
          submit_ok ~client:"alice" ~port
            (certify_job ~n:8 ~perms:400 ~seed:5 ())
            ~on_event:(fun j ->
              if json_str j "event" = Some "granted" then
                Atomic.set slow_granted true;
              if json_str j "event" = Some "accepted" then
                Atomic.set slow_accepted true;
              record "slow" j)
        in
        if o.Lb_serve.Client.o_result = None then
          Alcotest.fail "slow job lost its result")
  in
  wait slow_granted "the slow job's grant";
  (* ...then alice queues two more, and bob arrives last *)
  let acc1 = Atomic.make false and acc2 = Atomic.make false in
  let acc_b = Atomic.make false in
  let d_q1 =
    submit_in_domain ~client:"alice" "alice_q1"
      (certify_job ~n:4 ~perms:6 ~seed:11 ())
      acc1
  in
  wait acc1 "alice_q1 admission";
  let d_q2 =
    submit_in_domain ~client:"alice" "alice_q2"
      (certify_job ~n:4 ~perms:6 ~seed:12 ())
      acc2
  in
  wait acc2 "alice_q2 admission";
  let d_b =
    submit_in_domain ~client:"bob" "bob_q"
      (certify_job ~n:4 ~perms:6 ~seed:13 ())
      acc_b
  in
  wait acc_b "bob admission";
  List.iter Domain.join [ d_slow; d_q1; d_q2; d_b ];
  let slot label =
    match List.assoc_opt label (Atomic.get slots) with
    | Some s -> s
    | None -> Alcotest.failf "%s was never granted" label
  in
  (* round-robin: bob's late ticket overtakes alice's second queued one
     (FIFO would have made him wait behind both) — but not her first *)
  Alcotest.(check bool) "bob before alice_q2" true
    (slot "bob_q" < slot "alice_q2");
  Alcotest.(check bool) "alice_q1 before bob" true
    (slot "alice_q1" < slot "bob_q");
  stop_server d

let test_server_drain_and_resume () =
  let store_dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf store_dir) @@ fun () ->
  let d, port = start_server ~jobs:1 ~grace:0.5 ~store_dir () in
  let job = certify_job ~n:8 ~perms:2000 ~seed:9 () in
  let items = Atomic.make 0 in
  let drained_resumable = Atomic.make false in
  let outcome = ref None in
  let d_sub =
    Domain.spawn (fun () ->
        let o =
          submit_ok ~client:"carol" ~port job ~on_event:(fun j ->
              if json_str j "event" = Some "item" then Atomic.incr items;
              if
                json_str j "event" = Some "drained"
                && Json.member "resumable" j = Some (Json.Bool true)
              then Atomic.set drained_resumable true)
        in
        outcome := Some o)
  in
  (* let at least one unit land durably, then pull the plug *)
  let rec wait_items tries =
    if tries = 0 then Alcotest.fail "sweep produced no items"
    else if Atomic.get items < 1 then begin
      Unix.sleepf 0.02;
      wait_items (tries - 1)
    end
  in
  wait_items 500;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Domain.join d_sub;
  Domain.join d;
  let o = Option.get !outcome in
  Alcotest.(check bool) "drained, not errored" true
    o.Lb_serve.Client.o_drained;
  Alcotest.(check bool) "drain event flagged resumable" true
    (Atomic.get drained_resumable);
  (* the store the drained server left behind is resumable: a restarted
     server serves the same job to completion, reusing the entries *)
  let st = Store.open_ ~dir:store_dir in
  Alcotest.(check bool) "manifest checkpointed" true
    (Store.manifest_paths st <> []);
  Alcotest.(check bool) "entries durable" true
    ((Store.stat st).Store.s_entries >= 1);
  (* a submit straight after the drain began would have been 503'd;
     restart and finish the job *)
  let d2, port2 = start_server ~jobs:1 ~store_dir () in
  let o2 = submit_ok ~client:"carol" ~port:port2 job ~on_event:(fun _ -> ()) in
  let result = Option.get o2.Lb_serve.Client.o_result in
  Alcotest.(check bool) "resume reused durable entries" true
    (match json_int result "hits" with Some h -> h >= 1 | None -> false);
  Alcotest.(check bool) "job completed after restart" true
    (Json.member "ok" result = Some (Json.Bool true));
  stop_server d2

(* Satellite: non-certify jobs (check/lint/chaos/mutate) have no durable
   checkpoint, but a drain must still cancel them cooperatively — the
   client gets a `drained` event flagged resumable:false (so scripted
   clients exit 75 and re-submit from scratch) instead of hanging until
   the job finishes or dying with a torn connection. *)
let test_server_drain_cancels_nonresumable () =
  let store_dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf store_dir) @@ fun () ->
  let d, port = start_server ~jobs:1 ~grace:0.5 ~store_dir () in
  (* a chaos matrix is long enough to still be running when the drain
     lands, and checks its cancel token between cells *)
  let job =
    Json.Obj
      [
        ("kind", Json.String "chaos");
        ("max_states", Json.Int 60_000);
        ("random", Json.Int 2);
        ("seed", Json.Int 3);
      ]
  in
  let granted = Atomic.make false in
  let drained_flag = Atomic.make None in
  let outcome = ref None in
  let d_sub =
    Domain.spawn (fun () ->
        let o =
          submit_ok ~client:"dave" ~port job ~on_event:(fun j ->
              if json_str j "event" = Some "granted" then
                Atomic.set granted true;
              if json_str j "event" = Some "drained" then
                Atomic.set drained_flag (Json.member "resumable" j))
        in
        outcome := Some o)
  in
  let rec wait_granted tries =
    if tries = 0 then Alcotest.fail "job never granted"
    else if not (Atomic.get granted) then begin
      Unix.sleepf 0.02;
      wait_granted (tries - 1)
    end
  in
  wait_granted 500;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Domain.join d_sub;
  Domain.join d;
  let o = Option.get !outcome in
  if o.Lb_serve.Client.o_drained then
    Alcotest.(check bool) "drain event flagged non-resumable" true
      (Atomic.get drained_flag = Some (Json.Bool false))
  else
    (* the matrix can finish before the drain lands on a fast machine;
       a clean result is then the correct outcome *)
    Alcotest.(check bool) "finished cleanly instead" true
      (o.Lb_serve.Client.o_result <> None)

(* A SIGTERM drain answers a connection still waiting for its request
   at once, 503 draining, instead of letting it hold the drain until
   its receive timeout (10 s, then a 400). *)
let test_server_drain_idle_connection () =
  let store_dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf store_dir) @@ fun () ->
  let d, port = start_server ~grace:0.5 ~store_dir () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* let the accept loop hand the idle connection to a thread *)
  Unix.sleepf 0.5;
  let t0 = Unix.gettimeofday () in
  stop_server d;
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "drained in %.2f s" took) true (took < 1.5);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let head = Bytes.create 12 in
  let rec fill pos =
    if pos = 12 then pos
    else match Unix.read fd head pos (12 - pos) with 0 -> pos | k -> fill (pos + k)
  in
  let got = fill 0 in
  Alcotest.(check string) "answered 503" "HTTP/1.1 503" (Bytes.sub_string head 0 got)

(* --------------------------- torture test ------------------------------ *)

let test_concurrent_store_torture () =
  let n = 5 in
  let pis, exhaustive = Protocol.family ~n ~perms:60 ~seed:7 in
  with_store (fun st ->
      let fp = Store_key.fingerprint ya ~n in
      let name = ya.Lb_shmem.Algorithm.name in
      let keys =
        List.map
          (fun pi ->
            Store_key.derive ~fp ~algo:name ~n ~pi ~model:Store_key.sc_model)
          pis
      in
      let stop = Atomic.make false in
      let damaged = Atomic.make 0 in
      let reads = Atomic.make 0 in
      let readers =
        List.init 3 (fun _ ->
            Domain.spawn (fun () ->
                let r = Lock.register_reader ~purpose:"torture" st in
                Fun.protect
                  ~finally:(fun () -> Lock.release_reader r)
                  (fun () ->
                    while not (Atomic.get stop) do
                      List.iter
                        (fun key ->
                          (match Store.lookup st ~key with
                          | `Damaged _ -> Atomic.incr damaged
                          | `Hit _ | `Absent -> ());
                          Atomic.incr reads)
                        keys;
                      Unix.sleepf 0.002
                    done)))
      in
      let writer =
        Domain.spawn (fun () ->
            Sweep.certify ~store:st ~jobs:2 ya ~n ~perms:pis ~exhaustive ())
      in
      (* while the sweep holds the lease, a destructive gc must refuse *)
      let rec wait_lease tries =
        if tries > 0 && Lock.writer_held st = None then begin
          Unix.sleepf 0.002;
          wait_lease (tries - 1)
        end
      in
      wait_lease 1000;
      (match Gc.run ~current_fp:live_fp st with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "gc ran under a live sweep");
      let cert, report = Domain.join writer in
      Atomic.set stop true;
      List.iter Domain.join readers;
      Alcotest.(check int) "zero damaged reads" 0 (Atomic.get damaged);
      Alcotest.(check bool) "readers actually read" true
        (Atomic.get reads > 0);
      Alcotest.(check int) "no reader files left" 0
        (List.length (Lock.live_readers st));
      (* the concurrent sweep's output is byte-identical to a
         sequential one in a fresh store *)
      with_store (fun st2 ->
          let cert2, report2 =
            Sweep.certify ~store:st2 ~jobs:1 ya ~n ~perms:pis ~exhaustive ()
          in
          Alcotest.(check string) "certificate byte-identical"
            (cert_text (Option.get cert2))
            (cert_text (Option.get cert));
          Alcotest.(check string) "manifest byte-identical"
            (read_file report2.Sweep.manifest_path)
            (read_file report.Sweep.manifest_path)))

let suite =
  [
    Alcotest.test_case "lock: lease excludes writers" `Quick test_lock_excludes;
    Alcotest.test_case "lock: stale lease broken" `Quick test_lock_stale_break;
    Alcotest.test_case "lock: one of two breakers wins" `Quick
      test_lock_one_winner;
    Alcotest.test_case "lock: writer debris stays bounded" `Quick
      test_lock_debris_bounded;
    Alcotest.test_case "lock: readers + epoch" `Quick test_readers_epoch;
    Alcotest.test_case "lock: reap dead readers" `Quick test_reap_dead_readers;
    Alcotest.test_case "gc: refuses under lease, --force overrides" `Quick
      test_gc_refuses_under_lease;
    Alcotest.test_case "gc: dry run moves nothing" `Quick
      test_gc_dry_run_moves_nothing;
    Alcotest.test_case "gc: trash defers to live readers" `Quick
      test_gc_epochs_defer_to_readers;
    Alcotest.test_case "sweep: Busy when lease held" `Quick test_sweep_busy;
    Alcotest.test_case "sweep: fenced sweep stops writing" `Quick
      test_sweep_fenced;
    Alcotest.test_case "sweep: cancel checkpoints, resume byte-identical"
      `Slow test_sweep_cancel_checkpoints_and_resumes;
    Alcotest.test_case "protocol: served defaults are the verbs'" `Quick
      test_protocol_defaults;
    Alcotest.test_case "sched: round-robin across clients" `Quick
      test_sched_round_robin;
    Alcotest.test_case "sched: rate limit sheds at the door" `Quick
      test_sched_rate_limit;
    Alcotest.test_case "sched: drain rejects the queue" `Quick test_sched_drain;
    Alcotest.test_case "sched: per-client cap" `Quick test_sched_per_client_cap;
    Alcotest.test_case "server: end to end over a socket" `Slow
      test_server_end_to_end;
    Alcotest.test_case "server: many idle connections" `Slow
      test_server_idle_connections;
    Alcotest.test_case "server: round-robin fairness under contention" `Slow
      test_server_fairness;
    Alcotest.test_case "server: drain checkpoints, restart resumes" `Slow
      test_server_drain_and_resume;
    Alcotest.test_case "server: drain cancels non-resumable jobs" `Slow
      test_server_drain_cancels_nonresumable;
    Alcotest.test_case "server: drain answers idle connections" `Slow
      test_server_drain_idle_connection;
    Alcotest.test_case "store: reader/writer torture" `Slow
      test_concurrent_store_torture;
  ]
