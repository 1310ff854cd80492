(* Distributed sweeps: the per-entry claim protocol (take / heartbeat /
   steal-with-fencing / release), exactly-once failure publication, the
   Sweep_dist engine's determinism against the single-worker oracle,
   lease TTL + clock-skew handling in Store_lock, GC's claim awareness,
   and the chaos matrix — crash storms, skewed clocks and torn claim
   files must never damage the store or break byte-identity. *)

module Store = Lb_store.Store
module Store_key = Lb_store.Store_key
module Claim = Lb_store.Store_claim
module Lock = Lb_store.Store_lock
module Gc = Lb_store.Store_gc
module Sweep = Lb_store.Sweep
module Dist = Lb_store.Sweep_dist
module Wf = Lb_faults.Worker_faults

let ya = Lb_algos.Yang_anderson.algorithm

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d = Filename.temp_file "mutexlb_distrib" (Printf.sprintf "_%d" !ctr) in
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
let cert_text c = Lb_serve.Protocol.certificate_text c

(* valid store keys for protocol-only tests (any 32-hex digest is one) *)
let key_of tag = Digest.to_hex (Digest.string tag)

(* the family every determinism test sweeps: small enough to be quick,
   big enough that three workers genuinely interleave *)
let family () = Lb_serve.Protocol.family ~n:4 ~perms:12 ~seed:7

let oracle () =
  let pis, exhaustive = family () in
  let dir = fresh_dir () in
  let st = Store.open_ ~dir in
  let cert, report =
    Sweep.certify ~store:st ~jobs:1 ya ~n:4 ~perms:pis ~exhaustive ()
  in
  let manifest = read_file report.Sweep.manifest_path in
  rm_rf dir;
  (Option.get cert, manifest)

(* ---------------------------- claim protocol --------------------------- *)

let test_claim_lifecycle () =
  with_store (fun st ->
      let t = Claim.open_ st ~sweep_id:"s1" in
      let key = key_of "unit-a" in
      Alcotest.(check int) "empty snapshot" 0
        (Hashtbl.length (Claim.snapshot t).Claim.slots);
      let c1 =
        match Claim.try_claim t ~key ~ttl:30.0 with
        | Some c -> c
        | None -> Alcotest.fail "fresh key refused"
      in
      Alcotest.(check int) "first epoch" 1 (Claim.epoch c1);
      Alcotest.(check string) "claim names its key" key (Claim.key c1);
      (* held and live: no double grant *)
      (match Claim.try_claim t ~key ~ttl:30.0 with
      | Some _ -> Alcotest.fail "double grant on a live claim"
      | None -> ());
      (match Hashtbl.find_opt (Claim.snapshot t).Claim.slots key with
      | Some (Claim.Held { epoch = 1; age }) ->
        Alcotest.(check bool) "young claim" true (age < 10.0)
      | _ -> Alcotest.fail "snapshot misses the held claim");
      Alcotest.(check bool) "heartbeat sticks" true (Claim.refresh c1);
      Claim.release c1;
      Claim.release c1 (* idempotent *);
      (match Hashtbl.find_opt (Claim.snapshot t).Claim.slots key with
      | Some (Claim.Released { epoch = 1 }) -> ()
      | _ -> Alcotest.fail "release did not leave a quit high-water mark");
      (* re-claim moves the epoch up — .quit keeps 1 from ever recurring *)
      let c2 =
        match Claim.try_claim t ~key ~ttl:30.0 with
        | Some c -> c
        | None -> Alcotest.fail "released key refused"
      in
      Alcotest.(check int) "epoch after release" 2 (Claim.epoch c2);
      Claim.abandon c2;
      match Hashtbl.find_opt (Claim.snapshot t).Claim.slots key with
      | Some (Claim.Released { epoch = 2 }) -> ()
      | _ -> Alcotest.fail "abandon did not release")

let test_claim_steal_and_fence () =
  with_store (fun st ->
      let t = Claim.open_ st ~sweep_id:"s1" in
      let key = key_of "unit-b" in
      let c1 = Option.get (Claim.try_claim t ~key ~ttl:0.05) in
      Unix.sleepf 0.12;
      (* expired: a snapshot shows it stale, and a steal wins epoch 2 *)
      (match Hashtbl.find_opt (Claim.snapshot t).Claim.slots key with
      | Some (Claim.Held { epoch = 1; age }) ->
        Alcotest.(check bool) "stale age" true (age > 0.05)
      | _ -> Alcotest.fail "expired claim vanished from the snapshot");
      let c2 =
        match Claim.try_claim t ~key ~ttl:0.05 with
        | Some c -> c
        | None -> Alcotest.fail "stale claim not stealable"
      in
      Alcotest.(check int) "steal bumps the epoch" 2 (Claim.epoch c2);
      (* fencing: the zombie's heartbeat fails, its release is a no-op *)
      Alcotest.(check bool) "zombie fenced" false (Claim.refresh c1);
      Claim.release c1;
      (match Hashtbl.find_opt (Claim.snapshot t).Claim.slots key with
      | Some (Claim.Held { epoch = 2; _ }) -> ()
      | _ -> Alcotest.fail "zombie release disturbed the successor");
      Alcotest.(check bool) "successor alive" true (Claim.refresh c2);
      Claim.release c2)

let test_claim_failure_exactly_once () =
  with_store (fun st ->
      let t = Claim.open_ st ~sweep_id:"s1" in
      let key = key_of "unit-c" in
      Alcotest.(check bool) "no record yet" true (Claim.failure t ~key = None);
      Alcotest.(check bool) "first publish wins" true
        (Claim.publish_failure t ~key ~message:"boom: first");
      Alcotest.(check bool) "second publish defers" false
        (Claim.publish_failure t ~key ~message:"boom: second");
      Alcotest.(check (option string)) "the winner's message stands"
        (Some "boom: first") (Claim.failure t ~key);
      Alcotest.(check bool) "the snapshot lists the record" true
        (Hashtbl.mem (Claim.snapshot t).Claim.failed key))

(* Satellite: the corruption matrix. Claim-file content is diagnostic
   only and unparsable names are debris, so truncation, bit flips,
   duplicates and garbage must never crash a scan, grant a key twice,
   or make the protocol trust a claim it shouldn't. *)
let test_claim_corruption_matrix () =
  with_store (fun st ->
      let t = Claim.open_ st ~sweep_id:"s1" in
      let keys = List.init 4 (fun i -> key_of (Printf.sprintf "fuzz-%d" i)) in
      let claims =
        List.map
          (fun key -> Option.get (Claim.try_claim t ~key ~ttl:30.0))
          keys
      in
      let applied = Wf.fuzz_claims ~seed:42 ~count:24 ~dir:(Claim.dir t) in
      Alcotest.(check bool) "fuzz ops landed" true (List.length applied > 0);
      (* scans survive, held keys stay held (torn content can't free
         them), a fresh key is still grantable *)
      let snap = (Claim.snapshot t).Claim.slots in
      List.iter
        (fun key ->
          match Hashtbl.find_opt snap key with
          | Some (Claim.Held { epoch = 1; _ }) -> (
            match Claim.try_claim t ~key ~ttl:30.0 with
            | Some _ -> Alcotest.fail "fuzz produced a double grant"
            | None -> ())
          | Some (Claim.Released _) | Some Claim.Free | None ->
            Alcotest.fail "fuzz freed a live claim"
          | Some (Claim.Held _) ->
            Alcotest.fail "fuzz moved a claim's epoch")
        keys;
      (match Claim.try_claim t ~key:(key_of "fresh") ~ttl:30.0 with
      | Some c -> Claim.release c
      | None -> Alcotest.fail "fresh key refused after fuzz");
      (* holders keep working over the debris *)
      List.iter
        (fun c ->
          Alcotest.(check bool) "holder survives fuzz" true (Claim.refresh c);
          Claim.release c)
        claims;
      (* and a released key's next epoch is still monotonic *)
      let key = List.hd keys in
      match Claim.try_claim t ~key ~ttl:30.0 with
      | Some c -> Alcotest.(check bool) "epoch moved up" true (Claim.epoch c >= 2)
      | None -> Alcotest.fail "released key refused after fuzz")

(* a duplicate same-epoch .quit next to a live .claim (the one ambiguous
   shape fuzz can produce) must resolve to Held — never a premature
   re-grant of an epoch someone still holds *)
let test_claim_duplicate_prefers_held () =
  with_store (fun st ->
      let t = Claim.open_ st ~sweep_id:"s1" in
      let key = key_of "dup" in
      let _c = Option.get (Claim.try_claim t ~key ~ttl:30.0) in
      let twin = Filename.concat (Claim.dir t) (key ^ ".1.quit") in
      Out_channel.with_open_bin twin (fun oc -> output_string oc "stale twin");
      (match Hashtbl.find_opt (Claim.snapshot t).Claim.slots key with
      | Some (Claim.Held { epoch = 1; _ }) -> ()
      | _ -> Alcotest.fail "duplicate .quit shadowed a live .claim");
      match Claim.try_claim t ~key ~ttl:30.0 with
      | Some _ -> Alcotest.fail "duplicate .quit allowed a double grant"
      | None -> ())

(* A claim file that vanishes between a scan's readdir and its stat was
   released or swept by a take; a dangling symlink fails its stat the
   same way. Either reads as a released epoch, never as an expired hold
   that a taker would report as stolen. *)
let test_claim_vanished_reads_released () =
  with_store (fun st ->
      let t = Claim.open_ st ~sweep_id:"s1" in
      let key = key_of "vanished" in
      Unix.symlink "nowhere" (Filename.concat (Claim.dir t) (key ^ ".1.claim"));
      (match Hashtbl.find_opt (Claim.snapshot t).Claim.slots key with
      | Some (Claim.Released { epoch = 1 }) -> ()
      | _ -> Alcotest.fail "snapshot read a claim it cannot stat as held");
      (match Claim.probe_slot t ~key with
      | Claim.Released { epoch = 1 } -> ()
      | _ -> Alcotest.fail "probe_slot read a claim it cannot stat as held");
      match Claim.try_claim t ~key ~ttl:30.0 with
      | Some c -> Alcotest.(check int) "the next epoch" 2 (Claim.epoch c)
      | None -> Alcotest.fail "released epoch refused")

(* ------------------------- lease TTL and skew -------------------------- *)

(* Satellite: Store_lock's mtime+TTL fallback breaks leases whose holder
   pid-liveness probing cannot see (dead remote hosts, rsync'd stores) —
   including the clock-skew case where the lease mtime sits in the
   future. *)
let test_lock_ttl_breaks_stale () =
  with_store (fun st ->
      let _w = Result.get_ok (Lock.try_acquire_writer st ~purpose:"old") in
      Unix.sleepf 0.12;
      (* without a ttl the live-pid holder keeps the lease *)
      (match Lock.try_acquire_writer st ~purpose:"late" with
      | Ok _ -> Alcotest.fail "live lease broken without ttl"
      | Error h -> Alcotest.(check string) "holder" "old" h.Lock.h_purpose);
      (* with a ttl the unrefreshed lease is stale and breakable *)
      match Lock.try_acquire_writer ~ttl:0.05 st ~purpose:"late" with
      | Ok w ->
        Alcotest.(check bool) "new holder visible" true
          (Lock.writer_held st <> None);
        Lock.release_writer w
      | Error _ -> Alcotest.fail "ttl did not break the stale lease")

let test_lock_ttl_future_skew () =
  with_store (fun st ->
      let _w = Result.get_ok (Lock.try_acquire_writer st ~purpose:"skewed") in
      (* a skewed or rsync'd host stamped the lease into the future; the
         |now - mtime| rule must expire it all the same *)
      let lease =
        Filename.concat (Store.dir st) (Filename.concat "locks" "writer.1.claim")
      in
      let future = Unix.gettimeofday () +. 3600.0 in
      Unix.utimes lease future future;
      (match Lock.writer_held ~ttl:10.0 st with
      | None -> ()
      | Some _ -> Alcotest.fail "future-stamped lease counted as live");
      match Lock.try_acquire_writer ~ttl:10.0 st ~purpose:"late" with
      | Ok w -> Lock.release_writer w
      | Error _ -> Alcotest.fail "future-stamped lease not breakable")

let test_lock_refresh_keeps_lease () =
  with_store (fun st ->
      let w = Result.get_ok (Lock.try_acquire_writer st ~purpose:"beater") in
      (* heartbeat outruns the ttl *)
      for _ = 1 to 4 do
        Unix.sleepf 0.04;
        Alcotest.(check bool) "refresh holds" true (Lock.refresh_writer w)
      done;
      (match Lock.writer_held ~ttl:0.1 st with
      | Some h -> Alcotest.(check string) "still held" "beater" h.Lock.h_purpose
      | None -> Alcotest.fail "refreshed lease expired");
      (* stop heartbeating: the same ttl now expires it *)
      Unix.sleepf 0.15;
      (match Lock.writer_held ~ttl:0.1 st with
      | None -> ()
      | Some _ -> Alcotest.fail "unrefreshed lease still counted live");
      Lock.release_writer w)

(* A holder whose lease was broken is fenced: its refresh fails and its
   release leaves the successor's lease alone. *)
let test_lock_fenced_holder () =
  with_store (fun st ->
      let a = Result.get_ok (Lock.try_acquire_writer st ~purpose:"a") in
      let lease =
        Filename.concat (Store.dir st) (Filename.concat "locks" "writer.1.claim")
      in
      let past = Unix.gettimeofday () -. 3600.0 in
      Unix.utimes lease past past;
      let b =
        match Lock.try_acquire_writer ~ttl:10. st ~purpose:"b" with
        | Ok b -> b
        | Error _ -> Alcotest.fail "aged lease not breakable"
      in
      Alcotest.(check bool) "fenced refresh fails" false (Lock.refresh_writer a);
      Lock.release_writer a;
      Alcotest.(check bool) "successor's lease in place" true
        (Sys.file_exists
           (Filename.concat (Store.dir st) (Filename.concat "locks" "writer.2.claim")));
      (match Lock.writer_held st with
      | Some h -> Alcotest.(check string) "held by the successor" "b" h.Lock.h_purpose
      | None -> Alcotest.fail "successor's lease not held");
      Lock.release_writer b)

(* ------------------------ distributed determinism ---------------------- *)

let test_dist_matches_oracle () =
  let oracle_cert, oracle_manifest = oracle () in
  let pis, exhaustive = family () in
  with_store (fun st ->
      let cert, r =
        Dist.certify ~store:st ~jobs:2 ya ~n:4 ~perms:pis ~exhaustive ()
      in
      Alcotest.(check string) "certificate bytes" (cert_text oracle_cert)
        (cert_text (Option.get cert));
      Alcotest.(check string) "manifest bytes" oracle_manifest
        (read_file r.Dist.d_manifest_path);
      Alcotest.(check int) "all resolved" 12 r.Dist.d_total;
      Alcotest.(check int) "nothing failed" 0 r.Dist.d_failed)

let test_dist_three_workers_in_process () =
  let oracle_cert, oracle_manifest = oracle () in
  let pis, exhaustive = family () in
  with_store (fun st ->
      (* three workers in one process, racing on the same claims dir —
         the tightest interleavings this harness can produce *)
      let worker () =
        Domain.spawn (fun () ->
            Dist.work ~store:st ~jobs:1 ~ttl:5.0 ya ~n:4 ~perms:pis ())
      in
      let ds = [ worker (); worker (); worker () ] in
      let reports = List.map Domain.join ds in
      List.iter
        (fun r ->
          Alcotest.(check string) "every worker sees identical bytes"
            oracle_manifest
            (read_file r.Dist.d_manifest_path))
        reports;
      (* the work divided: hits + computed = total for each worker, and
         cluster-wide every unit was computed by someone *)
      let computed =
        List.fold_left (fun a r -> a + r.Dist.d_computed) 0 reports
      in
      Alcotest.(check bool) "no unit lost" true (computed >= 12);
      (* the certificate aggregated afterwards matches the oracle *)
      let cert, _ =
        Dist.certify ~store:st ~jobs:1 ya ~n:4 ~perms:pis ~exhaustive ()
      in
      Alcotest.(check string) "aggregate certificate" (cert_text oracle_cert)
        (cert_text (Option.get cert)))

(* Two workers over [pis] on one store, each on its own domain. *)
let two_workers st ?on_event ~ttl pis =
  let worker () =
    Domain.spawn (fun () ->
        Dist.work ~store:st ~jobs:1 ~ttl ?on_event ya ~n:4 ~perms:pis ())
  in
  List.map Domain.join [ worker (); worker () ]

(* Workers refresh their claims from their own loop, so live workers
   whose units are far shorter than the TTL never steal from each
   other and are never fenced. *)
let test_dist_live_workers_never_steal () =
  let _, oracle_manifest = oracle () in
  let pis, _ = family () in
  with_store (fun st ->
      let strays = Atomic.make 0 in
      let on_event = function
        | Dist.Stolen _ | Dist.Fenced _ -> Atomic.incr strays
        | _ -> ()
      in
      let reports = two_workers st ~on_event ~ttl:1.0 pis in
      Alcotest.(check int) "no claim stolen or fenced" 0 (Atomic.get strays);
      List.iter
        (fun r ->
          Alcotest.(check string) "manifest bytes" oracle_manifest
            (read_file r.Dist.d_manifest_path))
        reports)

(* A TTL shorter than one unit lets live workers steal from each other:
   duplicated work, the same bytes. *)
let test_dist_ttl_under_a_unit_converges () =
  let _, oracle_manifest = oracle () in
  let pis, _ = family () in
  with_store (fun st ->
      let reports = two_workers st ~ttl:1e-6 pis in
      List.iter
        (fun r ->
          Alcotest.(check string) "manifest bytes" oracle_manifest
            (read_file r.Dist.d_manifest_path);
          Alcotest.(check int) "nothing failed" 0 r.Dist.d_failed)
        reports)

(* Rounds after the first do not probe a key nobody has claimed; the
   probe under the claim still finds an entry a plain Sweep stored
   meanwhile, so it is a hit and is not recomputed. *)
let test_dist_finds_plain_sweep_entry () =
  let _, oracle_manifest = oracle () in
  let pis, _ = family () in
  with_store (fun st ->
      let stored = ref false in
      let on_event = function
        | Dist.Unit { index; _ } when not !stored ->
          (* batch 1: the first round claimed [index] alone *)
          stored := true;
          let other = List.nth pis (if index = 0 then 1 else 0) in
          ignore (Sweep.sweep ~store:st ~jobs:1 ya ~n:4 ~perms:[ other ] ())
        | _ -> ()
      in
      let r =
        Dist.work ~store:st ~jobs:1 ~batch:1 ~on_event ya ~n:4 ~perms:pis ()
      in
      Alcotest.(check int) "the stored unit is a hit" 1 r.Dist.d_hits;
      Alcotest.(check int) "the others computed once" 11 r.Dist.d_computed;
      Alcotest.(check string) "manifest bytes" oracle_manifest
        (read_file r.Dist.d_manifest_path))

(* A sweep whose last checkpoint recorded every unit does not write the
   manifest again on its way out. *)
let test_final_manifest_written_once () =
  let pis, _ = family () in
  with_store (fun st ->
      let inode = ref (-1) in
      let on_event = function
        | Sweep.Checkpoint { manifest; done_; total } when done_ = total ->
          inode := (Unix.stat manifest).Unix.st_ino
        | _ -> ()
      in
      let r = Sweep.sweep ~store:st ~jobs:1 ~on_event ya ~n:4 ~perms:pis () in
      Alcotest.(check int) "Sweep: no rewrite after the last checkpoint" !inode
        (Unix.stat r.Sweep.manifest_path).Unix.st_ino);
  with_store (fun st ->
      let complete = ref 0 in
      let on_event = function
        | Dist.Checkpoint { resolved; total; _ } when resolved = total ->
          incr complete
        | _ -> ()
      in
      ignore (Dist.work ~store:st ~jobs:1 ~on_event ya ~n:4 ~perms:pis ());
      Alcotest.(check int) "Sweep_dist: one complete checkpoint" 1 !complete)

(* The claims directory a worker over [pis] uses, and a unit's key. *)
let sweep_claims st pis =
  let fp = Store_key.fingerprint ya ~n:4 in
  Claim.open_ st
    ~sweep_id:
      (Store_key.sweep_id ~fp ~algo:ya.Lb_shmem.Algorithm.name ~n:4 ~perms:pis
         ~model:Store_key.sc_model)

let unit_key pi =
  Store_key.derive ~fp:(Store_key.fingerprint ya ~n:4)
    ~algo:ya.Lb_shmem.Algorithm.name ~n:4 ~pi ~model:Store_key.sc_model

(* A worker killed after publishing a unit but before releasing its
   claim leaves a held claim on a done unit, which no survivor needs to
   steal. Once it is past the TTL, a survivor's last round retires it,
   so the sweep ends with released claims only. *)
let test_dist_retires_dead_claim_on_done_unit () =
  let pis, _ = family () in
  with_store (fun st ->
      let pi = List.hd pis in
      ignore (Sweep.sweep ~store:st ~jobs:1 ya ~n:4 ~perms:[ pi ] ());
      let t = sweep_claims st pis in
      let key = unit_key pi in
      ignore (Option.get (Claim.try_claim t ~key ~ttl:30.0));
      ignore (Wf.skew_claims ~dir:(Claim.dir t) ~by:(-3600.0));
      ignore (Dist.work ~store:st ~jobs:1 ya ~n:4 ~perms:pis ());
      match Hashtbl.find_opt (Claim.snapshot t).Claim.slots key with
      | Some (Claim.Released _) -> ()
      | _ -> Alcotest.fail "the dead holder's claim was left held")

let test_dist_steals_abandoned_claims () =
  let _, oracle_manifest = oracle () in
  let pis, _ = family () in
  with_store (fun st ->
      (* a "crashed" worker: claims three units and vanishes without
         computing or releasing them *)
      let t = sweep_claims st pis in
      let doomed =
        List.filteri (fun i _ -> i < 3) pis
        |> List.map (fun pi ->
               Option.get (Claim.try_claim t ~key:(unit_key pi) ~ttl:0.1))
      in
      Alcotest.(check int) "zombie holds three" 3 (List.length doomed);
      Unix.sleepf 0.25;
      (* a live worker arrives, steals the expired claims, finishes *)
      let stolen = ref 0 in
      let on_event = function Dist.Stolen _ -> incr stolen | _ -> () in
      let r = Dist.work ~store:st ~jobs:1 ~ttl:0.1 ~on_event ya ~n:4 ~perms:pis () in
      Alcotest.(check bool) "expired claims were stolen" true (!stolen >= 3);
      Alcotest.(check string) "manifest still byte-identical" oracle_manifest
        (read_file r.Dist.d_manifest_path);
      (* fencing held: the zombie's handles are dead *)
      List.iter
        (fun c ->
          Alcotest.(check bool) "zombie fenced" false (Claim.refresh c))
        doomed)

let test_dist_failures_exactly_once () =
  (* broken_spinlock fails pipeline checks on (most) permutations, and an
     impossible pi_timeout quarantines every yang_anderson unit; the
     distributed engine must quarantine those deterministically — same
     manifest bytes as the sequential oracle, including failure lines *)
  let n = 3 in
  let pis = Lb_core.Permutation.all n in
  List.iter
    (fun (label, algo, pi_timeout) ->
      let seq_manifest =
        let dir = fresh_dir () in
        let st = Store.open_ ~dir in
        let _, report =
          Sweep.certify ~store:st ~jobs:1 ~resume:true ?pi_timeout algo ~n
            ~perms:pis ~exhaustive:true ()
        in
        let m = read_file report.Sweep.manifest_path in
        rm_rf dir;
        m
      in
      with_store (fun st ->
          let _, r =
            Dist.certify ~store:st ~jobs:2 ?pi_timeout algo ~n ~perms:pis
              ~exhaustive:true ()
          in
          Alcotest.(check string) (label ^ ": failure manifest bytes")
            seq_manifest
            (read_file r.Dist.d_manifest_path);
          Alcotest.(check bool) (label ^ ": failures quarantined") true
            (r.Dist.d_failed > 0);
          Alcotest.(check int) (label ^ ": failure list in family order")
            r.Dist.d_failed
            (List.length r.Dist.d_failures)))
    [
      ("broken_spinlock", Lb_algos.Broken_spinlock.algorithm, None);
      ("yang_anderson timeout", ya, Some 1e-9);
    ]

(* inputs the plan refuses raise before any claim or failure record is
   published — at worst a bad call would otherwise quarantine the whole
   family for every later worker on the store *)
let test_dist_rejects_bad_input () =
  let pis, _ = family () in
  let rec failed_files path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc f -> acc @ failed_files (Filename.concat path f))
        [] (Sys.readdir path)
    else if Filename.check_suffix path ".failed" then [ path ]
    else []
  in
  List.iter
    (fun (label, algo, pi_timeout) ->
      with_store (fun st ->
          (match Dist.work ~store:st ~jobs:1 ?pi_timeout algo ~n:4 ~perms:pis () with
          | _ -> Alcotest.fail (label ^ " accepted")
          | exception Invalid_argument _ -> ());
          let claims = Filename.concat (Store.dir st) "claims" in
          Alcotest.(check (list string)) (label ^ ": no .failed record") []
            (if Sys.file_exists claims then failed_files claims else [])))
    [
      ("pi_timeout = 0", ya, Some 0.0);
      ("unsupported n", Lb_algos.Peterson2.algorithm, None);
    ]

let test_dist_drain_cancels () =
  let pis, _ = family () in
  with_store (fun st ->
      let cancel = Lb_util.Pool.Cancel.create () in
      let started = Atomic.make false in
      let on_event = function
        | Dist.Unit _ -> Atomic.set started true
        | _ -> ()
      in
      let d =
        Domain.spawn (fun () ->
            match
              Dist.work ~store:st ~jobs:1 ~on_event ~cancel ya ~n:4 ~perms:pis
                ()
            with
            | _ -> `Finished
            | exception Lb_util.Pool.Cancelled -> `Drained)
      in
      let rec wait tries =
        if tries = 0 then ()
        else if not (Atomic.get started) then begin
          Unix.sleepf 0.01;
          wait (tries - 1)
        end
      in
      wait 500;
      Lb_util.Pool.Cancel.set cancel;
      (match Domain.join d with
      | `Drained -> ()
      | `Finished ->
        (* raced to completion before the cancel landed — legal *)
        ());
      (* whatever happened, the store is clean and resumable: a fresh
         worker run completes the family *)
      let r = Dist.work ~store:st ~jobs:1 ya ~n:4 ~perms:pis () in
      Alcotest.(check int) "family completed after drain" 12 r.Dist.d_total;
      Alcotest.(check int) "no failures" 0 r.Dist.d_failed)

(* ------------------------------ gc vs claims --------------------------- *)

let test_gc_refuses_live_claims () =
  with_store (fun st ->
      let t = Claim.open_ st ~sweep_id:"s-live" in
      let c = Option.get (Claim.try_claim t ~key:(key_of "gc") ~ttl:30.0) in
      let fp ~algo:_ ~n:_ = None in
      (match Gc.run ~current_fp:fp st with
      | Error h ->
        Alcotest.(check bool) "refusal names the claims" true
          (Astring_contains.contains h.Lock.h_purpose "claim")
      | Ok _ -> Alcotest.fail "gc ran under a live claim");
      (* dry runs are always allowed *)
      (match Gc.run ~dry:true ~current_fp:fp st with
      | Ok r -> Alcotest.(check int) "dry sweeps nothing" 0 r.Gc.g_claims_swept
      | Error _ -> Alcotest.fail "dry run refused");
      Claim.release c;
      (* released claims are debris: gc proceeds and sweeps the dir *)
      match Gc.run ~current_fp:fp st with
      | Ok r -> Alcotest.(check int) "claim dir swept" 1 r.Gc.g_claims_swept
      | Error _ -> Alcotest.fail "gc refused over released claims")

let test_gc_expired_claims_are_debris () =
  with_store (fun st ->
      let t = Claim.open_ st ~sweep_id:"s-dead" in
      let _c = Option.get (Claim.try_claim t ~key:(key_of "dead") ~ttl:30.0) in
      (* age the claim far past any ttl, as a SIGKILL'd worker would *)
      let n = Wf.skew_claims ~dir:(Claim.dir t) ~by:(-3600.0) in
      Alcotest.(check int) "claim aged" 1 n;
      let fp ~algo:_ ~n:_ = None in
      match Gc.run ~claim_ttl:60.0 ~current_fp:fp st with
      | Ok r -> Alcotest.(check int) "expired claim swept" 1 r.Gc.g_claims_swept
      | Error _ -> Alcotest.fail "gc refused over expired claims")

(* ------------------------------ fault plans ---------------------------- *)

let test_kill_points_deterministic () =
  let a = Wf.kill_points ~seed:5 ~workers:4 ~survivors:2 ~total:100 in
  let b = Wf.kill_points ~seed:5 ~workers:4 ~survivors:2 ~total:100 in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  let survivors = Array.to_list a |> List.filter (fun k -> k = max_int) in
  Alcotest.(check int) "survivor count" 2 (List.length survivors);
  Array.iter
    (fun k ->
      if k <> max_int then
        Alcotest.(check bool) "kill point in range" true (k >= 1 && k <= 25))
    a;
  let c = Wf.kill_points ~seed:6 ~workers:4 ~survivors:2 ~total:100 in
  Alcotest.(check bool) "different seed, different plan" true (a <> c)

(* ------------------------- subprocess chaos CLI ------------------------ *)

let exe = "../bin/mutexlb.exe"

let spawn args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin devnull
      devnull
  in
  Unix.close devnull;
  pid

let wait_status pid = snd (Unix.waitpid [] pid)

let worker_args ~dir extra =
  [
    "work"; "--algo"; "yang_anderson"; "-n"; "4"; "--seed"; "7"; "--perms";
    "12"; "--store"; dir; "-j"; "1"; "--claim-ttl"; "1";
  ]
  @ extra

(* The acceptance bar from the issue: three subprocess workers, one
   SIGKILL'd mid-sweep (deterministically, via the chaos hook, claims in
   flight), survivors finish; the manifest is byte-identical to the
   sequential oracle and the store verifies clean. *)
let test_chaos_subprocess_storm () =
  let _, oracle_manifest = oracle () in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* the doomed worker runs alone first, so it is guaranteed to be the
     one computing when its kill point fires *)
  let doomed = spawn (worker_args ~dir [ "--chaos-kill-after"; "1" ]) in
  (match wait_status doomed with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | Unix.WEXITED c ->
    Alcotest.failf "doomed worker exited %d instead of dying" c
  | _ -> Alcotest.fail "doomed worker died oddly");
  (* its claims are now unhealable debris; fuzz them too, for spite *)
  let claims_root = Filename.concat dir "claims" in
  (match Sys.readdir claims_root with
  | [| sweep |] ->
    ignore
      (Wf.fuzz_claims ~seed:11 ~count:8
         ~dir:(Filename.concat claims_root sweep))
  | _ -> Alcotest.fail "expected exactly one sweep claims dir");
  (* two survivors converge over the wreckage *)
  let w1 = spawn (worker_args ~dir []) in
  let w2 = spawn (worker_args ~dir []) in
  (match (wait_status w1, wait_status w2) with
  | Unix.WEXITED 0, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "survivor worker failed");
  let st = Store.open_ ~dir in
  (* no lost units, no damage, byte-identity *)
  let ok, damaged =
    Store.fold st ~init:(0, 0) ~f:(fun (ok, bad) ~key:_ -> function
      | Ok _ -> (ok + 1, bad)
      | Error _ -> (ok, bad + 1))
  in
  Alcotest.(check int) "no damaged entries" 0 damaged;
  Alcotest.(check int) "every unit durable" 12 ok;
  match Store.manifest_paths st with
  | [ m ] ->
    Alcotest.(check string) "manifest byte-identical to oracle"
      oracle_manifest (read_file m)
  | ms -> Alcotest.failf "expected one manifest, found %d" (List.length ms)

(* certify --workers K drives the same machinery from one command: the
   workers compute every unit, so the aggregate pass only reads hits *)
let test_certify_workers_cli () =
  let dir = fresh_dir () in
  let out = Filename.temp_file "mutexlb_distrib" ".out" in
  let err = Filename.temp_file "mutexlb_distrib" ".err" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      Sys.remove out;
      Sys.remove err)
  @@ fun () ->
  let cmd =
    Printf.sprintf
      "%s certify --algo yang_anderson -n 4 --seed 7 --perms 12 --store %s \
       --workers 2 -j 1 > %s 2> %s"
      exe (Filename.quote dir) (Filename.quote out) (Filename.quote err)
  in
  Alcotest.(check int) "exit 0" 0 (Sys.command cmd);
  let oracle_cert, _ = oracle () in
  let text = read_file out in
  Alcotest.(check bool) "prints the oracle certificate" true
    (Astring_contains.contains text (cert_text oracle_cert));
  let failed_workers =
    List.filter
      (fun line ->
        Astring_contains.contains line "certify: worker"
        && Astring_contains.contains line "exited")
      (String.split_on_char '\n' (read_file err))
  in
  Alcotest.(check (list string)) "every worker exited 0" [] failed_workers;
  Alcotest.(check bool) "the aggregate pass only reads hits" true
    (Astring_contains.contains text "12 hits, 0 computed")

(* --retry: temp-fails back off and retry, then give up with the same
   exit code the single attempt would have used *)
let test_certify_retry_backoff () =
  let out = Filename.temp_file "mutexlb_distrib" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  (* nothing listens on this port: every attempt is a temp-fail *)
  let status =
    Sys.command
      (Printf.sprintf
         "%s certify -n 3 --perms 2 --connect 1 --retry 2 --retry-backoff \
          0.02 > %s 2>&1"
         exe (Filename.quote out))
  in
  Alcotest.(check int) "gives up with exit 3" 3 status;
  let text = read_file out in
  Alcotest.(check bool) "announced its retries" true
    (Astring_contains.contains text "retrying in");
  Alcotest.(check bool) "counted attempts" true
    (Astring_contains.contains text "attempt 3/3")

let suite =
  [
    Alcotest.test_case "claim lifecycle" `Quick test_claim_lifecycle;
    Alcotest.test_case "claim steal + fence" `Quick test_claim_steal_and_fence;
    Alcotest.test_case "failure exactly-once" `Quick
      test_claim_failure_exactly_once;
    Alcotest.test_case "claim corruption matrix" `Quick
      test_claim_corruption_matrix;
    Alcotest.test_case "duplicate quit prefers held" `Quick
      test_claim_duplicate_prefers_held;
    Alcotest.test_case "vanished claim reads released" `Quick
      test_claim_vanished_reads_released;
    Alcotest.test_case "lock ttl breaks stale" `Quick test_lock_ttl_breaks_stale;
    Alcotest.test_case "lock ttl future skew" `Quick test_lock_ttl_future_skew;
    Alcotest.test_case "lock fenced holder" `Quick test_lock_fenced_holder;
    Alcotest.test_case "lock refresh keeps lease" `Quick
      test_lock_refresh_keeps_lease;
    Alcotest.test_case "dist matches oracle" `Quick test_dist_matches_oracle;
    Alcotest.test_case "dist three workers" `Slow
      test_dist_three_workers_in_process;
    Alcotest.test_case "dist live workers never steal" `Quick
      test_dist_live_workers_never_steal;
    Alcotest.test_case "dist ttl under a unit converges" `Quick
      test_dist_ttl_under_a_unit_converges;
    Alcotest.test_case "dist finds a plain sweep entry" `Quick
      test_dist_finds_plain_sweep_entry;
    Alcotest.test_case "final manifest written once" `Quick
      test_final_manifest_written_once;
    Alcotest.test_case "dist retires a dead claim on a done unit" `Quick
      test_dist_retires_dead_claim_on_done_unit;
    Alcotest.test_case "dist steals abandoned claims" `Quick
      test_dist_steals_abandoned_claims;
    Alcotest.test_case "dist failures exactly-once" `Quick
      test_dist_failures_exactly_once;
    Alcotest.test_case "dist rejects bad input" `Quick
      test_dist_rejects_bad_input;
    Alcotest.test_case "dist drain cancels" `Quick test_dist_drain_cancels;
    Alcotest.test_case "gc refuses live claims" `Quick
      test_gc_refuses_live_claims;
    Alcotest.test_case "gc sweeps expired claims" `Quick
      test_gc_expired_claims_are_debris;
    Alcotest.test_case "kill points deterministic" `Quick
      test_kill_points_deterministic;
    Alcotest.test_case "chaos subprocess storm" `Slow
      test_chaos_subprocess_storm;
    Alcotest.test_case "certify --workers cli" `Slow test_certify_workers_cli;
    Alcotest.test_case "certify --retry backoff" `Quick
      test_certify_retry_backoff;
  ]
