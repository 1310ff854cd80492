(* The durable sweep subsystem: content-addressed keys, entry/manifest
   serialization, corruption handling, and the checkpointed sweep engine
   (cold/warm/interrupted runs must all converge on byte-identical
   manifests and certificates). *)

module Store = Lb_store.Store
module Store_key = Lb_store.Store_key
module Manifest = Lb_store.Manifest
module Sweep = Lb_store.Sweep

let ya = Lb_algos.Yang_anderson.algorithm
let bakery = Lb_algos.Bakery.algorithm
let broken = Lb_algos.Broken_spinlock.algorithm

(* every test gets its own throwaway store root under $TMPDIR *)
let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d = Filename.temp_file "mutexlb_store" (Printf.sprintf "_%d" !ctr) in
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

(* substring index / first-occurrence replacement, for the hand-mangled
   corruption fixtures *)
let find_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then Alcotest.fail ("fixture lacks " ^ needle)
    else if String.sub haystack i nn = needle then i
    else go (i + 1)
  in
  go 0

let replace_first haystack needle replacement =
  let i = find_sub haystack needle in
  String.sub haystack 0 i
  ^ replacement
  ^ String.sub haystack
      (i + String.length needle)
      (String.length haystack - i - String.length needle)

let perms_of n = Lb_core.Permutation.all n

let entry_of ?(save_trace = false) algo ~n pi =
  let r = Lb_core.Pipeline.run_checked algo ~n pi in
  let open Lb_core.Pipeline in
  {
    Store.e_algo = algo.Lb_shmem.Algorithm.name;
    e_fp = Store_key.fingerprint algo ~n;
    e_n = n;
    e_pi = pi;
    e_model = Store_key.sc_model;
    e_cost = r.cost;
    e_bits = r.bits;
    e_exec_fp = Lb_shmem.Execution.fingerprint r.decoded;
    e_ebits =
      (if save_trace then
         Some r.encoding.Lb_core.Encode.bits
       else None);
  }

(* ------------------------------ keys --------------------------------- *)

let test_key_stability () =
  let fp = Store_key.fingerprint ya ~n:3 in
  let pi = Lb_core.Permutation.of_array [| 2; 0; 1 |] in
  let k1 = Store_key.derive ~fp ~algo:"yang_anderson" ~n:3 ~pi ~model:Store_key.sc_model in
  let k2 = Store_key.derive ~fp ~algo:"yang_anderson" ~n:3 ~pi ~model:Store_key.sc_model in
  Alcotest.(check string) "deterministic" k1 k2;
  Alcotest.(check bool) "well-formed" true (Store_key.is_key k1);
  let pi' = Lb_core.Permutation.of_array [| 0; 2; 1 |] in
  let k3 = Store_key.derive ~fp ~algo:"yang_anderson" ~n:3 ~pi:pi' ~model:Store_key.sc_model in
  Alcotest.(check bool) "pi-sensitive" true (k1 <> k3);
  let k4 = Store_key.derive ~fp ~algo:"other" ~n:3 ~pi ~model:Store_key.sc_model in
  Alcotest.(check bool) "algo-sensitive" true (k1 <> k4);
  let k5 = Store_key.derive ~fp:"deadbeef" ~algo:"yang_anderson" ~n:3 ~pi ~model:Store_key.sc_model in
  Alcotest.(check bool) "fp-sensitive" true (k1 <> k5);
  Alcotest.(check bool) "not a key" false (Store_key.is_key "not-a-key");
  Alcotest.(check bool) "wrong length" false (Store_key.is_key "abc123")

let test_fingerprint_sensitivity () =
  (* the behavioral fingerprint separates algorithms and sizes: a stale
     entry can never be addressed by a current-code key *)
  let fp_ya3 = Store_key.fingerprint ya ~n:3 in
  Alcotest.(check string) "deterministic" fp_ya3 (Store_key.fingerprint ya ~n:3);
  Alcotest.(check bool) "algo-sensitive" true
    (fp_ya3 <> Store_key.fingerprint bakery ~n:3);
  Alcotest.(check bool) "n-sensitive" true
    (fp_ya3 <> Store_key.fingerprint ya ~n:4)

(* --------------------------- entry round trip ------------------------ *)

let check_entry_eq msg (a : Store.entry) (b : Store.entry) =
  Alcotest.(check string) (msg ^ " algo") a.Store.e_algo b.Store.e_algo;
  Alcotest.(check string) (msg ^ " fp") a.Store.e_fp b.Store.e_fp;
  Alcotest.(check int) (msg ^ " n") a.Store.e_n b.Store.e_n;
  Alcotest.(check string) (msg ^ " pi")
    (Lb_core.Permutation.to_string a.Store.e_pi)
    (Lb_core.Permutation.to_string b.Store.e_pi);
  Alcotest.(check int) (msg ^ " cost") a.Store.e_cost b.Store.e_cost;
  Alcotest.(check int) (msg ^ " bits") a.Store.e_bits b.Store.e_bits;
  Alcotest.(check string) (msg ^ " exec") a.Store.e_exec_fp b.Store.e_exec_fp;
  Alcotest.(check (option (array bool)))
    (msg ^ " ebits") a.Store.e_ebits b.Store.e_ebits

let test_entry_roundtrip () =
  with_store (fun st ->
      let pi = Lb_core.Permutation.of_array [| 1; 2; 0 |] in
      let e = entry_of ya ~n:3 pi in
      let key = Store.key_of_entry e in
      Alcotest.(check bool) "absent before put" true (Store.lookup st ~key = `Absent);
      Store.put st e;
      (match Store.lookup st ~key with
      | `Hit e' -> check_entry_eq "plain" e e'
      | `Absent | `Damaged _ -> Alcotest.fail "expected a hit");
      (* with the E_pi trace attached *)
      let et = entry_of ~save_trace:true ya ~n:3 pi in
      Store.put st et;
      (match Store.lookup st ~key with
      | `Hit e' ->
        check_entry_eq "traced" et e';
        Alcotest.(check bool) "trace present" true (e'.Store.e_ebits <> None)
      | `Absent | `Damaged _ -> Alcotest.fail "expected a traced hit");
      Store.remove st ~key;
      Alcotest.(check bool) "absent after remove" true
        (Store.lookup st ~key = `Absent))

let test_fold_and_stat () =
  with_store (fun st ->
      List.iter (fun pi -> Store.put st (entry_of ya ~n:3 pi)) (perms_of 3);
      Store.put st (entry_of ~save_trace:true bakery ~n:3 (List.hd (perms_of 3)));
      let n = Store.fold st ~init:0 ~f:(fun acc ~key:_ -> function
          | Ok _ -> acc + 1
          | Error _ -> acc)
      in
      Alcotest.(check int) "fold sees all" 7 n;
      let s = Store.stat st in
      Alcotest.(check int) "entries" 7 s.Store.s_entries;
      Alcotest.(check int) "damaged" 0 s.Store.s_damaged;
      Alcotest.(check int) "with trace" 1 s.Store.s_with_trace;
      Alcotest.(check bool) "bytes counted" true (s.Store.s_bytes > 0);
      Alcotest.(check (list (triple string int int)))
        "by algo"
        [ ("bakery", 3, 1); ("yang_anderson", 3, 6) ]
        s.Store.s_by_algo)

(* ----------------------------- corruption ---------------------------- *)

let damaged_diag = function
  | `Damaged msg -> msg
  | `Hit _ -> Alcotest.fail "expected damage, got a hit"
  | `Absent -> Alcotest.fail "expected damage, got absent"

let overwrite path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

(* rebuild a valid sum line over a hand-mangled payload, so the tests
   reach the field-level diagnostics behind the checksum gate *)
let with_fresh_sum payload =
  payload ^ Printf.sprintf "sum %s\n" (Digest.to_hex (Digest.string payload))

let strip_sum s =
  match String.rindex_opt (String.sub s 0 (String.length s - 1)) '\n' with
  | Some i -> String.sub s 0 (i + 1)
  | None -> s

let test_corruption_truncated () =
  with_store (fun st ->
      let e = entry_of ya ~n:3 (List.hd (perms_of 3)) in
      let key = Store.key_of_entry e in
      Store.put st e;
      let path = Store.object_path st ~key in
      let full = In_channel.with_open_bin path In_channel.input_all in
      overwrite path (String.sub full 0 (String.length full / 2));
      let diag = damaged_diag (Store.lookup st ~key) in
      Alcotest.(check bool) ("diagnosed: " ^ diag) true
        (String.length diag > 0);
      (* empty file: also damage, not a crash *)
      overwrite path "";
      ignore (damaged_diag (Store.lookup st ~key)))

let test_corruption_flipped_bit () =
  with_store (fun st ->
      let e = entry_of ya ~n:3 (List.hd (perms_of 3)) in
      let key = Store.key_of_entry e in
      Store.put st e;
      let path = Store.object_path st ~key in
      let full = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string full in
      (* flip a digit inside the cost field *)
      let i = find_sub full "cost " + 5 in
      Bytes.set b i (if Bytes.get b i = '1' then '2' else '1');
      overwrite path (Bytes.to_string b);
      let diag = damaged_diag (Store.lookup st ~key) in
      Alcotest.(check bool) "names the checksum" true
        (Astring_contains.contains diag "checksum"))

let test_corruption_stale_version () =
  with_store (fun st ->
      let e = entry_of ya ~n:3 (List.hd (perms_of 3)) in
      let key = Store.key_of_entry e in
      let s = Store.entry_to_string e in
      let payload = strip_sum s in
      let mangled =
        replace_first payload "mutexlb-store-entry 1"
          "mutexlb-store-entry 99"
      in
      (match Store.entry_of_string ~key (with_fresh_sum mangled) with
      | Error diag ->
        Alcotest.(check bool) "names the version" true
          (Astring_contains.contains diag "stale format version")
      | Ok _ -> Alcotest.fail "stale version accepted");
      (* and through the store: written file with stale version is damage *)
      Store.put st e;
      overwrite (Store.object_path st ~key) (with_fresh_sum mangled);
      let diag = damaged_diag (Store.lookup st ~key) in
      Alcotest.(check bool) "store reports it" true
        (Astring_contains.contains diag "stale format version"))

let test_corruption_garbage_hex () =
  let e = entry_of ~save_trace:true ya ~n:3 (List.hd (perms_of 3)) in
  let key = Store.key_of_entry e in
  let payload = strip_sum (Store.entry_to_string e) in
  (* splatter a non-hex character into the ebits line *)
  let i = find_sub payload "ebits " in
  let j = String.index_from payload i '\n' in
  let b = Bytes.of_string payload in
  Bytes.set b (j - 1) 'z';
  match Store.entry_of_string ~key (with_fresh_sum (Bytes.to_string b)) with
  | Error diag ->
    Alcotest.(check bool) "names the hex" true
      (Astring_contains.contains diag "hex")
  | Ok _ -> Alcotest.fail "garbage hex accepted"

let test_corruption_wrong_key () =
  with_store (fun st ->
      let pis = perms_of 3 in
      let e1 = entry_of ya ~n:3 (List.nth pis 0) in
      let e2 = entry_of ya ~n:3 (List.nth pis 1) in
      Store.put st e1;
      Store.put st e2;
      let k1 = Store.key_of_entry e1 and k2 = Store.key_of_entry e2 in
      (* file e1's bytes under e2's name: both key checks must catch it *)
      let s1 =
        In_channel.with_open_bin (Store.object_path st ~key:k1)
          In_channel.input_all
      in
      overwrite (Store.object_path st ~key:k2) s1;
      let diag = damaged_diag (Store.lookup st ~key:k2) in
      Alcotest.(check bool) "names the mismatch" true
        (Astring_contains.contains diag "filed under"))

(* Every truncation and every single-bit flip of a sealed record is
   rejected with a diagnostic, never an exception: a store entry with
   E_pi (through the object file), and a final and a running spill
   manifest of the model checker. *)
let mutants s =
  List.init (String.length s) (fun i -> String.sub s 0 i)
  @ List.concat
      (List.init (String.length s) (fun i ->
           List.init 8 (fun b ->
               let m = Bytes.of_string s in
               Bytes.set m i (Char.chr (Char.code s.[i] lxor (1 lsl b)));
               Bytes.to_string m)))

let test_corruption_every_byte () =
  with_store (fun st ->
      let e = entry_of ~save_trace:true ya ~n:3 (List.hd (perms_of 3)) in
      let key = Store.key_of_entry e in
      Store.put st e;
      let path = Store.object_path st ~key in
      let full = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun m ->
          overwrite path m;
          let diag = damaged_diag (Store.lookup st ~key) in
          Alcotest.(check bool) "entry diagnosed" true (String.length diag > 0))
        (mutants full))

let test_corruption_spill_manifests () =
  let module MC = Lb_mutex.Model_check in
  let module Spill = Lb_mutex.Check_spill in
  let manifest_of ~status run =
    let dir = fresh_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
        ignore (run dir);
        let s = Lb_util.Fsio.read ~path:(Filename.concat dir "check.manifest") () in
        (match Spill.manifest_of_string s with
        | Ok { Spill.c_status = Spill.Running; _ } when status = `Running -> ()
        | Ok { Spill.c_status = Spill.Final _; _ } when status = `Final -> ()
        | _ -> Alcotest.fail "fixture manifest has the wrong status");
        s)
  in
  List.iter
    (fun s ->
      List.iter
        (fun m ->
          match Spill.manifest_of_string m with
          | Ok _ -> Alcotest.fail "damaged spill manifest accepted"
          | Error diag ->
            Alcotest.(check bool) "manifest diagnosed" true
              (String.length diag > 0))
        (mutants s))
    [
      manifest_of ~status:`Final (fun dir ->
          MC.explore broken ~n:2 ~spill_dir:dir);
      manifest_of ~status:`Running (fun dir ->
          MC.explore ya ~n:3 ~spill_dir:dir ~deadline:0.0);
    ]

(* ------------------------------ manifest ----------------------------- *)

let test_manifest_roundtrip () =
  let pis = perms_of 3 in
  let fp = Store_key.fingerprint ya ~n:3 in
  let key pi = Store_key.derive ~fp ~algo:"yang_anderson" ~n:3 ~pi ~model:Store_key.sc_model in
  let m =
    {
      Manifest.m_algo = "yang_anderson";
      m_fp = fp;
      m_n = 3;
      m_model = Store_key.sc_model;
      m_total = List.length pis;
      m_outcomes =
        List.mapi
          (fun i pi ->
            let k = key pi in
            let o =
              if i = 0 then Manifest.Failed (k, "boom\nwith \"newline\"")
              else if i = 1 then Manifest.Pending k
              else Manifest.Done k
            in
            (pi, o))
          pis;
    }
  in
  let s = Manifest.to_string m in
  (match Manifest.of_string s with
  | Ok m' ->
    Alcotest.(check string) "reserializes identically" s (Manifest.to_string m');
    Alcotest.(check (triple int int int)) "counts" (4, 1, 1) (Manifest.counts m')
  | Error e -> Alcotest.fail ("manifest parse: " ^ e));
  (* atomic save / load through a real file *)
  let path = Filename.temp_file "mutexlb_manifest" ".manifest" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Manifest.save ~path m;
      match Manifest.load ~path with
      | Ok m' -> Alcotest.(check string) "file roundtrip" s (Manifest.to_string m')
      | Error e -> Alcotest.fail ("manifest load: " ^ e))

(* ------------------------------- sweeps ------------------------------ *)

let render_cert = function
  | Some c -> Format.asprintf "%a" Lb_core.Bounds.pp_certificate c
  | None -> Alcotest.fail "sweep produced no certificate"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_sweep_cold_warm () =
  with_store (fun st ->
      let perms = perms_of 4 in
      let direct = Lb_core.Pipeline.certify ya ~n:4 ~perms ~exhaustive:true () in
      let direct_s = Format.asprintf "%a" Lb_core.Bounds.pp_certificate direct in
      let cold_cert, cold = Sweep.certify ~store:st ya ~n:4 ~perms ~exhaustive:true () in
      let warm_cert, warm = Sweep.certify ~store:st ya ~n:4 ~perms ~exhaustive:true () in
      Alcotest.(check string) "cold = direct" direct_s (render_cert cold_cert);
      Alcotest.(check string) "warm = direct" direct_s (render_cert warm_cert);
      let cp = cold.Sweep.progress and wp = warm.Sweep.progress in
      Alcotest.(check int) "cold computed all" 24 cp.Sweep.p_computed;
      Alcotest.(check int) "cold no hits" 0 cp.Sweep.p_hits;
      Alcotest.(check int) "warm all hits" 24 wp.Sweep.p_hits;
      Alcotest.(check int) "warm computed none" 0 wp.Sweep.p_computed;
      Alcotest.(check string) "manifest stable"
        (read_file cold.Sweep.manifest_path)
        (read_file warm.Sweep.manifest_path);
      (* the final manifest records every unit Done *)
      match Manifest.load ~path:cold.Sweep.manifest_path with
      | Ok m -> Alcotest.(check (triple int int int)) "all done" (24, 0, 0) (Manifest.counts m)
      | Error e -> Alcotest.fail ("manifest: " ^ e))

let test_sweep_interrupted_resume () =
  (* an "interrupted" run = only a prefix of the family made it to disk;
     the re-run must produce a manifest and certificate byte-identical to
     a never-interrupted sweep, at every job count *)
  let perms = perms_of 4 in
  let uninterrupted_manifest, uninterrupted_cert =
    with_store (fun st ->
        let cert, r = Sweep.certify ~store:st ya ~n:4 ~perms ~exhaustive:true () in
        (read_file r.Sweep.manifest_path, render_cert cert))
  in
  List.iter
    (fun jobs ->
      with_store (fun st ->
          (* simulate the interruption: persist only the first 7 units *)
          List.iteri
            (fun i pi -> if i < 7 then Store.put st (entry_of ya ~n:4 pi))
            perms;
          let cert, r =
            Sweep.certify ~store:st ~jobs ya ~n:4 ~perms ~exhaustive:true ()
          in
          let p = r.Sweep.progress in
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d hits" jobs) 7 p.Sweep.p_hits;
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d computed" jobs) 17 p.Sweep.p_computed;
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d manifest identical" jobs)
            uninterrupted_manifest
            (read_file r.Sweep.manifest_path);
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d certificate identical" jobs)
            uninterrupted_cert (render_cert cert)))
    [ 1; 4 ]

let test_sweep_recomputes_damage () =
  with_store (fun st ->
      let perms = perms_of 3 in
      let _, cold = Sweep.certify ~store:st ya ~n:3 ~perms ~exhaustive:true () in
      (* truncate one entry on disk *)
      let victim =
        Store_key.derive
          ~fp:(Store_key.fingerprint ya ~n:3)
          ~algo:"yang_anderson" ~n:3 ~pi:(List.nth perms 2)
          ~model:Store_key.sc_model
      in
      let path = Store.object_path st ~key:victim in
      overwrite path (String.sub (read_file path) 0 10);
      let damaged_seen = ref 0 in
      let on_event = function
        | Sweep.Damaged_entry _ -> incr damaged_seen
        | _ -> ()
      in
      let cert, warm = Sweep.certify ~store:st ~on_event ya ~n:3 ~perms ~exhaustive:true () in
      let p = warm.Sweep.progress in
      Alcotest.(check int) "damage surfaced" 1 !damaged_seen;
      Alcotest.(check int) "5 hits" 5 p.Sweep.p_hits;
      Alcotest.(check int) "1 recomputed" 1 p.Sweep.p_computed;
      Alcotest.(check string) "manifest unchanged"
        (read_file cold.Sweep.manifest_path)
        (read_file warm.Sweep.manifest_path);
      ignore (render_cert cert);
      (* the store self-healed: the victim entry is valid again *)
      match Store.lookup st ~key:victim with
      | `Hit _ -> ()
      | `Absent | `Damaged _ -> Alcotest.fail "damaged entry not rewritten")

let test_sweep_quarantine () =
  with_store (fun st ->
      let perms = perms_of 3 in
      (* fail-fast without ~resume, exactly like Pipeline.certify *)
      (match Sweep.sweep ~store:st broken ~n:3 ~perms () with
      | _ -> Alcotest.fail "expected the broken pipeline to raise"
      | exception Lb_core.Pipeline.Check_failed _ -> ());
      (* with ~resume the failures are quarantined and the family finishes *)
      let cert, r = Sweep.certify ~store:st ~resume:true broken ~n:3 ~perms () in
      let p = r.Sweep.progress in
      Alcotest.(check bool) "some failures" true (p.Sweep.p_failed > 0);
      Alcotest.(check int) "family complete" 6 p.Sweep.p_done;
      Alcotest.(check int) "records + failures = total" 6
        (List.length r.Sweep.records + List.length r.Sweep.failures);
      (match Manifest.load ~path:r.Sweep.manifest_path with
      | Ok m ->
        let done_, failed, pending = Manifest.counts m in
        Alcotest.(check int) "manifest failed" p.Sweep.p_failed failed;
        Alcotest.(check int) "manifest done" (6 - p.Sweep.p_failed) done_;
        Alcotest.(check int) "nothing pending" 0 pending
      | Error e -> Alcotest.fail ("manifest: " ^ e));
      if p.Sweep.p_failed = 6 then
        Alcotest.(check bool) "no certificate when all fail" true (cert = None)
      else Alcotest.(check bool) "partial certificate" true (cert <> None);
      (* second resume run: successes come from cache, failures recompute
         (failed units are never persisted) and fail identically *)
      let _, r2 = Sweep.certify ~store:st ~resume:true broken ~n:3 ~perms () in
      let p2 = r2.Sweep.progress in
      Alcotest.(check int) "hits = prior successes" (6 - p.Sweep.p_failed)
        p2.Sweep.p_hits;
      Alcotest.(check int) "failures reproduce" p.Sweep.p_failed p2.Sweep.p_failed;
      Alcotest.(check string) "manifest stable under resume"
        (read_file r.Sweep.manifest_path)
        (read_file r2.Sweep.manifest_path))

let test_sweep_pi_timeout () =
  with_store (fun st ->
      let perms = perms_of 3 in
      (* an impossibly tight budget: every unit overruns, and with
         ~resume each is quarantined instead of cached *)
      let _, r =
        Sweep.certify ~store:st ~resume:true ~pi_timeout:1e-9 ya ~n:3 ~perms ()
      in
      let p = r.Sweep.progress in
      Alcotest.(check int) "every unit quarantined" 6 p.Sweep.p_failed;
      List.iter
        (fun f ->
          Alcotest.(check string) "message names the limit, not the elapsed time"
            "per-pi wall-clock limit exceeded (1e-09s)" f.Sweep.f_message)
        r.Sweep.failures;
      (* capture now: the successful re-run below overwrites this path *)
      let quarantined_manifest = read_file r.Sweep.manifest_path in
      (* timed-out units were never persisted: a run without the budget
         computes everything fresh and succeeds *)
      let cert, r2 = Sweep.certify ~store:st ya ~n:3 ~perms () in
      Alcotest.(check int) "no stale hits" 0 r2.Sweep.progress.Sweep.p_hits;
      Alcotest.(check bool) "certificate recovered" true (cert <> None);
      (* deterministic manifests: a second timed-out sweep is byte-identical *)
      with_store (fun st2 ->
          let _, ra =
            Sweep.certify ~store:st2 ~resume:true ~pi_timeout:1e-9 ya ~n:3 ~perms ()
          in
          Alcotest.(check string) "manifest reproducible" quarantined_manifest
            (read_file ra.Sweep.manifest_path));
      (* without ~resume the timeout propagates fail-fast *)
      with_store (fun st3 ->
          match Sweep.sweep ~store:st3 ~pi_timeout:1e-9 ya ~n:3 ~perms () with
          | _ -> Alcotest.fail "expected Pi_timeout"
          | exception Sweep.Pi_timeout { limit; _ } ->
            Alcotest.(check (float 0.0)) "limit carried" 1e-9 limit);
      (* a non-positive budget is a usage error *)
      match Sweep.sweep ~store:st ~pi_timeout:0.0 ya ~n:3 ~perms () with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_sweep_events_json () =
  with_store (fun st ->
      let events = Buffer.create 256 in
      let on_event ev =
        Buffer.add_string events (Sweep.event_to_json ev);
        Buffer.add_char events '\n'
      in
      let _, _ = Sweep.certify ~store:st ~on_event ya ~n:3 ~perms:(perms_of 3) ~exhaustive:true () in
      let lines =
        String.split_on_char '\n' (Buffer.contents events)
        |> List.filter (fun l -> l <> "")
      in
      (* start + 6 items + final checkpoint + finished, every line a JSON object *)
      Alcotest.(check bool) "enough events" true (List.length lines >= 8);
      List.iter
        (fun l ->
          Alcotest.(check bool) ("object: " ^ l) true
            (String.length l >= 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines;
      Alcotest.(check bool) "has start" true
        (Astring_contains.contains (List.hd lines) "\"start\"");
      Alcotest.(check bool) "has finished" true
        (Astring_contains.contains
           (List.nth lines (List.length lines - 1))
           "\"finished\""))

(* checkpoint_every is a real parameter: the cadence of Checkpoint
   events tracks it exactly (jobs=1 makes the event order deterministic) *)
let test_sweep_checkpoint_every () =
  with_store (fun st ->
      let cps = ref 0 in
      let on_event = function Sweep.Checkpoint _ -> incr cps | _ -> () in
      let _ =
        Sweep.sweep ~store:st ~jobs:1 ~checkpoint_every:1 ~on_event ya ~n:3
          ~perms:(perms_of 3) ()
      in
      Alcotest.(check int) "one checkpoint per completion" 6 !cps;
      with_store (fun st2 ->
          let cps2 = ref 0 in
          let on_event = function Sweep.Checkpoint _ -> incr cps2 | _ -> () in
          let _ =
            Sweep.sweep ~store:st2 ~jobs:1 ~checkpoint_every:1000 ~on_event ya
              ~n:3 ~perms:(perms_of 3) ()
          in
          Alcotest.(check int) "wide interval: only the final checkpoint" 1
            !cps2);
      match
        Sweep.sweep ~store:st ~checkpoint_every:0 ya ~n:3 ~perms:(perms_of 3) ()
      with
      | _ -> Alcotest.fail "checkpoint_every = 0 accepted"
      | exception Invalid_argument _ -> ())

(* a quarantined failure reaches the on-disk manifest the moment it is
   recorded, even when the periodic checkpoint interval is far wider than
   the family (a resumed run still recomputes it: failures are never
   cached). The Checkpoint event fires before the failure's own Item
   event, so by the time we observe the failure the on-disk manifest must
   already carry it. *)
let test_sweep_failure_checkpoint_eager () =
  with_store (fun st ->
      let mpath = ref None in
      let failed_so_far = ref 0 in
      let on_event = function
        | Sweep.Checkpoint { manifest; _ } -> mpath := Some manifest
        | Sweep.Item { outcome = Sweep.Failed _; _ } -> (
          incr failed_so_far;
          match !mpath with
          | None -> Alcotest.fail "failure completed without a checkpoint"
          | Some path -> (
            match Manifest.load ~path with
            | Ok m ->
              let _, failed, _ = Manifest.counts m in
              Alcotest.(check int) "manifest already records the failure"
                !failed_so_far failed
            | Error e -> Alcotest.fail ("manifest: " ^ e)))
        | _ -> ()
      in
      let _, r =
        Sweep.certify ~store:st ~resume:true ~jobs:1 ~checkpoint_every:1000
          ~on_event broken ~n:3 ~perms:(perms_of 3) ()
      in
      Alcotest.(check bool) "some failures to exercise the path" true
        (r.Sweep.progress.Sweep.p_failed > 0))

let test_sweep_rejects_bad_input () =
  with_store (fun st ->
      (match Sweep.sweep ~store:st ya ~n:3 ~perms:[] () with
      | _ -> Alcotest.fail "empty family accepted"
      | exception Invalid_argument _ -> ());
      (match Sweep.sweep ~store:st Lb_algos.Rmw_locks.test_and_set ~n:2 ~perms:(perms_of 2) () with
      | _ -> Alcotest.fail "rmw algorithm accepted"
      | exception Invalid_argument _ -> ());
      (* refused, not quarantined unit by unit *)
      (match
         Sweep.sweep ~store:st ~resume:true Lb_algos.Peterson2.algorithm ~n:3
           ~perms:(perms_of 3) ()
       with
      | _ -> Alcotest.fail "unsupported n accepted"
      | exception Invalid_argument _ -> ());
      Alcotest.(check (list string)) "no manifest written" []
        (Store.manifest_paths st))

(* ------------------------- experiments plumbing ---------------------- *)

let test_exp_common_store () =
  with_store (fun st ->
      Fun.protect
        ~finally:(fun () -> Lb_exp.Exp_common.set_store None)
        (fun () ->
          Lb_exp.Exp_common.set_store (Some st);
          let perms = perms_of 3 in
          let direct = Lb_core.Pipeline.certify ya ~n:3 ~perms ~exhaustive:true () in
          let c1 = Lb_exp.Exp_common.certify_sweep ya ~n:3 ~perms ~exhaustive:true in
          let c2 = Lb_exp.Exp_common.certify_sweep ya ~n:3 ~perms ~exhaustive:true in
          let s c = Format.asprintf "%a" Lb_core.Bounds.pp_certificate c in
          Alcotest.(check string) "stored = direct" (s direct) (s c1);
          Alcotest.(check string) "warm = direct" (s direct) (s c2);
          Alcotest.(check int) "entries persisted" 6 (Store.stat st).Store.s_entries;
          let rs = Lb_exp.Exp_common.records_for ya ~n:3 perms in
          Alcotest.(check int) "records in family order" 6 (List.length rs);
          List.iter2
            (fun (r : Lb_core.Pipeline.record) pi ->
              Alcotest.(check string) "record pi"
                (Lb_core.Permutation.to_string pi)
                (Lb_core.Permutation.to_string r.Lb_core.Pipeline.r_pi))
            rs perms))

let suite =
  [
    Alcotest.test_case "key stability" `Quick test_key_stability;
    Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
    Alcotest.test_case "entry roundtrip" `Quick test_entry_roundtrip;
    Alcotest.test_case "fold + stat" `Quick test_fold_and_stat;
    Alcotest.test_case "corruption: truncated" `Quick test_corruption_truncated;
    Alcotest.test_case "corruption: flipped bit" `Quick test_corruption_flipped_bit;
    Alcotest.test_case "corruption: stale version" `Quick test_corruption_stale_version;
    Alcotest.test_case "corruption: garbage hex" `Quick test_corruption_garbage_hex;
    Alcotest.test_case "corruption: wrong key" `Quick test_corruption_wrong_key;
    Alcotest.test_case "corruption: every byte of an entry" `Quick
      test_corruption_every_byte;
    Alcotest.test_case "corruption: every byte of spill manifests" `Quick
      test_corruption_spill_manifests;
    Alcotest.test_case "manifest roundtrip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "sweep cold/warm" `Quick test_sweep_cold_warm;
    Alcotest.test_case "sweep interrupted + resumed" `Slow test_sweep_interrupted_resume;
    Alcotest.test_case "sweep recomputes damage" `Quick test_sweep_recomputes_damage;
    Alcotest.test_case "sweep quarantine" `Quick test_sweep_quarantine;
    Alcotest.test_case "sweep pi timeout" `Quick test_sweep_pi_timeout;
    Alcotest.test_case "sweep events json" `Quick test_sweep_events_json;
    Alcotest.test_case "sweep checkpoint cadence" `Quick
      test_sweep_checkpoint_every;
    Alcotest.test_case "sweep failure checkpoints eagerly" `Quick
      test_sweep_failure_checkpoint_eager;
    Alcotest.test_case "sweep rejects bad input" `Quick test_sweep_rejects_bad_input;
    Alcotest.test_case "exp_common store plumbing" `Quick test_exp_common_store;
  ]
