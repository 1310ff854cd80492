(* End-to-end tests of the mutexlb binary itself: every subcommand runs,
   exit codes carry the verdicts, and the save/decode round trip works
   through real files. The binary is a declared dune dependency, available
   relative to the test's working directory (_build/default/test). *)

let exe = "../bin/mutexlb.exe"

let run_cmd args =
  let out = Filename.temp_file "mutexlb_cli" ".out" in
  let status =
    Sys.command (Printf.sprintf "%s %s > %s 2>&1" exe args (Filename.quote out))
  in
  let content = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (status, content)

let check_runs label args expect =
  let status, content = run_cmd args in
  Alcotest.(check int) (label ^ " exit code") expect status;
  (status, content)

let with_temp_dir f =
  let dir = Filename.temp_file "mutexlb_cli_store" "" in
  Sys.remove dir;
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_list () =
  let _, out = check_runs "list" "list" 0 in
  Alcotest.(check bool) "mentions ya" true
    (Astring_contains.contains out "yang_anderson");
  Alcotest.(check bool) "mentions broken" true
    (Astring_contains.contains out "broken_spinlock")

let test_run () =
  let _, out = check_runs "run" "run -a bakery -n 3 -s rr" 0 in
  Alcotest.(check bool) "has costs" true (Astring_contains.contains out "sc=")

let test_check_verified () =
  ignore (check_runs "check ok" "check -a peterson2 -n 2" 0)

let test_check_broken () =
  let _, out = check_runs "check broken" "check -a broken_spinlock -n 2" 1 in
  Alcotest.(check bool) "witness shown" true
    (Astring_contains.contains out "MUTEX VIOLATION")

let test_check_flat_ya () =
  let _, out = check_runs "check flat ya" "check -a yang_anderson_flat -n 3" 1 in
  Alcotest.(check bool) "deadlock found" true
    (Astring_contains.contains out "DEADLOCK")

let test_pipeline_and_decode () =
  let bits = Filename.temp_file "mutexlb_cli" ".bits" in
  Fun.protect
    ~finally:(fun () -> Sys.remove bits)
    (fun () ->
      let _, out =
        check_runs "pipeline"
          (Printf.sprintf "pipeline -a yang_anderson -n 4 -p 2,0,3,1 --save %s" bits)
          0
      in
      Alcotest.(check bool) "checks passed" true
        (Astring_contains.contains out "all passed");
      let _, out = check_runs "decode" (Printf.sprintf "decode %s" bits) 0 in
      Alcotest.(check bool) "same enter order" true
        (Astring_contains.contains out "2 0 3 1"))

(* A damaged bits file is a usage error (exit 2) with a one-line
   diagnostic, never an uncaught exception: a flipped tag bit, a header
   n the payload does not have, and header algorithms the pipeline
   refuses at n=3. *)
let test_decode_rejects_damaged () =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let good = Filename.concat dir "good.bits" in
      ignore
        (check_runs "pipeline"
           (Printf.sprintf "pipeline -a bakery -n 3 -p 2,0,1 --save %s" good)
           0);
      let lines =
        String.split_on_char '\n' (In_channel.with_open_text good In_channel.input_all)
      in
      let replace a b line = if line = a then b else line in
      (* flip bit 1 of the payload, which turns p0's first tag into the
         unused tag 7 *)
      let flip_tag line =
        match String.split_on_char ' ' line with
        | [ "bits"; count; hex ] ->
          Printf.sprintf "bits %s %x%s" count
            (int_of_string ("0x" ^ String.sub hex 0 1) lxor 4)
            (String.sub hex 1 (String.length hex - 1))
        | _ -> line
      in
      List.iter
        (fun (name, edit, mentions) ->
          let path = Filename.concat dir name in
          Out_channel.with_open_text path (fun oc ->
              output_string oc (String.concat "\n" (List.map edit lines)));
          let status, out = run_cmd (Printf.sprintf "decode %s" path) in
          Alcotest.(check int) (name ^ " exit code") 2 status;
          Alcotest.(check bool) (name ^ " names " ^ mentions) true
            (Astring_contains.contains out mentions);
          Alcotest.(check int) (name ^ " one line") 1
            (List.length
               (List.filter (( <> ) "") (String.split_on_char '\n' out))))
        [
          ("tag.bits", flip_tag, "tag.bits: bits do not decode: Encode.parse: bad tag 7");
          ("n9.bits", replace "n 3" "n 9", "n9.bits: bits do not decode");
          ("peterson2.bits", replace "algo bakery" "algo peterson2",
           "does not support n=3");
          ("tas.bits", replace "algo bakery" "algo tas", "Uses_rmw");
        ])

let test_construct_dot () =
  let dot = Filename.temp_file "mutexlb_cli" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove dot)
    (fun () ->
      ignore
        (check_runs "construct"
           (Printf.sprintf "construct -a bakery -n 3 -p 1,2,0 --dot %s" dot)
           0);
      let content = In_channel.with_open_text dot In_channel.input_all in
      Alcotest.(check bool) "dot file" true
        (Astring_contains.contains content "digraph"))

let test_certify () =
  let _, out = check_runs "certify" "certify -a yang_anderson -n 4 --perms 24" 0 in
  Alcotest.(check bool) "distinct" true
    (Astring_contains.contains out "distinct decodes: true")

let test_certify_zero_perms () =
  let status, out = run_cmd "certify -a yang_anderson -n 4 --perms 0" in
  Alcotest.(check int) "exit 2" 2 status;
  Alcotest.(check bool) "clean error, not a crash" true
    (Astring_contains.contains out "--perms must be >= 1")

let test_certify_jobs_identical () =
  (* the parallel sweep must emit byte-identical certificates *)
  let _, seq = check_runs "certify jobs=1"
      "certify -a yang_anderson -n 6 --seed 7 --perms 24 --jobs 1" 0
  in
  let _, par = check_runs "certify jobs=4"
      "certify -a yang_anderson -n 6 --seed 7 --perms 24 --jobs 4" 0
  in
  Alcotest.(check string) "identical output" seq par

let test_bad_jobs () =
  let status, out = run_cmd "certify -a yang_anderson -n 4 --perms 6 --jobs 0" in
  Alcotest.(check int) "exit 2" 2 status;
  Alcotest.(check bool) "clean error" true
    (Astring_contains.contains out "--jobs must be >= 1")

let test_check_multi_algo () =
  let _, out = check_runs "check multi" "check -a peterson2,tas -n 2 --jobs 2" 0 in
  Alcotest.(check bool) "peterson2 row" true (Astring_contains.contains out "peterson2");
  Alcotest.(check bool) "tas row" true (Astring_contains.contains out "tas");
  (* a violation anywhere in the sweep drives the exit code *)
  let status, out = run_cmd "check -a peterson2,broken_spinlock -n 2 --jobs 2" in
  Alcotest.(check int) "violation exit" 1 status;
  Alcotest.(check bool) "witness shown" true
    (Astring_contains.contains out "MUTEX VIOLATION")

let test_workload () =
  let _, out =
    check_runs "workload" "workload -a ticket -n 4 --pattern staggered:50" 0
  in
  Alcotest.(check bool) "per-section" true
    (Astring_contains.contains out "per section")

let test_adversary () =
  let _, out = check_runs "adversary" "adversary -a bakery -n 4 --tries 4" 0 in
  Alcotest.(check bool) "best" true (Astring_contains.contains out "adversary best")

let test_experiments_only () =
  let _, out = check_runs "experiments" "experiments --only E12" 0 in
  Alcotest.(check bool) "table" true (Astring_contains.contains out "Burns-Lynch")

(* E5 depends on the seed, so a flagless run only matches the tables in
   EXPERIMENTS.md if the verb defaults to the seed they were made with. *)
let test_experiments_default_seed () =
  let _, flagless = check_runs "experiments E5" "experiments --only E5" 0 in
  let _, cited =
    check_runs "experiments E5 --seed" "experiments --only E5 --seed 20060723" 0
  in
  Alcotest.(check string) "defaults to the EXPERIMENTS.md seed" cited flagless

let test_unknown_algo () =
  let status, _ = run_cmd "run -a nonsense -n 2" in
  Alcotest.(check int) "exit 2" 2 status;
  (* an n outside the algorithm's range is a usage error too, refused
     before any store is opened *)
  with_temp_dir (fun dir ->
      List.iter
        (fun verb ->
          let status, out = run_cmd (verb ^ " -a peterson2 -n 3") in
          Alcotest.(check int) (verb ^ ": exit 2") 2 status;
          Alcotest.(check bool) (verb ^ ": names n") true
            (Astring_contains.contains out
               "algorithm \"peterson2\" does not support n=3"))
        [
          "run"; "construct"; "pipeline"; "certify"; "workload"; "adversary";
          "certify --store " ^ dir; "work --store " ^ dir;
        ];
      Alcotest.(check bool) "work left no claims" false
        (Sys.file_exists (Filename.concat dir "claims")))

let test_bad_perm () =
  let status, _ = run_cmd "pipeline -a bakery -n 3 -p 0,1" in
  Alcotest.(check int) "exit 2" 2 status;
  (* a repeated index or a non-number is a usage error, not a crash *)
  List.iter
    (fun args ->
      let status, out = run_cmd args in
      Alcotest.(check int) (args ^ ": exit 2") 2 status;
      Alcotest.(check bool) (args ^ ": names the permutation") true
        (Astring_contains.contains out "bad permutation"))
    [
      "construct -a bakery -n 3 -p 0,1,1";
      "pipeline -a bakery -n 3 -p 0,1,1";
      "construct -a bakery -n 3 -p a,b,c";
      "pipeline -a bakery -n 3 -p a,b,c";
    ]

(* A count below 1 would certify nothing (--rounds 0 explores a space
   with no critical sections and reports it verified) or crash on an
   Invalid_argument: each is a one-line usage error instead. *)
let test_numeric_usage_errors () =
  List.iter
    (fun (args, flag) ->
      let status, out = run_cmd args in
      Alcotest.(check int) (args ^ ": exit 2") 2 status;
      Alcotest.(check bool) (args ^ ": names the flag") true
        (Astring_contains.contains out (flag ^ " must be >= 1"));
      Alcotest.(check int) (args ^ ": one line") 1
        (List.length (String.split_on_char '\n' (String.trim out))))
    [
      ("check -a broken_spinlock -n 2 --rounds 0 --json", "--rounds");
      ("check -a peterson2 -n 2 --max-states 0", "--max-states");
      ("adversary -a bakery -n 4 --tries 0", "--tries");
    ]

let test_lint_registry_clean () =
  let _, out = check_runs "lint" "lint --sizes 2,3 -j 2" 0 in
  Alcotest.(check bool) "clean" true (Astring_contains.contains out "lint: clean");
  Alcotest.(check bool) "expected findings marked" true
    (Astring_contains.contains out "[expected]")

let test_lint_no_allowlist_fails () =
  let status, out =
    run_cmd "lint -a broken_spinlock --sizes 2 --no-allowlist -v"
  in
  Alcotest.(check int) "exit 1" 1 status;
  Alcotest.(check bool) "racy rule" true
    (Astring_contains.contains out "register-discipline/racy-test-then-set");
  Alcotest.(check bool) "witness printed" true
    (Astring_contains.contains out "witness p")

let test_lint_json () =
  let _, out = check_runs "lint json" "lint -a peterson2 --sizes 2 --json" 0 in
  Alcotest.(check bool) "json clean" true
    (Astring_contains.contains out "\"clean\":true")

let test_lint_usage_errors () =
  let status, _ = run_cmd "lint -a nonsense" in
  Alcotest.(check int) "unknown algo exit 2" 2 status;
  let status, _ = run_cmd "lint --sizes banana" in
  Alcotest.(check int) "bad sizes exit 2" 2 status;
  let status, _ = run_cmd "lint --max-nodes 0" in
  Alcotest.(check int) "bad max-nodes exit 2" 2 status

let test_lint_rules_subset () =
  (* only the register-discipline family: broken_spinlock still fails
     through it, while a kind-honesty-only run has nothing to say *)
  let status, out =
    run_cmd
      "lint -a broken_spinlock --sizes 2 --no-allowlist --rules \
       register-discipline"
  in
  Alcotest.(check int) "discipline subset exit 1" 1 status;
  Alcotest.(check bool) "racy rule found" true
    (Astring_contains.contains out "racy-test-then-set");
  ignore
    (check_runs "honesty subset"
       "lint -a broken_spinlock --sizes 2 --no-allowlist --rules kind-honesty"
       0)

let test_lint_rules_unknown () =
  let status, out = run_cmd "lint --rules register-discipline,wibble" in
  Alcotest.(check int) "unknown rule exit 2" 2 status;
  Alcotest.(check bool) "offender named" true
    (Astring_contains.contains out "wibble");
  Alcotest.(check bool) "valid families listed" true
    (Astring_contains.contains out "repr-soundness")

let test_format_versions () =
  let _, lint = check_runs "lint fv" "lint -a peterson2 --sizes 2 --json" 0 in
  Alcotest.(check bool) "lint format_version" true
    (Astring_contains.contains lint "\"format_version\":1");
  let _, chaos = check_runs "chaos fv" "chaos --json" 0 in
  Alcotest.(check bool) "chaos format_version" true
    (Astring_contains.contains chaos "\"format_version\": 1")

let test_list_json () =
  let _, out = check_runs "list --json" "list --json" 0 in
  Alcotest.(check bool) "array" true (String.length out > 0 && out.[0] = '[');
  Alcotest.(check bool) "ya entry" true
    (Astring_contains.contains out "\"name\": \"yang_anderson\"");
  Alcotest.(check bool) "rmw flag" true
    (Astring_contains.contains out "\"rmw\": true");
  Alcotest.(check bool) "register count" true
    (Astring_contains.contains out "\"register_count\"");
  Alcotest.(check bool) "faulty flag" true
    (Astring_contains.contains out "\"faulty\": true");
  Alcotest.(check bool) "expected findings" true
    (Astring_contains.contains out
       "\"expected_findings\": [\"register-discipline/racy-test-then-set\"]");
  Alcotest.(check bool) "expected survivors" true
    (Astring_contains.contains out "\"expected_survivors\"")

(* The mutation harness end to end: a restricted clean campaign exits 0,
   --no-allowlist resurfaces the triaged survivors as failures, the JSON
   report is byte-identical at any job count, and flag abuse exits 2. *)
let test_mutate_smoke () =
  let _, out =
    check_runs "mutate clean"
      "mutate -a peterson2 --sizes 2 --ops guard_flip,drop_write,domain_shrink"
      0
  in
  Alcotest.(check bool) "score line" true
    (Astring_contains.contains out "mutation score");
  Alcotest.(check bool) "a lint kill names its rule" true
    (Astring_contains.contains out
       "killed @ lint: register-discipline/domain-violation")

let test_mutate_no_allowlist () =
  let status, out =
    run_cmd "mutate -a dekker --sizes 2 --ops dup_write --no-allowlist"
  in
  Alcotest.(check int) "untriaged survivor exit 1" 1 status;
  Alcotest.(check bool) "survivor marked" true
    (Astring_contains.contains out "SURVIVED (UNTRIAGED)");
  (* with the registry allowlist the same campaign is clean *)
  let _, out = check_runs "triaged" "mutate -a dekker --sizes 2 --ops dup_write" 0 in
  Alcotest.(check bool) "triage reason shown" true
    (Astring_contains.contains out "survived (triaged:")

let test_mutate_jobs_identical () =
  let args = "mutate -a peterson2,tas --sizes 2 --json" in
  let _, seq = check_runs "mutate seq" (args ^ " --jobs 1") 0 in
  let _, par = check_runs "mutate par" (args ^ " --jobs 4") 0 in
  Alcotest.(check string) "byte-identical reports" seq par;
  Alcotest.(check bool) "format_version" true
    (Astring_contains.contains seq "\"format_version\": 1")

let test_mutate_usage_errors () =
  let status, out = run_cmd "mutate --ops wibble" in
  Alcotest.(check int) "unknown op exit 2" 2 status;
  Alcotest.(check bool) "valid ops listed" true
    (Astring_contains.contains out "guard_flip");
  let status, _ = run_cmd "mutate -a nonsense" in
  Alcotest.(check int) "unknown algo exit 2" 2 status;
  let status, _ = run_cmd "mutate --sizes 0" in
  Alcotest.(check int) "bad sizes exit 2" 2 status;
  let status, _ = run_cmd "mutate --rounds 0" in
  Alcotest.(check int) "bad rounds exit 2" 2 status

(* Satellite regression: --perms K with K > n! claimed K distinct
   permutations when only n! exist; it must clamp with a warning and go
   exhaustive *)
let test_certify_perms_clamp () =
  let _, out =
    check_runs "certify clamp" "certify -a yang_anderson -n 3 --perms 24" 0
  in
  Alcotest.(check bool) "warns" true
    (Astring_contains.contains out "exceeds n! = 6");
  Alcotest.(check bool) "goes exhaustive" true
    (Astring_contains.contains out "(6 perms, exhaustive)")

(* work clamps like certify, and its warning names work *)
let test_work_perms_clamp () =
  with_temp_dir (fun dir ->
      let _, out =
        check_runs "work clamp"
          (Printf.sprintf "work -a yang_anderson -n 3 --perms 10 --store %s" dir)
          0
      in
      Alcotest.(check bool) "warns as work" true
        (Astring_contains.contains out
           "work: --perms 10 exceeds n! = 6 at n=3; clamping to the full family");
      Alcotest.(check bool) "not as certify" false
        (Astring_contains.contains out "certify:"))

(* check takes the job grammar's algorithm lists: all and correct *)
let test_check_registry_lists () =
  let status, out = run_cmd "check -a all -n 2 --json" in
  Alcotest.(check int) "all: the faulty controls fail" 1 status;
  List.iter
    (fun name ->
      Alcotest.(check bool) ("all: row " ^ name) true
        (Astring_contains.contains out (Printf.sprintf "{\"algo\": \"%s\"" name)))
    [ "yang_anderson"; "broken_spinlock"; "clh" ];
  let _, out = check_runs "check correct" "check -a correct -n 2 --json" 0 in
  Alcotest.(check bool) "correct: no faulty control" false
    (Astring_contains.contains out "broken_spinlock")

let test_certify_store_warm () =
  with_temp_dir (fun dir ->
      let args =
        Printf.sprintf "certify -a yang_anderson -n 4 --perms 24 --store %s" dir
      in
      let _, cold = check_runs "certify cold" args 0 in
      Alcotest.(check bool) "cold computes" true
        (Astring_contains.contains cold "24 computed");
      let _, warm = check_runs "certify warm" args 0 in
      Alcotest.(check bool) "warm is all hits" true
        (Astring_contains.contains warm "24 hits, 0 computed, 0 failed (100.0% hits)");
      (* same certificate body, modulo the hit-rate lines *)
      let cert_of out =
        List.filter
          (fun l -> not (Astring_contains.contains l "store"
                         || Astring_contains.contains l "certify:"
                         || Astring_contains.contains l "manifest"))
          (String.split_on_char '\n' out)
      in
      Alcotest.(check (list string)) "certificate identical" (cert_of cold)
        (cert_of warm);
      (* store maintenance commands over the populated store *)
      let _, out = check_runs "store stat" (Printf.sprintf "store stat %s" dir) 0 in
      Alcotest.(check bool) "stat counts" true
        (Astring_contains.contains out "entries        24");
      let _, out = check_runs "store verify" (Printf.sprintf "store verify %s" dir) 0 in
      Alcotest.(check bool) "verify ok" true
        (Astring_contains.contains out "24 entries ok, 0 damaged");
      let _, out = check_runs "store gc" (Printf.sprintf "store gc %s --dry-run" dir) 0 in
      Alcotest.(check bool) "gc keeps" true
        (Astring_contains.contains out "24 kept, 0 would be dropped");
      (* corrupt one object: verify exits 1 and names the file; a fresh
         certify run transparently recomputes it *)
      let objects = Filename.concat dir "objects" in
      let shard = Filename.concat objects (Sys.readdir objects).(0) in
      let victim = Filename.concat shard (Sys.readdir shard).(0) in
      Out_channel.with_open_bin victim (fun oc ->
          Out_channel.output_string oc "mutexlb-store-entry 1\ngarbage");
      let status, out = run_cmd (Printf.sprintf "store verify %s" dir) in
      Alcotest.(check int) "verify fails" 1 status;
      Alcotest.(check bool) "damage reported" true
        (Astring_contains.contains out "1 damaged");
      let _, out = check_runs "certify heals" args 0 in
      Alcotest.(check bool) "one recompute" true
        (Astring_contains.contains out "23 hits, 1 computed");
      ignore (check_runs "verify healed" (Printf.sprintf "store verify %s" dir) 0))

(* Stored fingerprints are a function of the bits alone: randomising the
   stdlib's hash tables (OCAMLRUNPARAM=R) must not change a single byte
   of the store's objects. *)
let test_certify_store_hash_seed () =
  with_temp_dir (fun plain ->
      with_temp_dir (fun seeded ->
          let certify env dir =
            Printf.sprintf
              "env OCAMLRUNPARAM=%s %s certify -a yang_anderson -n 16 --perms 8 \
               --store %s > /dev/null 2>&1"
              env exe (Filename.quote dir)
          in
          Alcotest.(check int) "plain run" 0 (Sys.command (certify "b" plain));
          Alcotest.(check int) "randomised run" 0
            (Sys.command (certify "b,R" seeded));
          Alcotest.(check int) "diff -r objects/ is empty" 0
            (Sys.command
               (Printf.sprintf "diff -r %s %s > /dev/null"
                  (Filename.quote (Filename.concat plain "objects"))
                  (Filename.quote (Filename.concat seeded "objects"))))))

let test_certify_store_events () =
  with_temp_dir (fun dir ->
      let log = Filename.temp_file "mutexlb_cli" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove log)
        (fun () ->
          ignore
            (check_runs "certify events"
               (Printf.sprintf
                  "certify -a yang_anderson -n 3 --perms 6 --store %s --events %s"
                  dir log)
               0);
          let content = In_channel.with_open_text log In_channel.input_all in
          Alcotest.(check bool) "start event" true
            (Astring_contains.contains content "\"start\"");
          Alcotest.(check bool) "finished event" true
            (Astring_contains.contains content "\"finished\"")))

let test_store_flags_require_store () =
  let status, out = run_cmd "certify -a yang_anderson -n 3 --perms 6 --resume" in
  Alcotest.(check int) "resume exit 2" 2 status;
  Alcotest.(check bool) "clean error" true
    (Astring_contains.contains out "add --store DIR");
  let status, _ = run_cmd "certify -a yang_anderson -n 3 --perms 6 --save-traces" in
  Alcotest.(check int) "save-traces exit 2" 2 status;
  let status, _ = run_cmd "experiments --only E12 --resume" in
  Alcotest.(check int) "experiments resume exit 2" 2 status

let test_certify_store_quarantine () =
  with_temp_dir (fun dir ->
      (* without --resume the first pipeline failure is fatal (nonzero),
         with it the sweep completes and exits 1 with a digest *)
      let status, out =
        run_cmd
          (Printf.sprintf
             "certify -a broken_spinlock -n 3 --perms 6 --store %s --resume" dir)
      in
      Alcotest.(check int) "quarantine exit 1" 1 status;
      Alcotest.(check bool) "digest" true
        (Astring_contains.contains out "failure digest");
      (* quarantine reasons carry the typed Check_failed stage prefix *)
      Alcotest.(check bool) "reason shown" true
        (Astring_contains.contains out "decoded: mutual exclusion"))

let test_experiments_store () =
  with_temp_dir (fun dir ->
      (* E2 at its test sizes routes its sweeps through the store; a
         second run must produce the identical table from cache *)
      let args = Printf.sprintf "experiments --only E2 --store %s" dir in
      let _, cold = check_runs "experiments cold" args 0 in
      let _, warm = check_runs "experiments warm" args 0 in
      Alcotest.(check string) "tables identical" cold warm;
      let _, out = check_runs "store populated" (Printf.sprintf "store stat %s" dir) 0 in
      Alcotest.(check bool) "has entries" true
        (not (Astring_contains.contains out "entries        0 ")))

let test_store_gc_lease () =
  with_temp_dir (fun dir ->
      ignore
        (check_runs "populate"
           (Printf.sprintf "certify -a yang_anderson -n 3 --store %s" dir)
           0);
      (* plant a live lease — this test runner's own pid, so not stale *)
      let locks = Filename.concat dir "locks" in
      (try Unix.mkdir locks 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let lease = Filename.concat locks "writer.2.claim" in
      Out_channel.with_open_bin lease (fun oc ->
          Out_channel.output_string oc
            (Printf.sprintf
               "pid %d\nhost %s\npurpose sweep\nsince %.3f\ntoken t\n"
               (Unix.getpid ()) (Unix.gethostname ()) (Unix.gettimeofday ())));
      let status, out = run_cmd (Printf.sprintf "store gc %s" dir) in
      Alcotest.(check int) "gc refused" 1 status;
      Alcotest.(check bool) "named refusal" true
        (Astring_contains.contains out "refused");
      Alcotest.(check bool) "suggests the overrides" true
        (Astring_contains.contains out "--force");
      let _, out =
        check_runs "gc --force" (Printf.sprintf "store gc %s --force" dir) 0
      in
      Alcotest.(check bool) "force collects" true
        (Astring_contains.contains out "6 kept");
      Sys.remove lease)

let test_certify_connect_usage () =
  with_temp_dir (fun dir ->
      let status, out =
        run_cmd
          (Printf.sprintf
             "certify -a yang_anderson -n 3 --connect 1 --store %s" dir)
      in
      Alcotest.(check int) "exclusive flags" 2 status;
      Alcotest.(check bool) "says exclusive" true
        (Astring_contains.contains out "exclusive"));
  (* nothing listens on port 1: unreachable server is exit 3 *)
  let status, out = run_cmd "certify -a yang_anderson -n 3 --connect 1" in
  Alcotest.(check int) "unreachable" 3 status;
  Alcotest.(check bool) "names the server" true
    (Astring_contains.contains out "cannot reach")

(* the pipeline-family subcommands refuse RMW algorithms up front with a
   usage error; run/check still accept them *)
let test_rmw_gate () =
  let status, out = run_cmd "pipeline -a tas -n 2" in
  Alcotest.(check int) "pipeline refuses" 2 status;
  Alcotest.(check bool) "names the rule" true
    (Astring_contains.contains out "kind-honesty/undeclared-rmw");
  let status, _ = run_cmd "construct -a ticket -n 3" in
  Alcotest.(check int) "construct refuses" 2 status;
  let status, _ = run_cmd "certify -a mcs -n 3 --perms 2" in
  Alcotest.(check int) "certify refuses" 2 status;
  ignore (check_runs "run still accepts rmw" "run -a tas -n 2" 0)

(* An object file grown past the 64 MiB read cap (sparse) is damage
   like any other: lookup reports it, store verify exits 1 naming the
   file, and gc condemns it. *)
let test_store_oversized_object () =
  with_temp_dir (fun dir ->
      ignore
        (check_runs "certify"
           (Printf.sprintf "certify -a yang_anderson -n 3 --perms 2 --store %s"
              dir)
           0);
      let objects = Filename.concat dir "objects" in
      let shard = Filename.concat objects (Sys.readdir objects).(0) in
      let key = (Sys.readdir shard).(0) in
      let victim = Filename.concat shard key in
      Unix.truncate victim (65 * 1024 * 1024);
      (match Lb_store.Store.lookup (Lb_store.Store.open_ ~dir) ~key with
      | `Damaged _ -> ()
      | `Hit _ | `Absent -> Alcotest.fail "oversized object not damaged");
      let status, out = run_cmd (Printf.sprintf "store verify %s" dir) in
      Alcotest.(check int) "verify exits 1" 1 status;
      Alcotest.(check bool) "verify names the file" true
        (Astring_contains.contains out victim);
      let _, out = check_runs "gc" (Printf.sprintf "store gc %s" dir) 0 in
      Alcotest.(check bool) "gc condemns it" true
        (Astring_contains.contains out ("drop " ^ key)))

(* A spill directory that cannot be resumed is a usage error naming it,
   not an internal error: an interrupted check's directory with a byte
   appended to its manifest, or with a key run emptied. *)
let test_check_resume_damaged () =
  List.iter
    (fun (label, file, damage, mentions) ->
      with_temp_dir (fun dir ->
          let check = "check -a yang_anderson -n 3 --spill-dir " ^ dir in
          ignore
            (check_runs (label ^ ": interrupted") (check ^ " --deadline 0.1") 3);
          let sub = Filename.concat dir "yang_anderson_n3_r1" in
          Out_channel.with_open_gen [ Open_wronly; Open_append ] 0o644
            (Filename.concat sub file) damage;
          let status, out = run_cmd (check ^ " --resume") in
          Alcotest.(check int) (label ^ ": exit 2") 2 status;
          Alcotest.(check int) (label ^ ": one line") 1
            (List.length (String.split_on_char '\n' (String.trim out)));
          List.iter
            (fun m ->
              Alcotest.(check bool) (label ^ ": names " ^ m) true
                (Astring_contains.contains out m))
            ("check: " :: sub :: mentions)))
    [
      ("bad manifest", "check.manifest", (fun oc -> output_string oc "x"),
       [ "truncated" ]);
      ("emptied key run", "layer_000002.keys",
       (fun oc -> Unix.ftruncate (Unix.descr_of_out_channel oc) 0),
       [ "layer_000002.keys" ]);
    ]

(* Unusable paths and malformed values are usage errors: exit 2 with
   one stderr line naming the verb and the path or value. The store
   maintenance verbs refuse a missing directory instead of creating an
   empty store there. Each case takes a temporary directory holding one
   regular file, [f], and returns the arguments and the words the
   diagnostic must name. *)
let usage_error_cases =
  let f d = Filename.concat d "f" and missing d = Filename.concat d "missing" in
  let sp = Printf.sprintf in
  let pattern p = (sp "workload --pattern %s" p, [ "workload"; p ]) in
  [
    ("store verify on a file", fun d -> (sp "store verify %s" (f d), [ "store verify"; f d ]));
    ("store gc on a file", fun d -> (sp "store gc %s" (f d), [ "store gc"; f d ]));
    ( "certify --store on a file",
      fun d -> (sp "certify -n 3 --perms 2 --store %s" (f d), [ "certify"; f d ]) );
    ( "serve --store on a file",
      fun d -> (sp "serve --port 0 --store %s" (f d), [ "serve"; f d ]) );
    ( "check --spill-dir on a file",
      fun d -> (sp "check -a peterson2 -n 2 --spill-dir %s" (f d), [ "check"; f d ]) );
    ( "run --save into a missing dir",
      fun d -> (sp "run --save %s/x" (missing d), [ "run"; missing d ^ "/x" ]) );
    ( "pipeline --save into a missing dir",
      fun d ->
        (sp "pipeline -n 3 --save %s/d/x" (missing d), [ "pipeline"; missing d ^ "/d/x" ]) );
    ( "construct --dot into a missing dir",
      fun d -> (sp "construct -n 3 --dot %s/x" (missing d), [ "construct"; missing d ^ "/x" ]) );
    ( "chaos --out into a missing dir",
      fun d -> (sp "chaos --out %s/x" (missing d), [ "chaos"; missing d ^ "/x" ]) );
    ( "mutate --out into a missing dir",
      fun d ->
        ( sp "mutate -a peterson2 --sizes 2 --ops domain_shrink --out %s/x" (missing d),
          [ "mutate"; missing d ^ "/x" ] ) );
    ("decode a missing file", fun d -> (sp "decode %s" (missing d), [ "decode"; missing d ]));
    ("workload --pattern staggered:x", fun _ -> pattern "staggered:x");
    ("workload --pattern poisson:abc", fun _ -> pattern "poisson:abc");
    ("workload --pattern bursts:0:1", fun _ -> pattern "bursts:0:1");
    ("workload --pattern staggered:-5", fun _ -> pattern "staggered:-5");
    ("workload --rounds 0", fun _ -> ("workload --rounds 0", [ "workload"; "--rounds" ]));
    ("experiments --only E3,E99", fun _ -> ("experiments --only E3,E99", [ "E99" ]));
    ("store stat of a missing dir", fun d -> (sp "store stat %s" (missing d), [ "store stat"; missing d ]));
    ( "store verify of a missing dir",
      fun d -> (sp "store verify %s" (missing d), [ "store verify"; missing d ]) );
    ("store gc of a missing dir", fun d -> (sp "store gc %s" (missing d), [ "store gc"; missing d ]));
  ]

let test_usage_error make () =
  with_temp_dir (fun d ->
      Sys.mkdir d 0o755;
      Out_channel.with_open_bin (Filename.concat d "f") (fun _ -> ());
      let args, names = make d in
      let out = Filename.temp_file "mutexlb_cli" ".out" in
      let err = Filename.temp_file "mutexlb_cli" ".err" in
      let status =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> %s" exe args (Filename.quote out)
             (Filename.quote err))
      in
      let read path =
        let s = In_channel.with_open_bin path In_channel.input_all in
        Sys.remove path;
        s
      in
      let stdout = read out and stderr = read err in
      Alcotest.(check int) (args ^ " exits 2") 2 status;
      Alcotest.(check int) ("one stderr line: " ^ stderr) 1
        (List.length (String.split_on_char '\n' (String.trim stderr)));
      List.iter
        (fun name ->
          Alcotest.(check bool) ("names " ^ name) true
            (Astring_contains.contains stderr name))
        names;
      (* nothing ran: no experiment table, no store created *)
      Alcotest.(check bool) "no experiment output" false
        (Astring_contains.contains stdout "===");
      Alcotest.(check (list string)) "nothing created" [ "f" ]
        (Array.to_list (Sys.readdir d)))

let suite =
  [
    Alcotest.test_case "list" `Quick test_list;
    Alcotest.test_case "run" `Quick test_run;
    Alcotest.test_case "check verified" `Quick test_check_verified;
    Alcotest.test_case "check broken" `Quick test_check_broken;
    Alcotest.test_case "check flat ya" `Slow test_check_flat_ya;
    Alcotest.test_case "pipeline + decode roundtrip" `Quick test_pipeline_and_decode;
    Alcotest.test_case "decode rejects damaged bits" `Quick
      test_decode_rejects_damaged;
    Alcotest.test_case "construct --dot" `Quick test_construct_dot;
    Alcotest.test_case "certify" `Quick test_certify;
    Alcotest.test_case "certify --perms 0" `Quick test_certify_zero_perms;
    Alcotest.test_case "certify --jobs identical" `Quick test_certify_jobs_identical;
    Alcotest.test_case "bad --jobs" `Quick test_bad_jobs;
    Alcotest.test_case "check multi-algo sweep" `Quick test_check_multi_algo;
    Alcotest.test_case "workload" `Quick test_workload;
    Alcotest.test_case "adversary" `Quick test_adversary;
    Alcotest.test_case "experiments --only" `Quick test_experiments_only;
    Alcotest.test_case "experiments default seed" `Quick
      test_experiments_default_seed;
    Alcotest.test_case "unknown algorithm" `Quick test_unknown_algo;
    Alcotest.test_case "bad permutation" `Quick test_bad_perm;
    Alcotest.test_case "numeric usage errors" `Quick test_numeric_usage_errors;
    Alcotest.test_case "lint registry clean" `Slow test_lint_registry_clean;
    Alcotest.test_case "lint --no-allowlist fails" `Quick
      test_lint_no_allowlist_fails;
    Alcotest.test_case "lint --json" `Quick test_lint_json;
    Alcotest.test_case "lint usage errors" `Quick test_lint_usage_errors;
    Alcotest.test_case "lint --rules subset" `Quick test_lint_rules_subset;
    Alcotest.test_case "lint --rules unknown" `Quick test_lint_rules_unknown;
    Alcotest.test_case "format_version in reports" `Quick test_format_versions;
    Alcotest.test_case "mutate smoke" `Quick test_mutate_smoke;
    Alcotest.test_case "mutate --no-allowlist" `Slow test_mutate_no_allowlist;
    Alcotest.test_case "mutate --jobs identical" `Quick
      test_mutate_jobs_identical;
    Alcotest.test_case "mutate usage errors" `Quick test_mutate_usage_errors;
    Alcotest.test_case "rmw gate on pipeline commands" `Quick test_rmw_gate;
    Alcotest.test_case "list --json" `Quick test_list_json;
    Alcotest.test_case "certify --perms clamp" `Quick test_certify_perms_clamp;
    Alcotest.test_case "work --perms clamp" `Quick test_work_perms_clamp;
    Alcotest.test_case "check -a all and correct" `Quick test_check_registry_lists;
    Alcotest.test_case "certify --store warm + maintenance" `Quick
      test_certify_store_warm;
    Alcotest.test_case "certify --store --events" `Quick test_certify_store_events;
    Alcotest.test_case "certify --store hash seed" `Quick
      test_certify_store_hash_seed;
    Alcotest.test_case "store flags require --store" `Quick
      test_store_flags_require_store;
    Alcotest.test_case "store gc lease refusal" `Quick test_store_gc_lease;
    Alcotest.test_case "certify --connect usage" `Quick
      test_certify_connect_usage;
    Alcotest.test_case "certify --store quarantine" `Quick
      test_certify_store_quarantine;
    Alcotest.test_case "experiments --store" `Slow test_experiments_store;
    Alcotest.test_case "store: oversized object is damage" `Quick
      test_store_oversized_object;
    Alcotest.test_case "check --resume on a damaged spill dir" `Quick
      test_check_resume_damaged;
  ]
  @ List.map
      (fun (label, make) ->
        Alcotest.test_case ("usage error: " ^ label) `Quick
          (test_usage_error make))
      usage_error_cases
