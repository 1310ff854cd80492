(* perfbench: one command for every workload.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--write-expected]

   The last line of standard output is the result object; the lines
   before it are the readable report. *)

open Perfbench_lib
open Common

let workloads =
  [
    ("certify-cold", W_certify.run);
    ("check-exhaustive", W_check.run);
    ("serve-mixed", W_serve.run);
    ("dist-certify", W_dist.run);
  ]

(* Every per-layer metric, in print order. A workload reports 0 for a
   layer it does not drive. *)
let layer_units =
  [
    ("construct.self_s", "s"); ("construct.metasteps", "count");
    ("encode.self_s", "s"); ("encode.bits", "count"); ("encode.c_max", "ratio");
    ("linearize.self_s", "s"); ("linearize.steps", "count");
    ("decode.self_s", "s"); ("state_change.self_s", "s");
    ("state_change.cost", "count"); ("pipeline.check_self_s", "s");
    ("pipeline.record_self_s", "s"); ("store.put_self_s", "s");
    ("store.put_bytes", "B"); ("store.lookup_self_s", "s");
    ("sweep.checkpoints", "count"); ("pool.utilization", "ratio");
    ("model_check.expand_s", "s"); ("model_check.merge_s", "s");
    ("model_check.layers", "count"); ("model_check.states", "count");
    ("model_check.transitions", "count"); ("model_check.dedup_ratio", "ratio");
    ("model_check.live_words", "count"); ("check_spill.spill_s", "s");
    ("check_spill.bytes", "B"); ("http.accept_ms", "ms");
    ("scheduler.wait_ms", "ms"); ("server.compute_ms", "ms");
    ("server.warm_ms", "ms"); ("server.warm_share", "ratio");
    ("scheduler.rejected", "count"); ("store_claim.claims", "count");
    ("store_claim.rounds", "count"); ("store_claim.empty_rounds", "count");
    ("store_claim.backoff_s", "s"); ("store_claim.stolen", "count");
    ("sweep_dist.computed", "count"); ("sweep_dist.useful_ratio", "ratio");
    ("trace.overhead_s", "s"); ("trace.min_unit_coverage", "ratio");
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 \
     [--write-expected]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let json_metric (name, value, unit) =
  (name, Lb_util.Json.Obj [ ("value", Lb_util.Json.Float value); ("unit", Lb_util.Json.String unit) ])

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and write = ref false in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string_opt v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string_opt v; parse r
    | "--trace" :: (("0" | "1") as v) :: r -> trace := Some (v = "1"); parse r
    | "--write-expected" :: r -> write := true; parse r
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run, seed, seconds, trace =
    match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
    | Some run, Some seed, Some seconds, Some trace when seconds > 0.0 ->
      (run, seed, seconds, trace)
    | _ -> usage ()
  in
  if !write && seed <> default_seed then begin
    Printf.eprintf "--write-expected needs --seed %d\n" default_seed;
    exit 2
  end;
  let nproc = nproc () in
  let work_dir =
    Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ()))
  in
  Lb_util.Fsio.mkdir_p work_dir;
  let ctx =
    {
      workload = !workload;
      seed;
      seconds;
      trace;
      jobs = min 2 nproc;
      work_dir;
      write_expected = !write;
      spans = Span.create ~enabled:trace;
    }
  in
  let t0 = now () in
  let o = Fun.protect ~finally:(fun () -> rm_rf work_dir) (fun () -> run ctx) in
  let peak_rss_mb = float_of_int o.peak_rss_kb /. 1024.0 in
  let host =
    Lb_util.Json.Obj
      [
        ("nproc", Lb_util.Json.Int nproc);
        ("recommended_domain_count", Lb_util.Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Lb_util.Json.String Sys.ocaml_version);
        ("jobs", Lb_util.Json.Int ctx.jobs);
        ("workers", Lb_util.Json.Int o.workers);
        ("seed", Lb_util.Json.Int seed);
        ("multicore", Lb_util.Json.Bool (nproc >= 2));
      ]
  in
  let failed_share = Stats.failed_share ~attempted:o.attempted ~failed:o.failed in
  let groups = List.filter (( <> ) []) o.latency_groups in
  let p50 = Stats.median_of_groups Stats.median groups in
  let tails = List.map (fun g -> Stats.tail_or_max g) groups in
  let tail = Stats.median (List.map (fun t -> t.Stats.value) tails) in
  let tail_pct = Stats.median (List.map (fun t -> t.Stats.pct) tails) in
  let samples = List.fold_left (fun a g -> a + List.length g) 0 groups in
  let end_to_end =
    [
      ("setup_s", Stats.median o.setups, "s");
      ("work_per_s", o.work_per_s, "1/s");
      ("latency_p50_ms", p50, "ms");
      ("latency_tail_ms", tail, "ms");
      ("peak_rss_mb", peak_rss_mb, "MB");
    ]
  in
  let report =
    o.report
    @ [
        ("latency_p50_ms", p50, "ms");
        ("latency_tail_ms", tail, "ms");
        ("setup_s", Stats.median o.setups, "s");
        ("peak_rss_mb", peak_rss_mb, "MB");
        ("failed_share", failed_share, "ratio");
      ]
  in
  let layers =
    List.map
      (fun (name, unit) ->
        match
          ( List.find_opt (fun (n, _, _) -> n = name) o.layers,
            Option.bind (List.assoc_opt name o.counters) float_of_string_opt )
        with
        | Some m, _ -> m
        | None, Some v -> (name, v, unit)
        | None, None -> (name, 0.0, unit))
      layer_units
  in
  Printf.printf "perfbench %s: seed %d, %.0f s, trace %s\n" ctx.workload seed seconds
    (if trace then "on" else "off");
  Printf.printf "host %s\n" (Lb_util.Json.to_string host);
  List.iter (fun (n, v, u) -> Printf.printf "metric %-22s %14.6f %s\n" n v u) report;
  Printf.printf
    "latency: %d samples in %d groups; p50 and tail (p%.2f%s) are medians over the groups\n"
    samples (List.length groups) tail_pct
    (if tail_pct >= 100.0 then ", too few samples for a tail: the maximum" else "");
  Printf.printf "counters %s\n"
    (Lb_util.Json.to_string
       (Lb_util.Json.Obj (List.map (fun (k, v) -> (k, Lb_util.Json.String v)) o.counters)));
  if trace then
    List.iter (fun (n, v, u) -> Printf.printf "layer %-26s %14.6f %s\n" n v u) layers;
  Printf.printf "attempted %d, failed %d, wall %.3f s\n" o.attempted o.failed (now () -. t0);
  let tag = Printf.sprintf "%s-seed%d-trace%d" ctx.workload seed (if trace then 1 else 0) in
  let results_dir = Filename.concat out_dir "results" in
  Lb_util.Fsio.mkdir_p results_dir;
  let full =
    Lb_util.Json.Obj
      [
        ("workload", Lb_util.Json.String ctx.workload);
        ("host", host);
        ("correct", Lb_util.Json.Bool o.correct);
        ("attempted", Lb_util.Json.Int o.attempted);
        ("failed", Lb_util.Json.Int o.failed);
        ("report", Lb_util.Json.Obj (List.map json_metric report));
        ("tail_pct", Lb_util.Json.Float tail_pct);
        ("latency_samples", Lb_util.Json.Int samples);
        ("latency_groups", Lb_util.Json.Int (List.length groups));
        ("counters", Lb_util.Json.Obj (List.map (fun (k, v) -> (k, Lb_util.Json.String v)) o.counters));
        ("layers", Lb_util.Json.Obj (if trace then List.map json_metric layers else []));
      ]
  in
  Lb_util.Fsio.write_atomic
    ~path:(Filename.concat results_dir (tag ^ ".json"))
    (Lb_util.Json.to_string full ^ "\n");
  if trace then
    Lb_util.Fsio.write_atomic
      ~path:(Filename.concat results_dir (tag ^ "-spans.jsonl"))
      (Span.to_jsonl ~t0 (Span.spans ctx.spans));
  let metrics = if trace then layers else end_to_end in
  print_endline
    (Lb_util.Json.to_string
       (Lb_util.Json.Obj
          [
            ("correct", Lb_util.Json.Bool o.correct);
            ("attempted", Lb_util.Json.Int o.attempted);
            ("failed", Lb_util.Json.Int o.failed);
            ("metrics", Lb_util.Json.Obj (List.map json_metric metrics));
          ]));
  if not o.correct then exit 1
