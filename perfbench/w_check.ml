(* check-exhaustive: Model_check.explore at default settings, in RAM and
   under a memory budget that spills. Only the checker, its interner,
   Key_run and Check_spill work here; the pipeline and store do not. *)

open Perfbench_lib
open Common
module MC = Lb_mutex.Model_check

type leg = { id : string; algo : string; n : int; budget : int option }

let legs =
  [
    { id = "yang_anderson-3"; algo = "yang_anderson"; n = 3; budget = None };
    { id = "filter-4"; algo = "filter"; n = 4; budget = None };
    { id = "filter-4-spill"; algo = "filter"; n = 4; budget = Some (8 * 1024 * 1024) };
  ]

let verdict_text (r : MC.report) =
  Printf.sprintf "%s states=%d transitions=%d"
    (Format.asprintf "%a" MC.pp_verdict r.MC.verdict)
    r.MC.states r.MC.transitions

type leg_result = { leg : leg; report : MC.report; spill_bytes : int }

let run_leg ctx tr ~rep l =
  let algo = Lb_algos.Registry.find_exn l.algo in
  Span.with_ tr ~unit_id:(Printf.sprintf "rep%d/%s" rep l.id) "model_check.explore"
  @@ fun _ ->
  match l.budget with
  | None -> { leg = l; report = MC.explore ~jobs:ctx.jobs algo ~n:l.n; spill_bytes = 0 }
  | Some mem_budget ->
    let dir = fresh_dir ctx "spill" in
    let report = MC.explore ~jobs:ctx.jobs ~mem_budget ~spill_dir:dir algo ~n:l.n in
    let spill_bytes = dir_bytes dir in
    rm_rf dir;
    { leg = l; report; spill_bytes }

let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs
let sumf f rs = List.fold_left (fun a r -> a +. f r) 0.0 rs

type rep = { results : leg_result list; wall : float; traced : bool }

let run ctx =
  let (), setups =
    setup_repeated ~times:5 ~teardown:ignore ~setup:(fun () ->
        (* warm-up: the smallest leg, so lazy state settles *)
        ignore (run_leg ctx Span.off ~rep:(-1) (List.hd legs)))
  in
  let reps, rss_kb =
    repeat ~seconds:ctx.seconds ~min_reps:(if ctx.trace then 4 else 3) (fun k ->
        let traced = ctx.trace && k mod 2 = 1 in
        let tr = if traced then ctx.spans else Span.off in
        let results, wall = timed (fun () -> List.map (run_leg ctx tr ~rep:k) legs) in
        { results; wall; traced })
  in
  let first = (List.hd reps).results in
  let outputs rs = List.map (fun r -> ("check " ^ r.leg.id, verdict_text r.report)) rs in
  let all_outputs = List.concat_map (fun r -> outputs r.results) reps in
  let states rs = sum (fun r -> r.report.MC.states) rs in
  let transitions rs = sum (fun r -> r.report.MC.transitions) rs in
  let live_words rs = sum (fun r -> r.report.MC.live_words) rs in
  let layers rs = sum (fun r -> r.report.MC.stats.MC.layers) rs in
  let spill_bytes rs = sum (fun r -> r.spill_bytes) rs in
  let counters =
    [
      ("model_check.states", string_of_int (states first));
      ("model_check.transitions", string_of_int (transitions first));
      ("model_check.live_words", string_of_int (live_words first));
      ("model_check.layers", string_of_int (layers first));
      ("check_spill.bytes", string_of_int (spill_bytes first));
    ]
  in
  (* every rep must reproduce the deterministic figures exactly *)
  let inconsistent =
    List.filter
      (fun r ->
        List.map (fun x -> (x.report.MC.live_words, x.report.MC.stats.MC.layers, x.spill_bytes)) r.results
        <> List.map (fun x -> (x.report.MC.live_words, x.report.MC.stats.MC.layers, x.spill_bytes)) first)
      reps
  in
  (* the inputs do not depend on the seed, so neither do the committed
     answers *)
  let ctx_fixed = { ctx with seed = default_seed } in
  if ctx.write_expected then write_expected ctx (outputs first @ counter_pairs counters);
  let mismatches =
    verify ctx_fixed ~outputs:all_outputs ~oracle:(fun _ -> "no committed answer")
    @ verify_counters ctx_fixed counters
  in
  let unexpected =
    List.length
      (List.filter (fun r -> r.report.MC.verdict <> MC.Verified) (List.concat_map (fun r -> r.results) reps))
  in
  let untraced = List.filter (fun r -> not r.traced) reps in
  let traced = List.filter (fun r -> r.traced) reps in
  (* total states over total explore seconds, each leg's seconds the
     median of its reps, so one slow rep moves it less *)
  let leg_median i =
    Stats.median (List.map (fun r -> (List.nth r.results i).report.MC.seconds) untraced)
  in
  let states_per_s =
    float_of_int (states first) /. sumf Fun.id (List.mapi (fun i _ -> leg_median i) legs)
  in
  let layer_metrics =
    match traced with
    | [] -> []
    | _ ->
      let st f = Stats.median (List.map (fun r -> sumf (fun x -> f x.report.MC.stats) r.results) traced) in
      [
        ("model_check.expand_s", st (fun s -> s.MC.expand_seconds), "s");
        ("model_check.merge_s", st (fun s -> s.MC.merge_seconds), "s");
        ("check_spill.spill_s", st (fun s -> s.MC.spill_seconds), "s");
        ( "model_check.dedup_ratio",
          float_of_int (states first) /. float_of_int (transitions first),
          "ratio" );
        ( "trace.overhead_s",
          Stats.median (List.map (fun r -> r.wall) traced)
          -. Stats.median (List.map (fun r -> r.wall) untraced),
          "s" );
      ]
  in
  {
    correct = mismatches = [] && inconsistent = [];
    attempted = List.length all_outputs;
    failed = unexpected;
    setups;
    work_per_s = states_per_s;
    (* a rep is one operation: too few for groups, so one group *)
    latency_groups = [ List.map (fun r -> r.wall *. 1000.0) untraced ];
    report =
      ("states_per_s", states_per_s, "1/s")
      :: List.map
           (fun r -> ("bytes_per_state." ^ r.leg.id, MC.bytes_per_state r.report, "B/state"))
           first;
    counters;
    layers = layer_metrics;
    workers = 1;
    peak_rss_kb = rss_kb;
  }
