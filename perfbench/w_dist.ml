(* dist-certify: two Sweep_dist workers (one domain each, jobs=1) over a
   fresh store. The only workload that runs Store_claim and Sweep_dist. *)

open Perfbench_lib
open Common
module SD = Lb_store.Sweep_dist

let workers = 2
let n = 11
let count = 48

let family seed =
  Lb_core.Permutation.sample (Lb_util.Rng.create seed) ~n ~count

let algo () = Lb_algos.Registry.find_exn "yang_anderson"

type counts = {
  claims : int Atomic.t;
  rounds : int Atomic.t;
  empty_rounds : int Atomic.t;
  backoff_us : int Atomic.t;
  stolen : int Atomic.t;
}

type rep = {
  wall : float;
  unit_ms : float list;  (** per-unit latency, both workers *)
  traced : bool;
  manifest : string;  (** digest of the shared manifest *)
  cert : string;
  computed : int;
  failed : int;
  c : counts;
}

let digest_file path = Digest.to_hex (Digest.file path)

let rep ctx tr ~k perms =
  let dir = fresh_dir ctx "dist" in
  Lb_util.Fsio.mkdir_p dir;
  let c =
    {
      claims = Atomic.make 0;
      rounds = Atomic.make 0;
      empty_rounds = Atomic.make 0;
      backoff_us = Atomic.make 0;
      stolen = Atomic.make 0;
    }
  in
  (* A unit's latency is the gap since the worker's previous Unit event
     (or its Start event, once the worker is set up): it includes the
     claim rounds and any backoff that preceded it. Each worker has its
     own clock. *)
  let unit_ms = Array.make workers [] in
  let on_event w =
    let last = ref 0.0 in
    function
    | SD.Start _ -> last := now ()
    | SD.Unit _ ->
      let t = now () in
      unit_ms.(w) <- ((t -. !last) *. 1000.0) :: unit_ms.(w);
      last := t
    | SD.Round { claimed; backoff; _ } ->
      Atomic.incr c.rounds;
      ignore (Atomic.fetch_and_add c.claims claimed);
      if claimed = 0 then Atomic.incr c.empty_rounds;
      ignore (Atomic.fetch_and_add c.backoff_us (int_of_float (backoff *. 1e6)))
    | SD.Stolen _ -> Atomic.incr c.stolen
    | _ -> ()
  in
  let algo = algo () in
  let results, wall =
    timed (fun () ->
        List.init workers (fun w ->
            Domain.spawn (fun () ->
                (* each worker opens the store itself, as a process would *)
                let store = Lb_store.Store.open_ ~dir in
                Span.with_ tr ~unit_id:(Printf.sprintf "rep%d/worker%d" k w) "sweep_dist.work"
                  (fun _ ->
                    (* the jitter seed moves only claim timing; varying it
                       per rep averages the run over contention patterns *)
                    SD.certify ~store ~jobs:1 ~on_event:(on_event w)
                      ~seed:(Hashtbl.hash (ctx.seed, k, w))
                      algo ~n ~perms ())))
        |> List.map Domain.join)
  in
  let certs =
    List.map
      (fun (cert, _) -> match cert with Some x -> certificate_text x | None -> "none")
      results
  in
  let reports = List.map snd results in
  let manifests = List.map (fun r -> digest_file r.SD.d_manifest_path) reports in
  rm_rf dir;
  let agree l = List.for_all (( = ) (List.hd l)) l in
  {
    wall;
    unit_ms = List.concat (Array.to_list unit_ms);
    traced = tr != Span.off;
    manifest = (if agree manifests then List.hd manifests else "workers disagree");
    cert = (if agree certs then List.hd certs else "workers disagree");
    computed = List.fold_left (fun a r -> a + r.SD.d_computed) 0 reports;
    failed = (List.hd reports).SD.d_failed;
    c;
  }

(* The oracle: one worker of the single-process engine. *)
let oracle ctx perms =
  let dir = fresh_dir ctx "dist-oracle" in
  let store = Lb_store.Store.open_ ~dir in
  let cert, report = Lb_store.Sweep.certify ~store ~jobs:1 (algo ()) ~n ~perms () in
  let out =
    [
      ("manifest digest", digest_file report.Lb_store.Sweep.manifest_path);
      ("certificate", match cert with Some x -> certificate_text x | None -> "none");
    ]
  in
  rm_rf dir;
  out

let run ctx =
  let perms, setups =
    setup_repeated ~times:5 ~teardown:ignore ~setup:(fun () ->
        let perms = family ctx.seed in
        ignore (rep ctx Span.off ~k:(-1) perms);
        perms)
  in
  let reps, rss_kb =
    repeat ~seconds:ctx.seconds ~min_reps:(if ctx.trace then 4 else 3) (fun k ->
        let tr = if ctx.trace && k mod 2 = 1 then ctx.spans else Span.off in
        rep ctx tr ~k perms)
  in
  let outputs r = [ ("manifest digest", r.manifest); ("certificate", r.cert) ] in
  let oracle_outputs = lazy (oracle ctx perms) in
  let oracle_of key = List.assoc key (Lazy.force oracle_outputs) in
  let first = List.hd reps in
  let counters = [ ("sweep_dist.computed", string_of_int first.computed) ] in
  if ctx.write_expected then
    write_expected ctx
      (List.map (fun (k, _) -> (k, oracle_of k)) (outputs first) @ counter_pairs counters);
  let mismatches =
    verify ctx ~outputs:(List.concat_map outputs reps) ~oracle:oracle_of
    @ verify_counters ctx counters
  in
  let inconsistent = List.filter (fun r -> r.computed <> first.computed) reps in
  let untraced = List.filter (fun r -> not r.traced) reps in
  let traced = List.filter (fun r -> r.traced) reps in
  let rates = List.map (fun r -> float_of_int count /. r.wall) untraced in
  let layers =
    match traced with
    | [] -> []
    | _ ->
      let med f = Stats.median (List.map (fun r -> float_of_int (f r)) traced) in
      [
        ("store_claim.claims", med (fun r -> Atomic.get r.c.claims), "count");
        ("store_claim.rounds", med (fun r -> Atomic.get r.c.rounds), "count");
        ("store_claim.empty_rounds", med (fun r -> Atomic.get r.c.empty_rounds), "count");
        ("store_claim.backoff_s", med (fun r -> Atomic.get r.c.backoff_us) /. 1e6, "s");
        ("store_claim.stolen", med (fun r -> Atomic.get r.c.stolen), "count");
        ("sweep_dist.useful_ratio", float_of_int count /. float_of_int first.computed, "ratio");
        ( "trace.overhead_s",
          Stats.median (List.map (fun r -> r.wall) traced)
          -. Stats.median (List.map (fun r -> r.wall) untraced),
          "s" );
      ]
  in
  {
    correct = mismatches = [] && inconsistent = [];
    attempted = count * List.length reps;
    failed = List.fold_left (fun a r -> a + r.failed) 0 reps;
    setups;
    work_per_s = Stats.median rates;
    latency_groups = List.map (fun r -> r.unit_ms) untraced;
    report = [ ("perms_per_s", Stats.median rates, "1/s") ];
    counters;
    layers;
    workers;
    peak_rss_kb = rss_kb;
  }
