(* certify-cold: durable Sweep.certify into a fresh store. The paper
   pipeline and the store's write path do nearly all the work. *)

open Perfbench_lib
open Common
module Pipeline = Lb_core.Pipeline
module Store = Lb_store.Store
module Store_key = Lb_store.Store_key

(* yang_anderson at n=16 and 32 is the paper's tight O(n log n) case,
   where Decode's share is largest; Construct dominates bakery and
   filter. *)
let shape =
  [ ("yang_anderson", 16, 24); ("yang_anderson", 32, 8); ("bakery", 12, 24); ("filter", 6, 32) ]

type family = { algo : Lb_shmem.Algorithm.t; n : int; perms : Lb_core.Permutation.t list }

let families seed =
  let rng = Lb_util.Rng.create seed in
  List.map
    (fun (name, n, count) ->
      {
        algo = Lb_algos.Registry.find_exn name;
        n;
        perms = Lb_core.Permutation.sample (Lb_util.Rng.split rng) ~n ~count;
      })
    shape

let key_of f = Printf.sprintf "certificate %s n=%d" f.algo.Lb_shmem.Algorithm.name f.n

let total_perms fams = List.fold_left (fun a f -> a + List.length f.perms) 0 fams

(* One untraced rep: every family through the durable sweep engine. *)
type sweep_rep = {
  wall : float;
  unit_ms : float list;  (** per-permutation unit latency *)
  certs : (string * string) list;
  records : Pipeline.record list list;
  quarantined : int;
  checkpoints : int;
}

(* A unit's latency is the gap between its Item event and the previous
   one on the same worker domain; the first unit counts from the sweep's
   Start event, after the lease is taken and the keys derived. The
   engine calls on_event under its lock, on the domain that ran the
   unit. *)
let unit_clock () =
  let last = Hashtbl.create 4 and lat = ref [] and t_start = ref 0.0 in
  let start () =
    Hashtbl.reset last;
    t_start := now ()
  in
  let tick () =
    let d = (Domain.self () :> int) and t = now () in
    let prev = Option.value ~default:!t_start (Hashtbl.find_opt last d) in
    lat := ((t -. prev) *. 1000.0) :: !lat;
    Hashtbl.replace last d t
  in
  (start, tick, fun () -> !lat)

let sweep_rep ctx fams =
  let dir = fresh_dir ctx "certify" in
  let checkpoints = Atomic.make 0 in
  let start, tick, unit_ms = unit_clock () in
  let on_event = function
    | Lb_store.Sweep.Checkpoint _ -> Atomic.incr checkpoints
    | Lb_store.Sweep.Start _ -> start ()
    | Lb_store.Sweep.Item _ -> tick ()
    | _ -> ()
  in
  let store = Store.open_ ~dir in
  let results, wall =
    timed (fun () ->
        List.map
          (fun f ->
            Lb_store.Sweep.certify ~store ~resume:true ~jobs:ctx.jobs ~on_event
              f.algo ~n:f.n ~perms:f.perms ())
          fams)
  in
  rm_rf dir;
  let certs =
    List.map2
      (fun f (cert, _) ->
        (key_of f, match cert with Some c -> certificate_text c | None -> "none"))
      fams results
  in
  {
    wall;
    unit_ms = unit_ms ();
    certs;
    records = List.map (fun (_, r) -> r.Lb_store.Sweep.records) results;
    quarantined =
      List.fold_left (fun a (_, r) -> a + List.length r.Lb_store.Sweep.failures) 0 results;
    checkpoints = Atomic.get checkpoints;
  }

(* One traced rep: the same units re-driven stage by stage through the
   pipeline's public functions on Pool.map, a span around each call. *)
type unit_counts = { metasteps : int; steps : int }

let traced_unit ctx store f ~fp pi uid =
  let tr = ctx.spans in
  let name = f.algo.Lb_shmem.Algorithm.name and n = f.n and algo = f.algo in
  Span.with_ tr ~unit_id:uid "unit" @@ fun u ->
  let stages = Span.stages tr ~parent:u ~unit_id:uid in
  let sp name f = Span.stage stages name f in
  let model = Store_key.sc_model in
  let lookup () = Store.lookup store ~key:(Store_key.derive ~fp ~algo:name ~n ~pi ~model) in
  (match sp "store.lookup" lookup with
  | `Absent -> ()
  | `Hit _ | `Damaged _ -> failwith "traced rep: store not fresh");
  let construction = sp "construct" (fun () -> Lb_core.Construct.run algo ~n pi) in
  let encoding = sp "encode" (fun () -> Lb_core.Encode.encode construction) in
  let canonical = sp "linearize" (fun () -> Lb_core.Linearize.execution construction) in
  let decoded =
    sp "decode" (fun () -> Lb_core.Decode.run_bits algo ~n encoding.Lb_core.Encode.bits)
  in
  let cost = sp "state_change" (fun () -> Lb_cost.State_change.cost algo ~n canonical) in
  let r =
    {
      Pipeline.pi;
      construction;
      encoding;
      canonical;
      decoded;
      cost;
      bits = Lb_core.Encode.length_bits encoding;
    }
  in
  (match sp "pipeline.check" (fun () -> Pipeline.check algo ~n r) with
  | Ok () -> ()
  | Error m -> failwith ("traced rep: " ^ m));
  let rc = sp "pipeline.record" (fun () -> Pipeline.record_of_result r) in
  sp "store.put" (fun () ->
      Store.put store
        {
          Store.e_algo = name;
          e_fp = fp;
          e_n = n;
          e_pi = pi;
          e_model = model;
          e_cost = rc.Pipeline.r_cost;
          e_bits = rc.Pipeline.r_bits;
          e_exec_fp = rc.Pipeline.r_exec_fp;
          e_ebits = None;
        });
  ( rc,
    {
      metasteps = Lb_core.Metastep.count construction.Lb_core.Construct.arena;
      steps = Lb_shmem.Execution.length canonical;
    } )

type traced_rep = {
  t_wall : float;
  t_records : Pipeline.record list list;
  t_certs : (string * string) list;
  t_counts : unit_counts;
  t_put_bytes : int;
  t_spans : Span.span list;
}

let traced_rep ctx fams =
  let dir = fresh_dir ctx "certify-traced" in
  let store = Store.open_ ~dir in
  let mark = Span.mark ctx.spans in
  let per_family, wall =
    timed (fun () ->
        List.map
          (fun f ->
            let fp = Store_key.fingerprint f.algo ~n:f.n in
            let indexed = List.mapi (fun i pi -> (i, pi)) f.perms in
            Lb_util.Pool.map ~jobs:ctx.jobs
              (fun (i, pi) ->
                traced_unit ctx store f ~fp pi
                  (Printf.sprintf "%s-n%d#%d" f.algo.Lb_shmem.Algorithm.name f.n i))
              indexed)
          fams)
  in
  let put_bytes = (Store.stat store).Store.s_bytes in
  rm_rf dir;
  let records = List.map (List.map fst) per_family in
  let counts =
    List.fold_left
      (fun acc (_, c) -> { metasteps = acc.metasteps + c.metasteps; steps = acc.steps + c.steps })
      { metasteps = 0; steps = 0 } (List.concat per_family)
  in
  let certs =
    List.map2
      (fun f rs ->
        (key_of f, certificate_text (Pipeline.certificate_of_records f.algo ~n:f.n ~exhaustive:false rs)))
      fams records
  in
  { t_wall = wall; t_records = records; t_certs = certs; t_counts = counts;
    t_put_bytes = put_bytes; t_spans = Span.since ctx.spans mark }

let record_counters records =
  let all = List.concat records in
  let bits = List.fold_left (fun a r -> a + r.Pipeline.r_bits) 0 all in
  let cost = List.fold_left (fun a r -> a + r.Pipeline.r_cost) 0 all in
  let c_max =
    List.fold_left
      (fun a r -> Float.max a (float_of_int r.Pipeline.r_bits /. float_of_int (max 1 r.Pipeline.r_cost)))
      0.0 all
  in
  [
    ("encode.bits", string_of_int bits);
    ("state_change.cost", string_of_int cost);
    ("encode.c_max", Printf.sprintf "%.17g" c_max);
  ]

let oracle ctx fams key =
  match List.find_opt (fun f -> key_of f = key) fams with
  | None -> "no such output"
  | Some f ->
    certificate_text
      (Pipeline.certify f.algo ~n:f.n ~perms:f.perms ~jobs:ctx.jobs ())

let run ctx =
  let fams, setups =
    setup_repeated ~times:5 ~teardown:ignore ~setup:(fun () ->
        let fams = families ctx.seed in
        (* warm up on the first family, so lazy state settles *)
        ignore (sweep_rep ctx [ List.hd fams ]);
        fams)
  in
  let perms = total_perms fams in
  let untraced = ref [] and traced = ref [] in
  let (_ : unit list), rss_kb =
    repeat ~seconds:ctx.seconds ~min_reps:(if ctx.trace then 4 else 3) (fun k ->
        if ctx.trace && k mod 2 = 1 then traced := traced_rep ctx fams :: !traced
        else untraced := sweep_rep ctx fams :: !untraced)
  in
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let first = List.hd untraced in
  (* every rep must render the same certificates; the first is checked
     against the expected outputs *)
  let inconsistent =
    List.filter (fun r -> r.certs <> first.certs || r.records <> first.records) untraced
  in
  let traced_mismatch =
    List.filter (fun t -> t.t_records <> first.records || t.t_certs <> first.certs) traced
  in
  if traced_mismatch <> [] then
    print_endline "MISMATCH traced records or certificates differ from the untraced run";
  let counters =
    record_counters first.records
    @
    match traced with
    | [] -> []
    | t :: _ ->
      [
        ("construct.metasteps", string_of_int t.t_counts.metasteps);
        ("linearize.steps", string_of_int t.t_counts.steps);
      ]
  in
  if ctx.write_expected then
    write_expected ctx
      (List.map (fun (k, _) -> (k, oracle ctx fams k)) first.certs @ counter_pairs counters);
  let mismatches =
    verify ctx ~outputs:first.certs ~oracle:(oracle ctx fams) @ verify_counters ctx counters
  in
  let walls = List.map (fun r -> r.wall) untraced in
  let layers =
    match traced with
    | [] -> []
    | _ ->
      let med f = median_or_zero (List.map f traced) in
      let self name t = Option.value ~default:0.0 (List.assoc_opt name (Span.self_times t.t_spans)) in
      let unit_time t =
        List.fold_left (fun a s -> if s.Span.name = "unit" then a +. Span.duration s else a) 0.0 t.t_spans
      in
      [
        ("construct.self_s", med (self "construct"), "s");
        ("encode.self_s", med (self "encode"), "s");
        ("linearize.self_s", med (self "linearize"), "s");
        ("decode.self_s", med (self "decode"), "s");
        ("state_change.self_s", med (self "state_change"), "s");
        ("pipeline.check_self_s", med (self "pipeline.check"), "s");
        ("pipeline.record_self_s", med (self "pipeline.record"), "s");
        ("store.put_self_s", med (self "store.put"), "s");
        ("store.lookup_self_s", med (self "store.lookup"), "s");
        ("store.put_bytes", float_of_int (List.hd traced).t_put_bytes, "B");
        ("sweep.checkpoints", float_of_int first.checkpoints, "count");
        ( "pool.utilization",
          med (fun t -> unit_time t /. (t.t_wall *. float_of_int ctx.jobs)),
          "ratio" );
        ("trace.overhead_s", med (fun t -> t.t_wall) -. Stats.median walls, "s");
        ( "trace.min_unit_coverage",
          List.fold_left (fun m t -> Float.min m (Span.min_coverage t.t_spans ~name:"unit")) 1.0 traced,
          "ratio" );
      ]
  in
  let quarantined = List.fold_left (fun a r -> a + r.quarantined) 0 untraced in
  let perms_per_s = Stats.median (List.map (fun w -> float_of_int perms /. w) walls) in
  {
    correct = mismatches = [] && inconsistent = [] && traced_mismatch = [];
    attempted = perms * List.length untraced;
    failed = quarantined;
    setups;
    work_per_s = perms_per_s;
    latency_groups = List.map (fun r -> r.unit_ms) untraced;
    report = [ ("perms_per_s", perms_per_s, "1/s") ];
    counters;
    layers;
    workers = 1;
    peak_rss_kb = rss_kb;
  }
