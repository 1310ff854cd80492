open Lb_shmem

type item_outcome = Hit | Computed | Failed of string

type progress = {
  p_total : int;
  p_done : int;
  p_hits : int;
  p_computed : int;
  p_failed : int;
  p_elapsed_s : float;
  p_rate : float;
  p_eta_s : float;
}

type event =
  | Start of { total : int; sweep_id : string }
  | Item of {
      index : int;
      pi : Lb_core.Permutation.t;
      outcome : item_outcome;
      progress : progress;
    }
  | Damaged_entry of { key : string; diagnostic : string }
  | Checkpoint of { manifest : string; done_ : int; total : int }
  | Finished of { progress : progress; manifest : string }

type failure = { f_pi : Lb_core.Permutation.t; f_message : string }

type report = {
  records : Lb_core.Pipeline.record list;
  failures : failure list;
  progress : progress;
  manifest_path : string;
}

exception Pi_timeout of { pi : Lb_core.Permutation.t; limit : float }

let () =
  Printexc.register_printer (function
    | Pi_timeout { pi; limit } ->
      Some
        (Printf.sprintf "pi=%s exceeded the per-pi wall-clock limit (%gs)"
           (Lb_core.Permutation.to_string pi)
           limit)
    | _ -> None)

(* Quarantine messages are part of the manifest bytes, so every engine
   that records a failure — this one, and the distributed workers in
   {!Sweep_dist} — must render identically. Deterministic by
   construction: no elapsed times, pids or addresses. *)
let failure_message = function
  | Lb_core.Pipeline.Check_failed { stage; message; _ } ->
    Printf.sprintf "%s: %s" stage message
  | Pi_timeout { limit; _ } ->
    Printf.sprintf "per-pi wall-clock limit exceeded (%gs)" limit
  | Failure m -> m
  | e -> Printexc.to_string e

(* ------------------------------ unit plan ----------------------------- *)

type plan = {
  u_store : Store.t;
  u_algo : Algorithm.t;
  u_n : int;
  u_save_traces : bool;
  u_pi_timeout : float option;
  u_fp : string;
  u_pis : Lb_core.Permutation.t array;
  u_keys : string array;
  u_sweep_id : string;
  u_manifest : string;
}

let plan ~who ~store ?(save_traces = false) ?pi_timeout (algo : Algorithm.t)
    ~n ~perms =
  let name = algo.Algorithm.name in
  let refuse fmt = Printf.ksprintf (fun m -> invalid_arg (who ^ ": " ^ m)) fmt in
  if perms = [] then refuse "empty permutation family";
  if not (Algorithm.registers_only algo) then
    refuse
      "algorithm %S is declared Uses_rmw; the lower-bound pipeline covers \
       only the read/write-register model"
      name;
  if not (Algorithm.supports algo n) then
    refuse "algorithm %S does not support n=%d" name n;
  (match pi_timeout with
  | Some t when t <= 0.0 -> refuse "pi_timeout must be positive"
  | Some _ | None -> ());
  let fp = Store_key.fingerprint algo ~n in
  let model = Store_key.sc_model in
  let pis = Array.of_list perms in
  let sid = Store_key.sweep_id ~fp ~algo:name ~n ~perms ~model in
  {
    u_store = store;
    u_algo = algo;
    u_n = n;
    u_save_traces = save_traces;
    u_pi_timeout = pi_timeout;
    u_fp = fp;
    u_pis = pis;
    u_keys =
      Array.map (fun pi -> Store_key.derive ~fp ~algo:name ~n ~pi ~model) pis;
    u_sweep_id = sid;
    u_manifest = Store.manifest_path store ~id:sid;
  }

let lookup p i =
  match Store.lookup p.u_store ~key:p.u_keys.(i) with
  | `Hit e ->
    `Hit
      {
        Lb_core.Pipeline.r_pi = p.u_pis.(i);
        r_cost = e.Store.e_cost;
        r_bits = e.Store.e_bits;
        r_exec_fp = e.Store.e_exec_fp;
      }
  | (`Absent | `Damaged _) as miss -> miss

let compute p i =
  let pi = p.u_pis.(i) in
  let t_start = Unix.gettimeofday () in
  let r = Lb_core.Pipeline.run_checked p.u_algo ~n:p.u_n pi in
  (* Cooperative, post-hoc deadline: OCaml domains cannot be preempted
     mid-pipeline, so the unit runs to completion and is then discarded
     — raised before the Store.put so a timed-out pi is quarantined (not
     cached) and a resume on a faster machine recomputes it. The message
     carries only the limit, never the elapsed time, so manifests stay
     deterministic given the same set of timed-out units. *)
  (match p.u_pi_timeout with
  | Some limit when Unix.gettimeofday () -. t_start > limit ->
    raise (Pi_timeout { pi; limit })
  | Some _ | None -> ());
  let rc = Lb_core.Pipeline.record_of_result r in
  Store.put p.u_store
    {
      Store.e_algo = p.u_algo.Algorithm.name;
      e_fp = p.u_fp;
      e_n = p.u_n;
      e_pi = pi;
      e_model = Store_key.sc_model;
      e_cost = rc.Lb_core.Pipeline.r_cost;
      e_bits = rc.Lb_core.Pipeline.r_bits;
      e_exec_fp = rc.Lb_core.Pipeline.r_exec_fp;
      e_ebits =
        (if p.u_save_traces then
           Some r.Lb_core.Pipeline.encoding.Lb_core.Encode.bits
         else None);
    };
  rc

let save_manifest p outcome_of =
  Manifest.save ~path:p.u_manifest
    {
      Manifest.m_algo = p.u_algo.Algorithm.name;
      m_fp = p.u_fp;
      m_n = p.u_n;
      m_model = Store_key.sc_model;
      m_total = Array.length p.u_pis;
      m_outcomes =
        Array.to_list
          (Array.mapi
             (fun i pi ->
               let key = p.u_keys.(i) in
               ( pi,
                 match outcome_of i with
                 | `Pending -> Manifest.Pending key
                 | `Done -> Manifest.Done key
                 | `Failed msg -> Manifest.Failed (key, msg) ))
             p.u_pis);
    }

let certificate algo ~n ~exhaustive = function
  | [] -> None
  | records ->
    Some (Lb_core.Pipeline.certificate_of_records algo ~n ~exhaustive records)

(* ------------------------------- engine ------------------------------- *)

let sweep ~store ?(resume = false) ?jobs ?(checkpoint_every = 64)
    ?save_traces ?pi_timeout ?(on_event = fun _ -> ()) ?cancel
    ?(lease_wait = 60.0) (algo : Algorithm.t) ~n ~perms () =
  let plan =
    plan ~who:"Sweep.sweep" ~store ?save_traces ?pi_timeout algo ~n ~perms
  in
  if checkpoint_every < 1 then
    invalid_arg "Sweep.sweep: checkpoint_every must be >= 1";
  (* Writers serialize on the store's lease: a sweep, a concurrent CLI
     certify and a gc never interleave writes. Released on every exit
     path — including Pool.Cancelled and fail-fast aborts. *)
  let lease =
    match Store_lock.acquire_writer ~wait:lease_wait store ~purpose:"sweep" with
    | Ok w -> w
    | Error h -> raise (Store_lock.Busy h)
  in
  Fun.protect ~finally:(fun () -> Store_lock.release_writer lease) @@ fun () ->
  let total = Array.length plan.u_pis and mpath = plan.u_manifest in
  (* All shared state below is touched only under [lock]; entry files
     are written lock-free (each key is handed to exactly one worker). *)
  let lock = Mutex.create () in
  let outcomes = Array.make total None in
  let hits = ref 0 and computed = ref 0 and failed = ref 0 in
  let t0 = Unix.gettimeofday () in
  let progress_locked () =
    let done_ = !hits + !computed + !failed in
    let elapsed = Unix.gettimeofday () -. t0 in
    let rate = if elapsed > 0.0 then float_of_int done_ /. elapsed else 0.0 in
    {
      p_total = total;
      p_done = done_;
      p_hits = !hits;
      p_computed = !computed;
      p_failed = !failed;
      p_elapsed_s = elapsed;
      p_rate = rate;
      p_eta_s =
        (if done_ >= total then 0.0
         else if rate > 0.0 then float_of_int (total - done_) /. rate
         else infinity);
    }
  in
  (* Set under [lock] by a checkpoint whose refresh came back false:
     another process broke the lease and owns the store now. *)
  let fenced = ref false in
  let checkpoint_locked () =
    (* The refresh comes first, so a fenced sweep writes no manifest
       over its successor's; the heartbeat also keeps TTL-armed
       contenders from mistaking a long-running live sweep for a dead
       remote one. *)
    fenced := !fenced || not (Store_lock.refresh_writer lease);
    if not !fenced then
      save_manifest plan (fun i ->
          match outcomes.(i) with
          | None -> `Pending
          | Some (Hit | Computed) -> `Done
          | Some (Failed msg) -> `Failed msg);
    not !fenced
  in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let stop_if_fenced () =
    if locked (fun () -> !fenced) then
      raise (Store_lock.Busy (Store_lock.holder store))
  in
  locked (fun () -> on_event (Start { total; sweep_id = plan.u_sweep_id }));
  let work i =
    stop_if_fenced ();
    let outcome, record =
      match lookup plan i with
      | `Hit r -> (Hit, Some r)
      | (`Absent | `Damaged _) as found -> (
        (match found with
        | `Damaged diagnostic ->
          locked (fun () ->
              on_event (Damaged_entry { key = plan.u_keys.(i); diagnostic }))
        | `Absent -> ());
        match compute plan i with
        | rc -> (Computed, Some rc)
        | exception e when resume -> (Failed (failure_message e), None))
    in
    locked (fun () ->
        outcomes.(i) <- Some outcome;
        (match outcome with
        | Hit -> incr hits
        | Computed -> incr computed
        | Failed _ -> incr failed);
        let progress = progress_locked () in
        (* Computed units are already durable (Store.put wrote the entry
           before we got here) and Hits re-derive from the store, so for
           them the manifest may lag one interval. A quarantined failure
           is stored nowhere but the manifest: checkpoint it eagerly so
           the on-disk manifest names it as soon as it happens (a resumed
           run still recomputes it — failures are never cached). *)
        let eager = match outcome with Failed _ -> true | Hit | Computed -> false in
        if (eager
            || progress.p_done mod checkpoint_every = 0
            || progress.p_done = total)
           && checkpoint_locked ()
        then
          on_event
            (Checkpoint { manifest = mpath; done_ = progress.p_done; total });
        on_event (Item { index = i; pi = plan.u_pis.(i); outcome; progress }));
    record
  in
  let indices = List.init total (fun i -> i) in
  (* On a fail-fast abort ([resume = false] and a pipeline failure), the
     checkpoint below still records the units that did complete before
     the exception propagates. *)
  let records_opt =
    Fun.protect
      ~finally:(fun () -> ignore (locked checkpoint_locked))
      (fun () -> Lb_util.Pool.map ?jobs ?cancel work indices)
  in
  stop_if_fenced ();
  let progress = locked progress_locked in
  locked (fun () -> on_event (Finished { progress; manifest = mpath }));
  let failures =
    List.filteri (fun i _ -> match outcomes.(i) with
        | Some (Failed _) -> true
        | _ -> false)
      indices
    |> List.map (fun i ->
           match outcomes.(i) with
           | Some (Failed msg) -> { f_pi = plan.u_pis.(i); f_message = msg }
           | _ -> assert false)
  in
  {
    records = List.filter_map Fun.id records_opt;
    failures;
    progress;
    manifest_path = mpath;
  }

let certify ~store ?resume ?jobs ?checkpoint_every ?save_traces ?pi_timeout
    ?on_event ?cancel ?lease_wait algo ~n ~perms ?(exhaustive = false) () =
  let report =
    sweep ~store ?resume ?jobs ?checkpoint_every ?save_traces ?pi_timeout
      ?on_event ?cancel ?lease_wait algo ~n ~perms ()
  in
  (certificate algo ~n ~exhaustive report.records, report)

let pp_progress ppf p =
  Format.fprintf ppf "%d/%d done (%d hits, %d computed, %d failed) %.1f/s%s"
    p.p_done p.p_total p.p_hits p.p_computed p.p_failed p.p_rate
    (if p.p_done >= p.p_total then ""
     else if Float.is_finite p.p_eta_s then
       Printf.sprintf " eta %.0fs" p.p_eta_s
     else " eta ?")

(* ------------------------------ telemetry ----------------------------- *)

module Json = Lb_util.Json

let pi_json pi = Json.escape (Lb_core.Permutation.to_csv pi)

let progress_json p =
  Printf.sprintf
    "\"done\":%d,\"total\":%d,\"hits\":%d,\"computed\":%d,\"failed\":%d,\
     \"elapsed_s\":%.3f,\"rate\":%.3f,\"eta_s\":%s"
    p.p_done p.p_total p.p_hits p.p_computed p.p_failed p.p_elapsed_s p.p_rate
    (if Float.is_finite p.p_eta_s then Printf.sprintf "%.1f" p.p_eta_s
     else "null")

let event_to_json = function
  | Start { total; sweep_id } ->
    Printf.sprintf "{\"event\":\"start\",\"total\":%d,\"sweep\":%s}" total
      (Json.escape sweep_id)
  | Item { index; pi; outcome; progress } ->
    let outcome_json =
      match outcome with
      | Hit -> "\"hit\""
      | Computed -> "\"computed\""
      | Failed msg ->
        Printf.sprintf "\"failed\",\"message\":%s" (Json.escape msg)
    in
    Printf.sprintf "{\"event\":\"item\",\"index\":%d,\"pi\":%s,\"outcome\":%s,%s}"
      index (pi_json pi) outcome_json (progress_json progress)
  | Damaged_entry { key; diagnostic } ->
    Printf.sprintf "{\"event\":\"damaged\",\"key\":%s,\"diagnostic\":%s}"
      (Json.escape key) (Json.escape diagnostic)
  | Checkpoint { manifest; done_; total } ->
    Printf.sprintf
      "{\"event\":\"checkpoint\",\"manifest\":%s,\"done\":%d,\"total\":%d}"
      (Json.escape manifest) done_ total
  | Finished { progress; manifest } ->
    Printf.sprintf "{\"event\":\"finished\",%s,\"manifest\":%s}"
      (progress_json progress) (Json.escape manifest)
