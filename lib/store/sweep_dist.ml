open Lb_shmem

type outcome = Hit | Computed | Failed of string

type event =
  | Start of { total : int; sweep_id : string }
  | Unit of {
      index : int;
      pi : Lb_core.Permutation.t;
      outcome : outcome;
      resolved : int;
      total : int;
    }
  | Stolen of { key : string; epoch : int }
  | Fenced of { key : string }
  | Round of { claimed : int; resolved : int; total : int; backoff : float }
  | Checkpoint of { manifest : string; resolved : int; total : int }
  | Finished of { resolved : int; failed : int; total : int; manifest : string }

type report = {
  d_total : int;
  d_hits : int;
  d_computed : int;
  d_stolen : int;
  d_failed : int;
  d_records : Lb_core.Pipeline.record list;
  d_failures : Sweep.failure list;
  d_manifest_path : string;
}

(* Heartbeats must keep flowing while the pool computes, so they live
   on their own domain, refreshing every claim currently held. *)
type heartbeat = {
  hb_mu : Mutex.t;
  mutable hb_held : Store_claim.claim list;
  hb_stop : bool Atomic.t;
  mutable hb_fenced : string list;  (* keys whose refresh came back false *)
}

let hb_start ~every =
  let hb =
    { hb_mu = Mutex.create (); hb_held = []; hb_stop = Atomic.make false;
      hb_fenced = [] }
  in
  let dom =
    Domain.spawn (fun () ->
        let tick = Float.min 0.05 every in
        let next = ref (Unix.gettimeofday () +. every) in
        while not (Atomic.get hb.hb_stop) do
          Unix.sleepf tick;
          if Unix.gettimeofday () >= !next then begin
            next := Unix.gettimeofday () +. every;
            Mutex.lock hb.hb_mu;
            List.iter
              (fun c ->
                if not (Store_claim.refresh c) then
                  hb.hb_fenced <- Store_claim.key c :: hb.hb_fenced)
              hb.hb_held;
            Mutex.unlock hb.hb_mu
          end
        done)
  in
  (hb, dom)

let hb_add hb c =
  Mutex.lock hb.hb_mu;
  hb.hb_held <- c :: hb.hb_held;
  Mutex.unlock hb.hb_mu

let hb_remove hb c =
  Mutex.lock hb.hb_mu;
  hb.hb_held <- List.filter (fun c' -> c' != c) hb.hb_held;
  Mutex.unlock hb.hb_mu

let hb_take_fenced hb =
  Mutex.lock hb.hb_mu;
  let f = hb.hb_fenced in
  hb.hb_fenced <- [];
  Mutex.unlock hb.hb_mu;
  f

let work ~store ?jobs ?(ttl = Store_claim.default_ttl) ?batch
    ?(checkpoint_every = 64) ?save_traces ?pi_timeout
    ?(on_event = fun _ -> ()) ?cancel ?seed (algo : Algorithm.t) ~n ~perms ()
    =
  let plan =
    Sweep.plan ~who:"Sweep_dist.work" ~store ?save_traces ?pi_timeout algo ~n
      ~perms
  in
  if ttl <= 0.0 then invalid_arg "Sweep_dist.work: ttl must be positive";
  if checkpoint_every < 1 then
    invalid_arg "Sweep_dist.work: checkpoint_every must be >= 1";
  let jobs_n = match jobs with Some j -> j | None -> Lb_util.Pool.default_jobs () in
  let batch = match batch with Some b -> max 1 b | None -> max 1 (2 * jobs_n) in
  let rng =
    Lb_util.Rng.create (match seed with Some s -> s | None -> Unix.getpid ())
  in
  let total = Array.length plan.Sweep.u_pis in
  let mpath = plan.Sweep.u_manifest in
  let claims = Store_claim.open_ store ~sweep_id:plan.Sweep.u_sweep_id in
  (* Register as a reader so a concurrent gc defers destruction until
     we are gone; the whole-store writer lease is deliberately NOT
     taken — per-entry claims replace it for distributed sweeps. *)
  let reader = Store_lock.register_reader ~purpose:"work" store in
  let hb, hb_dom = hb_start ~every:(Float.max 0.02 (ttl /. 6.)) in
  let stop_hb () =
    Atomic.set hb.hb_stop true;
    Domain.join hb_dom
  in
  Fun.protect ~finally:(fun () ->
      stop_hb ();
      Store_lock.release_reader reader)
  @@ fun () ->
  (* [resolved.(i)]: None = pending; Some true = done (store entry);
     Some false = failed (.failed record). Monotonic — durable facts
     never un-resolve within a run. *)
  let resolved = Array.make total None in
  let resolved_count = ref 0 in
  let hits = ref 0 and computed = ref 0 and stolen = ref 0 in
  let mu = Mutex.create () in
  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
  in
  let failure i =
    Option.value ~default:"unknown failure"
      (Store_claim.failure claims ~key:plan.Sweep.u_keys.(i))
  in
  (* The manifest is derived from durable state only, so every worker
     checkpointing at the same store state writes identical bytes. *)
  let checkpoint () =
    locked (fun () ->
        Sweep.save_manifest plan (fun i ->
            match resolved.(i) with
            | None -> `Pending
            | Some true -> `Done
            | Some false -> `Failed (failure i));
        on_event
          (Checkpoint { manifest = mpath; resolved = !resolved_count; total }))
  in
  let mark i done_ =
    locked (fun () ->
        if resolved.(i) = None then begin
          resolved.(i) <- Some done_;
          incr resolved_count
        end)
  in
  on_event (Start { total; sweep_id = plan.Sweep.u_sweep_id });
  let since_checkpoint = ref 0 in
  let compute_one (i, claim) =
    let pi = plan.Sweep.u_pis.(i) and key = plan.Sweep.u_keys.(i) in
    Fun.protect ~finally:(fun () -> hb_remove hb claim; Store_claim.release claim)
    @@ fun () ->
    let outcome =
      (* Re-probe durable state under the claim: a fenced-out previous
         holder may have published between our snapshot and now. *)
      match Sweep.lookup plan i with
      | `Hit _ -> Hit
      | `Absent | `Damaged _ -> (
        match Store_claim.failure claims ~key with
        | Some msg -> Failed msg
        | None -> (
          match Sweep.compute plan i with
          | _ -> Computed
          | exception Lb_util.Pool.Cancelled -> raise Lb_util.Pool.Cancelled
          | exception e ->
            let msg = Sweep.failure_message e in
            (* Exactly-once publication: losers of the link race adopt
               the winner's (identical, deterministic) message. *)
            let published = Store_claim.publish_failure claims ~key ~message:msg in
            let msg =
              if published then msg
              else Option.value ~default:msg (Store_claim.failure claims ~key)
            in
            Failed msg))
    in
    (match outcome with
    | Hit ->
      mark i true;
      locked (fun () -> incr hits)
    | Computed ->
      mark i true;
      locked (fun () -> incr computed)
    | Failed _ ->
      mark i false;
      locked (fun () -> incr computed));
    let eager = match outcome with Failed _ -> true | Hit | Computed -> false in
    let due =
      locked (fun () ->
          incr since_checkpoint;
          if eager || !since_checkpoint >= checkpoint_every
             || !resolved_count = total
          then begin
            since_checkpoint := 0;
            true
          end
          else false)
    in
    if due then checkpoint ();
    locked (fun () ->
        on_event (Unit { index = i; pi; outcome; resolved = !resolved_count; total }))
  in
  let miss_rounds = ref 0 in
  let last_seen_resolved = ref 0 in
  let backoff_sleep () =
    (* Cap the wait well below the TTL: an empty claim round usually
       means peers are computing, and at-worst-0.25s polling (one
       readdir plus a few lookups) is far cheaper than idling a worker
       through a long exponential tail while the peer finishes. *)
    let cap = Float.min (ttl /. 4.) 0.25 in
    let base =
      Float.min cap (0.02 *. (2.0 ** float_of_int (min 6 !miss_rounds)))
    in
    let d = base *. (0.5 +. Lb_util.Rng.float rng) in
    let deadline = Unix.gettimeofday () +. d in
    let rec nap () =
      (match cancel with
      | Some c when Lb_util.Pool.Cancel.requested c -> raise Lb_util.Pool.Cancelled
      | _ -> ());
      let left = deadline -. Unix.gettimeofday () in
      if left > 0.0 then begin
        Unix.sleepf (Float.min 0.05 left);
        nap ()
      end
    in
    nap ();
    d
  in
  let drain claimed =
    List.iter (fun (_, c) -> hb_remove hb c; Store_claim.abandon c) claimed;
    checkpoint ();
    raise Lb_util.Pool.Cancelled
  in
  let rec round () =
    (match cancel with
    | Some c when Lb_util.Pool.Cancel.requested c -> drain []
    | _ -> ());
    List.iter (fun k -> locked (fun () -> on_event (Fenced { key = k })))
      (hb_take_fenced hb);
    (* Refresh unresolved units from durable state. *)
    let pending = ref [] in
    Array.iteri
      (fun i r ->
        if r = None then
          match Sweep.lookup plan i with
          | `Hit _ ->
            mark i true;
            locked (fun () -> incr hits)
          | `Absent | `Damaged _ -> (
            match Store_claim.failure claims ~key:plan.Sweep.u_keys.(i) with
            | Some _ -> mark i false
            | None -> pending := i :: !pending))
      resolved;
    let pending = List.rev !pending in
    if pending = [] then ()
    else begin
      let snap = Store_claim.snapshot claims in
      (* Rotate the candidate list by a jittered offset so K workers
         starting together fan out over the family instead of queueing
         on the same first key. Results are unaffected — claims only
         distribute work. *)
      let pending =
        match pending with
        | [] | [ _ ] -> pending
        | _ ->
          let len = List.length pending in
          let off = Lb_util.Rng.int rng len in
          let arr = Array.of_list pending in
          List.init len (fun j -> arr.((j + off) mod len))
      in
      let claimed = ref [] in
      let n_claimed = ref 0 in
      List.iter
        (fun i ->
          if !n_claimed < batch then begin
            let key = plan.Sweep.u_keys.(i) in
            let slot =
              Option.value ~default:Store_claim.Free (Hashtbl.find_opt snap key)
            in
            match Store_claim.try_claim ~slot claims ~key ~ttl with
            | Some c ->
              (match slot with
              | Store_claim.Held { epoch; _ } ->
                locked (fun () ->
                    incr stolen;
                    on_event (Stolen { key; epoch = epoch + 1 }))
              | Store_claim.Free | Store_claim.Released _ -> ());
              hb_add hb c;
              claimed := (i, c) :: !claimed;
              incr n_claimed
            | None -> ()
          end)
        pending;
      let claimed = List.rev !claimed in
      let backoff =
        if claimed = [] then begin
          (* An empty round with visible cluster progress (peers
             published entries since our last look) is not contention —
             stay hot and rescan soon. Only a stalled cluster (all
             claims live, nothing resolving: genuinely long units)
             grows the backoff. *)
          let now_resolved = locked (fun () -> !resolved_count) in
          if now_resolved > !last_seen_resolved then miss_rounds := 0
          else incr miss_rounds;
          last_seen_resolved := now_resolved;
          backoff_sleep ()
        end
        else begin
          miss_rounds := 0;
          0.0
        end
      in
      locked (fun () ->
          on_event
            (Round
               { claimed = List.length claimed; resolved = !resolved_count;
                 total; backoff }));
      (match Lb_util.Pool.iter ?jobs ?cancel compute_one claimed with
      | () -> ()
      | exception Lb_util.Pool.Cancelled ->
        (* In-flight units finished and released in their own finally;
           unstarted ones still hold claims — hand them back so
           survivors need not wait out the TTL. *)
        drain claimed);
      round ()
    end
  in
  round ();
  (* Finalize: every unit resolved. The records, failures and final
     manifest all derive from durable state in family order. *)
  checkpoint ();
  let records = ref [] and failures = ref [] and failed = ref 0 in
  for i = total - 1 downto 0 do
    match Sweep.lookup plan i with
    | `Hit r -> records := r :: !records
    | `Absent | `Damaged _ ->
      incr failed;
      failures :=
        { Sweep.f_pi = plan.Sweep.u_pis.(i); f_message = failure i }
        :: !failures
  done;
  locked (fun () ->
      on_event
        (Finished
           { resolved = !resolved_count; failed = !failed; total;
             manifest = mpath }));
  {
    d_total = total;
    d_hits = !hits;
    d_computed = !computed;
    d_stolen = !stolen;
    d_failed = !failed;
    d_records = !records;
    d_failures = !failures;
    d_manifest_path = mpath;
  }

let certify ~store ?jobs ?ttl ?batch ?checkpoint_every ?save_traces ?pi_timeout
    ?on_event ?cancel ?seed algo ~n ~perms ?(exhaustive = false) () =
  let report =
    work ~store ?jobs ?ttl ?batch ?checkpoint_every ?save_traces ?pi_timeout
      ?on_event ?cancel ?seed algo ~n ~perms ()
  in
  (Sweep.certificate algo ~n ~exhaustive report.d_records, report)

(* ------------------------------ telemetry ----------------------------- *)

module Json = Lb_util.Json

let event_to_json = function
  | Start { total; sweep_id } ->
    Printf.sprintf "{\"event\":\"start\",\"total\":%d,\"sweep\":%s}" total
      (Json.escape sweep_id)
  | Unit { index; pi; outcome; resolved; total } ->
    let outcome_json =
      match outcome with
      | Hit -> "\"hit\""
      | Computed -> "\"computed\""
      | Failed msg ->
        Printf.sprintf "\"failed\",\"message\":%s" (Json.escape msg)
    in
    Printf.sprintf
      "{\"event\":\"unit\",\"index\":%d,\"pi\":%s,\"outcome\":%s,\
       \"resolved\":%d,\"total\":%d}"
      index (Sweep.pi_json pi) outcome_json resolved total
  | Stolen { key; epoch } ->
    Printf.sprintf "{\"event\":\"stolen\",\"key\":%s,\"epoch\":%d}"
      (Json.escape key) epoch
  | Fenced { key } ->
    Printf.sprintf "{\"event\":\"fenced\",\"key\":%s}" (Json.escape key)
  | Round { claimed; resolved; total; backoff } ->
    Printf.sprintf
      "{\"event\":\"round\",\"claimed\":%d,\"resolved\":%d,\"total\":%d,\
       \"backoff\":%.3f}"
      claimed resolved total backoff
  | Checkpoint { manifest; resolved; total } ->
    Printf.sprintf
      "{\"event\":\"checkpoint\",\"manifest\":%s,\"resolved\":%d,\"total\":%d}"
      (Json.escape manifest) resolved total
  | Finished { resolved; failed; total; manifest } ->
    Printf.sprintf
      "{\"event\":\"finished\",\"resolved\":%d,\"failed\":%d,\"total\":%d,\
       \"manifest\":%s}"
      resolved failed total (Json.escape manifest)
