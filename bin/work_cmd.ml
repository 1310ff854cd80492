(* work: one distributed-sweep worker. K of these over the same --store
   DIR converge on one sweep, coordinated only through per-entry claim
   files — no server, no writer lease. Any of them (or a later plain
   `certify --store DIR`) prints the byte-identical certificate. *)

open Cmdliner
open Common
module Dist = Lb_store.Sweep_dist

let work_cmd =
  let store_req_arg =
    Arg.(required & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Shared store directory the workers converge on.")
  in
  let ttl_arg =
    Arg.(value & opt float Lb_store.Store_claim.default_ttl
         & info [ "claim-ttl" ] ~docv:"SECONDS"
             ~doc:
               "Per-entry claim expiry. A claim not heartbeat-refreshed \
                for $(docv) seconds counts as abandoned and is stolen \
                (epoch-fenced) by a live worker. A worker refreshes its \
                claims between units, once $(docv)/6 has passed, so a \
                unit running longer than 5/6 of $(docv) can be stolen \
                from a live worker — safe (identical bytes) but \
                wasteful. Must comfortably exceed one unit's compute \
                time.")
  in
  let batch_arg =
    Arg.(value & opt (some int) None
         & info [ "batch" ] ~docv:"K"
             ~doc:
               "Claims held at once (default 2x the worker's job count). \
                Smaller batches spread entries across workers more evenly; \
                larger ones amortize claim-directory scans.")
  in
  let kill_after_arg =
    Arg.(value & opt (some int) None
         & info [ "chaos-kill-after" ] ~docv:"K"
             ~doc:
               "Chaos harness hook: SIGKILL this worker the moment it has \
                computed its $(docv)-th unit, claims still in flight — \
                simulating a mid-sweep crash at a deterministic point. \
                Survivors must steal the expired claims and still produce \
                byte-identical output.")
  in
  let run algo_name n seed perms jobs dir ttl batch checkpoint_every events
      save_traces pi_timeout kill_after =
    let cmd = "work" in
    apply_jobs jobs;
    require_positive ~cmd "--perms" perms;
    if ttl <= 0.0 then usage ~cmd "--claim-ttl must be positive";
    Option.iter (require_positive ~cmd "--batch") batch;
    require_sweep_flags ~cmd ~pi_timeout ~checkpoint_every;
    let algo = algo_at ~cmd ~n ~pipeline:true algo_name in
    let perms = clamp_perms ~cmd ~n perms in
    (* Same family selection as certify/serve — byte-identity starts
       with sweeping the same permutations in the same order. *)
    let pis, exhaustive = Lb_serve.Protocol.family ~n ~perms ~seed in
    let store = Lb_store.Store.open_ ~dir in
    let cancel = sigterm_cancel () in
    let me = Unix.getpid () in
    let computed = Atomic.make 0 in
    let short key = String.sub key 0 (min 12 (String.length key)) in
    let outcome =
      with_events events Dist.event_to_json @@ fun log ->
      let on_event ev =
        log ev;
        (match ev with
        | Dist.Unit { outcome = Dist.Computed | Dist.Failed _; _ } -> (
          let c = Atomic.fetch_and_add computed 1 + 1 in
          match kill_after with
          | Some k when c >= k ->
            Printf.eprintf "work[%d]: chaos kill point (%d units computed)\n%!" me c;
            Unix.kill me Sys.sigkill
          | _ -> ())
        | _ -> ());
        match ev with
        | Dist.Start { total; sweep_id } ->
          Printf.eprintf "work[%d]: joined sweep %s: %d units\n%!" me sweep_id total
        | Dist.Stolen { key; epoch } ->
          Printf.eprintf "work[%d]: stole expired claim on %s (epoch %d)\n%!" me
            (short key) epoch
        | Dist.Fenced { key } ->
          Printf.eprintf
            "work[%d]: fenced off %s (own claim expired and was re-granted)\n%!"
            me (short key)
        | Dist.Checkpoint { resolved; total; _ } ->
          Printf.eprintf "work[%d]: checkpoint: %d/%d resolved\n%!" me resolved total
        | _ -> ()
      in
      match
        Dist.certify ~store ~ttl ?batch ?checkpoint_every ~save_traces
          ?pi_timeout ~on_event ~cancel algo ~n ~perms:pis ~exhaustive ()
      with
      | result -> Some result
      | exception Lb_util.Pool.Cancelled -> None
    in
    match outcome with
    | None ->
      interrupted
        ~who:(Printf.sprintf "work[%d]" me)
        "unstarted claims abandoned, manifest checkpointed — surviving \
         workers (or a re-run) finish the sweep"
    | Some (cert, r) ->
      print_sweep_result ~dir
        ~tally:
          (Printf.sprintf "worker         %d hits, %d computed, %d stolen claims\n"
             r.Dist.d_hits r.Dist.d_computed r.Dist.d_stolen)
        ~manifest:r.Dist.d_manifest_path cert r.Dist.d_failures
  in
  Cmd.v
    (Cmd.info "work"
       ~doc:
         "Join (or start) a distributed certify sweep over a shared store. \
          Run K of these with the same --algo/--n/--seed/--perms and the \
          same --store DIR — on one machine or several sharing a \
          filesystem — and they lease pending permutations per-entry, \
          steal expired claims from crashed peers with epoch fencing, and \
          converge on a certificate byte-identical to a single-worker \
          `certify --store`.")
    Term.(const run $ algo_arg $ n_arg $ seed_arg $ perms_arg $ jobs_arg
          $ store_req_arg $ ttl_arg $ batch_arg $ checkpoint_every_arg
          $ events_arg $ save_traces_arg $ pi_timeout_arg $ kill_after_arg)
