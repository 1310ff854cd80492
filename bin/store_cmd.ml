(* store stat|verify|gc: inspect and maintain a durable result store. *)

open Cmdliner
open Common

let store_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"Store directory.")
  in
  (* stat, verify and gc inspect a store that exists: a missing or
     mistyped DIR is a usage error, not a fresh empty store *)
  let existing ~cmd dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      usage ~cmd:("store " ^ cmd) "%s: %s" dir
        (if Sys.file_exists dir then "not a directory" else "no such directory");
    Lb_store.Store.open_ ~dir
  in
  let stat_cmd =
    let run dir =
      let st = existing ~cmd:"stat" dir in
      let s = Lb_store.Store.stat st in
      Printf.printf "store          %s\n" dir;
      Printf.printf "entries        %d (%d with E_pi traces, %d damaged)\n"
        s.Lb_store.Store.s_entries s.Lb_store.Store.s_with_trace
        s.Lb_store.Store.s_damaged;
      Printf.printf "object bytes   %d\n" s.Lb_store.Store.s_bytes;
      Printf.printf "manifests      %d\n" s.Lb_store.Store.s_manifests;
      if s.Lb_store.Store.s_by_algo <> [] then begin
        Printf.printf "by (algo, n):\n";
        List.iter
          (fun (algo, n, count) ->
            Printf.printf "  %-20s n=%-3d %d\n" algo n count)
          s.Lb_store.Store.s_by_algo
      end
    in
    Cmd.v
      (Cmd.info "stat" ~doc:"Summarize a store: entry counts, sizes, sweeps")
      Term.(const run $ dir_arg)
  in
  let verify_cmd =
    let run dir =
      let st = existing ~cmd:"verify" dir in
      let ok, damaged =
        Lb_store.Store.fold st ~init:(0, [])
          ~f:(fun (ok, bad) ~key -> function
            | Ok _ -> (ok + 1, bad)
            | Error diag -> (ok, (key, diag) :: bad))
      in
      let damaged = List.rev damaged in
      List.iter
        (fun (key, diag) ->
          Printf.printf "DAMAGED %s\n  %s\n  %s\n" key
            (Lb_store.Store.object_path st ~key)
            diag)
        damaged;
      Printf.printf "verified       %d entries ok, %d damaged\n" ok
        (List.length damaged);
      if damaged <> [] then exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Re-parse and re-hash every entry; report damage. Exits 1 if any \
            entry fails verification.")
      Term.(const run $ dir_arg)
  in
  let gc_cmd =
    let dry_arg =
      Arg.(value & flag
           & info [ "dry-run" ] ~doc:"Report what would be dropped; delete nothing.")
    in
    let force_arg =
      Arg.(value & flag
           & info [ "force" ]
               ~doc:
                 "Run even while another writer (a sweep, a server) holds \
                  the store lease. Safe against readers — condemned entries \
                  go to trash, not straight to unlink — but a concurrent \
                  sweep may recompute entries gc just condemned.")
    in
    let wait_arg =
      Arg.(value & opt float 0.0
           & info [ "wait" ] ~docv:"SECONDS"
               ~doc:"Wait up to $(docv) for the writer lease before refusing.")
    in
    let lease_ttl_arg =
      Arg.(value & opt (some float) None
           & info [ "lease-ttl" ] ~docv:"SECONDS"
               ~doc:
                 "Also treat a writer lease as stale when its file's mtime \
                  is more than $(docv) seconds from now (either direction). \
                  Breaks leases left by dead $(i,remote) hosts or rsync'd \
                  stores, which pid-liveness probing cannot see. Live \
                  holders refresh their lease on every checkpoint, so a \
                  TTL comfortably above the checkpoint cadence is safe; a \
                  TTL below a live sweep's checkpoint interval breaks its \
                  lease, and that sweep stops at its next checkpoint \
                  (certify exits 75).")
    in
    let run dir dry force wait lease_ttl =
      let st = existing ~cmd:"gc" dir in
      let current_fp ~algo ~n =
        match Lb_algos.Registry.find algo with
        | Some a when Lb_shmem.Algorithm.supports a n ->
          Some (Lb_store.Store_key.fingerprint a ~n)
        | Some _ | None -> None
      in
      match
        Lb_store.Store_gc.run ~dry ~force ~wait ?lease_ttl:lease_ttl
          ~current_fp st
      with
      | Error held ->
        Format.eprintf
          "gc: refused: store held by %a — a sweep may be mid-flight \
           (writer lease or live per-entry worker claims). Retry with \
           --wait SECONDS, or override with --force.@."
          Lb_store.Store_lock.pp_held held;
        exit 1
      | Ok r ->
        List.iter
          (fun (key, why) ->
            Printf.printf "%s %s (%s)\n"
              (if dry then "would drop" else "drop")
              key why)
          r.Lb_store.Store_gc.g_condemned;
        Printf.printf "gc             %d kept, %d %s\n" r.Lb_store.Store_gc.g_kept
          (List.length r.Lb_store.Store_gc.g_condemned)
          (if dry then "would be dropped" else "dropped");
        if not dry then
          Printf.printf
            "gc trash       %d dir(s) purged, %d deferred to live readers, \
             %d claim dir(s) swept (epoch %d)\n"
            r.Lb_store.Store_gc.g_trash_purged
            r.Lb_store.Store_gc.g_trash_deferred
            r.Lb_store.Store_gc.g_claims_swept r.Lb_store.Store_gc.g_epoch
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Drop entries whose algorithm fingerprint no longer matches the \
            current code (plus damaged and unknown-algorithm entries). Keys \
            embed the fingerprint, so stale entries can never be served by \
            mistake -- gc only reclaims the space. Refuses (exit 1) while a \
            sweep holds the store's writer lease unless $(b,--force); \
            condemned entries are renamed into an epoch-stamped trash \
            directory and only purged once no registered reader predates \
            the condemnation.")
      Term.(const run $ dir_arg $ dry_arg $ force_arg $ wait_arg $ lease_ttl_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain a durable result store (stat, verify, gc)")
    [ stat_cmd; verify_cmd; gc_cmd ]
