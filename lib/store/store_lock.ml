type held = Store_claim.held = {
  h_pid : int;
  h_host : string;
  h_purpose : string;
  h_since : float;
}

exception Busy of held

let pp_held ppf h =
  Format.fprintf ppf "pid %d on %s (purpose %s, since %.0f)" h.h_pid h.h_host
    h.h_purpose h.h_since

let () =
  Printexc.register_printer (function
    | Busy h ->
      Some (Format.asprintf "store writer lease busy: held by %a" pp_held h)
    | _ -> None)

let host = Unix.gethostname ()

(* [kill pid 0] probes existence: ESRCH = dead, EPERM = alive but not
   ours. Only meaningful on the host that recorded the pid. *)
let pid_alive_here pid =
  pid > 0
  &&
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> true

(* ---------------------------- writer lease ---------------------------- *)

(* The lease is the claim on this key in [locks/]. *)
let writer_key = "writer"

(* An unparsable lease is either a concurrent writer between its
   O_EXCL create and its write (sub-millisecond window) or debris from
   a crash inside that window. Give it a few seconds of benefit of the
   doubt, then treat it as stale. *)
let unparsable_grace = 5.0

(* The writer's staleness rule for the lease at [epoch], [age] seconds
   from now. Unlike a work claim's TTL-only rule it reads the holder:
   a holder whose pid is dead on this host is stale at once, so a
   [kill -9]'d sweep never wedges the store. The TTL covers what pid
   probing cannot see — dead remote hosts, rsync'd stores, clocks that
   stamped the lease in the future. *)
let stale ?ttl locks ~epoch ~age =
  (match ttl with Some t -> age > t | None -> false)
  ||
  match Store_claim.holder locks ~key:writer_key ~epoch with
  | Some h -> h.h_host = host && not (pid_alive_here h.h_pid)
  | None -> age > unparsable_grace

let placeholder purpose =
  { h_pid = 0; h_host = host; h_purpose = purpose; h_since = 0.0 }

let holder_at locks ~epoch =
  match Store_claim.holder locks ~key:writer_key ~epoch with
  | Some h -> h
  | None -> placeholder "unparsable"

let holder st =
  let locks = Store_claim.locks st in
  match Store_claim.probe_slot locks ~key:writer_key with
  | Store_claim.Held { epoch; _ } -> holder_at locks ~epoch
  | Store_claim.Free | Store_claim.Released _ -> placeholder "unknown"

type writer = Store_claim.claim

let try_acquire_writer ?ttl st ~purpose =
  let locks = Store_claim.locks st in
  let slot = Store_claim.probe_slot locks ~key:writer_key in
  match
    Store_claim.take locks ~key:writer_key ~purpose ~slot ~stale:(stale ?ttl locks)
  with
  | Some w -> Ok w
  | None -> Error (holder st)

let acquire_writer ?(wait = 0.0) ?ttl st ~purpose =
  let deadline = Unix.gettimeofday () +. wait in
  let rec go () =
    match try_acquire_writer ?ttl st ~purpose with
    | Ok w -> Ok w
    | Error h ->
      if Unix.gettimeofday () >= deadline then Error h
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()

let release_writer = Store_claim.release
let refresh_writer = Store_claim.refresh

let writer_held ?ttl st =
  let locks = Store_claim.locks st in
  match Store_claim.probe_slot locks ~key:writer_key with
  | Store_claim.Held { epoch; age } when not (stale ?ttl locks ~epoch ~age) ->
    Some (holder_at locks ~epoch)
  | Store_claim.Held _ | Store_claim.Free | Store_claim.Released _ -> None
