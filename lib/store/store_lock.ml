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

let locks_dir st = Store_claim.dir (Store_claim.locks st)
let epoch_path st = Filename.concat (locks_dir st) "epoch"
let readers_dir st = Filename.concat (locks_dir st) "readers"

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

(* -------------------------------- epoch ------------------------------- *)

let epoch st =
  match Lb_util.Fsio.read ~path:(epoch_path st) () with
  | s -> ( match int_of_string_opt (String.trim s) with Some e -> e | None -> 0)
  | exception Sys_error _ -> 0

let bump_epoch st =
  Lb_util.Fsio.mkdir_p (locks_dir st);
  let e = epoch st + 1 in
  Lb_util.Fsio.write_atomic ~path:(epoch_path st) (string_of_int e ^ "\n");
  e

(* ------------------------------- readers ------------------------------ *)

type reader = {
  r_store : Store.t;
  r_path : string;
  r_purpose : string;
  r_mu : Mutex.t;  (** guards the two fields below and the file *)
  mutable r_epoch : int;  (** the epoch the file was last written with *)
  mutable r_live : bool;
}

let reader_counter = Atomic.make 0

let reader_body ~purpose ~epoch =
  Store_claim.holder_body ~purpose ^ Printf.sprintf "epoch %d\n" epoch

let register_reader ?(purpose = "reader") st =
  Lb_util.Fsio.mkdir_p (readers_dir st);
  let name =
    Printf.sprintf "%d-%d.reader" (Unix.getpid ())
      (Atomic.fetch_and_add reader_counter 1)
  in
  let path = Filename.concat (readers_dir st) name in
  let e = epoch st in
  Lb_util.Fsio.write_atomic ~path (reader_body ~purpose ~epoch:e);
  {
    r_store = st;
    r_path = path;
    r_purpose = purpose;
    r_mu = Mutex.create ();
    r_epoch = e;
    r_live = true;
  }

(* The file only ever needs the latest epoch: an unchanged epoch leaves
   it as it is, so a server answering from the store writes nothing. *)
let refresh_reader r =
  Mutex.protect r.r_mu (fun () ->
      if r.r_live then begin
        let e = epoch r.r_store in
        if e <> r.r_epoch || not (Sys.file_exists r.r_path) then begin
          Lb_util.Fsio.write_atomic ~path:r.r_path
            (reader_body ~purpose:r.r_purpose ~epoch:e);
          r.r_epoch <- e
        end
      end)

let release_reader r =
  Mutex.protect r.r_mu (fun () ->
      if r.r_live then begin
        r.r_live <- false;
        try Sys.remove r.r_path with Sys_error _ -> ()
      end)

let reader_files st =
  match Sys.readdir (readers_dir st) with
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".reader")
    |> List.sort compare
    |> List.map (Filename.concat (readers_dir st))
  | exception Sys_error _ -> []

(* (pid, host, joined epoch) of a reader file; [None] for debris *)
let parse_reader path =
  match Lb_util.Fsio.read ~path () with
  | body -> (
    match
      ( Store_claim.parse_holder body,
        Option.bind (Store_claim.body_field body "epoch") int_of_string_opt )
    with
    | Some h, Some e -> Some (h.h_pid, h.h_host, e)
    | _ -> None)
  | exception Sys_error _ -> None

let live_readers st =
  List.filter_map
    (fun path ->
      match parse_reader path with
      | Some (pid, h, e) when h <> host || pid_alive_here pid -> Some (pid, e)
      | Some _ | None -> None)
    (reader_files st)
  |> List.sort compare

let reap_dead_readers st =
  List.fold_left
    (fun n path ->
      match parse_reader path with
      | Some (pid, h, _) when h = host && not (pid_alive_here pid) ->
        (try Sys.remove path with Sys_error _ -> ());
        n + 1
      | Some _ -> n
      | None ->
        (* unparsable reader files are debris *)
        (try Sys.remove path with Sys_error _ -> ());
        n + 1)
    0 (reader_files st)
