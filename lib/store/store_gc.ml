type reason = string

type report = {
  g_kept : int;
  g_condemned : (string * reason) list;
  g_claims_swept : int;
  g_dry : bool;
}

(* Classify every entry. [Store.fold] visits keys in sorted order and we
   cons, so the reversed accumulator is back in key order. *)
let scan ~current_fp st =
  let kept, condemned =
    Store.fold st ~init:(0, []) ~f:(fun (keep, drop) ~key r ->
        match r with
        | Error diag -> (keep, (key, "damaged: " ^ diag) :: drop)
        | Ok (e : Store.entry) -> (
          match current_fp ~algo:e.Store.e_algo ~n:e.Store.e_n with
          | None ->
            ( keep,
              ( key,
                Printf.sprintf "unknown algorithm %s (or unsupported at n=%d)"
                  e.Store.e_algo e.Store.e_n )
              :: drop )
          | Some fp when fp <> e.Store.e_fp ->
            (keep, (key, "stale fingerprint: " ^ e.Store.e_algo) :: drop)
          | Some _ -> (keep + 1, drop)))
  in
  (kept, List.rev condemned)

(* Remove [path] and everything under it, without following symlinks.
   What cannot be removed stays for the next pass. *)
let rec remove_tree path =
  try
    if (Unix.lstat path).Unix.st_kind = Unix.S_DIR then begin
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  with Unix.Unix_error _ | Sys_error _ -> ()

(* Remove per-sweep claim directories wholesale. Only called from the
   destructive pass, which refused to start (absent --force) while any
   in-TTL claim existed — so everything here is expired debris: claim
   and quit files of dead workers, and .failed quarantine records whose
   failures a future sweep will deterministically reproduce. Returns
   the number of sweep directories swept. *)
let sweep_claim_dirs st =
  let root = Filename.concat (Store.dir st) "claims" in
  match Sys.readdir root with
  | names ->
    Array.fold_left
      (fun n name ->
        let dir = Filename.concat root name in
        if Sys.is_directory dir then begin
          remove_tree dir;
          n + 1
        end
        else n)
      0 names
  | exception Sys_error _ -> 0

(* Unlinking at once is safe for readers: a lookup that opened a
   condemned entry before its unlink reads it whole, and one that opens
   after finds it [`Absent] (DESIGN §6i). *)
let destructive_pass ~current_fp st =
  let claims_swept = sweep_claim_dirs st in
  let kept, condemned = scan ~current_fp st in
  List.iter
    (fun (key, _why) ->
      try Sys.remove (Store.object_path st ~key) with Sys_error _ -> ())
    condemned;
  (* condemned entries an older gc parked under trash/epoch_K/ *)
  remove_tree (Filename.concat (Store.dir st) "trash");
  {
    g_kept = kept;
    g_condemned = condemned;
    g_claims_swept = claims_swept;
    g_dry = false;
  }

(* Distributed workers hold no writer lease — their footprint is the
   per-entry claim files. A destructive pass under live claims could
   condemn an entry a worker is about to trust, so in-TTL claims refuse
   the pass exactly like a held writer lease (rendered through the same
   [held] shape). Expired claim debris, by contrast, is reaped. *)
let live_claim_holder st =
  match Store_claim.live_claims st ~ttl:Store_claim.default_ttl with
  | [] -> None
  | claims ->
    Some
      {
        Store_lock.h_pid = 0;
        h_host = Unix.gethostname ();
        h_purpose =
          Printf.sprintf "work (%d live per-entry claims)" (List.length claims);
        h_since = 0.0;
      }

let run ?(dry = false) ?(force = false) ?(wait = 0.0) ?lease_ttl ~current_fp
    st =
  if dry then begin
    let kept, condemned = scan ~current_fp st in
    Ok
      { g_kept = kept; g_condemned = condemned; g_claims_swept = 0; g_dry = true }
  end
  else
    match live_claim_holder st with
    | Some h when not force -> Error h
    | Some _ | None -> (
      match Store_lock.acquire_writer ~wait ?ttl:lease_ttl st ~purpose:"gc" with
      | Error h when not force -> Error h
      | acquired ->
        let lease = match acquired with Ok w -> Some w | Error _ -> None in
        Fun.protect
          ~finally:(fun () -> Option.iter Store_lock.release_writer lease)
          (fun () -> Ok (destructive_pass ~current_fp st)))
