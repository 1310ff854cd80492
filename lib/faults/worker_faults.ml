(* Worker-level fault plans: the PR-5 fault machinery pointed at the
   distributed sweep's own workers instead of at the algorithms they
   certify. Three attack surfaces, all seed-reproducible:

   - crash storms: per-worker kill points (a worker SIGKILLs itself
     after its k-th computed unit, mid-claim);
   - clock skew: claim-file mtimes shifted into the past or future, as
     a skewed or rsync'd host would stamp them;
   - torn state: claim files truncated, bit-flipped, duplicated or
     joined by garbage names, as a crash mid-write or a buggy sync
     would leave them.

   Everything here manipulates a claims directory through the
   filesystem only — no dependency on the store library — so the same
   plans drive in-process tests, subprocess workers and the CI smoke
   job. *)

type claim_fuzz =
  | Truncate  (** cut a claim file's content short (torn write) *)
  | Bitflip  (** flip one content bit *)
  | Duplicate  (** plant a same-epoch [.quit] twin next to a [.claim] *)
  | Garbage  (** drop a non-protocol filename into the directory *)

(* Per-worker kill points for a crash storm: [survivors] workers never
   die (max_int), the rest SIGKILL themselves after a seeded number of
   computed units in [1, ceil(total/workers)] — early enough that
   their claims are in flight when they vanish. Deterministic in
   (seed, workers, total). *)
let kill_points ~seed ~workers ~survivors ~total =
  if workers < 1 then invalid_arg "Worker_faults.kill_points: workers >= 1";
  if survivors < 0 || survivors > workers then
    invalid_arg "Worker_faults.kill_points: survivors out of range";
  let rng = Lb_util.Rng.create seed in
  let span = max 1 ((total + workers - 1) / workers) in
  let points =
    Array.init workers (fun _ -> 1 + Lb_util.Rng.int rng span)
  in
  (* choose the survivor slots by seeded shuffle of the indices *)
  let idx = Array.init workers (fun i -> i) in
  Lb_util.Rng.shuffle rng idx;
  for s = 0 to survivors - 1 do
    points.(idx.(s)) <- max_int
  done;
  points

let claim_files dir =
  match Sys.readdir dir with
  | names ->
    Array.to_list names
    |> List.filter (fun n ->
           Filename.check_suffix n ".claim" || Filename.check_suffix n ".quit")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  | exception Sys_error _ -> []

(* Shift every claim/quit mtime by [by] seconds (negative = into the
   past, ages the claim toward expiry; positive = into the future, the
   skewed-host case the |now - mtime| rule exists for). Returns how
   many files were stamped. *)
let skew_claims ~dir ~by =
  let now = Unix.gettimeofday () in
  List.fold_left
    (fun n path ->
      match Unix.utimes path (now +. by) (now +. by) with
      | () -> n + 1
      | exception Unix.Unix_error _ -> n)
    0 (claim_files dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let apply_fuzz rng op path =
  match op with
  | Truncate -> (
    match read_file path with
    | s ->
      let keep = if String.length s = 0 then 0 else Lb_util.Rng.int rng (String.length s) in
      write_file path (String.sub s 0 keep);
      true
    | exception Sys_error _ -> false)
  | Bitflip -> (
    match read_file path with
    | "" -> false
    | s ->
      let b = Bytes.of_string s in
      let i = Lb_util.Rng.int rng (Bytes.length b) in
      let bit = Lb_util.Rng.int rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      write_file path (Bytes.to_string b);
      true
    | exception Sys_error _ -> false)
  | Duplicate ->
    if Filename.check_suffix path ".claim" then (
      let twin = Filename.chop_suffix path ".claim" ^ ".quit" in
      match write_file twin (try read_file path with Sys_error _ -> "") with
      | () -> true
      | exception Sys_error _ -> false)
    else false
  | Garbage -> (
    let name =
      Printf.sprintf "zz%06x.%d.claim.tmp" (Lb_util.Rng.int rng 0xFFFFFF)
        (Lb_util.Rng.int rng 99)
    in
    match write_file (Filename.concat (Filename.dirname path) name) "torn" with
    | () -> true
    | exception Sys_error _ -> false)

(* Apply [count] seeded fuzz operations to random claim files in [dir].
   Returns the (op, basename) pairs actually applied, for the harness
   log. No-ops (empty dir, vanished file) are skipped, not retried —
   the fuzz pressure is best-effort by design, the assertions are not. *)
let fuzz_claims ~seed ~count ~dir =
  let rng = Lb_util.Rng.create seed in
  let ops = [| Truncate; Bitflip; Duplicate; Garbage |] in
  let applied = ref [] in
  for _ = 1 to count do
    match claim_files dir with
    | [] -> ()
    | files ->
      let path = List.nth files (Lb_util.Rng.int rng (List.length files)) in
      let op = ops.(Lb_util.Rng.int rng (Array.length ops)) in
      if apply_fuzz rng op path then
        applied := (op, Filename.basename path) :: !applied
  done;
  List.rev !applied
