(* What every workload shares: the run context, timing loops, scratch
   directories, expected outputs and the host record. *)

open Perfbench_lib

let now = Unix.gettimeofday

(* Expected outputs are committed for this seed; any other seed is
   checked against an oracle computed in the run. *)
let default_seed = 20060723

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;  (** min 2 nproc *)
  work_dir : string;  (** private scratch, removed at exit *)
  write_expected : bool;
  spans : Span.t;
}

(* Paths relative to the repository root, where run.sh starts us. *)
let out_dir = ".perfbench"
let expected_dir = "perfbench/expected"
let mutexlb = "_build/default/bin/mutexlb.exe"

(* A metric as printed: name, value, unit. *)
type metric = string * float * string

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  setups : float list;  (** seconds, one per set-up *)
  work_per_s : float;
  latency_groups : float list list;  (** ms, one per operation, grouped by rep or window *)
  report : metric list;  (** the workload's own end-to-end figures *)
  counters : (string * string) list;  (** deterministic, compared exactly *)
  layers : metric list;  (** per-layer figures (traced runs) *)
  workers : int;
  peak_rss_kb : int;  (** after a fixed amount of work, helpers included *)
}

(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let fresh_counter = Atomic.make 0

(* A new, empty directory path under the run's scratch directory. *)
let fresh_dir ctx tag =
  let dir =
    Filename.concat ctx.work_dir
      (Printf.sprintf "%s-%d" tag (Atomic.fetch_and_add fresh_counter 1))
  in
  rm_rf dir;
  dir

(* ------------------------------------------------------------------ *)
(* Host facts. *)

let status_field pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = field ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' text)

(* VmHWM of a process, in KiB (0 when /proc is unavailable). *)
let peak_rss_kb pid =
  match status_field pid "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> Option.value ~default:0 (int_of_string_opt kb)
    | [] -> 0)
  | None -> 0

(* CPUs this process may run on, from its affinity list ("0-1,4"). *)
let nproc () =
  let fallback = Domain.recommended_domain_count () in
  match status_field "self" "Cpus_allowed_list" with
  | None -> fallback
  | Some list -> (
    try
      List.fold_left
        (fun acc part ->
          match String.split_on_char '-' part with
          | [ a ] when a <> "" -> ignore (int_of_string a); acc + 1
          | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
          | _ -> acc)
        0
        (String.split_on_char ',' list)
      |> max 1
    with Failure _ -> fallback)

let timed f =
  let t0 = now () in
  let y = f () in
  (y, now () -. t0)

(* The process's heap keeps growing from rep to rep, so its peak RSS is
   read after a fixed amount of work — the set-ups and the first
   [rss_reps] measured reps — not after however many reps the machine's
   speed allowed. *)
let rss_reps = 3

(* Run [f k] for k = 0, 1, ... until [seconds] are used up: a rep
   starts only while the median rep so far still fits, and at least
   [max min_reps rss_reps] run. Returns the results in order and the
   peak RSS in KiB after the first [rss_reps] reps. *)
let repeat ~seconds ~min_reps f =
  let t_end = now () +. seconds in
  let rss = ref 0 in
  let rec go k walls acc =
    let fits =
      match walls with [] -> true | _ -> now () +. Stats.median walls <= t_end
    in
    if k >= max min_reps rss_reps && not fits then (List.rev acc, !rss)
    else begin
      (* every rep starts from a collected heap, whatever the last left *)
      Gc.compact ();
      let t0 = now () in
      let y = f k in
      let wall = now () -. t0 in
      if k + 1 = rss_reps then rss := peak_rss_kb "self";
      go (k + 1) (wall :: walls) (y :: acc)
    end
  in
  go 0 [] []

(* Set up [times] times, tearing down all but the last; returns the
   last set-up and every set-up's duration. *)
let setup_repeated ~times ~setup ~teardown =
  let rec go k durations =
    let s, d = timed setup in
    if k + 1 >= times then (s, List.rev (d :: durations))
    else begin
      teardown s;
      go (k + 1) (d :: durations)
    end
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Expected outputs: "### key" lines, each followed by its value. *)

let expected_path ctx = Filename.concat expected_dir (ctx.workload ^ ".txt")

let parse_expected text =
  (* every value ends with a newline, the file's last one included *)
  let text =
    if String.ends_with ~suffix:"\n" text then
      String.sub text 0 (String.length text - 1)
    else text
  in
  let lines = String.split_on_char '\n' text in
  let flush key buf acc =
    match key with
    | None -> acc
    | Some k -> (k, String.concat "\n" (List.rev buf)) :: acc
  in
  let rec go key buf acc = function
    | [] -> List.rev (flush key buf acc)
    | l :: rest when String.length l > 4 && String.sub l 0 4 = "### " ->
      go (Some (String.sub l 4 (String.length l - 4))) [] (flush key buf acc) rest
    | l :: rest -> go key (l :: buf) acc rest
  in
  go None [] [] lines

let render_expected pairs =
  String.concat "" (List.map (fun (k, v) -> Printf.sprintf "### %s\n%s\n" k v) pairs)

let load_expected ctx =
  if ctx.seed <> default_seed then []
  else
    let path = expected_path ctx in
    if Sys.file_exists path then
      parse_expected (In_channel.with_open_bin path In_channel.input_all)
    else failwith ("missing expected outputs " ^ path)

(* Compare every output with its expected value: the committed one when
   the seed's file has it, else [oracle key]. Returns the mismatching
   keys, after printing each. *)
let verify ctx ~outputs ~oracle =
  let expected = load_expected ctx in
  List.filter_map
    (fun (k, got) ->
      let want =
        match List.assoc_opt k expected with Some w -> w | None -> oracle k
      in
      if want = got then None
      else begin
        Printf.printf "MISMATCH %s\n  expected: %s\n  got:      %s\n%!" k
          (String.escaped want) (String.escaped got);
        Some k
      end)
    outputs

(* Deterministic counters are compared with the committed ones for the
   default seed. *)
let verify_counters ctx counters =
  let expected = load_expected ctx in
  List.filter_map
    (fun (k, got) ->
      match List.assoc_opt ("counter " ^ k) expected with
      | Some want when want <> got ->
        Printf.printf "MISMATCH counter %s: expected %s, got %s\n%!" k want got;
        Some k
      | Some _ | None -> None)
    counters

let write_expected ctx pairs =
  Lb_util.Fsio.write_atomic ~path:(expected_path ctx) (render_expected pairs);
  Printf.printf "wrote %s\n%!" (expected_path ctx)

let counter_pairs counters = List.map (fun (k, v) -> ("counter " ^ k, v)) counters

let certificate_text = Lb_serve.Protocol.certificate_text

let median_or_zero = function [] -> 0.0 | xs -> Stats.median xs
