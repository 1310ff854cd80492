(* Worker domains are spawned per [map] call and joined before it
   returns. A shared persistent pool would amortize the spawn, but it
   makes nested maps (a parallel certify inside a parallel experiment
   grid) deadlock-prone: every worker could end up blocked waiting for
   queue slots serviced only by workers, and on OCaml 5 its idle
   domains would slow every minor collection. Per-call domains plus a
   domain-local "I am a worker" flag — under which nested maps degrade
   to List.map — keep the whole sweep layer composable. The spawn is
   paid once per call, not per item, but it is not free: on a 2-vCPU VM
   (OCaml 5.1.1) an empty spawn and join takes 0.19–0.28 ms, and a
   yang_anderson n=10 unit takes 1.77–2.39 ms on a fresh domain against
   1.04–1.42 ms on the calling domain. The calling domain works as one
   of the [jobs] workers, so [jobs = 1] spawns nothing. *)

let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

let default = ref None

let default_jobs () =
  match !default with
  | Some j -> j
  | None -> (
    match Sys.getenv_opt "MUTEXLB_JOBS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | Some _ | None -> Domain.recommended_domain_count ())
    | None -> Domain.recommended_domain_count ())

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  default := Some j

module Cancel = struct
  (* Two atomics, no lock: [set] must be callable from a signal handler
     and from any domain, and [requested] is polled on the sweep hot
     path (once per item, next to a construct→encode→decode run — the
     gettimeofday is noise). A deadline of [infinity] means unarmed. *)
  type t = { fired : bool Atomic.t; deadline : float Atomic.t }

  let create () = { fired = Atomic.make false; deadline = Atomic.make infinity }
  let set c = Atomic.set c.fired true
  let set_deadline c t = Atomic.set c.deadline t

  let requested c =
    Atomic.get c.fired
    || Unix.gettimeofday () > Atomic.get c.deadline
end

exception Cancelled

let () =
  Printexc.register_printer (function
    | Cancelled -> Some "Lb_util.Pool.Cancelled"
    | _ -> None)

let cancel_requested = function
  | None -> false
  | Some c -> Cancel.requested c

(* Result slots are written by exactly one worker each and read only
   after every worker has been joined, so plain (non-atomic) array
   stores are race-free under the OCaml 5 memory model. *)
type 'b slot = Empty | Done of 'b

let parallel_map ~jobs ?cancel f items =
  let n = Array.length items in
  let results = Array.make n Empty in
  let lock = Mutex.create () in
  let finished = Condition.create () in
  let next = ref 0 in
  let live = ref 0 in
  let failure = ref None in
  (* [take] hands out input indices; once a failure is recorded it
     returns [None] so workers fail fast instead of draining the rest
     of the sweep. *)
  let take () =
    (* Checked outside the lock: [requested] reads atomics only, and a
       cancellation observed by one worker is recorded as the shared
       failure, so every other worker stops at its next take. *)
    let cancelled = cancel_requested cancel in
    Mutex.lock lock;
    let i =
      if cancelled then begin
        if !failure = None then
          failure := Some (Cancelled, Printexc.get_callstack 0);
        None
      end
      else if !failure <> None || !next >= n then None
      else begin
        let i = !next in
        incr next;
        Some i
      end
    in
    Mutex.unlock lock;
    i
  in
  let record exn bt =
    Mutex.lock lock;
    if !failure = None then failure := Some (exn, bt);
    Mutex.unlock lock
  in
  let rec drain () =
    match take () with
    | None -> ()
    | Some i ->
      (match f items.(i) with
      | y -> results.(i) <- Done y
      | exception exn -> record exn (Printexc.get_raw_backtrace ()));
      drain ()
  in
  let worker () =
    Domain.DLS.set in_worker_key true;
    drain ();
    Mutex.lock lock;
    decr live;
    if !live = 0 then Condition.signal finished;
    Mutex.unlock lock
  in
  let spawned = Xmath.imin jobs n - 1 in
  live := spawned;
  let domains = Array.init spawned (fun _ -> Domain.spawn worker) in
  (* the calling domain is the [jobs]-th worker; flag it so nested maps
     inside [f] run sequentially here too *)
  let was_worker = Domain.DLS.get in_worker_key in
  Domain.DLS.set in_worker_key true;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set in_worker_key was_worker)
    drain;
  Mutex.lock lock;
  while !live > 0 do
    Condition.wait finished lock
  done;
  Mutex.unlock lock;
  Array.iter Domain.join domains;
  (match !failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ());
  Array.to_list
    (Array.map (function Done y -> y | Empty -> assert false) results)

(* The sequential degradations poll the token with the same cadence as
   the parallel path: once before each item. *)
let seq_map ?cancel f xs =
  List.map
    (fun x -> if cancel_requested cancel then raise Cancelled else f x)
    xs

let map ?jobs ?cancel f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  match xs with
  | [] -> []
  | [ _ ] -> seq_map ?cancel f xs
  | _ when jobs = 1 || in_worker () -> seq_map ?cancel f xs
  | _ -> parallel_map ~jobs ?cancel f (Array.of_list xs)

let iter ?jobs ?cancel f xs = ignore (map ?jobs ?cancel f xs)

let chunk_list size xs =
  if size < 1 then invalid_arg "Pool.chunk_list: size must be >= 1";
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let map_chunked ?jobs ?cancel ~chunk f xs =
  if chunk < 1 then invalid_arg "Pool.map_chunked: chunk must be >= 1";
  match xs with
  | [] -> []
  | _ when chunk = 1 -> map ?jobs ?cancel f xs
  | _ -> List.concat (map ?jobs ?cancel (List.map f) (chunk_list chunk xs))
