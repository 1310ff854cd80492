(* Worker domains live for one [scope] and are joined when it ends. A
   shared persistent pool would amortize the spawn, but it makes nested
   maps (a parallel certify inside a parallel experiment grid)
   deadlock-prone: every worker could end up blocked waiting for queue
   slots serviced only by workers, and on OCaml 5 its idle domains
   would slow every minor collection. Scoped workers plus a domain-local
   "I am a worker" flag — under which nested calls degrade to List.map —
   keep the whole sweep layer composable. [map] is a scope used for one
   call; the model checker opens one scope per exploration, so its
   hundreds of parallel stages share one team instead of spawning a
   domain each. The spawn is paid once per scope, not per call, but it
   is not free: on a 2-vCPU VM (OCaml 5.1.1) an empty spawn and join
   takes 0.19–0.28 ms, and a yang_anderson n=10 unit takes 1.77–2.39 ms
   on a fresh domain against 1.04–1.42 ms on the calling domain. The
   calling domain works as one of the [jobs] workers, so [jobs = 1]
   spawns nothing.

   [jobs] bounds every domain of the process, not one scope's: [running]
   counts the main domain, each team worker and each [on_domain] domain,
   and a team grows only by the workers that fit under [jobs] beside
   them. There is no size threshold in here: the probe in DESIGN §4
   found that whether a core is free decides, not the size of the
   work. *)

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

(* The domains running now. The main domain is the first. *)
let running = Atomic.make 1

(* Reserve up to [want] worker domains that fit under [jobs] with those
   already running; compare-and-set, so concurrent scopes never overshoot
   the budget between them. *)
let rec reserve ~jobs want =
  let cur = Atomic.get running in
  let k = Xmath.imin want (jobs - cur) in
  if k <= 0 then 0
  else if Atomic.compare_and_set running cur (cur + k) then k
  else reserve ~jobs want

let release k = ignore (Atomic.fetch_and_add running (-k))

let on_domain f =
  Atomic.incr running;
  Fun.protect
    ~finally:(fun () -> release 1)
    (fun () -> Domain.join (Domain.spawn f))

let resolve_jobs name = function
  | None -> default_jobs ()
  | Some j when j >= 1 -> j
  | Some _ -> invalid_arg (name ^ ": jobs must be >= 1")

module Team = struct
  (* One lock guards the team's fields. A stage is a posted [drain]
     closure: workers enter it only while it is [open_], so the caller
     never waits for a worker that has not woken up yet, only for those
     still inside. *)
  type t = {
    jobs : int;
    lock : Mutex.t;
    wake : Condition.t;  (** a stage was posted, or the scope ends *)
    quiet : Condition.t;  (** the last worker left the current stage *)
    mutable stage : unit -> unit;
    mutable gen : int;  (** stages posted so far *)
    mutable open_ : bool;
    mutable inside : int;  (** workers running the current stage *)
    mutable closing : bool;
    mutable workers : unit Domain.t list;
  }

  let create jobs =
    {
      jobs;
      lock = Mutex.create ();
      wake = Condition.create ();
      quiet = Condition.create ();
      stage = ignore;
      gen = 0;
      open_ = false;
      inside = 0;
      closing = false;
      workers = [];
    }

  let domains t = List.length t.workers

  (* [seen] is the last stage this worker entered or let pass. *)
  let worker t seen () =
    Domain.DLS.set in_worker_key true;
    let seen = ref seen in
    Mutex.lock t.lock;
    while not t.closing do
      if t.gen = !seen then Condition.wait t.wake t.lock
      else begin
        seen := t.gen;
        if t.open_ then begin
          let drain = t.stage in
          t.inside <- t.inside + 1;
          Mutex.unlock t.lock;
          drain ();
          Mutex.lock t.lock;
          t.inside <- t.inside - 1;
          if t.inside = 0 then Condition.signal t.quiet
        end
      end
    done;
    Mutex.unlock t.lock

  (* Start the workers, up to [want] in all, that the budget grants. A
     spawn that raises gives back the slots not yet used and re-raises;
     the workers already started stay in the team until its scope
     ends. *)
  let grow t want =
    let have = domains t in
    if want > have then begin
      let k = reserve ~jobs:t.jobs (want - have) in
      for i = 1 to k do
        match Domain.spawn (worker t t.gen) with
        | d -> t.workers <- d :: t.workers
        | exception exn ->
          let bt = Printexc.get_raw_backtrace () in
          release (k - i + 1);
          Printexc.raise_with_backtrace exn bt
      done
    end

  let dismiss t =
    Mutex.lock t.lock;
    t.closing <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    release (domains t)

  (* The sequential degradations poll the token with the same cadence as
     the parallel path: once before each item. *)
  let seq_map ?cancel f xs =
    List.map
      (fun x -> if cancel_requested cancel then raise Cancelled else f x)
      xs

  (* Result slots are written by exactly one domain each and read after
     the caller has seen [inside] fall to 0 under the team's lock, so
     plain (non-atomic) array stores are race-free under the OCaml 5
     memory model. *)
  type 'b slot = Empty | Done of 'b

  let run t ?cancel f items =
    let n = Array.length items in
    let results = Array.make n Empty in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let record exn bt =
      ignore (Atomic.compare_and_set failure None (Some (exn, bt)))
    in
    (* once a failure is recorded no index is handed out, so domains
       fail fast instead of draining the rest of the input; a
       cancellation observed by one domain is recorded as the shared
       failure *)
    let rec drain () =
      if cancel_requested cancel then
        record Cancelled (Printexc.get_callstack 0)
      else if Atomic.get failure = None then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f items.(i) with
          | y -> results.(i) <- Done y
          | exception exn -> record exn (Printexc.get_raw_backtrace ()));
          drain ()
        end
      end
    in
    Mutex.lock t.lock;
    t.stage <- drain;
    t.gen <- t.gen + 1;
    t.open_ <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    (* the calling domain is a worker too; flag it so nested calls
       inside [f] run sequentially here *)
    let was_worker = Domain.DLS.get in_worker_key in
    Domain.DLS.set in_worker_key true;
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set in_worker_key was_worker;
        Mutex.lock t.lock;
        t.open_ <- false;
        while t.inside > 0 do
          Condition.wait t.quiet t.lock
        done;
        t.stage <- ignore;
        Mutex.unlock t.lock)
      drain;
    (match Atomic.get failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ());
    Array.to_list
      (Array.map (function Done y -> y | Empty -> assert false) results)

  let map t ?cancel f xs =
    match xs with
    | [] | [ _ ] -> seq_map ?cancel f xs
    | _ when in_worker () -> seq_map ?cancel f xs
    | _ -> (
      grow t (List.length xs - 1);
      match t.workers with
      | [] -> seq_map ?cancel f xs
      | _ -> run t ?cancel f (Array.of_list xs))
end

let scope ?jobs f =
  let t = Team.create (resolve_jobs "Pool.scope" jobs) in
  Fun.protect ~finally:(fun () -> Team.dismiss t) (fun () -> f t)

let map ?jobs ?cancel f xs =
  let jobs = resolve_jobs "Pool.map" jobs in
  scope ~jobs (fun t -> Team.map t ?cancel f xs)

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
