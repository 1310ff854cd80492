open Lb_shmem

type verdict =
  | Verified
  | Mutex_violation of Execution.t
  | Deadlock of Execution.t
  | Ill_formed of { trace : Execution.t; who : int; detail : string }
  | Bound_exceeded of int
  | Deadline_exceeded of int
  | Mem_exceeded of int

type stats = {
  expand_seconds : float;
  merge_seconds : float;
  spill_seconds : float;
  layers : int;
}

type report = {
  verdict : verdict;
  states : int;
  transitions : int;
  live_words : int;
  seconds : float;
  stats : stats;
}

let states_per_sec r = float_of_int r.states /. Float.max 1e-9 r.seconds

let bytes_per_state r =
  float_of_int r.live_words *. float_of_int (Sys.word_size / 8)
  /. float_of_int (max 1 r.states)

(* ----------------------------- packed keys ---------------------------- *)

(* A state key is one int array:

     [| reg_0; ...; reg_{R-1}; slot_0; ...; slot_{n-1} |]

   where slot_i combines process i's interned local-state id with its
   checker phase and completed-section count:

     slot_i = ((pid_i lsl 2) lor phase_i) * (rounds + 1) + rem_i

   Interning each Proc.repr through Lb_util.Interner makes the key
   injective by construction — no delimiter scheme over raw repr strings
   to collide — and means each distinct repr string is hashed once,
   after which state hashing and equality touch only machine ints.

   Ids are never assigned inside the expansion workers: workers resolve
   reprs against a per-layer interner snapshot, and the few reprs first
   seen in a layer are interned in a short sequential patch step, in
   stream order (see the layer pipeline below). A key is therefore a
   pure function of the explored graph, identical at every job count
   and across a kill/resume boundary — which is what lets spilled key
   runs be byte-stable. *)

module Key = struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let la = Array.length a in
    la = Array.length b
    &&
    let i = ref 0 in
    while !i < la && Array.unsafe_get a !i = Array.unsafe_get b !i do
      incr i
    done;
    !i = la

  (* FNV-1a over the slots; multiplication wraps, the final mask keeps
     the result non-negative as Hashtbl.Make requires. *)
  let hash (a : int array) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor Array.unsafe_get a i) * 0x01000193
    done;
    !h land max_int
end

(* A second, independent mix over the same slots. Shard selection needs
   hash bits uncorrelated with {!Key.hash}, which already feeds the
   per-shard tables' bucket choice. *)
let hash2 (a : int array) =
  let h = ref 0x27d4eb2f165667c5 in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor (Array.unsafe_get a i * 0x165667b1)) * 0x100000001b3
  done;
  !h land max_int

module Ktbl = Hashtbl.Make (Key)

let phase_index = function
  | Checker.Remainder -> 0
  | Checker.Trying -> 1
  | Checker.Critical -> 2
  | Checker.Exit_section -> 3

let encode_slot ~rounds pid phase rem = ((pid lsl 2) lor phase) * (rounds + 1) + rem

let pack_state ~rounds ~nregs ~intern sys phases rems =
  let n = Array.length phases in
  let key = Array.make (nregs + n) 0 in
  Array.blit sys.System.regs 0 key 0 nregs;
  for i = 0 to n - 1 do
    let pid = intern (System.state_repr sys i) in
    key.(nregs + i) <- encode_slot ~rounds pid (phase_index phases.(i)) rems.(i)
  done;
  key

(* --------------------------- phase tracking --------------------------- *)

(* Apply the phase transition for a critical step. The zoo's automata are
   well-formed and never hit the error branch, but fault-wrapped
   algorithms (a crash-restart re-issuing [try] mid-protocol) do — so an
   ill-formed transition is a checkable property with a witness trace,
   not a programming error. *)
let advance_phase phases who (c : Step.crit) =
  match (phases.(who), c) with
  | Checker.Remainder, Step.Try -> Ok Checker.Trying
  | Checker.Trying, Step.Enter -> Ok Checker.Critical
  | Checker.Critical, Step.Exit -> Ok Checker.Exit_section
  | Checker.Exit_section, Step.Rem -> Ok Checker.Remainder
  | ph, c ->
    Error
      (Printf.sprintf "p%d performed %s while in its %s section" who
         (Step.crit_name c) (Checker.phase_name ph))

let crit_delta = function Step.Enter -> 1 | Step.Exit -> -1 | Step.Try | Step.Rem -> 0

(* --------------------------- transition memo -------------------------- *)

(* The automata are deterministic and [Proc.repr] witnesses a process's
   local state, so (process index, interned state id, response)
   determines the advanced process, whether the state changed (its
   [Proc.changed]) and its repr. Caching that triple turns the hot path —
   one automaton transition plus one repr string construction per
   (state, process) — into a single int-triple table lookup: each repr
   is built once, when its entry is made, and read from the entry by
   every later successor. A [Lazy.t] would not do: the memo is shared by
   the worker domains, and OCaml 5 raises when two domains force one
   lazy value at once. The process index must be part of the
   key: reprs are only unique per process (two processes may both report
   "spin"), and an advanced [Proc.t] closes over its own identity.
   Response codes never collide: a given (process, state id) has one
   fixed pending action, so it sees either only [Ack] (writes, critical
   steps — coded 0) or only [Got v] (reads, rmw — coded by the value
   read). The cache is a pure function memo: its contents never affect
   results, so sharing it across worker domains under a mutex keeps the
   exploration deterministic. The advanced process's id is NOT cached
   here — id resolution happens against a per-layer interner snapshot,
   with first-seen reprs interned in the sequential patch step. *)
type memo = {
  mlock : Mutex.t;
  mtbl : (int * int * int, Proc.t * bool * string) Hashtbl.t;
}

let memo_create () = { mlock = Mutex.create (); mtbl = Hashtbl.create 1024 }

let resp_code (action : Step.action) (key : int array) =
  match action with
  | Step.Read r | Step.Rmw (r, _) -> Array.unsafe_get key r
  | Step.Write _ | Step.Crit _ -> 0

(* Advance process [i] of [sys], through the memo: returns its pending
   action, the advanced process, whether the local state is unchanged,
   and the advanced process's repr. *)
let step_memo memo sys (key : int array) i pid =
  let p = sys.System.procs.(i) in
  let action = p.Proc.pending in
  let mk = (i, pid, resp_code action key) in
  Mutex.lock memo.mlock;
  match Hashtbl.find_opt memo.mtbl mk with
  | Some (p', stuck, repr) ->
    Mutex.unlock memo.mlock;
    (action, p', stuck, repr)
  | None ->
    Mutex.unlock memo.mlock;
    let p' = System.advance_proc sys i in
    let stuck = not p'.Proc.changed in
    let repr = p'.Proc.repr () in
    Mutex.lock memo.mlock;
    Hashtbl.replace memo.mtbl mk (p', stuck, repr);
    Mutex.unlock memo.mlock;
    (action, p', stuck, repr)

(* ------------------------- layer-parallel BFS ------------------------- *)

(* A frontier entry carries the live System.t (needed to generate
   successors) alongside the packed key. Only the packed key, the parent
   index and the incoming step survive into the node table — the System,
   phase and rem arrays die with the layer. *)
type entry = {
  idx : int;  (** index of this state in the node table *)
  sys : System.t;
  key : int array;
  phases : Checker.phase array;
  rems : int array;
  ncrit : int;  (** number of processes currently in [Critical] *)
}

type succ = {
  step : Step.t;
  s_sys : System.t;
  s_key : int array;
      (** the stepping process's own slot still holds the parent's value
          until the successor repr has been resolved to an id — by the
          expansion worker when the repr is in the layer's interner
          snapshot, else by the sequential patch step *)
  s_repr : string;  (** advanced process's local-state witness *)
  s_phase_idx : int;
  s_rem : int;
  s_phases : Checker.phase array;
  s_rems : int array;
  s_ncrit : int;
  s_ill : string option;
      (** [Some detail] when [step] itself breaks the issuing process's
          critical cycle — reported before dedup, since the malformed
          target may alias an already-stored legitimate state *)
}

type expansion =
  | Deadlocked
      (** unfinished processes exist but none can ever change state again *)
  | Succs of { self_loops : int; succs : succ list }

(* Expand one frontier entry: enumerate the steps of its unfinished
   processes. Pure — no interning, no shared mutation beyond the memo —
   so layers can fan out across domains; all verdict decisions and id
   assignment happen in the sequential stages of the pipeline. A pending
   read that cannot change the reader's local state is a guaranteed
   self-loop (reads mutate nothing else), so it is counted as a
   transition without copying or stepping the system — busy-wait
   spinning, the bulk of a mutex state space, costs no allocation. *)
let expand ~rounds ~nregs ~memo entry =
  let n = Array.length entry.phases in
  let unfinished = ref [] in
  for i = n - 1 downto 0 do
    if entry.rems.(i) < rounds then begin
      (* process i's interned state id sits in its packed slot *)
      let pid = (entry.key.(nregs + i) / (rounds + 1)) lsr 2 in
      let action, p', stuck, repr = step_memo memo entry.sys entry.key i pid in
      unfinished := (i, action, p', stuck, repr) :: !unfinished
    end
  done;
  let unfinished = !unfinished in
  if
    unfinished <> []
    && List.for_all (fun (_, _, _, stuck, _) -> stuck) unfinished
  then Deadlocked
  else begin
    let self_loops = ref 0 in
    let succs =
      List.filter_map
        (fun (i, action, p', stuck, repr) ->
          match action with
          | Step.Read _ when stuck ->
            incr self_loops;
            None
          | action ->
            let sys' = System.copy_with entry.sys i p' in
            let step = Step.step i action in
            let phases', rems', ncrit', ill =
              match action with
              | Step.Crit c -> (
                match advance_phase entry.phases i c with
                | Error detail ->
                  (entry.phases, entry.rems, entry.ncrit, Some detail)
                | Ok next ->
                  let ph = Array.copy entry.phases in
                  ph.(i) <- next;
                  let rm =
                    if c = Step.Rem then begin
                      let r = Array.copy entry.rems in
                      r.(i) <- r.(i) + 1;
                      r
                    end
                    else entry.rems
                  in
                  (ph, rm, entry.ncrit + crit_delta c, None))
              | Step.Read _ | Step.Write _ | Step.Rmw _ ->
                (entry.phases, entry.rems, entry.ncrit, None)
            in
            let key' = Array.copy entry.key in
            (match action with
            | Step.Write (r, _) | Step.Rmw (r, _) ->
              key'.(r) <- sys'.System.regs.(r)
            | Step.Read _ | Step.Crit _ -> ());
            Some
              { step; s_sys = sys'; s_key = key'; s_repr = repr;
                s_phase_idx = phase_index phases'.(i); s_rem = rems'.(i);
                s_phases = phases'; s_rems = rems'; s_ncrit = ncrit';
                s_ill = ill })
        unfinished
    in
    Succs { self_loops = !self_loops; succs }
  end

(* Below this frontier size a layer is expanded and merged in the
   calling domain: spawning worker domains costs more than the work. *)
let par_threshold = 64

(* ------------------------ memory accounting --------------------------- *)

(* Deterministic, explicitly-modeled footprint of everything the
   exploration retains, in words. The previous Gc.stat live-words delta
   moved with allocator noise from other domains, so B/state differed
   between two identical runs; these fixed per-structure constants make
   the figure (and any [mem_budget] decision that hangs off it) a pure
   function of the explored graph. *)
let word_bytes = Sys.word_size / 8
let nshards = 64
let words_per_node_ram = 9 (* two vec slots + step record + action *)
let words_per_memo_entry = 12 (* bucket + key triple + boxed result *)
let words_per_name len = 7 + ((len + 7) / 8) (* vec + tbl slots + string *)

(* ------------------------------ visited ------------------------------- *)

(* The visited set: exact, sharded by an independent hash so cold shards
   can spill to disk individually. *)
type visited = {
  shards : unit Ktbl.t array;
  complete : bool array;
      (** a complete shard's table holds every key ever inserted into
          it, so a resident miss is a definitive miss; evicting or
          partially reloading a shard clears the flag and membership
          falls back to the on-disk runs *)
  shard_words : int array;
}

let shard_of key = (hash2 key lsr 8) land (nshards - 1)

(* ----------------------- the layer pipeline --------------------------- *)

(* Every successor generated in a layer has a global stream position

     pos = (frontier_index * (n + 1)) + 1 + succ_index

   (a deadlocked frontier entry owns position frontier_index * (n + 1)),
   so positions are totally ordered, unique, and independent of how the
   layer was chunked across expansion workers. Verdict events (deadlock,
   ill-formed step, mutex violation, state bound) are resolved to the
   smallest position, reproducing the sequential reference's
   first-in-stream-order semantics at any job count.

   Node ids follow the deterministic (shard, shard-local index) schema:
   a layer's surviving candidates are grouped by shard, each shard keeps
   its candidates in stream order, and global ids are handed out by
   walking shards in index order — so ids, the node log, frontier files
   and per-shard-sorted spill runs are identical at any job count and
   across kill/resume. *)
type cand = { c_pos : int; c_parent : int; c_sc : succ }

type chunk_out = {
  co_self_loops : int;
  co_succs : int;
  co_buckets : cand list array;  (** per shard, ascending positions *)
  co_deferred : cand list;
      (** reprs missing from the layer's interner snapshot; completed
          sequentially in the patch step, in stream order *)
  co_deadlocks : (int * int) list;  (** (pos, parent idx), ascending *)
  co_ill : (int * int * succ) list;  (** (pos, parent idx, succ), ascending *)
}

(* Per-shard dedup output: the layer's candidate news in stream order.
   [so_old.(i)] is set when the delayed duplicate-detection scan over
   the spilled runs proves news [i] was visited before this layer. *)
type shard_out = {
  so_news : cand array;
  so_old : bool array;
  so_lookup : int Ktbl.t option;
      (** key -> index into [so_news], present only when the shard is
          incomplete and a disk scan is pending *)
}

let empty_shard_out = { so_news = [||]; so_old = [||]; so_lookup = None }

(* Merge two position-ascending candidate lists. *)
let rec merge_pos acc a b =
  match (a, b) with
  | [], r | r, [] -> List.rev_append acc r
  | x :: xs, y :: ys ->
    if x.c_pos < y.c_pos then merge_pos (x :: acc) xs b
    else merge_pos (y :: acc) a ys

let merge_pos a b = merge_pos [] a b

(* ---------------------------- verdicts -------------------------------- *)

let verdict_slug = function
  | Verified -> "verified"
  | Mutex_violation _ -> "mutex_violation"
  | Deadlock _ -> "deadlock"
  | Ill_formed _ -> "ill_formed"
  | Bound_exceeded _ -> "bound_exceeded"
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Mem_exceeded _ -> "mem_exceeded"

(* The path from the root to node [idx], through [get i = (parent,
   step)] over the node table or the spilled node log. *)
let trace_to get idx =
  let acc = ref [] in
  let i = ref idx in
  while !i <> 0 do
    let parent, st = get !i in
    acc := st :: !acc;
    i := parent
  done;
  Execution.of_steps !acc

(* A verdict as the final record of a spill manifest, and back. Node
   indices survive a resume where Execution.t values do not, so a
   witness is stored as its endpoint [node] in the node log; an
   ill-formed witness ends in a step that was never inserted, so that
   step is stored with the record. A deadline stop has no record: its
   directory stays resumable from the last layer checkpoint. *)
let final_of_verdict ~node verdict =
  let record ?(count = 0) ?(node = -1) ?(who = -1) ?(detail = "")
      ?(step = []) () =
    Some
      {
        Check_spill.f_verdict = verdict_slug verdict;
        f_count = count;
        f_node = node;
        f_who = who;
        f_detail = detail;
        f_step = step;
      }
  in
  match verdict with
  | Deadline_exceeded _ -> None
  | Verified -> record ()
  | Bound_exceeded k | Mem_exceeded k -> record ~count:k ()
  | Mutex_violation _ | Deadlock _ -> record ~node ()
  | Ill_formed { trace; who; detail } ->
    let w, t, r, a, b =
      Check_spill.encode_step (Execution.get trace (Execution.length trace - 1))
    in
    record ~node ~who ~detail ~step:[ w; t; r; a; b ] ()

let verdict_of_final ~get (f : Check_spill.final) =
  let witness () = trace_to get f.Check_spill.f_node in
  match f.Check_spill.f_verdict with
  | "verified" -> Ok Verified
  | "bound_exceeded" -> Ok (Bound_exceeded f.Check_spill.f_count)
  | "mem_exceeded" -> Ok (Mem_exceeded f.Check_spill.f_count)
  | "mutex_violation" -> Ok (Mutex_violation (witness ()))
  | "deadlock" -> Ok (Deadlock (witness ()))
  | "ill_formed" -> (
    match f.Check_spill.f_step with
    | [ who; tag; reg; a; b ] -> (
      match Check_spill.decode_step who tag reg a b with
      | step ->
        let trace = witness () in
        Execution.append trace step;
        Ok
          (Ill_formed
             {
               trace;
               who = f.Check_spill.f_who;
               detail = f.Check_spill.f_detail;
             })
      | exception Invalid_argument msg -> Error msg)
    | _ -> Error "bad ill-formed step record")
  | v -> Error (Printf.sprintf "unknown verdict %S" v)

(* --------------------------- spill session ---------------------------- *)

type session = {
  sp : Check_spill.t;
  log : Check_spill.Nodes.log;
  mutable runs : (int * int) list;  (** (layer, key count), ascending *)
  mutable flushed_ids : int;  (** interner ids persisted to disk *)
}

(* ------------------------------ explore ------------------------------- *)

let explore ?(rounds = 1) ?(max_states = 200_000) ?jobs ?deadline ?mem_budget
    ?spill_dir ?(resume = false) algo ~n =
  let t0 = Unix.gettimeofday () in
  let jobs = match jobs with Some j -> j | None -> Lb_util.Pool.default_jobs () in
  if jobs < 1 then invalid_arg "Model_check.explore: jobs must be >= 1";
  if rounds < 1 then invalid_arg "Model_check.explore: rounds must be >= 1";
  if max_states < 1 then
    invalid_arg "Model_check.explore: max_states must be >= 1";
  (match mem_budget with
  | Some b when b < 1 ->
    invalid_arg "Model_check.explore: mem_budget must be >= 1"
  | _ -> ());
  if resume && spill_dir = None then
    invalid_arg "Model_check.explore: resume requires a spill_dir";
  let expires_at = Option.map (fun d -> t0 +. d) deadline in
  let expired () =
    match expires_at with
    | None -> false
    | Some t -> Unix.gettimeofday () > t
  in
  let init_sys = System.init algo ~n in
  let nregs = System.num_regs init_sys in
  let keylen = nregs + n in
  let manifest =
    match spill_dir with
    | Some dir when resume -> (
      match Check_spill.load_manifest ~dir with
      | `Absent -> None
      | `Damaged e ->
        failwith (Printf.sprintf "Model_check.explore: resume: %s" e)
      | `Manifest m ->
        (* older checkers could explore lossily; such a directory may
           have dropped states, so resuming it as exact would promote an
           unsound run to a certifying one *)
        if m.Check_spill.c_lossy <> "none" then
          failwith
            (Printf.sprintf
               "Model_check.explore: resume: spill directory was explored in \
                lossy mode %s and cannot be resumed as an exact check"
               m.Check_spill.c_lossy);
        let want name got want =
          if got <> want then
            invalid_arg
              (Printf.sprintf
                 "Model_check.explore: resume: manifest has %s = %d, this run wants %d"
                 name got want)
        in
        if m.Check_spill.c_algo <> algo.Algorithm.name then
          invalid_arg
            (Printf.sprintf
               "Model_check.explore: resume: manifest is for %s, not %s"
               m.Check_spill.c_algo algo.Algorithm.name);
        want "n" m.Check_spill.c_n n;
        want "nregs" m.Check_spill.c_nregs nregs;
        want "rounds" m.Check_spill.c_rounds rounds;
        want "maxstates" m.Check_spill.c_max_states max_states;
        want "shards" m.Check_spill.c_nshards nshards;
        want "keylen" m.Check_spill.c_keylen keylen;
        Some m)
    | _ -> None
  in
  match manifest with
  | Some ({ Check_spill.c_status = Check_spill.Final f; _ } as m) ->
    (* the previous run already reached a final verdict: rebuild its
       report from the node log instead of re-exploring *)
    let dir = Option.get spill_dir in
    let sp =
      Check_spill.open_ ~dir ~names_bytes:m.Check_spill.c_interner_bytes
        ~node_count:m.Check_spill.c_states
    in
    Fun.protect ~finally:(fun () -> Check_spill.close sp) @@ fun () ->
    let log = Check_spill.Nodes.of_handle sp in
    let verdict =
      match verdict_of_final ~get:(Check_spill.Nodes.get log) f with
      | Ok v -> v
      | Error e -> failwith ("Model_check.explore: resume: " ^ e)
    in
    {
      verdict;
      states = m.Check_spill.c_states;
      transitions = m.Check_spill.c_transitions;
      live_words = m.Check_spill.c_words;
      seconds = Unix.gettimeofday () -. t0;
      stats =
        {
          expand_seconds = 0.;
          merge_seconds = 0.;
          spill_seconds = 0.;
          layers = m.Check_spill.c_layer;
        };
    }
  | _ ->
    let interner = Lb_util.Interner.create ~size_hint:1024 () in
    let interner_words = ref 0 in
    let interner_hwm = ref 0 in
    let intern s =
      let id = Lb_util.Interner.intern interner s in
      if id >= !interner_hwm then begin
        interner_hwm := id + 1;
        interner_words := !interner_words + words_per_name (String.length s)
      end;
      id
    in
    let memo = memo_create () in
    let words_per_key = keylen + 6 in
    let visited =
      {
        shards = Array.init nshards (fun _ -> Ktbl.create 64);
        complete = Array.make nshards true;
        shard_words = Array.make nshards 0;
      }
    in
    let session =
      match spill_dir with
      | None -> None
      | Some dir ->
        let names_bytes, node_count, runs =
          match manifest with
          | Some m ->
            ( m.Check_spill.c_interner_bytes,
              m.Check_spill.c_states,
              m.Check_spill.c_runs )
          | None -> (0, 0, [])
        in
        let sp = Check_spill.open_ ~dir ~names_bytes ~node_count in
        Some
          { sp; log = Check_spill.Nodes.of_handle sp; runs; flushed_ids = 0 }
    in
    Fun.protect
      ~finally:(fun () ->
        match session with Some s -> Check_spill.close s.sp | None -> ())
    @@ fun () ->
    let nodes_ram =
      match session with
      | Some _ -> None
      | None -> Some (Lb_util.Vec.create (), Lb_util.Vec.create ())
    in
    let node_push ~parent step =
      match (nodes_ram, session) with
      | Some (parents, steps), _ ->
        Lb_util.Vec.push parents parent;
        Lb_util.Vec.push steps step
      | None, Some s -> Check_spill.Nodes.append s.log ~parent step
      | None, None -> assert false
    in
    let node_get i =
      match (nodes_ram, session) with
      | Some (parents, steps), _ ->
        (Lb_util.Vec.get parents i, Lb_util.Vec.get steps i)
      | None, Some s -> Check_spill.Nodes.get s.log i
      | None, None -> assert false
    in
    let trace_to = trace_to node_get in
    let states = ref 0 in
    let transitions = ref 0 in
    let peak_words = ref 0 in
    let expand_s = ref 0. in
    let merge_sec = ref 0. in
    let spill_s = ref 0. in
    (* Insert a key new to its shard. *)
    let shard_add sh k =
      Ktbl.replace visited.shards.(sh) k ();
      visited.shard_words.(sh) <- visited.shard_words.(sh) + words_per_key
    in
    let accounted () =
      let nodes_w =
        match session with
        | Some s -> Check_spill.Nodes.tail_length s.log * words_per_node_ram
        | None -> !states * words_per_node_ram
      in
      Array.fold_left ( + ) 0 visited.shard_words
      + nodes_w + !interner_words
      + (Hashtbl.length memo.mtbl * words_per_memo_entry)
    in
    let note_peak () =
      let w = accounted () in
      if w > !peak_words then peak_words := w
    in
    let layer = ref 0 in
    let verdict_r = ref None in
    let frontier = ref [] in
    (* the witness's endpoint in the node table, for the final manifest *)
    let final_node = ref (-1) in
    let meta ~frontier_count ~status =
      {
        Check_spill.c_algo = algo.Algorithm.name;
        c_n = n;
        c_nregs = nregs;
        c_rounds = rounds;
        c_max_states = max_states;
        c_nshards = nshards;
        c_keylen = keylen;
        c_lossy = "none";
        c_layer = !layer;
        c_states = !states;
        c_transitions = !transitions;
        c_words = !peak_words;
        c_interned = (match session with Some s -> s.flushed_ids | None -> 0);
        c_interner_bytes =
          (match session with
          | Some s -> Check_spill.names_bytes s.sp
          | None -> 0);
        c_runs = (match session with Some s -> s.runs | None -> []);
        c_frontier = frontier_count;
        c_status = status;
      }
    in
    (* [run_keys] arrive in the canonical commit order — shard-grouped,
       sorted within each shard — so the run file is byte-stable. *)
    let checkpoint s ~run_keys ~frontier_entries =
      let dir = Check_spill.dir s.sp in
      let nk = List.length run_keys in
      if nk > 0 then begin
        Check_spill.write_run ~dir ~layer:!layer run_keys;
        s.runs <- s.runs @ [ (!layer, nk) ]
      end;
      Check_spill.write_frontier ~dir ~layer:!layer
        (List.map (fun e -> e.idx) frontier_entries);
      Check_spill.Nodes.flush s.log;
      let sz = Lb_util.Interner.size interner in
      if sz > s.flushed_ids then begin
        Check_spill.append_names s.sp
          (Lb_util.Interner.names_from interner s.flushed_ids);
        s.flushed_ids <- sz
      end;
      Check_spill.save_manifest ~dir
        (meta ~frontier_count:(List.length frontier_entries)
           ~status:Check_spill.Running)
    in
    let evict budget_w =
      (* keys are durable in the runs by the time this is called (the
         layer checkpoint precedes it), so dropping a resident shard only
         costs future membership scans. Largest shards go first; the
         order is a function of deterministic shard sizes. *)
      let order = Array.init nshards (fun i -> i) in
      Array.sort
        (fun a b ->
          match compare visited.shard_words.(b) visited.shard_words.(a) with
          | 0 -> compare a b
          | c -> c)
        order;
      let target = 7 * budget_w / 10 in
      Array.iter
        (fun sh ->
          if accounted () > target && visited.shard_words.(sh) > 0 then begin
            Ktbl.reset visited.shards.(sh);
            visited.shard_words.(sh) <- 0;
            visited.complete.(sh) <- false
          end)
        order
    in
    (* Per-shard dedup of one candidate stream: drop within-layer
       duplicates, then mark candidates already in the resident shard.
       Read-only on shared state, so shards dedup in parallel. *)
    let dedup ~disk_pending sh stream =
      match stream with
      | [] -> empty_shard_out
      | _ ->
        let seen = Ktbl.create 64 in
        let uniq = ref [] in
        List.iter
          (fun c ->
            if not (Ktbl.mem seen c.c_sc.s_key) then begin
              Ktbl.replace seen c.c_sc.s_key ();
              uniq := c :: !uniq
            end)
          stream;
        let uniq = Array.of_list (List.rev !uniq) in
        let nu = Array.length uniq in
        let old = Array.make nu false in
        let tbl = visited.shards.(sh) in
        if Ktbl.length tbl > 0 then
          Array.iteri
            (fun i c -> if Ktbl.mem tbl c.c_sc.s_key then old.(i) <- true)
            uniq;
        let news = ref [] in
        let nn = ref 0 in
        Array.iteri
          (fun i c ->
            if not old.(i) then begin
              news := c :: !news;
              incr nn
            end)
          uniq;
        let news = Array.of_list (List.rev !news) in
        let so_lookup =
          if disk_pending && not visited.complete.(sh) && !nn > 0 then begin
            let t = Ktbl.create (2 * !nn) in
            Array.iteri (fun i c -> Ktbl.replace t c.c_sc.s_key i) news;
            Some t
          end
          else None
        in
        { so_news = news; so_old = Array.make !nn false; so_lookup }
    in
    (* ---- root, or reload the last checkpoint ---- *)
    (match manifest with
    | Some m ->
      let t_reload = Unix.gettimeofday () in
      let s = Option.get session in
      let dir = Check_spill.dir s.sp in
      List.iter (fun nm -> ignore (intern nm)) (Check_spill.load_names s.sp);
      if Lb_util.Interner.size interner <> m.Check_spill.c_interned then
        failwith
          "Model_check.explore: resume: interner.names disagrees with manifest";
      s.flushed_ids <- m.Check_spill.c_interned;
      states := m.Check_spill.c_states;
      transitions := m.Check_spill.c_transitions;
      peak_words := m.Check_spill.c_words;
      layer := m.Check_spill.c_layer;
      (* reload resident shards from the runs until the budget's
         high-water mark; past it, shards go incomplete and membership
         streams the runs instead *)
      let budget_w = Option.map (fun b -> b / word_bytes) mem_budget in
      let stop = ref false in
      let est = ref 0 in
      List.iter
        (fun (lay, count) ->
          if not !stop then
            Check_spill.iter_run_keys ~dir ~layer:lay ~keylen ~count (fun k ->
                if not !stop then begin
                  let k = Array.copy k in
                  shard_add (shard_of k) k;
                  est := !est + words_per_key;
                  match budget_w with
                  | Some bw when !est > 7 * bw / 10 -> stop := true
                  | _ -> ()
                end))
        s.runs;
      if !stop then Array.fill visited.complete 0 nshards false;
      let idxs = Check_spill.read_frontier ~dir ~layer:!layer in
      if List.length idxs <> m.Check_spill.c_frontier then
        failwith
          "Model_check.explore: resume: frontier file disagrees with manifest";
      (* rebuild each frontier entry by replaying its step chain from
         the root; reprs re-intern to their existing ids, so the packed
         keys come out byte-identical *)
      let rebuild idx =
        let chain = ref [] in
        let i = ref idx in
        while !i <> 0 do
          let parent, st = Check_spill.Nodes.get s.log !i in
          chain := st :: !chain;
          i := parent
        done;
        let sys = System.init algo ~n in
        let phases = Array.make n Checker.Remainder in
        let rems = Array.make n 0 in
        let ncrit = ref 0 in
        List.iter
          (fun (st : Step.t) ->
            (match st.Step.action with
            | Step.Crit c -> (
              match advance_phase phases st.Step.who c with
              | Ok next ->
                phases.(st.Step.who) <- next;
                ncrit := !ncrit + crit_delta c;
                if c = Step.Rem then
                  rems.(st.Step.who) <- rems.(st.Step.who) + 1
              | Error _ ->
                failwith
                  "Model_check.explore: resume: ill-formed step in node log")
            | Step.Read _ | Step.Write _ | Step.Rmw _ -> ());
            ignore (System.apply sys st))
          !chain;
        let key = pack_state ~rounds ~nregs ~intern sys phases rems in
        { idx; sys; key; phases; rems; ncrit = !ncrit }
      in
      frontier := List.map rebuild idxs;
      if Lb_util.Interner.size interner <> m.Check_spill.c_interned then
        failwith "Model_check.explore: resume: interner diverged on replay";
      spill_s := !spill_s +. (Unix.gettimeofday () -. t_reload)
    | None ->
      let phases = Array.make n Checker.Remainder in
      let rems = Array.make n 0 in
      let key = pack_state ~rounds ~nregs ~intern init_sys phases rems in
      let root = { idx = 0; sys = init_sys; key; phases; rems; ncrit = 0 } in
      shard_add (shard_of key) key;
      node_push ~parent:(-1) (Step.step 0 (Step.Crit Step.Try)) (* root: unused *);
      states := 1;
      frontier := [ root ];
      note_peak ();
      (match session with
      | Some s ->
        checkpoint s ~run_keys:[ key ] ~frontier_entries:[ root ]
      | None -> ()));
    (* ---- layer loop ---- *)
    let stride = n + 1 in
    while !verdict_r = None && !frontier <> [] do
      if expired () then verdict_r := Some (Deadline_exceeded !states)
      else begin
        let entries = !frontier in
        let t_layer = Unix.gettimeofday () in
        let nentries = List.length entries in
        let big =
          nentries >= par_threshold && jobs > 1
          && not (Lb_util.Pool.in_worker ())
        in
        let run_shards f =
          let ids = List.init nshards (fun i -> i) in
          if big then
            Lb_util.Pool.map_chunked ~jobs ~chunk:8 f ids
          else List.map f ids
        in
        (* phase 1 — parallel expansion over order-preserving chunks;
           workers resolve reprs against the layer's interner snapshot
           and bucket completed candidates by shard *)
        let snap = Lb_util.Interner.snapshot interner in
        let process_chunk (base, ents) =
          let buckets = Array.make nshards [] in
          let deferred = ref [] in
          let dls = ref [] in
          let ills = ref [] in
          let self_loops = ref 0 in
          let nsuccs = ref 0 in
          List.iteri
            (fun i entry ->
              let epos = (base + i) * stride in
              match expand ~rounds ~nregs ~memo entry with
              | Deadlocked -> dls := (epos, entry.idx) :: !dls
              | Succs { self_loops = sl; succs } ->
                self_loops := !self_loops + sl;
                List.iteri
                  (fun j s ->
                    incr nsuccs;
                    let pos = epos + 1 + j in
                    match s.s_ill with
                    | Some _ -> ills := (pos, entry.idx, s) :: !ills
                    | None -> (
                      match Lb_util.Interner.find snap s.s_repr with
                      | Some pid' ->
                        let who = s.step.Step.who in
                        s.s_key.(nregs + who) <-
                          encode_slot ~rounds pid' s.s_phase_idx s.s_rem;
                        let st = shard_of s.s_key in
                        buckets.(st) <-
                          { c_pos = pos; c_parent = entry.idx; c_sc = s }
                          :: buckets.(st)
                      | None ->
                        deferred :=
                          { c_pos = pos; c_parent = entry.idx; c_sc = s }
                          :: !deferred))
                  succs)
            ents;
          {
            co_self_loops = !self_loops;
            co_succs = !nsuccs;
            co_buckets = Array.map List.rev buckets;
            co_deferred = List.rev !deferred;
            co_deadlocks = List.rev !dls;
            co_ill = List.rev !ills;
          }
        in
        let couts =
          if big then begin
            let sz = max 16 ((nentries + (4 * jobs) - 1) / (4 * jobs)) in
            let cs = Lb_util.Pool.chunk_list sz entries in
            let _, based =
              List.fold_left
                (fun (b, acc) c -> (b + List.length c, (b, c) :: acc))
                (0, []) cs
            in
            Lb_util.Pool.map ~jobs process_chunk (List.rev based)
          end
          else [ process_chunk (0, entries) ]
        in
        let t_exp = Unix.gettimeofday () in
        expand_s := !expand_s +. (t_exp -. t_layer);
        if expired () then verdict_r := Some (Deadline_exceeded !states)
        else begin
          (* phase 2 — sequential patch: intern the snapshot-missed
             reprs in stream order, completing their keys *)
          let extras = Array.make nshards [] in
          List.iter
            (fun co ->
              List.iter
                (fun c ->
                  let s = c.c_sc in
                  let pid' = intern s.s_repr in
                  let who = s.step.Step.who in
                  s.s_key.(nregs + who) <-
                    encode_slot ~rounds pid' s.s_phase_idx s.s_rem;
                  let st = shard_of s.s_key in
                  extras.(st) <- c :: extras.(st))
                co.co_deferred)
            couts;
          let streams =
            Array.init nshards (fun st ->
                merge_pos
                  (List.concat_map (fun co -> co.co_buckets.(st)) couts)
                  (List.rev extras.(st)))
          in
          (* phase 3 — dedup, parallel per shard *)
          let souts =
            let disk_pending =
              match session with Some s -> s.runs <> [] | None -> false
            in
            Array.of_list
              (run_shards (fun sh -> dedup ~disk_pending sh streams.(sh)))
          in
          (* phase 4 — delayed duplicate detection: one streaming scan
             over the spilled runs for candidates no resident shard
             could decide *)
          if Array.exists (fun so -> so.so_lookup <> None) souts then begin
            let s = Option.get session in
            let dir = Check_spill.dir s.sp in
            List.iter
              (fun (lay, count) ->
                Check_spill.iter_run_keys ~dir ~layer:lay ~keylen ~count
                  (fun k ->
                    match souts.(shard_of k).so_lookup with
                    | Some t -> (
                      match Ktbl.find_opt t k with
                      | Some i -> souts.(shard_of k).so_old.(i) <- true
                      | None -> ())
                    | None -> ()))
              s.runs
          end;
          List.iter
            (fun co ->
              transitions := !transitions + co.co_self_loops + co.co_succs)
            couts;
          (* phase 5 — sequential epilogue: resolve the layer's verdict
             events to the smallest stream position, then commit the
             surviving candidates in canonical order *)
          let ev_dl =
            List.fold_left
              (fun acc co ->
                match co.co_deadlocks with
                | [] -> acc
                | (p, parent) :: _ -> (
                  match acc with
                  | Some (bp, _) when bp < p -> acc
                  | _ -> Some (p, parent)))
              None couts
          in
          let ev_ill =
            List.fold_left
              (fun acc co ->
                match co.co_ill with
                | [] -> acc
                | (p, parent, sc) :: _ -> (
                  match acc with
                  | Some (bp, _, _) when bp < p -> acc
                  | _ -> Some (p, parent, sc)))
              None couts
          in
          let total_kept =
            Array.fold_left
              (fun a so ->
                let k = ref 0 in
                Array.iteri
                  (fun i _ -> if not so.so_old.(i) then incr k)
                  so.so_news;
                a + !k)
              0 souts
          in
          let bound_pos =
            let budget = max_states - !states in
            if total_kept <= budget then None
            else begin
              (* the bound fires at the (budget+1)-th kept candidate in
                 stream order, exactly where the sequential reference
                 would raise *)
              let poss = Array.make total_kept 0 in
              let j = ref 0 in
              Array.iter
                (fun so ->
                  Array.iteri
                    (fun i c ->
                      if not so.so_old.(i) then begin
                        poss.(!j) <- c.c_pos;
                        incr j
                      end)
                    so.so_news)
                souts;
              Array.sort compare poss;
              Some poss.(budget)
            end
          in
          let ev_viol = ref None in
          Array.iter
            (fun so ->
              Array.iteri
                (fun i c ->
                  if (not so.so_old.(i)) && c.c_sc.s_ncrit >= 2 then
                    match !ev_viol with
                    | Some p when p <= c.c_pos -> ()
                    | _ -> ev_viol := Some c.c_pos)
                so.so_news)
            souts;
          (* earliest stream position wins; a bound trigger at the same
             position as a violating candidate precedes it (the bound
             fires before the candidate would be stored) *)
          let ev = ref None in
          let consider p tag =
            match !ev with
            | Some (q, _) when q <= p -> ()
            | _ -> ev := Some (p, tag)
          in
          (match bound_pos with Some p -> consider p `Bound | None -> ());
          (match !ev_viol with Some p -> consider p `Viol | None -> ());
          (match ev_ill with
          | Some (p, parent, sc) -> consider p (`Ill (parent, sc))
          | None -> ());
          (match ev_dl with
          | Some (p, parent) -> consider p (`Dl parent)
          | None -> ());
          (* commit kept candidates below [limit], walking shards in
             index order and each shard in stream order — the id
             schema; the node log is appended in id order *)
          let commit ~limit ~viol_pos =
            let vgid = ref (-1) in
            let next = ref [] in
            Array.iter
              (fun so ->
                Array.iteri
                  (fun i c ->
                    if
                      (not so.so_old.(i))
                      && (match limit with
                         | None -> true
                         | Some l -> c.c_pos < l)
                    then begin
                      let gid = !states in
                      node_push ~parent:c.c_parent c.c_sc.step;
                      incr states;
                      if c.c_pos = viol_pos then vgid := gid;
                      let s = c.c_sc in
                      next :=
                        { idx = gid; sys = s.s_sys; key = s.s_key;
                          phases = s.s_phases; rems = s.s_rems;
                          ncrit = s.s_ncrit }
                        :: !next
                    end)
                  so.so_news)
              souts;
            (!vgid, List.rev !next)
          in
          let layer_run_keys = ref [] in
          (match !ev with
          | Some (p, `Dl parent) ->
            ignore (commit ~limit:(Some p) ~viol_pos:(-1));
            final_node := parent;
            verdict_r := Some (Deadlock (trace_to parent))
          | Some (p, `Ill (parent, sc)) ->
            ignore (commit ~limit:(Some p) ~viol_pos:(-1));
            let tr = trace_to parent in
            Execution.append tr sc.step;
            final_node := parent;
            verdict_r :=
              Some
                (Ill_formed
                   {
                     trace = tr;
                     who = sc.step.Step.who;
                     detail =
                       (match sc.s_ill with
                       | Some d -> d
                       | None -> assert false);
                   })
          | Some (p, `Viol) ->
            let vgid, _ = commit ~limit:(Some (p + 1)) ~viol_pos:p in
            final_node := vgid;
            verdict_r := Some (Mutex_violation (trace_to vgid))
          | Some (_, `Bound) ->
            ignore (commit ~limit:bound_pos ~viol_pos:(-1));
            verdict_r := Some (Bound_exceeded !states)
          | None ->
            let _, next = commit ~limit:None ~viol_pos:(-1) in
            frontier := next;
            (* phase 6 — resident insertion, parallel per shard; each
               shard also reports its sorted key array for the spill
               run *)
            let per =
              run_shards (fun sh ->
                  let so = souts.(sh) in
                  let kept = ref 0 in
                  Array.iteri
                    (fun i _ -> if not so.so_old.(i) then incr kept)
                    so.so_news;
                  if !kept = 0 then [||]
                  else begin
                    let keys = Array.make !kept [||] in
                    let j = ref 0 in
                    Array.iteri
                      (fun i c ->
                        if not so.so_old.(i) then begin
                          keys.(!j) <- c.c_sc.s_key;
                          incr j
                        end)
                      so.so_news;
                    Array.sort Lb_bitio.Key_run.compare_keys keys;
                    Array.iter (shard_add sh) keys;
                    keys
                  end)
            in
            if session <> None then
              layer_run_keys := List.concat_map Array.to_list per);
          let t_mrg = Unix.gettimeofday () in
          merge_sec := !merge_sec +. (t_mrg -. t_exp);
          match !verdict_r with
          | Some _ -> ()
          | None ->
            layer := !layer + 1;
            note_peak ();
            (match session with
            | Some s ->
              checkpoint s ~run_keys:!layer_run_keys
                ~frontier_entries:!frontier
            | None -> ());
            (match mem_budget with
            | None -> ()
            | Some b ->
              let bw = b / word_bytes in
              if accounted () > bw then begin
                if session <> None then evict bw;
                if accounted () > bw then
                  verdict_r := Some (Mem_exceeded !states)
              end);
            spill_s := !spill_s +. (Unix.gettimeofday () -. t_mrg)
        end
      end
    done;
    let verdict = match !verdict_r with None -> Verified | Some v -> v in
    note_peak ();
    (match session with
    | None -> ()
    | Some s -> (
      match final_of_verdict ~node:!final_node verdict with
      | None -> ()
      | Some f ->
        Check_spill.Nodes.flush s.log;
        let sz = Lb_util.Interner.size interner in
        if sz > s.flushed_ids then begin
          Check_spill.append_names s.sp
            (Lb_util.Interner.names_from interner s.flushed_ids);
          s.flushed_ids <- sz
        end;
        Check_spill.save_manifest ~dir:(Check_spill.dir s.sp)
          (meta ~frontier_count:0 ~status:(Check_spill.Final f))));
    let seconds = Unix.gettimeofday () -. t0 in
    {
      verdict;
      states = !states;
      transitions = !transitions;
      live_words = !peak_words;
      seconds;
      stats =
        {
          expand_seconds = !expand_s;
          merge_seconds = !merge_sec;
          spill_seconds = !spill_s;
          layers = !layer;
        };
    }

let pp_verdict ppf = function
  | Verified -> Format.fprintf ppf "verified"
  | Mutex_violation tr ->
    Format.fprintf ppf "MUTEX VIOLATION after %d steps" (Execution.length tr)
  | Deadlock tr ->
    Format.fprintf ppf "DEADLOCK after %d steps" (Execution.length tr)
  | Ill_formed { trace; who; detail } ->
    Format.fprintf ppf "ILL-FORMED after %d steps: p%d — %s"
      (Execution.length trace) who detail
  | Bound_exceeded k -> Format.fprintf ppf "bound exceeded (%d states)" k
  | Deadline_exceeded k ->
    Format.fprintf ppf "deadline exceeded (%d states explored)" k
  | Mem_exceeded k ->
    Format.fprintf ppf "memory budget exceeded (%d states stored)" k
