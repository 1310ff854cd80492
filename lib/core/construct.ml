open Lb_shmem
module Vec = Lb_util.Vec

exception
  Unsupported_primitive of {
    algo : string;
    who : int;
    action : Step.action;
  }

exception
  Stage_stuck of {
    algo : string;
    pi : Permutation.t;
    stage : int;
    detail : string;
  }

type t = {
  algo : Algorithm.t;
  n : int;
  pi : Permutation.t;
  arena : Metastep.arena;
  order : Poset.t;
  proc_meta : Metastep.id array array;
  write_chain : (Step.reg, Metastep.id array) Hashtbl.t;
}

(* Mutable state shared by all stages. *)
type builder = {
  algo_ : Algorithm.t;
  n_ : int;
  pi_ : Permutation.t;
  arena_ : Metastep.arena;
  order_ : Poset.t;
  chains : (Step.reg, Metastep.id Vec.t) Hashtbl.t;  (* write metasteps per reg *)
  reads_on : (Step.reg, Metastep.id Vec.t) Hashtbl.t;  (* read metasteps per reg *)
  proc_meta_ : Metastep.id Vec.t array;
  mutable saw : Step.value array;
      (* per read metastep id: the value its reader saw in its own stage *)
}

(* Per-stage state: the incremental prefix linearization Plin(M, ⪯, m').
   The executed set is always exactly the down-set of m', so the paper's
   "µ ⋠ m'" is "not executed". Metastep ids are dense arena indices, so
   the set is one flag per id, grown with the arena. Only the automaton
   of the stage's process [j] runs in [sys]; the others stay in their
   initial states, and their steps act only on [sys]'s registers. *)
type stage_state = {
  sys : System.t;
  j : int;
  stage : int;
  mutable executed : bool array;
  mutable m' : Metastep.id;
}

(* [a] with index [id] in range, grown to twice what it needs. *)
let grow_for a id fill =
  if id < Array.length a then a
  else begin
    let grown = Array.make (2 * (id + 1)) fill in
    Array.blit a 0 grown 0 (Array.length a);
    grown
  end

let is_executed st id = id < Array.length st.executed && st.executed.(id)

let mark_executed st id =
  st.executed <- grow_for st.executed id false;
  st.executed.(id) <- true

let record_saw b id v =
  b.saw <- grow_for b.saw id 0;
  b.saw.(id) <- v

let stuck b ~stage detail =
  raise
    (Stage_stuck { algo = b.algo_.Algorithm.name; pi = b.pi_; stage; detail })

let vec_of tbl key =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = Vec.create () in
    Hashtbl.replace tbl key v;
    v

(* Execute every unexecuted metastep in the down-set of [m], in the
   topological order the search returns; this extends Plin after m'
   advanced. Only j's step goes through its automaton. Every other step
   acts on the registers alone, in [Metastep.seq] order: a write stores
   its value (so a write metastep leaves its winner's, and a [seq] that
   misplaced the winner shows in a later read check), and the read of an
   earlier process's read metastep must see what it saw in its own
   stage — else the earlier process's execution would differ from the
   one its stage built. *)
let extend b st m =
  let regs = st.sys.System.regs in
  List.iter
    (fun id ->
      mark_executed st id;
      let ms = Metastep.get b.arena_ id in
      List.iter
        (fun (step : Step.t) ->
          if step.Step.who = st.j then ignore (System.apply st.sys step)
          else
            match step.Step.action with
            | Step.Write (l, v) -> regs.(l) <- v
            | Step.Read l when ms.Metastep.kind = Metastep.Read_meta ->
              if regs.(l) <> b.saw.(id) then
                stuck b ~stage:st.stage
                  (Printf.sprintf
                     "construction bug: p%d's read in m%d sees %d in stage \
                      %d, saw %d in its own stage"
                     step.Step.who id regs.(l) st.stage b.saw.(id))
            | _ -> ())
        (Metastep.seq ms))
    (Poset.down_set_stopping b.order_ m ~stop:(is_executed st))

(* Advance the stage onto metastep [mid] (just created or joined): order it
   after m', record it in j's chain, execute its down-set. *)
let advance_onto b st mid =
  if st.m' >= 0 then Poset.add_edge b.order_ st.m' mid;
  Vec.push b.proc_meta_.(st.j) mid;
  st.m' <- mid;
  extend b st mid

(* The first write metastep on [reg] not yet executed, if any. The chain is
   ⪯-totally ordered (Lemma 5.3), so this is the paper's min_⪯. *)
let first_unexecuted_write b st reg =
  let chain = vec_of b.chains reg in
  let rec go i =
    if i >= Vec.length chain then None
    else begin
      let id = Vec.get chain i in
      if is_executed st id then go (i + 1) else Some id
    end
  in
  go 0

(* All unexecuted write metasteps on [reg], in ⪯ order. *)
let unexecuted_writes b st reg =
  Vec.to_list
    (Vec.filter
       (fun id -> not (is_executed st id))
       (vec_of b.chains reg))

let unexecuted_reads b st reg =
  Vec.to_list
    (Vec.filter
       (fun id -> not (is_executed st id))
       (vec_of b.reads_on reg))

let stage_fuel = 1_000_000

(* One stage of Construct (the paper's Generate): insert all steps of the
   stage's process until it completes its exit section, building Plin on
   a copy of the initial system [s0]. *)
let generate b ~s0 ~stage =
  let j = Permutation.process_at b.pi_ stage in
  let st = { sys = System.copy s0; j; stage; executed = [||]; m' = -1 } in
  let stuck = stuck b ~stage in
  (* line 8: the initial try metastep *)
  let m_try = Metastep.new_crit b.arena_ ~crit:(Step.step j (Step.Crit Step.Try)) in
  Poset.add_element b.order_ m_try.Metastep.id;
  advance_onto b st m_try.Metastep.id;
  let fuel = ref stage_fuel in
  let running = ref true in
  while !running do
    decr fuel;
    if !fuel < 0 then stuck "out of fuel (livelock in construction?)";
    let e = System.pending_of st.sys j in
    match e with
    | Step.Rmw _ ->
      raise
        (Unsupported_primitive
           { algo = b.algo_.Algorithm.name; who = j; action = e })
    | Step.Crit c ->
      (* lines 37-39: critical steps get singleton metasteps *)
      let m = Metastep.new_crit b.arena_ ~crit:(Step.step j e) in
      Poset.add_element b.order_ m.Metastep.id;
      advance_onto b st m.Metastep.id;
      if c = Step.Rem then running := false
    | Step.Write (l, _) -> (
      let step = Step.step j e in
      match first_unexecuted_write b st l with
      | Some mw ->
        (* lines 15-17: hide the write inside mw, where the winning write
           (by a lower-indexed process) overwrites it *)
        Metastep.add_write_step (Metastep.get b.arena_ mw) step;
        advance_onto b st mw
      | None ->
        (* lines 18-26: new write metastep, ordered after the maximal
           outstanding reads on l, which become its prereads *)
        let m = Metastep.new_write b.arena_ ~reg:l ~win:step in
        Poset.add_element b.order_ m.Metastep.id;
        Vec.push (vec_of b.chains l) m.Metastep.id;
        let mr =
          Poset.maximal_among b.order_ (unexecuted_reads b st l)
            ~stop:(is_executed st)
        in
        if mr <> [] then begin
          m.Metastep.pread <- mr;
          List.iter
            (fun mu ->
              let mu_m = Metastep.get b.arena_ mu in
              (match mu_m.Metastep.pread_of with
              | None -> mu_m.Metastep.pread_of <- Some m.Metastep.id
              | Some other ->
                stuck
                  (Printf.sprintf
                     "read metastep %d would be a preread of both %d and %d"
                     mu other m.Metastep.id));
              Poset.add_edge b.order_ mu m.Metastep.id)
            mr
        end;
        advance_onto b st m.Metastep.id)
    | Step.Read l -> (
      let step = Step.step j e in
      (* lines 28-31: join the first outstanding write metastep on l whose
         value would change j's state *)
      let wakes id =
        System.peek_after_read st.sys j (Metastep.value (Metastep.get b.arena_ id))
      in
      match List.find_opt wakes (unexecuted_writes b st l) with
      | Some msw ->
        Metastep.add_read_step (Metastep.get b.arena_ msw) step;
        advance_onto b st msw
      | None ->
        (* lines 32-35: new singleton read metastep; the read itself must
           change the state, otherwise the process is stuck forever and
           the algorithm is not livelock-free *)
        if not (System.peek_after_read st.sys j st.sys.System.regs.(l)) then
          stuck
            (Printf.sprintf
               "p%d busy-waits on r%d but no outstanding write wakes it" j l);
        let m = Metastep.new_read b.arena_ ~reg:l ~read:step in
        Poset.add_element b.order_ m.Metastep.id;
        Vec.push (vec_of b.reads_on l) m.Metastep.id;
        record_saw b m.Metastep.id st.sys.System.regs.(l);
        advance_onto b st m.Metastep.id)
  done

let run_stages algo ~n ~stages pi =
  if Permutation.n pi <> n then invalid_arg "Construct.run: |pi| <> n";
  if stages < 0 || stages > n then invalid_arg "Construct.run_stages: stages";
  if not (Algorithm.supports algo n) then
    invalid_arg "Construct.run: n unsupported by algorithm";
  if not (Algorithm.registers_only algo) then
    raise
      (Unsupported_primitive
         { algo = algo.Algorithm.name; who = -1; action = Step.Rmw (0, Step.Test_and_set) });
  let b =
    {
      algo_ = algo;
      n_ = n;
      pi_ = pi;
      arena_ = Metastep.create_arena ();
      order_ = Poset.create ();
      chains = Hashtbl.create 64;
      reads_on = Hashtbl.create 64;
      proc_meta_ = Array.init n (fun _ -> Vec.create ());
      saw = [||];
    }
  in
  let s0 = System.init algo ~n in
  for stage = 0 to stages - 1 do
    generate b ~s0 ~stage
  done;
  let write_chain = Hashtbl.create (Hashtbl.length b.chains) in
  Hashtbl.iter (fun reg v -> Hashtbl.replace write_chain reg (Vec.to_array v)) b.chains;
  {
    algo;
    n;
    pi;
    arena = b.arena_;
    order = b.order_;
    proc_meta = Array.map Vec.to_array b.proc_meta_;
    write_chain;
  }

let metasteps_of t i = t.proc_meta.(i)

let pc t p m =
  let chain = t.proc_meta.(p) in
  let rec go q =
    if q >= Array.length chain then raise Not_found
    else if chain.(q) = m then q + 1
    else go (q + 1)
  in
  go 0

let run algo ~n pi = run_stages algo ~n ~stages:n pi
