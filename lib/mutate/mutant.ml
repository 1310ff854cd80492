open Lb_shmem

type t = {
  base : Algorithm.t;
  n : int;
  op : Op.t;
  op_id : string;
  algo : Algorithm.t;
}

(* Cyclic in-domain skew, as [Inject.corrupt_value] uses for corrupted
   writes: always a different value, never out of a declared domain. *)
let skew (spec : Register.spec) v =
  match spec.Register.domain with
  | Some (lo, hi) when v >= lo && v <= hi -> lo + ((v - lo + 1) mod (hi - lo + 1))
  | Some _ | None -> v + 1

(* The repr of [inner] with the mutation status [tag] as its last
   ['|']-segment. *)
let suffixed (inner : Proc.t) tag () = inner.Proc.repr () ^ tag

(* Every read of [reg] feeds the automaton a skewed value: each guard
   comparing the register against a constant or a pid sees the wrong
   side of the comparison. *)
let guard_flip ~specs ~reg inner0 =
  let rec wrap (inner : Proc.t) =
    {
      inner with
      Proc.repr = suffixed inner "|m";
      advance =
        (fun resp ->
          let resp' =
            match (inner.Proc.pending, resp) with
            | Step.Read r, Step.Got v when r = reg -> Step.Got (skew specs.(reg) v)
            | _ -> resp
          in
          wrap (inner.Proc.advance resp'));
    }
  in
  wrap inner0

(* Invert a busy-wait's exit condition on [reg]: when the value read
   would keep the automaton in the same state (spinning: the advanced
   process reports no change), take the branch of the smallest
   value that exits instead — and vice versa. Reads where every
   candidate behaves alike (plain branches) pass through unchanged. *)
let spin_invert ~specs ~n ~reg inner0 =
  let candidates =
    match Register.domain_values specs.(reg) with
    | Some vs -> vs
    | None -> List.init (n + 2) Fun.id
  in
  let rec wrap (inner : Proc.t) =
    {
      inner with
      Proc.repr = suffixed inner "|m";
      advance =
        (fun resp ->
          match (inner.Proc.pending, resp) with
          | Step.Read r, Step.Got v when r = reg ->
              let probe w =
                match inner.Proc.advance (Step.Got w) with
                | p -> Some (not p.Proc.changed)
                | exception _ -> None
              in
              let spins w = probe w = Some true in
              let exits w = probe w = Some false in
              let replacement =
                if spins v then List.find_opt exits candidates
                else if exits v then List.find_opt spins candidates
                else None
              in
              let next =
                match replacement with
                | Some w -> inner.Proc.advance (Step.Got w)
                | None -> inner.Proc.advance resp
              in
              wrap next
          | _ -> wrap (inner.Proc.advance resp));
    }
  in
  wrap inner0

(* As [Inject.lost_write], but permanent: every write to [reg] executes
   a harmless read of the same register and feeds the automaton the
   [Ack] it expected — memory never changes. *)
let drop_write ~reg inner0 =
  let rec wrap (inner : Proc.t) =
    match inner.Proc.pending with
    | Step.Write (r, _) when r = reg ->
        {
          inner with
          Proc.pending = Step.Read reg;
          repr = suffixed inner "|m";
          advance = (fun _resp -> wrap (inner.Proc.advance Step.Ack));
        }
    | _ ->
        {
          inner with
          Proc.repr = suffixed inner "|m";
          advance = (fun resp -> wrap (inner.Proc.advance resp));
        }
  in
  wrap inner0

(* Three-phase wrapper: after a write of [v] to [reg] completes (idle →
   armed) and the following statement completes (armed → redo), the
   write is re-issued invisibly to the automaton, clobbering any rival
   write that landed in between. Phase and value live in the repr
   suffix, so injectivity is preserved. A step that moves the phase
   changes the state; one that stays idle changes it when the automaton
   does. *)
let dup_write ~reg inner0 =
  let rec idle ~changed (inner : Proc.t) =
    {
      inner with
      Proc.changed;
      repr = suffixed inner "|m";
      advance =
        (fun resp ->
          let inner' = inner.Proc.advance resp in
          match inner.Proc.pending with
          | Step.Write (r, v) when r = reg -> armed v inner'
          | _ -> idle ~changed:inner'.Proc.changed inner');
    }
  and armed v (inner : Proc.t) =
    {
      inner with
      Proc.changed = true;
      repr = (fun () -> Printf.sprintf "%s|ma%d" (inner.Proc.repr ()) v);
      advance = (fun resp -> redo v (inner.Proc.advance resp));
    }
  and redo v (inner : Proc.t) =
    {
      inner with
      Proc.changed = true;
      pending = Step.Write (reg, v);
      repr = (fun () -> Printf.sprintf "%s|mr%d" (inner.Proc.repr ()) v);
      advance = (fun _resp -> idle ~changed:true inner);
    }
  in
  idle ~changed:inner0.Proc.changed inner0

(* Swap the register indices of every access to [r1]/[r2] in ONE
   process's code (process 0) — the automaton still believes it is
   talking to the original register. Swapping in every process at once
   would be a global renaming, i.e. an equivalent mutant whenever the
   two specs agree; the single-process swap is the genuine off-by-one
   fault: one code path disagreeing with the rest about the layout. *)
let reg_swap ~r1 ~r2 inner0 =
  let swap r = if r = r1 then r2 else if r = r2 then r1 else r in
  let rec wrap (inner : Proc.t) =
    let pending =
      match inner.Proc.pending with
      | Step.Read r -> Step.Read (swap r)
      | Step.Write (r, v) -> Step.Write (swap r, v)
      | Step.Rmw (r, op) -> Step.Rmw (swap r, op)
      | Step.Crit _ as c -> c
    in
    {
      inner with
      Proc.pending;
      repr = suffixed inner "|m";
      advance = (fun resp -> wrap (inner.Proc.advance resp));
    }
  in
  wrap inner0

let apply_rmw op v =
  match op with
  | Step.Test_and_set -> 1
  | Step.Fetch_add k -> v + k
  | Step.Swap k -> k
  | Step.Cas { expect; replace } -> if v = expect then replace else v

(* Replace the atomic RMW on [reg] by its read-then-write split: read
   the register, then store what the primitive would have stored — with
   a preemption window in between. The automaton finally receives the
   [Got v] it expected from the atomic primitive. Entering or leaving
   the write-back phase changes the state. *)
let rmw_split ~reg inner0 =
  let rec idle ~changed (inner : Proc.t) =
    match inner.Proc.pending with
    | Step.Rmw (r, op) when r = reg ->
        {
          inner with
          Proc.changed;
          pending = Step.Read reg;
          repr = suffixed inner "|m";
          advance =
            (fun resp ->
              let v = match resp with Step.Got v -> v | Step.Ack -> 0 in
              write_back op v inner);
        }
    | _ ->
        {
          inner with
          Proc.changed;
          repr = suffixed inner "|m";
          advance =
            (fun resp ->
              let inner' = inner.Proc.advance resp in
              idle ~changed:inner'.Proc.changed inner');
        }
  and write_back op v (inner : Proc.t) =
    {
      inner with
      Proc.changed = true;
      pending = Step.Write (reg, apply_rmw op v);
      repr = (fun () -> Printf.sprintf "%s|mw%d" (inner.Proc.repr ()) v);
      advance =
        (fun _resp -> idle ~changed:true (inner.Proc.advance (Step.Got v)));
    }
  in
  idle ~changed:inner0.Proc.changed inner0

(* When a write to [reg] is deterministically followed by a different
   write, issue the two writes in swapped order, then resume where the
   automaton believes it is (after both). The peek at the successor is
   pure: [advance] never touches shared state. Phase m1 is entered only
   from m0 or m2 (a spawned automaton pends [try], so it starts in m0),
   so it always marks a change; a step into m0 changes the state when it
   leaves m2 or when the automaton changes. *)
let stmt_swap ~reg inner0 =
  let rec idle ~changed (inner : Proc.t) =
    match inner.Proc.pending with
    | Step.Write (r1, v1) when r1 = reg -> (
        let next = inner.Proc.advance Step.Ack in
        match next.Proc.pending with
        | Step.Write (r2, v2) when r2 <> r1 || v2 <> v1 ->
            {
              inner with
              Proc.changed = true;
              pending = Step.Write (r2, v2);
              repr = suffixed inner "|m1";
              advance = (fun _resp -> second ~v1 (next.Proc.advance Step.Ack));
            }
        | _ -> passthrough ~changed inner)
    | _ -> passthrough ~changed inner
  and second ~v1 (inner : Proc.t) =
    {
      inner with
      Proc.changed = true;
      pending = Step.Write (reg, v1);
      repr = (fun () -> Printf.sprintf "%s|m2:%d" (inner.Proc.repr ()) v1);
      advance = (fun _resp -> idle ~changed:true inner);
    }
  and passthrough ~changed (inner : Proc.t) =
    {
      inner with
      Proc.changed;
      repr = suffixed inner "|m0";
      advance =
        (fun resp ->
          let inner' = inner.Proc.advance resp in
          idle ~changed:inner'.Proc.changed inner');
    }
  in
  idle ~changed:inner0.Proc.changed inner0

(* [domain_shrink] rewrites the spec, not the execution: lower the
   declared upper bound by one. The site filter guarantees the shrunk
   spec is still well-formed (init stays in domain). *)
let shrink_spec (s : Register.spec) =
  match s.Register.domain with
  | Some (lo, hi) when hi > lo && s.Register.init < hi ->
      Register.spec ~init:s.Register.init ?home:s.Register.home
        ~domain:(lo, hi - 1) s.Register.name
  | _ -> s

let wrap_proc ~specs ~n ~me op inner =
  match op with
  | Op.Guard_flip { reg } -> guard_flip ~specs ~reg inner
  | Op.Spin_invert { reg } -> spin_invert ~specs ~n ~reg inner
  | Op.Drop_write { reg } -> drop_write ~reg inner
  | Op.Dup_write { reg } -> dup_write ~reg inner
  | Op.Reg_swap { r1; r2 } -> if me = 0 then reg_swap ~r1 ~r2 inner else inner
  | Op.Domain_shrink _ -> inner
  | Op.Rmw_split { reg } -> rmw_split ~reg inner
  | Op.Stmt_swap { reg } -> stmt_swap ~reg inner

let make (base : Algorithm.t) ~n op =
  let op_id = Op.id ~specs:(base.Algorithm.registers ~n) op in
  let registers ~n =
    let specs = base.Algorithm.registers ~n in
    match op with
    | Op.Domain_shrink { reg } when reg >= 0 && reg < Array.length specs ->
        Array.mapi (fun i s -> if i = reg then shrink_spec s else s) specs
    | _ -> specs
  in
  let algo =
    {
      base with
      Algorithm.name = base.Algorithm.name ^ "!" ^ op_id;
      description =
        Printf.sprintf "%s, under mutant %s" base.Algorithm.description op_id;
      registers;
      spawn =
        (fun ~n ~me ->
          wrap_proc
            ~specs:(base.Algorithm.registers ~n)
            ~n ~me op
            (base.Algorithm.spawn ~n ~me));
    }
  in
  { base; n; op; op_id; algo }
