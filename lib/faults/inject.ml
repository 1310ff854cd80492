open Lb_shmem

(* A permanently-transparent wrapper that keeps ["|f"] as the last
   ['|']-segment of the repr, so post-fire states can never collide with
   armed states of the same underlying automaton. [changed] is the flag
   of the step that entered this state: [true] for the step that fires,
   since it leaves the armed phase, and the inner automaton's own flag
   after that. *)
let rec fired ~changed (inner : Proc.t) =
  {
    inner with
    Proc.changed;
    repr = (fun () -> inner.Proc.repr () ^ "|f");
    advance =
      (fun resp ->
        let inner' = inner.Proc.advance resp in
        fired ~changed:inner'.Proc.changed inner');
  }

let armed_repr (inner : Proc.t) countdown () =
  Printf.sprintf "%s|a%d" (inner.Proc.repr ()) countdown

(* Crash-stop with restart: at the trigger point the target loses its
   volatile local state and resumes as [reset] (its spawn-time initial
   automaton — first step [try]); shared registers are untouched by
   construction, since the wrapper never forges a write. *)
let crash ~at ~reset inner0 =
  let rec armed ~changed countdown (inner : Proc.t) =
    {
      inner with
      Proc.changed;
      repr = armed_repr inner countdown;
      advance =
        (fun resp ->
          let fire =
            match at with
            | Fault.After_steps _ -> countdown <= 1
            | Fault.In_section c -> (
              match inner.Proc.pending with
              | Step.Crit c' -> Step.equal_crit c c'
              | Step.Read _ | Step.Write _ | Step.Rmw _ -> false)
          in
          if fire then fired ~changed:true reset
          else
            let countdown' =
              match at with
              | Fault.After_steps _ -> countdown - 1
              | Fault.In_section _ -> countdown
            in
            let inner' = inner.Proc.advance resp in
            armed
              ~changed:(inner'.Proc.changed || countdown' <> countdown)
              countdown' inner');
    }
  in
  armed ~changed:inner0.Proc.changed
    (match at with Fault.After_steps k -> k | Fault.In_section _ -> 0)
    inner0

(* Count down over the target's own accesses matching [matches]; when
   the countdown reaches its last matching access, [fire] rewrites that
   one access. The countdown freezes after firing (the "|f" tag), so the
   wrapper adds at most [nth] extra repr variants per underlying
   state. *)
let on_nth_access ~matches ~fire ~nth inner0 =
  let rec armed ~changed remaining (inner : Proc.t) =
    if remaining = 1 && matches inner.Proc.pending then
      { (fire inner) with Proc.changed }
    else
      {
        inner with
        Proc.changed;
        repr = armed_repr inner remaining;
        advance =
          (fun resp ->
            let dec = if matches inner.Proc.pending then 1 else 0 in
            let inner' = inner.Proc.advance resp in
            armed ~changed:(inner'.Proc.changed || dec = 1) (remaining - dec)
              inner');
      }
  in
  armed ~changed:inner0.Proc.changed nth inner0

let is_write = function
  | Step.Write _ -> true
  | Step.Read _ | Step.Rmw _ | Step.Crit _ -> false

let is_read = function
  | Step.Read _ -> true
  | Step.Write _ | Step.Rmw _ | Step.Crit _ -> false

(* The lost write executes a harmless read of the same register (so the
   engine still sees a well-typed shared access) and feeds the automaton
   the [Ack] it expected: the automaton proceeds, memory never changes. *)
let lost_write ~nth inner0 =
  on_nth_access ~nth ~matches:is_write
    ~fire:(fun inner ->
      let r =
        match inner.Proc.pending with
        | Step.Write (r, _) -> r
        | Step.Read _ | Step.Rmw _ | Step.Crit _ -> assert false
      in
      {
        inner with
        Proc.pending = Step.Read r;
        repr = armed_repr inner 1;
        advance =
          (fun _resp -> fired ~changed:true (inner.Proc.advance Step.Ack));
      })
    inner0

(* The stale read ignores the register's current value and feeds the
   automaton the initial one — the oldest view any register can serve. *)
let stale_read ~init ~nth inner0 =
  on_nth_access ~nth ~matches:is_read
    ~fire:(fun inner ->
      let r =
        match inner.Proc.pending with
        | Step.Read r -> r
        | Step.Write _ | Step.Rmw _ | Step.Crit _ -> assert false
      in
      {
        inner with
        Proc.repr = armed_repr inner 1;
        advance =
          (fun _resp ->
            fired ~changed:true (inner.Proc.advance (Step.Got init.(r))));
      })
    inner0

let corrupt_value (spec : Register.spec) ~off_domain v =
  match spec.Register.domain with
  | Some (lo, hi) when not off_domain -> lo + ((v - lo + 1) mod (hi - lo + 1))
  | Some (_, hi) -> hi + 1
  | None -> v + 1

(* The corrupted write really happens — just with the wrong value; the
   automaton sees the [Ack] it expected and believes it wrote [v]. *)
let corrupt_write ~specs ~off_domain ~nth inner0 =
  on_nth_access ~nth ~matches:is_write
    ~fire:(fun inner ->
      let r, v =
        match inner.Proc.pending with
        | Step.Write (r, v) -> (r, v)
        | Step.Read _ | Step.Rmw _ | Step.Crit _ -> assert false
      in
      {
        inner with
        Proc.pending = Step.Write (r, corrupt_value specs.(r) ~off_domain v);
        repr = armed_repr inner 1;
        advance =
          (fun _resp -> fired ~changed:true (inner.Proc.advance Step.Ack));
      })
    inner0

let wrap_proc ~specs ~init faults ~me inner0 =
  List.fold_left
    (fun p fault ->
      match fault with
      | Fault.Crash { proc; at } when proc = me -> crash ~at ~reset:p p
      | Fault.Lost_write { proc; nth } when proc = me -> lost_write ~nth p
      | Fault.Stale_read { proc; nth } when proc = me -> stale_read ~init ~nth p
      | Fault.Corrupt_write { proc; nth; off_domain } when proc = me ->
        corrupt_write ~specs ~off_domain ~nth p
      | Fault.Crash _ | Fault.Lost_write _ | Fault.Stale_read _
      | Fault.Corrupt_write _ | Fault.Starve _ -> p)
    inner0 faults

let wrap (plan : Fault.plan) (algo : Algorithm.t) =
  {
    algo with
    Algorithm.name = algo.Algorithm.name ^ "+" ^ plan.Fault.label;
    description =
      Format.asprintf "%s under fault plan %a" algo.Algorithm.description
        Fault.pp_plan plan;
    spawn =
      (fun ~n ~me ->
        Fault.validate_exn ~n plan;
        let specs = algo.Algorithm.registers ~n in
        let init = Register.initial_values specs in
        wrap_proc ~specs ~init plan.Fault.faults ~me
          (algo.Algorithm.spawn ~n ~me));
  }

let starve faults (picker : Runner.picker) : Runner.picker =
  let clock = ref 0 in
  let starved_at t proc =
    List.exists
      (function
        | Fault.Starve { proc = p; from_; len } ->
          p = proc && t >= from_ && t < from_ + len
        | Fault.Crash _ | Fault.Lost_write _ | Fault.Stale_read _
        | Fault.Corrupt_write _ -> false)
      faults
  in
  fun view ->
    let t = !clock in
    let n = view.Runner.sys.System.n in
    let rec attempt k =
      match picker view with
      | None -> None
      | Some i when not (starved_at t i) ->
        incr clock;
        Some i
      | Some i when k >= (2 * n) + 2 ->
        (* every retry named a starved process: nothing else is
           schedulable, so yield rather than stall the run *)
        incr clock;
        Some i
      | Some _ -> attempt (k + 1)
    in
    attempt 0
