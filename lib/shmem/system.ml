type t = {
  n : int;
  algo : Algorithm.t;
  regs : Step.value array;
  procs : Proc.t array;
}

exception
  Step_mismatch of {
    who : int;
    expected : Step.action;
    actual : Step.action;
  }

type outcome = {
  response : Step.response;
  state_changed : bool;
  old_value : Step.value;
}

let init algo ~n =
  if not (Algorithm.supports algo n) then
    invalid_arg
      (Printf.sprintf "System.init: %s does not support n=%d" algo.Algorithm.name n);
  {
    n;
    algo;
    regs = Register.initial_values (algo.Algorithm.registers ~n);
    procs = Array.init n (fun me -> algo.Algorithm.spawn ~n ~me);
  }

let copy t = { t with regs = Array.copy t.regs; procs = Array.copy t.procs }

let is_rejection = function
  | Invalid_argument msg -> String.starts_with ~prefix:"System:" msg
  | _ -> false

let check_reg t r =
  if r < 0 || r >= Array.length t.regs then
    invalid_arg (Printf.sprintf "System: register %d out of range" r)

let rmw_result old (op : Step.rmw_op) =
  match op with
  | Step.Test_and_set -> 1
  | Step.Fetch_add v -> old + v
  | Step.Swap v -> v
  | Step.Cas { expect; replace } -> if old = expect then replace else old

let response_of t (action : Step.action) : Step.response =
  match action with
  | Step.Read r ->
    check_reg t r;
    Step.Got t.regs.(r)
  | Step.Rmw (r, _) ->
    check_reg t r;
    Step.Got t.regs.(r)
  | Step.Write _ | Step.Crit _ -> Step.Ack

let apply t (step : Step.t) =
  let who = step.Step.who in
  if who < 0 || who >= t.n then invalid_arg "System.apply: bad process index";
  let p = t.procs.(who) in
  if not (Step.equal_action p.Proc.pending step.Step.action) then
    raise (Step_mismatch { who; expected = p.Proc.pending; actual = step.Step.action });
  let response = response_of t step.Step.action in
  let old_value =
    match Step.reg_of step.Step.action with Some r -> t.regs.(r) | None -> 0
  in
  (match step.Step.action with
  | Step.Write (r, v) ->
    check_reg t r;
    t.regs.(r) <- v
  | Step.Rmw (r, op) ->
    check_reg t r;
    t.regs.(r) <- rmw_result t.regs.(r) op
  | Step.Read _ | Step.Crit _ -> ());
  let p' = p.Proc.advance response in
  t.procs.(who) <- p';
  { response; state_changed = p'.Proc.changed; old_value }

let advance_proc t i =
  let p = t.procs.(i) in
  p.Proc.advance (response_of t p.Proc.pending)

let would_change_state t i = (advance_proc t i).Proc.changed

let copy_with t i p' =
  let regs = Array.copy t.regs in
  (match t.procs.(i).Proc.pending with
  | Step.Write (r, v) ->
    check_reg t r;
    regs.(r) <- v
  | Step.Rmw (r, op) ->
    check_reg t r;
    regs.(r) <- rmw_result regs.(r) op
  | Step.Read _ | Step.Crit _ -> ());
  let procs = Array.copy t.procs in
  procs.(i) <- p';
  { t with regs; procs }

let peek_after_read t i v =
  let p = t.procs.(i) in
  (match p.Proc.pending with
  | Step.Read _ -> ()
  | a ->
    invalid_arg
      (Printf.sprintf "System.peek_after_read: p%d pending %s is not a read" i
         (Format.asprintf "%a" Step.pp_action a)));
  (p.Proc.advance (Step.Got v)).Proc.changed

let num_regs t = Array.length t.regs
let state_repr t i = t.procs.(i).Proc.repr ()
let pending_of t i = t.procs.(i).Proc.pending

let pp ppf t =
  let specs = t.algo.Algorithm.registers ~n:t.n in
  Format.fprintf ppf "@[<v>regs: %a@,%a@]"
    (Register.pp_file specs) t.regs
    (Format.pp_print_list Proc.pp)
    (Array.to_list t.procs)
