open Lb_shmem

type engine =
  | Model_check of { rounds : int }
  | Schedule of { sched : sched; max_steps : int }

and sched = Round_robin | Random_sched of int

type expect = Benign | Detects of string list | Any

type cell = {
  algo : string;
  n : int;
  plan : Fault.plan;
  engine : engine;
  expect : expect;
}

type row = { cell : cell; outcome : string; ok : bool }
type t = { rows : row list; passed : int; honest : bool }

(* ------------------------------ running ------------------------------ *)

(* A schedule cell's execution — complete or truncated — still carries
   any safety violation it tripped over; report that in preference to
   the engine's own exit reason. *)
let checked_outcome ~n exec fallback =
  match Lb_mutex.Checker.check ~n exec with
  | Ok () -> fallback
  | Error v -> Lb_mutex.Checker.violation_slug v

(* A corrupted value can flow anywhere the algorithm dataflows it —
   including into a register index (yang_anderson reads a slot id and
   accesses the register it names). The system model's rejection of
   the impossible access IS the detection, so report it as an outcome
   instead of letting the exception surface as an engine crash. *)
let run_cell ~max_states ?deadline cell =
  let algo = Inject.wrap cell.plan (Lb_algos.Registry.find_exn cell.algo) in
  let n = cell.n in
  match cell.engine with
  | Model_check { rounds } -> (
    match Lb_mutex.Model_check.explore algo ~n ~rounds ~max_states ?deadline with
    | r -> Lb_mutex.Model_check.verdict_slug r.Lb_mutex.Model_check.verdict
    | exception e when System.is_rejection e -> "invalid_access")
  | Schedule { sched; max_steps } ->
    let base =
      match sched with
      | Round_robin -> Runner.round_robin ()
      | Random_sched seed -> Runner.random (Lb_util.Rng.create seed) ()
    in
    let picker = Inject.starve cell.plan.Fault.faults base in
    (match Runner.run algo ~n ~max_steps ?deadline picker with
    | exec, _sys -> checked_outcome ~n exec "completed"
    | exception Runner.Out_of_fuel exec -> checked_outcome ~n exec "out_of_fuel"
    | exception Runner.Deadline_exceeded exec ->
      checked_outcome ~n exec "deadline_exceeded"
    | exception Runner.Stuck -> "stuck"
    | exception e when System.is_rejection e -> "invalid_access")

let outcome_ok cell outcome =
  match cell.expect with
  | Benign -> outcome = "verified" || outcome = "completed"
  | Detects allowed -> List.mem outcome allowed
  | Any -> not (String.length outcome >= 12 && String.sub outcome 0 12 = "engine_error")

let run ?jobs ?cancel ?(max_states = 200_000) ?deadline cells =
  let rows =
    Lb_util.Pool.map ?jobs ?cancel
      (fun cell ->
        let outcome =
          try run_cell ~max_states ?deadline cell
          with e -> "engine_error: " ^ Printexc.to_string e
        in
        { cell; outcome; ok = outcome_ok cell outcome })
      cells
  in
  let passed = List.length (List.filter (fun r -> r.ok) rows) in
  { rows; passed; honest = passed = List.length rows }

(* ------------------------------ shipped ------------------------------ *)

let mc = Model_check { rounds = 1 }
let plan1 f = { Fault.label = Fault.fault_to_string f; faults = [ f ] }
let none = { Fault.label = "none"; faults = [] }

let shipped =
  [
    (* benign: crash-stop in the remainder section is recovery-legal *)
    { algo = "peterson2"; n = 2;
      plan = plan1 (Fault.Crash { proc = 0; at = Fault.In_section Step.Rem });
      engine = mc; expect = Benign };
    { algo = "yang_anderson"; n = 3;
      plan = plan1 (Fault.Crash { proc = 0; at = Fault.In_section Step.Rem });
      engine = mc; expect = Benign };
    { algo = "bakery"; n = 3;
      plan = plan1 (Fault.Crash { proc = 1; at = Fault.In_section Step.Rem });
      engine = mc; expect = Benign };
    (* the RME scenario proper: crash, restart, and complete a second
       full cycle from the remainder section *)
    { algo = "peterson2"; n = 2;
      plan = plan1 (Fault.Crash { proc = 0; at = Fault.In_section Step.Rem });
      engine = Model_check { rounds = 2 }; expect = Benign };
    (* benign: a bounded starvation burst only delays completion *)
    { algo = "yang_anderson"; n = 2;
      plan = plan1 (Fault.Starve { proc = 0; from_ = 0; len = 40 });
      engine = Schedule { sched = Round_robin; max_steps = 100_000 };
      expect = Benign };
    (* control: the empty plan exercises the wrapper, changes nothing *)
    { algo = "peterson2"; n = 2; plan = none; engine = mc; expect = Benign };
    (* register faults on peterson2: each kind, with its detection *)
    { algo = "peterson2"; n = 2;
      plan = plan1 (Fault.Lost_write { proc = 0; nth = 1 });
      engine = mc; expect = Detects [ "mutex_violation" ] };
    (* p0's lost release leaves flag0 raised forever: p1 livelocks
       between check_flag and check_turn. Its local state keeps
       changing, so the model checker sees a closed, verified state
       space — the schedule engine catches what bounded BFS cannot *)
    { algo = "peterson2"; n = 2;
      plan = plan1 (Fault.Lost_write { proc = 0; nth = 3 });
      engine = Schedule { sched = Round_robin; max_steps = 10_000 };
      expect = Detects [ "out_of_fuel" ] };
    { algo = "peterson2"; n = 2;
      plan = plan1 (Fault.Stale_read { proc = 0; nth = 1 });
      engine = mc; expect = Detects [ "mutex_violation" ] };
    { algo = "peterson2"; n = 2;
      plan = plan1 (Fault.Corrupt_write { proc = 0; nth = 1; off_domain = false });
      engine = mc; expect = Detects [ "mutex_violation" ] };
    { algo = "peterson2"; n = 2;
      plan = plan1 (Fault.Corrupt_write { proc = 0; nth = 2; off_domain = true });
      engine = mc; expect = Detects [ "mutex_violation" ] };
    (* a lost release deadlocks the spin loop *)
    { algo = "tas"; n = 2;
      plan = plan1 (Fault.Lost_write { proc = 0; nth = 1 });
      engine = mc; expect = Detects [ "deadlock" ] };
    (* crash-stop outside the remainder section: the restart re-issues
       [try] mid-cycle (ill-formed) or orphans the lock (deadlock) *)
    { algo = "yang_anderson"; n = 2;
      plan = plan1 (Fault.Crash { proc = 0; at = Fault.In_section Step.Enter });
      engine = mc; expect = Detects [ "ill_formed"; "deadlock" ] };
    { algo = "peterson2"; n = 2;
      plan = plan1 (Fault.Crash { proc = 0; at = Fault.In_section Step.Try });
      engine = mc; expect = Detects [ "ill_formed"; "deadlock" ] };
    (* faulty-zoo control: no injected fault, the algorithm itself is
       broken and the engine must still say so *)
    { algo = "broken_spinlock"; n = 2; plan = none; engine = mc;
      expect = Detects [ "mutex_violation" ] };
    (* unbounded starvation of the lock holder burns the step budget:
       the liveness detection *)
    { algo = "tas"; n = 2;
      plan = plan1 (Fault.Starve { proc = 0; from_ = 5; len = 1_000_000 });
      engine = Schedule { sched = Round_robin; max_steps = 4_000 };
      expect = Detects [ "out_of_fuel" ] };
  ]

(* Fuzz pool: correct algorithms across both engines; two-process-only
   entries pinned to n = 2. *)
let fuzz_pool =
  [ ("peterson2", 2); ("dekker", 2); ("yang_anderson", 2); ("yang_anderson", 3);
    ("bakery", 3); ("filter", 3); ("tas", 2) ]

let random_cells ~seed ~count =
  let rng = Lb_util.Rng.create seed in
  List.init count (fun _ ->
      let algo, n = List.nth fuzz_pool (Lb_util.Rng.int rng (List.length fuzz_pool)) in
      let plan = Fault.generate rng ~n in
      let engine =
        match plan.Fault.faults with
        | [ Fault.Starve _ ] ->
          Schedule { sched = Round_robin; max_steps = 50_000 }
        | _ -> mc
      in
      { algo; n; plan; engine; expect = Any })

(* ----------------------------- rendering ----------------------------- *)

let engine_to_string = function
  | Model_check { rounds } -> Printf.sprintf "model_check(rounds=%d)" rounds
  | Schedule { sched = Round_robin; max_steps } ->
    Printf.sprintf "round_robin(max_steps=%d)" max_steps
  | Schedule { sched = Random_sched seed; max_steps } ->
    Printf.sprintf "random(seed=%d,max_steps=%d)" seed max_steps

let expect_outcomes = function
  | Benign -> [ "verified"; "completed" ]
  | Detects allowed -> allowed
  | Any -> [ "*" ]

module Json = Lb_util.Json

let json_string_list xs =
  "[" ^ String.concat "," (List.map Json.escape xs) ^ "]"

let format_version = 1

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"format_version\": %d,\n  \"cells\": [\n"
       format_version);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"algo\": %s, \"n\": %d, \"plan\": %s, \"faults\": %s, \
            \"engine\": %s, \"expect\": %s, \"outcome\": %s, \"ok\": %b}"
           (Json.escape r.cell.algo) r.cell.n
           (Json.escape r.cell.plan.Fault.label)
           (json_string_list
              (List.map Fault.fault_to_string r.cell.plan.Fault.faults))
           (Json.escape (engine_to_string r.cell.engine))
           (json_string_list (expect_outcomes r.cell.expect))
           (Json.escape r.outcome) r.ok))
    t.rows;
  Buffer.add_string b
    (Printf.sprintf "\n  ],\n  \"total\": %d,\n  \"passed\": %d,\n  \
                     \"honest\": %b\n}\n"
       (List.length t.rows) t.passed t.honest);
  Buffer.contents b

let pp ppf t =
  Format.fprintf ppf "%-16s %-3s %-28s %-26s %-16s %s@." "algo" "n" "plan"
    "engine" "outcome" "ok";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-16s %-3d %-28s %-26s %-16s %s@." r.cell.algo
        r.cell.n r.cell.plan.Fault.label
        (engine_to_string r.cell.engine)
        r.outcome
        (if r.ok then "ok" else "FAIL"))
    t.rows;
  Format.fprintf ppf "%d/%d cells as expected: detection matrix is %s@."
    t.passed (List.length t.rows)
    (if t.honest then "honest" else "DISHONEST")
