open Lb_shmem

let faulty = [ Broken_spinlock.algorithm; Yang_anderson.flat ]

let all =
  [
    Yang_anderson.algorithm;
    Tournament.algorithm;
    Bakery.algorithm;
    Filter.algorithm;
    Burns.algorithm;
    Lamport_fast.algorithm;
    Szymanski.algorithm;
    Peterson2.algorithm;
    Dekker.algorithm;
    Rmw_locks.test_and_set;
    Rmw_locks.test_and_test_and_set;
    Rmw_locks.ticket;
    Queue_locks.anderson;
    Queue_locks.mcs;
    Queue_locks.clh;
  ]
  @ faulty

let correct =
  List.filter
    (fun a -> not (List.memq a faulty))
    all

let register_based = List.filter Algorithm.registers_only correct

let scalable =
  List.filter (fun a -> a.Algorithm.max_n = None) register_based

let find name = List.find_opt (fun a -> a.Algorithm.name = name) all

let find_exn name =
  match find name with
  | Some a -> a
  | None ->
    invalid_arg
      (Printf.sprintf "unknown algorithm %S; known: %s" name
         (String.concat ", " (List.map (fun a -> a.Algorithm.name) all)))

let names () = List.map (fun a -> a.Algorithm.name) all

(* Findings `mutexlb lint` is expected to report for registry entries.
   The faulty controls are lint-positive by design; the tree locks leave
   the unused side of odd-n competition nodes unwritten. Keep entries
   minimal and specific — a new rule firing on a registry algorithm
   should fail CI until triaged here or fixed. *)
let expected_findings = function
  | "broken_spinlock" -> [ "register-discipline/racy-test-then-set" ]
  | "yang_anderson" | "yang_anderson_flat" | "tournament" ->
    [ "register-discipline/read-never-written" ]
  | _ -> []

(* Survivors `mutexlb mutate` is expected to report, per algorithm:
   (operator id, why the whole detection stack legitimately stays
   silent). Every entry is an argued equivalent-or-benign mutant — the
   mutation campaign fails on any survivor NOT listed here, so a new
   survivor must be triaged (explained below) or the analyzers must be
   taught to kill it. An entry whose mutant is killed again shows up as
   a stale-triage note in the report: delete it. *)
let expected_survivors = function
  | "yang_anderson" ->
    (* At n=3 the arity-2 tree pads to four leaves, so process 2 owns
       competition node 3 alone: C3_0/T3 are never read by a rival, and
       P2_1 (its bottom-level spin flag) is only ever written by p2
       itself. Perturbing the uncontended path cannot change what any
       rival observes. The remaining entries are argued benign and
       deep-checked clean at rounds=2. *)
    [
      ("guard_flip@T3", "node 3 is uncontended at n=3 (tree padding)");
      ("guard_flip@P2_1", "no rival shares p2's bottom node at n=3");
      ("spin_invert@P2_1", "no rival shares p2's bottom node at n=3");
      ("drop_write@C3_0", "no rival reads node 3's registers at n=3");
      ("drop_write@T3", "no rival reads node 3's registers at n=3");
      ("drop_write@P2_1", "no rival shares p2's bottom node at n=3");
      ("dup_write@P2_1", "no rival shares p2's bottom node at n=3");
      ( "dup_write@C1_0",
        "deep check exceeds its state budget at rounds=2; round-1 \
         exploration and every schedule pass clean — the duplicate only \
         re-asserts the writer's own claim on node 1" );
      ( "reg_swap@P1_2+P2_1",
        "p0's swapped write redirects a wake-up into the uncontended \
         padding slot; deep-checked at rounds=2" );
      ( "stmt_swap@C3_0",
        "adjacent writes on the uncontended node 3 commute at n=3" );
      ( "stmt_swap@T3",
        "adjacent writes on the uncontended node 3 commute at n=3" );
      ( "stmt_swap@P0_2",
        "spin-flag reset and the next competition write commute: the \
         waiter re-reads the competition registers after waking; \
         deep-checked at rounds=2" );
      ( "stmt_swap@P1_2",
        "spin-flag reset and the next competition write commute: the \
         waiter re-reads the competition registers after waking; \
         deep-checked at rounds=2" );
    ]
  | "tournament" ->
    (* Same tree-padding argument: at n=3, node 3 has one competitor. *)
    [
      ("guard_flip@U3", "node 3 is uncontended at n=3 (tree padding)");
      ("drop_write@F3_0", "no rival reads node 3's registers at n=3");
      ("drop_write@U3", "no rival reads node 3's registers at n=3");
      ("stmt_swap@F3_0", "adjacent writes on the uncontended node 3 commute");
    ]
  | "filter" ->
    [
      ( "dup_write@victim1",
        "re-asserting victim_1 := me only re-volunteers the writer to \
         wait at level 1; deep-checked at rounds=2" );
      ( "reg_swap@level1+level2",
        "p0 only reads the two rival level registers; swapping them \
         permutes its rival scan order" );
    ]
  | "burns" ->
    [
      ( "reg_swap@flag1+flag2",
        "p0 only reads the two rival flags; swapping them permutes its \
         rival scan order" );
    ]
  | "lamport_fast" ->
    [
      ( "guard_flip@x",
        "skewing the x read only diverts entries from the fast path to \
         the slow path, which is itself a correct lock" );
      ( "reg_swap@b1+b2",
        "p0 only reads the rival b flags during its linear scan; \
         swapping them permutes the scan order" );
      ( "stmt_swap@b0",
        "the adjacent b-flag writes commute; deep-checked at rounds=2" );
      ( "stmt_swap@b1",
        "the adjacent b-flag writes commute; deep-checked at rounds=2" );
      ( "stmt_swap@b2",
        "the adjacent b-flag writes commute; deep-checked at rounds=2" );
    ]
  | "dekker" ->
    [
      ( "dup_write@turn",
        "re-asserting the turn handoff only re-donates priority to the \
         rival; deep-checked at rounds=2" );
      ( "stmt_swap@turn",
        "the exit-path turn handoff and flag reset commute; deep-checked \
         at rounds=2" );
    ]
  | "clh" ->
    [
      ( "dup_write@node2",
        "the duplicate re-stores the value the final queue node already \
         holds whenever a successor could observe it; deep-checked at \
         rounds=2" );
      ( "dup_write@node3",
        "the duplicate re-stores the value the final queue node already \
         holds whenever a successor could observe it; deep-checked at \
         rounds=2" );
    ]
  | _ -> []
