(* The domain pool behind every parallel sweep: order preservation,
   fail-fast exception propagation, sequential equivalence at jobs=1,
   nested-map degradation, the process-wide domain budget, scoped
   teams, and — the property the whole engine rests on — parallel
   certify sweeps equal to sequential ones bit for bit. *)

module Pool = Lb_util.Pool
module P = Lb_core.Permutation
module Pl = Lb_core.Pipeline

let ya = Lb_algos.Yang_anderson.algorithm
let bakery = Lb_algos.Bakery.algorithm

let test_order_preserved () =
  let xs = List.init 500 Fun.id in
  Alcotest.(check (list int))
    "squares in input order"
    (List.map (fun i -> i * i) xs)
    (Pool.map ~jobs:8 (fun i -> i * i) xs)

let test_edge_shapes () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.map ~jobs:4 succ [ 7 ]);
  Alcotest.(check (list string)) "type change" [ "0"; "1"; "2" ]
    (Pool.map ~jobs:2 string_of_int [ 0; 1; 2 ])

let test_jobs_one_is_sequential () =
  (* jobs=1 must be a plain List.map: left-to-right effect order *)
  let seen = ref [] in
  let ys =
    Pool.map ~jobs:1
      (fun i ->
        seen := i :: !seen;
        i + 1)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "results" [ 2; 3; 4; 5 ] ys;
  Alcotest.(check (list int)) "effects in order" [ 4; 3; 2; 1 ] !seen

let test_invalid_jobs () =
  Alcotest.check_raises "jobs=0" (Invalid_argument "Pool.map: jobs must be >= 1")
    (fun () -> ignore (Pool.map ~jobs:0 succ [ 1; 2 ]))

let test_exception_propagates () =
  match Pool.map ~jobs:4 (fun i -> if i = 37 then failwith "boom" else i)
          (List.init 100 Fun.id)
  with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure m -> Alcotest.(check string) "payload" "boom" m

let test_exception_fail_fast () =
  (* the failing item is handed out first; once its exception is
     recorded no further items are dispensed, so most of the sweep never
     runs *)
  let executed = Atomic.make 0 in
  (match
     Pool.map ~jobs:2
       (fun i ->
         if i = 0 then failwith "first";
         Atomic.incr executed)
       (List.init 10_000 Fun.id)
   with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "stopped early" true (Atomic.get executed < 10_000)

let test_nested_map_degrades () =
  (* a map inside a pool worker runs sequentially instead of spawning
     another layer of domains — same results either way *)
  Alcotest.(check bool) "not in worker outside" false (Pool.in_worker ());
  (* Alcotest's check is not domain-safe, so workers only count how often
     they saw the flag and the assertion runs on the calling domain *)
  let flagged = Atomic.make 0 in
  let rows =
    Pool.map ~jobs:2
      (fun row ->
        if Pool.in_worker () then Atomic.incr flagged;
        Pool.map ~jobs:4 (fun x -> (row * 10) + x) [ 0; 1; 2 ])
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check int) "in worker inside" 4 (Atomic.get flagged);
  Alcotest.(check bool) "flag restored" false (Pool.in_worker ());
  Alcotest.(check (list (list int)))
    "nested results"
    [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ]
    rows

let test_iter () =
  let total = Atomic.make 0 in
  Pool.iter ~jobs:4 (fun i -> ignore (Atomic.fetch_and_add total i))
    (List.init 100 Fun.id);
  Alcotest.(check int) "all items visited" 4950 (Atomic.get total)

let test_default_jobs () =
  let before = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs before)
    (fun () ->
      Pool.set_default_jobs 5;
      Alcotest.(check int) "override" 5 (Pool.default_jobs ());
      Alcotest.check_raises "zero"
        (Invalid_argument "Pool.set_default_jobs: jobs must be >= 1")
        (fun () -> Pool.set_default_jobs 0))

let test_heavy_work_correct () =
  (* real pipeline runs (allocation-heavy, GC-active) across domains
     agree with the sequential sweep *)
  let perms = P.all 4 in
  let cost pi = (Pl.run_checked ya ~n:4 pi).Pl.cost in
  Alcotest.(check (list int))
    "costs identical" (List.map cost perms)
    (Pool.map ~jobs:4 cost perms)

let test_chunk_list () =
  Alcotest.(check (list (list int)))
    "uneven tail"
    [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6 ] ]
    (Pool.chunk_list 3 (List.init 7 Fun.id));
  Alcotest.(check (list (list int))) "empty" [] (Pool.chunk_list 4 []);
  Alcotest.(check (list (list int)))
    "chunk larger than list"
    [ [ 1; 2 ] ]
    (Pool.chunk_list 10 [ 1; 2 ]);
  Alcotest.check_raises "size=0"
    (Invalid_argument "Pool.chunk_list: size must be >= 1") (fun () ->
      ignore (Pool.chunk_list 0 [ 1 ]))

(* ------------------------- the domain budget ------------------------- *)

let self () = (Domain.self () :> int)

(* A two-item map at jobs=2 from the main domain: each item waits (up to
   10 s) for the other to start, so both complete only if the map got
   its worker — that is, only if no earlier call left a slot taken. *)
let rendezvous_completes () =
  let started = Atomic.make 0 in
  let meet _ =
    Atomic.incr started;
    let give_up = Unix.gettimeofday () +. 10.0 in
    while Atomic.get started < 2 && Unix.gettimeofday () < give_up do
      Domain.cpu_relax ()
    done;
    Atomic.get started >= 2
  in
  Pool.map ~jobs:2 meet [ 0; 1 ] = [ true; true ]

(* Work (pipeline runs, no clock) until [stop ()] holds, at most 200
   runs: long enough that a worker the budget should not have granted
   starts an item meanwhile. *)
let linger stop =
  let k = ref 0 in
  while !k < 200 && not (stop ()) do
    ignore (Pl.run_checked ya ~n:3 (P.identity 3));
    incr k
  done

let test_on_domain_no_worker () =
  (* the main domain and the job's domain fill a budget of 2, so every
     item runs on the job's domain, one after another *)
  let started = Atomic.make 0 in
  let job, items =
    Pool.on_domain (fun () ->
        ( self (),
          Pool.map ~jobs:2
            (fun _ ->
              Atomic.incr started;
              linger (fun () -> Atomic.get started > 1);
              self ())
            (List.init 4 Fun.id) ))
  in
  Alcotest.(check bool) "a domain of its own" true (job <> self ());
  Alcotest.(check (list int))
    "every item on the job's domain" (List.init 4 (fun _ -> job)) items

let test_main_domain_worker () =
  Alcotest.(check bool) "two domains meet" true (rendezvous_completes ())

let test_slots_come_back () =
  (match Pool.map ~jobs:2 (fun _ -> failwith "boom") [ 1; 2 ] with
  | _ -> Alcotest.fail "map: exception swallowed"
  | exception Failure _ -> ());
  let cancel = Pool.Cancel.create () in
  Pool.Cancel.set cancel;
  (match Pool.map ~jobs:2 ~cancel succ [ 1; 2 ] with
  | _ -> Alcotest.fail "map: not cancelled"
  | exception Pool.Cancelled -> ());
  (match Pool.on_domain (fun () -> failwith "job") with
  | _ -> Alcotest.fail "on_domain: exception swallowed"
  | exception Failure m -> Alcotest.(check string) "re-raised" "job" m);
  Alcotest.(check bool) "two domains still meet" true (rendezvous_completes ())

let test_on_domain_width () =
  (* jobs=3 less the main and the job's domain leaves one worker: at
     most two domains are ever inside [f] *)
  let inside = Atomic.make 0 and peak = Atomic.make 0 in
  let rec raise_peak v =
    let p = Atomic.get peak in
    if v > p && not (Atomic.compare_and_set peak p v) then raise_peak v
  in
  let ys =
    Pool.on_domain (fun () ->
        Pool.map ~jobs:3
          (fun i ->
            raise_peak (Atomic.fetch_and_add inside 1 + 1);
            linger (fun () -> Atomic.get inside > 2);
            Atomic.decr inside;
            i)
          (List.init 6 Fun.id))
  in
  Alcotest.(check (list int)) "every item" (List.init 6 Fun.id) ys;
  Alcotest.(check bool) "at most two domains in f" true (Atomic.get peak <= 2)

(* ------------------------------ scopes ------------------------------- *)

let test_scope_sequential_starts_none () =
  let n =
    Pool.scope ~jobs:2 (fun t ->
        Alcotest.(check (list int)) "empty" [] (Pool.Team.map t succ []);
        Alcotest.(check (list int))
          "singleton" [ 2 ] (Pool.Team.map t succ [ 1 ]);
        Pool.Team.domains t)
  in
  Alcotest.(check int) "no domain at jobs=2" 0 n;
  let n =
    Pool.scope ~jobs:1 (fun t ->
        Alcotest.(check (list int))
          "jobs=1" [ 1; 2; 3 ]
          (Pool.Team.map t succ [ 0; 1; 2 ]);
        Pool.Team.domains t)
  in
  Alcotest.(check int) "no domain at jobs=1" 0 n

(* Each of two items waits (up to 10 s) for the other to start, so one
   runs on the worker, which then calls [on_worker]; the ids of the
   domains that ran them. *)
let rendezvous_domains ?(on_worker = ignore) t =
  let started = Atomic.make 0 and caller = self () in
  Pool.Team.map t
    (fun _ ->
      Atomic.incr started;
      let give_up = Unix.gettimeofday () +. 10.0 in
      while Atomic.get started < 2 && Unix.gettimeofday () < give_up do
        Domain.cpu_relax ()
      done;
      if self () <> caller then on_worker ();
      self ())
    [ 0; 1 ]

let test_scope_one_team () =
  let first, second, n =
    Pool.scope ~jobs:2 (fun t ->
        let a = rendezvous_domains t in
        let b = rendezvous_domains t in
        (a, b, Pool.Team.domains t))
  in
  let worker ds = List.filter (fun d -> d <> self ()) ds in
  Alcotest.(check int) "one worker" 1 n;
  Alcotest.(check int) "the first call used it" 1 (List.length (worker first));
  Alcotest.(check (list int)) "the second call, the same one" (worker first)
    (worker second)

(* The worker's domain sets [exited] as it ends, so a scope that has
   joined its worker returns with [exited] set. *)
let test_scope_joined () =
  let exited = Atomic.make false in
  let on_worker () = Domain.at_exit (fun () -> Atomic.set exited true) in
  let n =
    Pool.scope ~jobs:2 (fun t ->
        ignore (rendezvous_domains ~on_worker t);
        Pool.Team.domains t)
  in
  let joined = Atomic.get exited in
  Alcotest.(check int) "a normal exit" 1 n;
  Alcotest.(check bool) "its worker was joined" true joined;
  Alcotest.(check bool) "its slot came back" true (rendezvous_completes ());
  Atomic.set exited false;
  (match
     Pool.scope ~jobs:2 (fun t ->
         ignore (rendezvous_domains ~on_worker t);
         failwith "scope")
   with
  | _ -> Alcotest.fail "scope: exception swallowed"
  | exception Failure m -> Alcotest.(check string) "re-raised" "scope" m);
  Alcotest.(check bool) "its worker was joined after a raise" true
    (Atomic.get exited);
  Alcotest.(check bool) "its slot came back after a raise" true
    (rendezvous_completes ())

let test_scope_nested_sequential () =
  (* a call from inside a worker, or from the calling domain while it
     works as one, runs there, one item after another *)
  let rows =
    Pool.scope ~jobs:2 (fun t ->
        Pool.Team.map t
          (fun _ -> (self (), Pool.Team.map t (fun _ -> self ()) [ 0; 1; 2 ]))
          (List.init 4 Fun.id))
  in
  List.iter
    (fun (d, inner) ->
      Alcotest.(check (list int)) "inner items on the outer item's domain"
        [ d; d; d ] inner)
    rows

let test_scope_on_domain () =
  let n =
    Pool.on_domain (fun () ->
        Pool.scope ~jobs:2 (fun t ->
            ignore (Pool.Team.map t succ (List.init 8 Fun.id));
            Pool.Team.domains t))
  in
  Alcotest.(check int) "a full budget starts no domain" 0 n

let certify_parallel_equals_sequential =
  QCheck.Test.make ~name:"parallel certify = sequential certify" ~count:10
    QCheck.(triple (int_range 0 1) (int_range 2 6) (int_range 1 8))
    (fun (ai, n, count) ->
      let algo = if ai = 0 then ya else bakery in
      let perms =
        P.sample (Lb_util.Rng.create ((n * 97) + count)) ~n ~count
      in
      let seq = Pl.certify algo ~n ~perms ~jobs:1 () in
      let par = Pl.certify algo ~n ~perms ~jobs:4 () in
      seq = par)

let suite =
  [
    Alcotest.test_case "order preserved" `Quick test_order_preserved;
    Alcotest.test_case "edge shapes" `Quick test_edge_shapes;
    Alcotest.test_case "jobs=1 sequential" `Quick test_jobs_one_is_sequential;
    Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "exception fail-fast" `Quick test_exception_fail_fast;
    Alcotest.test_case "nested map degrades" `Quick test_nested_map_degrades;
    Alcotest.test_case "iter" `Quick test_iter;
    Alcotest.test_case "default jobs" `Quick test_default_jobs;
    Alcotest.test_case "heavy work correct" `Quick test_heavy_work_correct;
    Alcotest.test_case "chunk_list shapes" `Quick test_chunk_list;
    Alcotest.test_case "on_domain: map adds no worker" `Quick
      test_on_domain_no_worker;
    Alcotest.test_case "main domain: map gets its worker" `Quick
      test_main_domain_worker;
    Alcotest.test_case "budget slots come back" `Quick test_slots_come_back;
    Alcotest.test_case "on_domain: two domains in f" `Quick
      test_on_domain_width;
    Alcotest.test_case "scope: sequential calls start none" `Quick
      test_scope_sequential_starts_none;
    Alcotest.test_case "scope: one team for its calls" `Quick
      test_scope_one_team;
    Alcotest.test_case "scope: workers joined, slots back" `Quick
      test_scope_joined;
    Alcotest.test_case "scope: nested calls sequential" `Quick
      test_scope_nested_sequential;
    Alcotest.test_case "scope: on_domain starts none" `Quick
      test_scope_on_domain;
    QCheck_alcotest.to_alcotest certify_parallel_equals_sequential;
  ]
