(* The domain pool behind every parallel sweep: order preservation,
   fail-fast exception propagation, sequential equivalence at jobs=1,
   nested-map degradation, and — the property the whole engine rests
   on — parallel certify sweeps equal to sequential ones bit for bit. *)

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

let test_map_chunked_invalid () =
  Alcotest.check_raises "chunk=0"
    (Invalid_argument "Pool.map_chunked: chunk must be >= 1") (fun () ->
      ignore (Pool.map_chunked ~jobs:2 ~chunk:0 succ [ 1 ]))

let map_chunked_equals_map =
  (* the property map_chunked exists to satisfy: for every chunk size and
     job count it is observably Pool.map — same results, same order *)
  QCheck.Test.make ~name:"Pool.map_chunked = Pool.map" ~count:100
    QCheck.(
      triple (int_range 1 9) (int_range 1 5) (small_list small_signed_int))
    (fun (chunk, jobs, xs) ->
      let f x = (x * 31) + 7 in
      Pool.map_chunked ~jobs ~chunk f xs = Pool.map ~jobs f xs)

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
    Alcotest.test_case "map_chunked invalid chunk" `Quick
      test_map_chunked_invalid;
    QCheck_alcotest.to_alcotest map_chunked_equals_map;
    QCheck_alcotest.to_alcotest certify_parallel_equals_sequential;
  ]
