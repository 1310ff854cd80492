(* Tests for the benchmark's own arithmetic: the tail rule, the failed
   share and span self time. *)

open Perfbench_lib

let feq = Alcotest.float 1e-9

let samples n = List.init n (fun i -> float_of_int (n - i))  (* n, n-1, ..., 1 *)

let test_tail_needs_eleven () =
  Alcotest.(check bool) "10 samples: no tail" true (Stats.tail (samples 10) = None);
  match Stats.tail (samples 11) with
  | None -> Alcotest.fail "11 samples must give a tail"
  | Some t ->
    Alcotest.check feq "value is the lowest sample" 1.0 t.Stats.value;
    Alcotest.(check int) "sample count" 11 t.Stats.samples

let test_tail_leaves_ten_beyond () =
  List.iter
    (fun n ->
      match Stats.tail (samples n) with
      | None -> Alcotest.fail "tail expected"
      | Some t ->
        let beyond =
          List.length (List.filter (fun x -> x > t.Stats.value) (samples n))
        in
        Alcotest.(check int) (Printf.sprintf "n=%d: 10 beyond" n) 10 beyond;
        Alcotest.(check int) "sample count reported" n t.Stats.samples;
        Alcotest.check feq "percentile"
          (100.0 *. float_of_int (n - 10) /. float_of_int n)
          t.Stats.pct)
    [ 11; 20; 100; 1000 ]

let test_tail_1000_is_p99 () =
  match Stats.tail (samples 1000) with
  | None -> Alcotest.fail "tail expected"
  | Some t ->
    Alcotest.check feq "p99" 99.0 t.Stats.pct;
    Alcotest.check feq "990th smallest" 990.0 t.Stats.value

let test_tail_or_max () =
  let t = Stats.tail_or_max [ 3.0; 1.0; 2.0 ] in
  Alcotest.check feq "falls back to the max" 3.0 t.Stats.value;
  Alcotest.check feq "at p100" 100.0 t.Stats.pct;
  Alcotest.(check int) "sample count" 3 t.Stats.samples;
  (* 20 samples: the rule would give p50, no tail at all *)
  Alcotest.check feq "20 samples: the max" 20.0 (Stats.tail_or_max (samples 20)).Stats.value;
  let t = Stats.tail_or_max (samples 21) in
  Alcotest.check feq "21 samples: the rule" 11.0 t.Stats.value;
  Alcotest.(check bool) "above the median" true (t.Stats.pct > 50.0)

let test_median () =
  Alcotest.check feq "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_median_of_groups () =
  (* one stalled group of three does not move the median of medians *)
  let groups = [ [ 1.0; 2.0; 3.0 ]; [ 2.0; 2.0; 2.0 ]; [ 90.0; 99.0; 95.0 ]; [] ] in
  Alcotest.check feq "median of group medians" 2.0
    (Stats.median_of_groups Stats.median groups)

let test_failed_share () =
  Alcotest.check feq "none failed" 0.0 (Stats.failed_share ~attempted:40 ~failed:0);
  Alcotest.check feq "a quarter" 0.25 (Stats.failed_share ~attempted:40 ~failed:10);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Stats.failed_share: nothing attempted") (fun () ->
      ignore (Stats.failed_share ~attempted:0 ~failed:0));
  Alcotest.check_raises "more failed than attempted"
    (Invalid_argument "Stats.failed_share: failed outside [0, attempted]")
    (fun () -> ignore (Stats.failed_share ~attempted:2 ~failed:3))

let span id ?(parent = -1) name start stop =
  { Span.id; name; unit_id = "u"; parent; start; stop }

(* unit [0,10] holds a [1,4] (which holds grandchild g [2,3]) and an
   overlapping sibling b [3,6]; c [8,12] runs past the unit's end. *)
let tree =
  [
    span 0 "unit" 0.0 10.0;
    span 1 ~parent:0 "a" 1.0 4.0;
    span 2 ~parent:1 "g" 2.0 3.0;
    span 3 ~parent:0 "b" 3.0 6.0;
    span 4 ~parent:0 "c" 8.0 12.0;
  ]

let test_self_nested_and_siblings () =
  let self = Span.self_times tree in
  let get name = List.assoc name self in
  (* children cover [1,6] and the clipped [8,10]: 7 of 10 *)
  Alcotest.check feq "unit self" 3.0 (get "unit");
  Alcotest.check feq "a self excludes its grandchild" 2.0 (get "a");
  Alcotest.check feq "leaf g" 1.0 (get "g");
  Alcotest.check feq "leaf b" 3.0 (get "b");
  Alcotest.check feq "leaf c" 4.0 (get "c")

let test_self_sums_by_name () =
  let spans =
    [
      span 0 "unit" 0.0 4.0;
      span 1 ~parent:0 "stage" 0.0 1.0;
      span 2 ~parent:0 "stage" 2.0 3.0;
      span 3 "unit" 10.0 12.0;
    ]
  in
  let self = Span.self_times spans in
  Alcotest.check feq "stage total" 2.0 (List.assoc "stage" self);
  Alcotest.check feq "unit total" 4.0 (List.assoc "unit" self)

let test_coverage () =
  Alcotest.check feq "min coverage of unit" 0.7 (Span.min_coverage tree ~name:"unit");
  Alcotest.check feq "covered merges touching and overlapping intervals" 6.0
    (Span.covered ~lo:0.0 ~hi:10.0 [ (1.0, 4.0); (3.0, 6.0); (0.0, 1.0) ])

let test_recorder () =
  let t = Span.create ~enabled:true in
  let r =
    Span.with_ t ~unit_id:"x" "outer" (fun id ->
        Span.with_ t ~parent:id ~unit_id:"x" "inner" (fun _ -> 41) + 1)
  in
  Alcotest.(check int) "result passes through" 42 r;
  match Span.spans t with
  | [ inner; outer ] ->
    Alcotest.(check string) "outer recorded when it closes" "outer" outer.Span.name;
    Alcotest.(check int) "inner's parent" outer.Span.id inner.Span.parent;
    Alcotest.(check bool) "inner inside outer" true
      (inner.Span.start >= outer.Span.start && inner.Span.stop <= outer.Span.stop)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_stages_contiguous () =
  let t = Span.create ~enabled:true in
  Span.with_ t ~unit_id:"x" "unit" (fun u ->
      let s = Span.stages t ~parent:u ~unit_id:"x" in
      Span.stage s "a" ignore;
      Span.stage s "b" ignore;
      Span.stage s "c" ignore);
  match Span.spans t with
  | [ a; b; c; unit ] ->
    Alcotest.(check (list string)) "order" [ "a"; "b"; "c"; "unit" ]
      (List.map (fun s -> s.Span.name) [ a; b; c; unit ]);
    Alcotest.check feq "b starts where a stopped" a.Span.stop b.Span.start;
    Alcotest.check feq "c starts where b stopped" b.Span.stop c.Span.start;
    Alcotest.(check int) "children of the unit" unit.Span.id c.Span.parent
  | l -> Alcotest.failf "expected 4 spans, got %d" (List.length l)

let test_disabled () =
  let t = Span.create ~enabled:false in
  Alcotest.(check int) "plain call" 7 (Span.with_ t ~unit_id:"x" "s" (fun _ -> 7));
  Alcotest.(check int) "nothing kept" 0 (List.length (Span.spans t))

let () =
  Alcotest.run "perfbench"
    [
      ( "tail",
        [
          Alcotest.test_case "needs eleven samples" `Quick test_tail_needs_eleven;
          Alcotest.test_case "ten samples beyond" `Quick test_tail_leaves_ten_beyond;
          Alcotest.test_case "1000 samples is p99" `Quick test_tail_1000_is_p99;
          Alcotest.test_case "max fallback" `Quick test_tail_or_max;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "median of groups" `Quick test_median_of_groups;
        ] );
      ("failed_share", [ Alcotest.test_case "share" `Quick test_failed_share ]);
      ( "spans",
        [
          Alcotest.test_case "self time, nested and sibling children" `Quick
            test_self_nested_and_siblings;
          Alcotest.test_case "self time sums by name" `Quick test_self_sums_by_name;
          Alcotest.test_case "coverage" `Quick test_coverage;
          Alcotest.test_case "recorder nests" `Quick test_recorder;
          Alcotest.test_case "stages are contiguous" `Quick test_stages_contiguous;
          Alcotest.test_case "disabled recorder" `Quick test_disabled;
        ] );
    ]
