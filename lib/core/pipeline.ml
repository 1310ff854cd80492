open Lb_shmem

type result = {
  pi : Permutation.t;
  construction : Construct.t;
  encoding : Encode.t;
  canonical : Execution.t;
  decoded : Execution.t;
  cost : int;
  bits : int;
}

(* The construction of §5 only knows how to serialize reads and writes
   (Construct would raise [Unsupported_primitive] deep inside the sweep);
   refuse RMW algorithms up front, with the lint rule that names the
   contract. *)
let require_registers_only ~what (algo : Algorithm.t) =
  if not (Algorithm.registers_only algo) then
    invalid_arg
      (Printf.sprintf
         "%s: algorithm %S is declared Uses_rmw; the lower-bound pipeline \
          covers only the paper's read/write-register model \
          (kind-honesty/undeclared-rmw is the matching `mutexlb lint` rule)"
         what algo.Algorithm.name)

let run algo ~n pi =
  require_registers_only ~what:"Pipeline.run" algo;
  let construction = Construct.run algo ~n pi in
  let encoding = Encode.encode construction in
  let canonical = Linearize.execution construction in
  let decoded = Decode.run_bits algo ~n encoding.Encode.bits in
  {
    pi;
    construction;
    encoding;
    canonical;
    decoded;
    cost = Lb_cost.State_change.cost algo ~n canonical;
    bits = Encode.length_bits encoding;
  }

exception
  Check_failed of {
    algo : string;
    n : int;
    pi : Permutation.t;
    stage : string;
    message : string;
  }

let () =
  Printexc.register_printer (function
    | Check_failed { algo; n; pi; stage; message } ->
      Some
        (Printf.sprintf "pipeline check failed (%s, n=%d, pi=%s) at %s: %s"
           algo n (Permutation.to_string pi) stage message)
    | _ -> None)

let ( let* ) = Result.bind

(* Internal checks report [(stage, message)]: the stage names which link
   of the construct → encode → decode chain broke, and survives into
   {!Check_failed} so sweep quarantines and CLI output can say more than
   "check failed". *)
let check_execution algo ~n ~stage pi exec =
  let fail fmt = Printf.ksprintf (fun m -> Error (stage, m)) fmt in
  let* cost =
    match Lb_mutex.Checker.check_algorithm algo ~n exec with
    | Ok cost -> Ok cost
    | Error (`Violation v) -> fail "%s" (Lb_mutex.Checker.violation_to_string v)
    | Error (`Mismatch m) -> fail "replay: %s" m
  in
  let* () =
    let sections = Lb_mutex.Checker.completed_sections ~n exec in
    if Array.for_all (fun c -> c = 1) sections then Ok ()
    else fail "not every process completed once"
  in
  let order = Execution.crit_order exec in
  if order = Array.to_list (Permutation.to_array pi) then Ok cost
  else
    fail "CS order %s differs from pi %s"
      (String.concat "," (List.map string_of_int order))
      (Permutation.to_string pi)

let check_staged algo ~n r =
  let* canonical_cost =
    check_execution algo ~n ~stage:"canonical" r.pi r.canonical
  in
  let* decoded_cost = check_execution algo ~n ~stage:"decoded" r.pi r.decoded in
  let* () =
    let decoded = Execution.projections r.decoded ~n
    and canonical = Execution.projections r.canonical ~n in
    let rec go i =
      if i >= n then Ok ()
      else if List.equal Step.equal decoded.(i) canonical.(i) then go (i + 1)
      else Error ("projection", Printf.sprintf "projection of p%d differs" i)
    in
    go 0
  in
  let* () =
    if canonical_cost = r.cost then Ok ()
    else
      Error
        ( "cost",
          Printf.sprintf "canonical cost %d <> recorded cost %d" canonical_cost
            r.cost )
  in
  let* () =
    if decoded_cost = r.cost then Ok ()
    else
      Error
        ( "cost",
          Printf.sprintf "decoded cost %d <> canonical cost %d" decoded_cost
            r.cost )
  in
  let* () =
    if r.bits > 0 then Ok () else Error ("encoding", "empty encoding")
  in
  let* () =
    let reparsed = Encode.parse ~n r.encoding.Encode.bits in
    if reparsed = r.encoding.Encode.cells then Ok ()
    else Error ("roundtrip", "cells do not round-trip through the binary form")
  in
  List.fold_left
    (fun acc (label, check) ->
      let* () = acc in
      Result.map_error (fun m -> (label, m)) (check r.construction))
    (Ok ()) Verify.structural

let check algo ~n r =
  match check_staged algo ~n r with
  | Ok () -> Ok ()
  | Error (stage, message) -> Error (stage ^ ": " ^ message)

let run_checked algo ~n pi =
  let r = run algo ~n pi in
  match check_staged algo ~n r with
  | Ok () -> r
  | Error (stage, message) ->
    raise
      (Check_failed { algo = algo.Algorithm.name; n; pi; stage; message })

type record = {
  r_pi : Permutation.t;
  r_cost : int;
  r_bits : int;
  r_exec_fp : string;
}

let record_of_result r =
  {
    r_pi = r.pi;
    r_cost = r.cost;
    r_bits = r.bits;
    r_exec_fp = Execution.fingerprint r.decoded;
  }

let certificate_of_records (algo : Algorithm.t) ~n ~exhaustive records =
  (* An empty family would "certify" garbage: mean_cost = 0/0 = nan,
     min_cost = max_int and lower_bound_bits = log2 0 = -inf. *)
  if records = [] then
    invalid_arg "Pipeline.certificate_of_records: empty record list";
  let costs = List.map (fun r -> r.r_cost) records in
  let bits = List.map (fun r -> r.r_bits) records in
  let fingerprints = List.map (fun r -> r.r_exec_fp) records in
  let distinct =
    List.length (List.sort_uniq compare fingerprints) = List.length fingerprints
  in
  let fmean xs =
    List.fold_left ( +. ) 0.0 (List.map float_of_int xs)
    /. float_of_int (List.length xs)
  in
  {
    Bounds.algo = algo.Algorithm.name;
    n;
    perms = List.length records;
    exhaustive;
    max_cost = List.fold_left max 0 costs;
    min_cost = List.fold_left min max_int costs;
    mean_cost = fmean costs;
    max_bits = List.fold_left max 0 bits;
    mean_bits = fmean bits;
    bits_per_cost =
      List.fold_left
        (fun acc r ->
          Float.max acc (float_of_int r.r_bits /. float_of_int (max 1 r.r_cost)))
        0.0 records;
    lower_bound_bits =
      Lb_util.Xmath.log2 (float_of_int (List.length records));
    distinct;
  }

let certify algo ~n ~perms ?(exhaustive = false) ?jobs () =
  if perms = [] then invalid_arg "Pipeline.certify: empty permutation family";
  require_registers_only ~what:"Pipeline.certify" algo;
  (* Each run_checked allocates its own construction arena, encoder
     state and decoder state, and the library keeps no module-level
     mutable state, so the per-pi runs are independent and can fan out
     across domains. Pool.map collects in input order, so the
     certificate is bit-for-bit identical at every job count — and the
     durable sweep engine (Lb_store.Sweep), which aggregates the same
     records through certificate_of_records, reproduces it exactly from
     cached entries. *)
  let records =
    Lb_util.Pool.map ?jobs
      (fun pi -> record_of_result (run_checked algo ~n pi))
      perms
  in
  certificate_of_records algo ~n ~exhaustive records
