(* A guided tour of the lower-bound proof objects (paper §5-§7) on a
   deliberately tiny instance, printing every intermediate artifact:
   the metasteps and their partial order, the encoding table and bit
   string, the decoding, and finally the exhaustive certificate.

     dune exec examples/lower_bound_tour.exe *)

module P = Lb_core.Permutation
module M = Lb_core.Metastep

let rule title = Printf.printf "\n----- %s -----\n\n" title

let () =
  let algo = Lb_algos.Bakery.algorithm in
  let n = 3 in
  let pi = P.of_array [| 2; 0; 1 |] in

  rule "Construction (Fig. 1)";
  let c = Lb_core.Construct.run algo ~n pi in
  Printf.printf
    "Constructed M for %s, n=%d, pi=%s: %d metasteps.\n\
     Each metastep hides every contained process except its winner:\n\n"
    algo.Lb_shmem.Algorithm.name n (P.to_string pi)
    (M.count c.Lb_core.Construct.arena);
  M.iter c.Lb_core.Construct.arena (fun m ->
      let preds = Lb_core.Poset.preds c.Lb_core.Construct.order m.M.id in
      Format.printf "  %a  after {%s}@." M.pp m
        (String.concat "," (List.map string_of_int (List.sort compare preds))));

  rule "Canonical linearization alpha_pi";
  let exec = Lb_core.Linearize.execution c in
  Format.printf "%a@."
    (Lb_shmem.Execution.pp_with_names (algo.Lb_shmem.Algorithm.registers ~n))
    exec;
  let cost = Lb_cost.State_change.cost algo ~n exec in
  Printf.printf "\nSC cost C(alpha_pi) = %d; CS order = %s (= pi).\n" cost
    (String.concat " "
       (List.map string_of_int (Lb_shmem.Execution.crit_order exec)));

  rule "Encoding E_pi (Fig. 2)";
  let e = Lb_core.Encode.encode c in
  Printf.printf "ASCII form (cells per process, '#' separated, '$' ends a column):\n\n  %s\n\n"
    (Lb_core.Encode.to_ascii e);
  Printf.printf "Binary form: %d bits = %.2f bits per unit of cost.\n"
    (Lb_core.Encode.length_bits e)
    (float_of_int (Lb_core.Encode.length_bits e) /. float_of_int cost);

  rule "Decoding (Fig. 3)";
  let decoded = Lb_core.Decode.run_bits algo ~n e.Lb_core.Encode.bits in
  Printf.printf
    "The decoder rebuilt a %d-step execution from the bits and the\n\
     algorithm's transition function alone; per-process projections match\n\
     the canonical linearization: %b.\n"
    (Lb_shmem.Execution.length decoded)
    (Array.for_all2 (List.equal Lb_shmem.Step.equal)
       (Lb_shmem.Execution.projections decoded ~n)
       (Lb_shmem.Execution.projections exec ~n));

  rule "The counting argument (Theorem 7.5)";
  let cert = Lb_core.Pipeline.certify algo ~n ~perms:(P.all n) ~exhaustive:true () in
  Format.printf "%a@." Lb_core.Bounds.pp_certificate cert;
  Printf.printf
    "\nAll %d decoder outputs are distinct, so some E_pi has at least\n\
     log2(%d!) = %.2f bits, and with |E| <= %.1f x C every canonical family\n\
     contains an execution of cost >= %.2f -- Omega(n log n).\n"
    cert.Lb_core.Bounds.perms n
    (Lb_core.Bounds.bits_needed n)
    cert.Lb_core.Bounds.bits_per_cost
    (Lb_core.Bounds.bits_needed n /. cert.Lb_core.Bounds.bits_per_cost)
