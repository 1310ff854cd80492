open Lb_shmem

let format_version = 1
let sc_model = "sc"

(* A process running alone from the initial register file follows one
   deterministic path; a mutex algorithm's solo path reaches Rem quickly
   (uncontended entry), so the budget only trips for pathological
   automata — and the truncation marker keeps the trace deterministic
   even then. *)
let solo_budget = 10_000

let apply_rmw v = function
  | Step.Test_and_set -> (1, v)
  | Step.Fetch_add d -> (v + d, v)
  | Step.Swap d -> (d, v)
  | Step.Cas { expect; replace } -> ((if v = expect then replace else v), v)

let solo_trace buf (algo : Algorithm.t) ~n ~me =
  let regs = Register.initial_values (algo.Algorithm.registers ~n) in
  let in_range r = r >= 0 && r < Array.length regs in
  let rec go (p : Proc.t) steps =
    if steps >= solo_budget then Buffer.add_string buf "!budget"
    else begin
      Buffer.add_string buf (Step.to_string (Step.step me p.Proc.pending));
      Buffer.add_char buf ';';
      match p.Proc.pending with
      | Step.Read r when in_range r -> go (p.Proc.advance (Step.Got regs.(r))) (steps + 1)
      | Step.Write (r, v) when in_range r ->
        regs.(r) <- v;
        go (p.Proc.advance Step.Ack) (steps + 1)
      | Step.Rmw (r, op) when in_range r ->
        let nv, old = apply_rmw regs.(r) op in
        regs.(r) <- nv;
        go (p.Proc.advance (Step.Got old)) (steps + 1)
      | Step.Read _ | Step.Write _ | Step.Rmw _ -> Buffer.add_string buf "!oob"
      | Step.Crit Step.Rem -> ()
      | Step.Crit _ -> go (p.Proc.advance Step.Ack) (steps + 1)
    end
  in
  match go (algo.Algorithm.spawn ~n ~me) 0 with
  | () -> ()
  | exception e ->
    (* a crashing automaton still fingerprints deterministically *)
    Buffer.add_string buf ("!raised:" ^ Printexc.to_string e)

let compute_fingerprint (algo : Algorithm.t) ~n =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "mutexlb-fp %d\nalgo %s\nkind %s\nmax_n %s\nn %d\n"
       format_version algo.Algorithm.name
       (Algorithm.kind_name algo.Algorithm.kind)
       (match algo.Algorithm.max_n with
       | None -> "any"
       | Some k -> string_of_int k)
       n);
  Array.iter
    (fun (s : Register.spec) ->
      Buffer.add_string buf
        (Printf.sprintf "reg %s init=%d home=%s domain=%s\n" s.Register.name
           s.Register.init
           (match s.Register.home with
           | None -> "-"
           | Some p -> string_of_int p)
           (match s.Register.domain with
           | None -> "-"
           | Some (lo, hi) -> Printf.sprintf "%d..%d" lo hi)))
    (algo.Algorithm.registers ~n);
  for me = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "solo %d " me);
    solo_trace buf algo ~n ~me;
    Buffer.add_char buf '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* (name, n) -> (the record it was computed for, digest). A hit needs
   the very record asked about: a same-named record with another
   automaton is recomputed and takes the slot. *)
let memo : (string * int, Algorithm.t * string) Hashtbl.t = Hashtbl.create 16
let memo_mu = Mutex.create ()

let fingerprint (algo : Algorithm.t) ~n =
  let slot = (algo.Algorithm.name, n) in
  match Mutex.protect memo_mu (fun () -> Hashtbl.find_opt memo slot) with
  | Some (a, fp) when a == algo -> fp
  | Some _ | None ->
    let fp = compute_fingerprint algo ~n in
    Mutex.protect memo_mu (fun () -> Hashtbl.replace memo slot (algo, fp));
    fp

let derive ~fp ~algo ~n ~pi ~model =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "mutexlb-key|%d|%s|%s|%d|%s|%s" format_version algo fp
          n
          (Lb_core.Permutation.to_string pi)
          model))

let sweep_id ~fp ~algo ~n ~perms ~model =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "mutexlb-sweep|%d|%s|%s|%d|%s|%s" format_version algo
          fp n model
          (String.concat ";" (List.map Lb_core.Permutation.to_string perms))))

let is_key s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
