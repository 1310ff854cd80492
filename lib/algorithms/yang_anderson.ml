open Lb_shmem

let levels ~n = Lb_util.Xmath.ceil_log2 (max n 2)

(* Register layout: internal nodes are heap-numbered 1 .. 2^L - 1; node v
   owns registers C[v][0], C[v][1], T[v] at indices (v-1)*3 .. (v-1)*3+2;
   the spin registers P follow, laid out by a [Layout]. *)
let reg_c ~v side = ((v - 1) * 3) + side
let reg_t ~v = ((v - 1) * 3) + 2
let p_base ~l = 3 * (Lb_util.Xmath.pow 2 l - 1)

(* Where the spin registers P live: the only difference between the
   algorithm and its ablation. *)
module type Layout = sig
  val name : string
  val description : string

  val reg_p : l:int -> int -> int -> int
  (** spin register of process [i] for the node at shift [k] on its path *)

  val p_specs : n:int -> l:int -> Register.spec array
  (** the P registers, in index order from [p_base] *)
end

(* one cell per (process, level) so a loser's late wake-up write at a
   lower node can never corrupt a competition higher up the tree *)
module Per_level = struct
  let name = "yang_anderson"

  let description =
    "Yang-Anderson arbitration tree (local spins; O(n log n) SC cost)"

  let reg_p ~l i k = p_base ~l + (i * l) + (k - 1)

  let p_specs ~n ~l =
    Array.init (n * l) (fun j ->
        let p = j / l and k = (j mod l) + 1 in
        Register.spec ~home:p ~domain:(0, 2) (Printf.sprintf "P%d_%d" p k))
end

(* FAULTY: a single spin register per process, shared by every level of
   the climb (stale wake-up writes from a lower node corrupt higher
   competitions; deadlocks at n = 3) *)
module Flat = struct
  let name = "yang_anderson_flat"

  let description =
    "ABLATION: Yang-Anderson with one spin register per process (DEADLOCKS)"

  let reg_p ~l i _k = p_base ~l + i

  let p_specs ~n ~l:_ =
    Array.init n (fun p ->
        Register.spec ~home:p ~domain:(0, 2) (Printf.sprintf "P%d" p))
end

(* process me's leaf in a tree of height l *)
let leaf ~l me = Lb_util.Xmath.pow 2 l + me

(* node on me's path at shift k (k = 1: parent of leaf ... k = l: root) *)
let node_at ~l me k = leaf ~l me lsr k

(* which side of node [leaf >> k] me arrives from *)
let side_at ~l me k = (leaf ~l me lsr (k - 1)) land 1

module Make_state (L : Layout) = struct
  let reg_p = L.reg_p

  type entry_pc =
    | Set_c
    | Set_t
    | Reset_p
    | Read_rival
    | Read_t of int  (* rival pid *)
    | Read_rival_p of int
    | Set_rival_p of int
    | Await_p1
    | Read_t2
    | Await_p2

  type exit_pc = Clear_c | X_read_t | X_set_rival_p of int

  type pc =
    | Start
    | Entry of { k : int; epc : entry_pc }  (* competing at node leaf>>k *)
    | Enter
    | In_cs
    | Exit_ of { k : int; xpc : exit_pc }  (* releasing node leaf>>k *)
    | Rem

  type state = pc

  let initial ~n:_ ~me:_ = Start

  let pending ~n ~me st : Step.action =
    let l = levels ~n in
    match st with
    | Start -> Step.Crit Step.Try
    | Entry { k; epc } -> (
      let v = node_at ~l me k in
      let s = side_at ~l me k in
      match epc with
      | Set_c -> Step.Write (reg_c ~v s, Common.pid me)
      | Set_t -> Step.Write (reg_t ~v, Common.pid me)
      | Reset_p -> Step.Write (reg_p ~l me k, 0)
      | Read_rival -> Step.Read (reg_c ~v (1 - s))
      | Read_t _ | Read_t2 -> Step.Read (reg_t ~v)
      | Read_rival_p rival -> Step.Read (reg_p ~l (Common.unpid rival) k)
      | Set_rival_p rival -> Step.Write (reg_p ~l (Common.unpid rival) k, 1)
      | Await_p1 | Await_p2 -> Step.Read (reg_p ~l me k))
    | Enter -> Step.Crit Step.Enter
    | In_cs -> Step.Crit Step.Exit
    | Exit_ { k; xpc } -> (
      let v = node_at ~l me k in
      let s = side_at ~l me k in
      match xpc with
      | Clear_c -> Step.Write (reg_c ~v s, Common.nil)
      | X_read_t -> Step.Read (reg_t ~v)
      | X_set_rival_p rival ->
        Step.Write (reg_p ~l (Common.unpid rival) k, 2))
    | Rem -> Step.Crit Step.Rem

  (* finished competing at node leaf>>k: climb or enter the CS *)
  let node_won ~l ~k =
    if k = l then Enter else Entry { k = k + 1; epc = Set_c }

  (* finished releasing node leaf>>k: descend or go to the remainder *)
  let node_released ~k =
    if k = 1 then Rem else Exit_ { k = k - 1; xpc = Clear_c }

  let advance ~n ~me st resp : state =
    let l = levels ~n in
    match st with
    | Start ->
      Common.acked resp;
      Entry { k = 1; epc = Set_c }
    | Entry { k; epc } -> (
      let continue epc = Entry { k; epc } in
      match epc with
      | Set_c ->
        Common.acked resp;
        continue Set_t
      | Set_t ->
        Common.acked resp;
        continue Reset_p
      | Reset_p ->
        Common.acked resp;
        continue Read_rival
      | Read_rival ->
        let rival = Common.got resp in
        if rival = Common.nil then node_won ~l ~k else continue (Read_t rival)
      | Read_t rival ->
        (* the algorithm's check "T[v] = i": if the rival overwrote T, it
           is the one who must wait; we may proceed *)
        if Common.got resp = Common.pid me then continue (Read_rival_p rival)
        else node_won ~l ~k
      | Read_rival_p rival ->
        if Common.got resp = 0 then continue (Set_rival_p rival)
        else continue Await_p1
      | Set_rival_p _ ->
        Common.acked resp;
        continue Await_p1
      | Await_p1 ->
        if Common.got resp = 0 then st (* local spin *) else continue Read_t2
      | Read_t2 ->
        if Common.got resp = Common.pid me then continue Await_p2
        else node_won ~l ~k
      | Await_p2 ->
        if Common.got resp < 2 then st (* local spin *) else node_won ~l ~k)
    | Enter ->
      Common.acked resp;
      In_cs
    | In_cs ->
      Common.acked resp;
      Exit_ { k = l; xpc = Clear_c }
    | Exit_ { k; xpc } -> (
      match xpc with
      | Clear_c ->
        Common.acked resp;
        Exit_ { k; xpc = X_read_t }
      | X_read_t ->
        (* T[v] = nil means no rival ever competed here (unreachable in a
           real execution — we wrote T[v] ourselves on entry — but T's
           declared domain permits it, and a total automaton keeps the
           static analyzer's register-discipline pass clean): nobody to
           wake, release the node *)
        let t = Common.got resp in
        if t = Common.pid me || t = Common.nil then node_released ~k
        else Exit_ { k; xpc = X_set_rival_p t }
      | X_set_rival_p _ ->
        Common.acked resp;
        node_released ~k)
    | Rem ->
      Common.acked resp;
      Start

  let entry_pc_repr = function
    | Set_c -> "sc"
    | Set_t -> "st"
    | Reset_p -> "rp"
    | Read_rival -> "rr"
    | Read_t r -> Printf.sprintf "rt.%d" r
    | Read_rival_p r -> Printf.sprintf "rrp%d" r
    | Set_rival_p r -> Printf.sprintf "srp%d" r
    | Await_p1 -> "a1"
    | Read_t2 -> "rt2"
    | Await_p2 -> "a2"

  let exit_pc_repr = function
    | Clear_c -> "cc"
    | X_read_t -> "xrt"
    | X_set_rival_p r -> Printf.sprintf "xsrp%d" r

  let repr (st : state) =
    match st with
    | Start -> "start"
    | Entry { k; epc } -> Printf.sprintf "e%d:%s" k (entry_pc_repr epc)
    | Enter -> "enter"
    | In_cs -> "in_cs"
    | Exit_ { k; xpc } -> Printf.sprintf "x%d:%s" k (exit_pc_repr xpc)
    | Rem -> "rem"
end

let make (module L : Layout) =
  let module Spawn = Proc.Make_spawn (Make_state (L)) in
  Common.make ~name:L.name ~description:L.description
    ~registers:(fun ~n ->
      let l = levels ~n in
      let internal = Lb_util.Xmath.pow 2 l - 1 in
      Array.append
        (Array.init (3 * internal) (fun i ->
             let v = (i / 3) + 1 in
             match i mod 3 with
             | 0 -> Register.spec ~domain:(0, n) (Printf.sprintf "C%d_0" v)
             | 1 -> Register.spec ~domain:(0, n) (Printf.sprintf "C%d_1" v)
             | _ -> Register.spec ~domain:(0, n) (Printf.sprintf "T%d" v)))
        (L.p_specs ~n ~l))
    ~spawn:Spawn.spawn ()

module State = Make_state (Per_level)

let algorithm = make (module Per_level)
let flat = make (module Flat)
