open Lb_shmem
module Iset = Set.Make (Int)

exception Decode_error of { detail : string; consumed : int }

type event =
  | Cell_consumed of { who : int; pc : int; cell : Encode.cell }
  | Executed_immediately of { who : int; step : Step.t }
  | Waiting of { who : int; reg : Step.reg }
  | Parked of { who : int; reg : Step.reg }
  | Admitted of { who : int; reg : Step.reg }
  | Signature_installed of { reg : Step.reg; winner : int; s : Signature.t }
  | Fired of { reg : Step.reg; winner : int; steps : int }

let pp_event ppf = function
  | Cell_consumed { who; pc; cell } ->
    Format.fprintf ppf "p%d reads cell %d: %s" who pc (Encode.cell_to_string cell)
  | Executed_immediately { who; step } ->
    Format.fprintf ppf "p%d executes %a immediately" who Step.pp step
  | Waiting { who; reg } -> Format.fprintf ppf "p%d waits on r%d" who reg
  | Parked { who; reg } -> Format.fprintf ppf "p%d parked on r%d" who reg
  | Admitted { who; reg } ->
    Format.fprintf ppf "p%d admitted as reader of r%d" who reg
  | Signature_installed { reg; winner; s } ->
    Format.fprintf ppf "signature %a installed on r%d (winner p%d)"
      Signature.pp s reg winner
  | Fired { reg; winner; steps } ->
    Format.fprintf ppf "metastep on r%d fired (winner p%d, %d steps)" reg
      winner steps

type sig_info = {
  winner : int;
  s : Signature.t;
}

type reg_state = {
  reg : Step.reg;
  hash : int;  (** [Hashtbl.hash reg], the bucket half of the visit key *)
  seq : int;  (** registration index, the within-bucket half *)
  mutable sig_ : sig_info option;
  mutable w_set : Iset.t;  (** waiting writers (including the winner) *)
  mutable w_count : int;
  mutable r_set : Iset.t;  (** admitted readers *)
  mutable r_count : int;
  mutable parked : Iset.t;  (** readers awaiting a signature / admission *)
  mutable pr_count : int;  (** executed prereads since the last firing *)
  mutable stamp : int;  (** last round that listed this register a candidate *)
}

(* The visit order fixes the decoded execution, so it must stay the one
   every recorded fingerprint was made with: the order [Hashtbl.iter]
   takes over an unseeded [Hashtbl.create 64] that registers were
   [Hashtbl.replace]d into. There a key lives in bucket
   [Hashtbl.hash r land (B - 1)]; a new key is consed onto the front of
   its bucket, and a resize keeps each bucket's order. B starts at 64
   and doubles once an insertion takes the table past 2B keys. *)
let buckets registered =
  let rec go b = if registered > 2 * b then go (2 * b) else b in
  go 64

let visit_compare ~buckets a b =
  let mask = buckets - 1 in
  let c = compare (a.hash land mask) (b.hash land mask) in
  if c <> 0 then c else compare b.seq a.seq

let fresh_reg_state r seq =
  {
    reg = r; hash = Hashtbl.hash r; seq; sig_ = None; w_set = Iset.empty;
    w_count = 0; r_set = Iset.empty; r_count = 0; parked = Iset.empty;
    pr_count = 0; stamp = -1;
  }

let visit_order regs =
  let states = List.mapi (fun seq r -> fresh_reg_state r seq) regs in
  List.map
    (fun rs -> rs.reg)
    (List.stable_sort (visit_compare ~buckets:(buckets (List.length regs))) states)

type st = {
  cells : Encode.cell array array;
  sys : System.t;
  exec : Execution.t;
  pc : int array;  (** next cell index per process *)
  waiting : bool array;
  done_ : bool array;
  mutable remaining : int;  (** processes not yet done *)
  regs : reg_state option array;  (** indexed by register id *)
  mutable registered : int;
  mutable round : int;
  mutable candidates : reg_state list;
      (** registers whose counts or signature changed this round *)
  trace : (event -> unit) option;
  mutable consumed : int;
}

let reg_state st r =
  match st.regs.(r) with
  | Some x -> x
  | None ->
    let x = fresh_reg_state r st.registered in
    st.registered <- st.registered + 1;
    st.regs.(r) <- Some x;
    x

let touch st rs =
  if rs.stamp <> st.round then begin
    rs.stamp <- st.round;
    st.candidates <- rs :: st.candidates
  end

let add_writer st rs i =
  let w = Iset.add i rs.w_set in
  if w != rs.w_set then begin
    rs.w_set <- w;
    rs.w_count <- rs.w_count + 1
  end;
  touch st rs

let add_reader st rs i =
  let r = Iset.add i rs.r_set in
  if r != rs.r_set then begin
    rs.r_set <- r;
    rs.r_count <- rs.r_count + 1
  end;
  touch st rs;
  match st.trace with
  | Some f -> f (Admitted { who = i; reg = rs.reg })
  | None -> ()

let fail st detail = raise (Decode_error { detail; consumed = st.consumed })

let exec_step ?(notify = false) st i =
  let step = Step.step i (System.pending_of st.sys i) in
  ignore (System.apply st.sys step);
  Execution.append st.exec step;
  match st.trace with
  | Some f when notify -> f (Executed_immediately { who = i; step })
  | Some _ | None -> ()

let wait st i rs =
  st.waiting.(i) <- true;
  match st.trace with
  | Some f -> f (Waiting { who = i; reg = rs.reg })
  | None -> ()

let pending_read_reg st i =
  match System.pending_of st.sys i with
  | Step.Read r -> r
  | a ->
    fail st
      (Format.asprintf "p%d: cell expects a read but pending is %a" i
         Step.pp_action a)

let pending_write st i =
  match System.pending_of st.sys i with
  | Step.Write (r, v) -> (r, v)
  | a ->
    fail st
      (Format.asprintf "p%d: cell expects a write but pending is %a" i
         Step.pp_action a)

(* Would process [i] (pending a read on the signature's register) change
   state upon reading the value the winner is about to write? This is
   Fig. 3 line 21, with the winner's pending step as [e_{sig.v}]. *)
let admits st info i =
  let _, v = pending_write st info.winner in
  System.peek_after_read st.sys i v

(* A signature was just installed on [rs]: re-examine parked readers. *)
let review_parked st rs info =
  Iset.iter
    (fun i ->
      if admits st info i then begin
        rs.parked <- Iset.remove i rs.parked;
        add_reader st rs i
      end)
    rs.parked

let consume_cell st i =
  let column = st.cells.(i) in
  if st.pc.(i) >= Array.length column then begin
    st.done_.(i) <- true;
    st.remaining <- st.remaining - 1
  end
  else begin
    let cell = column.(st.pc.(i)) in
    st.pc.(i) <- st.pc.(i) + 1;
    st.consumed <- st.consumed + 1;
    (match st.trace with
    | Some f -> f (Cell_consumed { who = i; pc = st.pc.(i); cell })
    | None -> ());
    match cell with
    | Encode.Cell_c -> (
      match System.pending_of st.sys i with
      | Step.Crit _ -> exec_step ~notify:true st i
      | a ->
        fail st
          (Format.asprintf "p%d: C cell but pending is %a" i Step.pp_action a))
    | Encode.Cell_sr ->
      let _r = pending_read_reg st i in
      exec_step ~notify:true st i
    | Encode.Cell_pr ->
      let rs = reg_state st (pending_read_reg st i) in
      rs.pr_count <- rs.pr_count + 1;
      touch st rs;
      exec_step ~notify:true st i
    | Encode.Cell_w ->
      let r, _ = pending_write st i in
      let rs = reg_state st r in
      add_writer st rs i;
      wait st i rs
    | Encode.Cell_wsig s ->
      let r, _ = pending_write st i in
      let rs = reg_state st r in
      let info = { winner = i; s } in
      (match rs.sig_ with
      | Some _ -> fail st (Printf.sprintf "duplicate signature on r%d" r)
      | None -> rs.sig_ <- Some info);
      add_writer st rs i;
      st.waiting.(i) <- true;
      (match st.trace with
      | Some f -> f (Signature_installed { reg = r; winner = i; s })
      | None -> ());
      review_parked st rs info
    | Encode.Cell_r -> (
      let rs = reg_state st (pending_read_reg st i) in
      st.waiting.(i) <- true;
      match rs.sig_ with
      | Some info when admits st info i -> add_reader st rs i
      | Some _ | None -> (
        rs.parked <- Iset.add i rs.parked;
        match st.trace with
        | Some f -> f (Parked { who = i; reg = rs.reg })
        | None -> ()))
  end

(* Is the front write metastep of [rs] complete: every signature count
   matched? *)
let complete rs =
  match rs.sig_ with
  | None -> false
  | Some { s; _ } ->
    rs.r_count = s.Signature.reads
    && rs.w_count = s.Signature.writes
    && rs.pr_count = s.Signature.prereads

(* Fire the front write metastep of [rs]: writes (winner last), then
   admitted reads (Fig. 3 lines 38-45). *)
let fire st rs =
  match rs.sig_ with
  | None -> ()
  | Some { winner; _ } ->
    Iset.iter (fun i -> if i <> winner then exec_step st i) rs.w_set;
    exec_step st winner;
    Iset.iter (fun i -> exec_step st i) rs.r_set;
    (match st.trace with
    | Some f -> f (Fired { reg = rs.reg; winner; steps = rs.w_count + rs.r_count })
    | None -> ());
    Iset.iter (fun i -> st.waiting.(i) <- false) rs.w_set;
    Iset.iter (fun i -> st.waiting.(i) <- false) rs.r_set;
    rs.sig_ <- None;
    rs.w_set <- Iset.empty;
    rs.w_count <- 0;
    rs.r_set <- Iset.empty;
    rs.r_count <- 0;
    rs.pr_count <- 0

(* Only a register whose counts or signature changed this round can have
   become complete: every complete register fired in its own round, and
   firing changes no register's counts. Fire the complete candidates in
   visit order; returns whether any fired. *)
let fire_ready st =
  let ready = List.filter complete st.candidates in
  st.candidates <- [];
  List.iter (fire st)
    (List.sort (visit_compare ~buckets:(buckets st.registered)) ready);
  ready <> []

let run ?trace ?scan_order algo ~n cells =
  if Array.length cells <> n then invalid_arg "Decode.run: bad cell table";
  let scan =
    match scan_order with
    | None -> Array.init n (fun i -> i)
    | Some order ->
      if Array.length order <> n then invalid_arg "Decode.run: bad scan order";
      Array.copy order
  in
  let sys = System.init algo ~n in
  let st =
    {
      cells;
      sys;
      exec = Execution.create ();
      pc = Array.make n 0;
      waiting = Array.make n false;
      done_ = Array.make n false;
      remaining = n;
      regs = Array.make (System.num_regs sys) None;
      registered = 0;
      round = 0;
      candidates = [];
      trace;
      consumed = 0;
    }
  in
  while st.remaining > 0 do
    st.round <- st.round + 1;
    let progress = ref false in
    (* consume the next cell of every non-waiting process *)
    Array.iter
      (fun i ->
        if (not st.done_.(i)) && not st.waiting.(i) then begin
          consume_cell st i;
          progress := true
        end)
      scan;
    (* fire every register whose front metastep is complete *)
    if fire_ready st then progress := true;
    if not !progress then
      fail st
        (Printf.sprintf "no progress (waiting=%s)"
           (String.concat ","
              (List.filteri (fun i _ -> st.waiting.(i)) (List.init n string_of_int))))
  done;
  (* sanity: nothing left over; report the first offender in visit order *)
  let offenders =
    Array.fold_left
      (fun acc -> function
        | Some rs
          when rs.sig_ <> None
               || not (Iset.is_empty rs.w_set && Iset.is_empty rs.parked) ->
          rs :: acc
        | Some _ | None -> acc)
      [] st.regs
  in
  (match List.sort (visit_compare ~buckets:(buckets st.registered)) offenders with
  | [] -> ()
  | rs :: _ ->
    if rs.sig_ <> None || not (Iset.is_empty rs.w_set) then
      fail st (Printf.sprintf "leftover metastep state on r%d" rs.reg)
    else fail st (Printf.sprintf "parked readers left on r%d" rs.reg));
  st.exec

let run_bits algo ~n bits =
  let unparsable detail = raise (Decode_error { detail; consumed = 0 }) in
  match Encode.parse ~n bits with
  | cells -> run algo ~n cells
  | exception Invalid_argument detail -> unparsable detail
  | exception Lb_bitio.Bit_reader.Exhausted ->
    unparsable "Encode.parse: bits end inside a cell"
