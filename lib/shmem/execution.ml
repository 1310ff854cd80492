module Vec = Lb_util.Vec

type t = Step.t Vec.t

let create () = Vec.create ()
let of_steps l = Vec.of_list l
let length = Vec.length
let append = Vec.push
let get = Vec.get
let steps = Vec.to_list
let copy = Vec.copy

let equal a b =
  Vec.length a = Vec.length b
  &&
  let rec go i = i >= Vec.length a || (Step.equal (Vec.get a i) (Vec.get b i) && go (i + 1)) in
  go 0

let projections t ~n =
  let acc = Array.make n [] in
  for j = Vec.length t - 1 downto 0 do
    let (s : Step.t) = Vec.get t j in
    if s.Step.who >= 0 && s.Step.who < n then acc.(s.Step.who) <- s :: acc.(s.Step.who)
  done;
  acc

let replay_prefix algo ~n t ~len =
  let sys = System.init algo ~n in
  for i = 0 to len - 1 do
    ignore (System.apply sys (Vec.get t i))
  done;
  sys

let replay algo ~n t = replay_prefix algo ~n t ~len:(Vec.length t)

let replay_onto sys t ~from =
  for i = from to Vec.length t - 1 do
    ignore (System.apply sys (Vec.get t i))
  done

let fold_outcomes algo ~n t ~init ~f =
  let sys = System.init algo ~n in
  let acc = ref init in
  Vec.iter
    (fun step ->
      let outcome = System.apply sys step in
      acc := f !acc sys step outcome)
    t;
  !acc

let crit_order t =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  Vec.iter
    (fun (s : Step.t) ->
      match s.Step.action with
      | Step.Crit Step.Enter ->
        if not (Hashtbl.mem seen s.Step.who) then begin
          Hashtbl.add seen s.Step.who ();
          order := s.Step.who :: !order
        end
      | Step.Read _ | Step.Write _ | Step.Rmw _
      | Step.Crit (Step.Try | Step.Exit | Step.Rem) -> ())
    t;
  List.rev !order

let count_crit t which =
  let n =
    Vec.fold_left (fun acc (s : Step.t) -> max acc (s.Step.who + 1)) 0 t
  in
  let counts = Array.make n 0 in
  Vec.iter
    (fun (s : Step.t) ->
      match s.Step.action with
      | Step.Crit c when Step.equal_crit c which ->
        counts.(s.Step.who) <- counts.(s.Step.who) + 1
      | Step.Read _ | Step.Write _ | Step.Rmw _ | Step.Crit _ -> ())
    t;
  counts

let fingerprint t =
  let buf = Buffer.create (Vec.length t * 16) in
  Vec.iter
    (fun s ->
      Step.add_to_buffer buf s;
      Buffer.add_char buf ';')
    t;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp ppf t =
  Format.fprintf ppf "@[<hov 1>[";
  Vec.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Step.pp ppf s)
    t;
  Format.fprintf ppf "]@]"

let pp_with_names specs ppf t =
  Format.fprintf ppf "@[<v>";
  Vec.iteri
    (fun i (s : Step.t) ->
      let describe ppf () =
        match s.Step.action with
        | Step.Read r -> Format.fprintf ppf "read %s" (Register.name specs r)
        | Step.Write (r, v) ->
          Format.fprintf ppf "write %s := %d" (Register.name specs r) v
        | Step.Rmw (r, _) -> Format.fprintf ppf "rmw %s" (Register.name specs r)
        | Step.Crit c -> Format.fprintf ppf "%s" (Step.crit_name c)
      in
      Format.fprintf ppf "%4d  p%-3d %a@," i s.Step.who describe ())
    t;
  Format.fprintf ppf "@]"
