type t = {
  id : int;
  pending : Step.action;
  advance : Step.response -> t;
  changed : bool;
  repr : unit -> string;
}

let pp ppf p =
  Format.fprintf ppf "p%d[%a|%s]" p.id Step.pp_action p.pending (p.repr ())

module type STATE = sig
  type state

  val initial : n:int -> me:int -> state
  val pending : n:int -> me:int -> state -> Step.action
  val advance : n:int -> me:int -> state -> Step.response -> state
  val repr : state -> string
end

module Make_spawn (S : STATE) = struct
  let rec wrap ~n ~me ~changed st =
    {
      id = me;
      pending = S.pending ~n ~me st;
      advance =
        (fun resp ->
          let st' = S.advance ~n ~me st resp in
          (* a spin returns its state itself: skip the structural walk *)
          wrap ~n ~me ~changed:(st' != st && st' <> st) st');
      changed;
      repr = (fun () -> S.repr st);
    }

  let spawn ~n ~me =
    if me < 0 || me >= n then invalid_arg "spawn: process index out of range";
    wrap ~n ~me ~changed:false (S.initial ~n ~me)
end
