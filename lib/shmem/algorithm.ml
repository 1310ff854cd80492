type kind = Registers_only | Uses_rmw

type t = {
  name : string;
  description : string;
  kind : kind;
  registers : n:int -> Register.spec array;
  spawn : n:int -> me:int -> Proc.t;
  max_n : int option;
}

let supports a n =
  n >= 1 && match a.max_n with None -> true | Some k -> n <= k

let registers_only a = a.kind = Registers_only
let kind_name = function Registers_only -> "registers" | Uses_rmw -> "rmw"

let pp ppf a =
  Format.fprintf ppf "%s (%s)%s" a.name a.description
    (match a.kind with Registers_only -> "" | Uses_rmw -> " [rmw]")
