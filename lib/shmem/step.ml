type reg = int
type value = int
type crit = Try | Enter | Exit | Rem

type rmw_op =
  | Test_and_set
  | Fetch_add of value
  | Swap of value
  | Cas of { expect : value; replace : value }

type action =
  | Read of reg
  | Write of reg * value
  | Rmw of reg * rmw_op
  | Crit of crit

type response = Got of value | Ack

type t = { who : int; action : action }

let step who action = { who; action }

let is_shared_access = function
  | Read _ | Write _ | Rmw _ -> true
  | Crit _ -> false

let is_register_action = function
  | Read _ | Write _ -> true
  | Rmw _ | Crit _ -> false

let reg_of = function
  | Read r | Write (r, _) | Rmw (r, _) -> Some r
  | Crit _ -> None

let crit_name = function
  | Try -> "try"
  | Enter -> "enter"
  | Exit -> "exit"
  | Rem -> "rem"

let equal_crit (a : crit) (b : crit) = a = b
let equal_action (a : action) (b : action) = a = b
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let add_int buf i = Buffer.add_string buf (string_of_int i)

let add_rmw_to_buffer buf = function
  | Test_and_set -> Buffer.add_string buf "tas"
  | Fetch_add v ->
    Buffer.add_string buf "fadd(";
    add_int buf v;
    Buffer.add_char buf ')'
  | Swap v ->
    Buffer.add_string buf "swap(";
    add_int buf v;
    Buffer.add_char buf ')'
  | Cas { expect; replace } ->
    Buffer.add_string buf "cas(";
    add_int buf expect;
    Buffer.add_char buf ',';
    add_int buf replace;
    Buffer.add_char buf ')'

let add_action_to_buffer buf = function
  | Read r ->
    Buffer.add_string buf "read(r";
    add_int buf r;
    Buffer.add_char buf ')'
  | Write (r, v) ->
    Buffer.add_string buf "write(r";
    add_int buf r;
    Buffer.add_char buf ',';
    add_int buf v;
    Buffer.add_char buf ')'
  | Rmw (r, op) ->
    Buffer.add_string buf "rmw(r";
    add_int buf r;
    Buffer.add_char buf ',';
    add_rmw_to_buffer buf op;
    Buffer.add_char buf ')'
  | Crit c -> Buffer.add_string buf (crit_name c)

let add_to_buffer buf t =
  Buffer.add_char buf 'p';
  add_int buf t.who;
  Buffer.add_char buf ':';
  add_action_to_buffer buf t.action

let render add x =
  let buf = Buffer.create 24 in
  add buf x;
  Buffer.contents buf

let to_string t = render add_to_buffer t
let pp_action ppf a = Format.pp_print_string ppf (render add_action_to_buffer a)
let pp ppf t = Format.pp_print_string ppf (to_string t)
