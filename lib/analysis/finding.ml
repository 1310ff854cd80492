open Lb_shmem

type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type witness_step = { repr : string; action : string; response : string }
type witness = { proc : int; steps : witness_step list; target : string }

type t = {
  rule : string;
  severity : severity;
  algo : string;
  n : int;
  proc : int option;
  message : string;
  witness : witness option;
}

let make ~rule ~severity ~algo ~n ?proc ?witness message =
  { rule; severity; algo; n; proc; message; witness }

let rmw_op_to_string (op : Step.rmw_op) =
  match op with
  | Step.Test_and_set -> "test_and_set"
  | Step.Fetch_add v -> Printf.sprintf "fetch_add(%d)" v
  | Step.Swap v -> Printf.sprintf "swap(%d)" v
  | Step.Cas { expect; replace } -> Printf.sprintf "cas(%d->%d)" expect replace

let action_to_string specs (action : Step.action) =
  match action with
  | Step.Read r -> Printf.sprintf "R %s" (Register.name specs r)
  | Step.Write (r, v) -> Printf.sprintf "W %s:=%d" (Register.name specs r) v
  | Step.Rmw (r, op) ->
    Printf.sprintf "RMW %s %s" (Register.name specs r) (rmw_op_to_string op)
  | Step.Crit c -> Printf.sprintf "crit %s" (Step.crit_name c)

let response_to_string = function
  | Step.Ack -> "ack"
  | Step.Got v -> Printf.sprintf "=%d" v

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.rule b.rule in
    if c <> 0 then c
    else
      let c = String.compare a.algo b.algo in
      if c <> 0 then c
      else
        let c = Int.compare a.n b.n in
        if c <> 0 then c
        else Stdlib.compare (a.proc, a.message) (b.proc, b.message)

let pp ppf t =
  Format.fprintf ppf "%s n=%d%s: %s %s: %s" t.algo t.n
    (match t.proc with None -> "" | Some p -> Printf.sprintf " p%d" p)
    (String.uppercase_ascii (severity_name t.severity))
    t.rule t.message

let pp_witness ppf (w : witness) =
  Format.fprintf ppf "@[<v 2>witness p%d:" w.proc;
  List.iter
    (fun s ->
      Format.fprintf ppf "@,%s -(%s/%s)->" s.repr s.action s.response)
    w.steps;
  Format.fprintf ppf "@,%s@]" w.target

(* ------------------------------ JSON ------------------------------ *)

module Json = Lb_util.Json

let witness_to_json (w : witness) =
  Json.Obj
    [
      ("proc", Json.Int w.proc);
      ( "steps",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("repr", Json.String s.repr);
                   ("action", Json.String s.action);
                   ("response", Json.String s.response);
                 ])
             w.steps) );
      ("target", Json.String w.target);
    ]

let to_json ~allowlisted t =
  Json.Obj
    ([
       ("rule", Json.String t.rule);
       ("severity", Json.String (severity_name t.severity));
       ("algo", Json.String t.algo);
       ("n", Json.Int t.n);
     ]
    @ (match t.proc with None -> [] | Some p -> [ ("proc", Json.Int p) ])
    @ [ ("message", Json.String t.message); ("allowlisted", Json.Bool allowlisted) ]
    @ match t.witness with None -> [] | Some w -> [ ("witness", witness_to_json w) ])
