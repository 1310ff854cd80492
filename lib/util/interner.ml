(* A mutex-guarded hashcons table. The model checker's workers intern
   one short repr string per generated successor, so the critical
   section is a single probe of a string hash table — contention is
   negligible next to copying and stepping the system state. *)

type t = {
  lock : Mutex.t;
  ids : (string, int) Hashtbl.t;
  names : string Vec.t;
}

let create ?(size_hint = 64) () =
  { lock = Mutex.create (); ids = Hashtbl.create size_hint; names = Vec.create () }

let intern t s =
  Mutex.lock t.lock;
  let id =
    match Hashtbl.find_opt t.ids s with
    | Some id -> id
    | None ->
      let id = Vec.length t.names in
      Hashtbl.add t.ids s id;
      Vec.push t.names s;
      id
  in
  Mutex.unlock t.lock;
  id

let lookup t s =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.ids s in
  Mutex.unlock t.lock;
  r

let name t id =
  Mutex.lock t.lock;
  let n = Vec.length t.names in
  if id < 0 || id >= n then begin
    Mutex.unlock t.lock;
    invalid_arg (Printf.sprintf "Interner.name: unknown id %d (size %d)" id n)
  end;
  let s = Vec.get t.names id in
  Mutex.unlock t.lock;
  s

let size t =
  Mutex.lock t.lock;
  let n = Vec.length t.names in
  Mutex.unlock t.lock;
  n

type snapshot = (string, int) Hashtbl.t

let snapshot t =
  Mutex.lock t.lock;
  let s = Hashtbl.copy t.ids in
  Mutex.unlock t.lock;
  s

let find snap s = Hashtbl.find_opt snap s

let names_from t from =
  Mutex.lock t.lock;
  let n = Vec.length t.names in
  if from < 0 || from > n then begin
    Mutex.unlock t.lock;
    invalid_arg
      (Printf.sprintf "Interner.names_from: bad start %d (size %d)" from n)
  end;
  let acc = ref [] in
  for id = n - 1 downto from do
    acc := Vec.get t.names id :: !acc
  done;
  Mutex.unlock t.lock;
  !acc
