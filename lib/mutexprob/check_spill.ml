module Fsio = Lb_util.Fsio
module Vec = Lb_util.Vec
module Step = Lb_shmem.Step
module Bit_writer = Lb_bitio.Bit_writer
module Bit_reader = Lb_bitio.Bit_reader

let manifest_file = "check.manifest"
let names_file = "interner.names"
let nodes_file = "nodes.log"
let run_file layer = Printf.sprintf "layer_%06d.keys" layer
let frontier_file layer = Printf.sprintf "layer_%06d.frontier" layer

type meta = {
  c_algo : string;
  c_n : int;
  c_nregs : int;
  c_rounds : int;
  c_max_states : int;
  c_nshards : int;
  c_keylen : int;
  c_lossy : string;
  c_layer : int;
  c_states : int;
  c_transitions : int;
  c_words : int;
  c_interned : int;
  c_interner_bytes : int;
  c_runs : (int * int) list;
  c_frontier : int;
  c_status : status;
}

and status = Running | Final of final

and final = {
  f_verdict : string;
  f_count : int;
  f_node : int;
  f_who : int;
  f_detail : string;
  f_step : int list;
}

(* ------------------------------------------------------------------ *)
(* Manifest codec. Same self-verifying text shape as store entries: a
   line-oriented payload closed by a "sum <md5>" line, so a torn write
   is detected rather than trusted. *)

let manifest_to_string m =
  let b = Buffer.create 512 in
  let add k v =
    Buffer.add_string b k;
    Buffer.add_char b ' ';
    Buffer.add_string b v;
    Buffer.add_char b '\n'
  in
  add "mutexlb-check-manifest" "1";
  add "algo" (String.escaped m.c_algo);
  add "n" (string_of_int m.c_n);
  add "nregs" (string_of_int m.c_nregs);
  add "rounds" (string_of_int m.c_rounds);
  add "maxstates" (string_of_int m.c_max_states);
  add "shards" (string_of_int m.c_nshards);
  add "keylen" (string_of_int m.c_keylen);
  add "lossy" m.c_lossy;
  add "layer" (string_of_int m.c_layer);
  add "states" (string_of_int m.c_states);
  add "transitions" (string_of_int m.c_transitions);
  add "words" (string_of_int m.c_words);
  add "interned" (string_of_int m.c_interned);
  add "internerbytes" (string_of_int m.c_interner_bytes);
  add "runs"
    (if m.c_runs = [] then "-"
     else
       String.concat ","
         (List.map (fun (l, c) -> Printf.sprintf "%d:%d" l c) m.c_runs));
  add "frontier" (string_of_int m.c_frontier);
  (match m.c_status with
  | Running -> add "status" "running"
  | Final f ->
    add "status" "final";
    add "verdict" f.f_verdict;
    add "count" (string_of_int f.f_count);
    add "node" (string_of_int f.f_node);
    add "who" (string_of_int f.f_who);
    add "detail" (String.escaped f.f_detail);
    add "step"
      (if f.f_step = [] then "-"
       else String.concat " " (List.map string_of_int f.f_step)));
  let payload = Buffer.contents b in
  payload ^ Printf.sprintf "sum %s\n" (Digest.to_hex (Digest.string payload))

let verified s =
  let n = String.length s in
  if n = 0 || s.[n - 1] <> '\n' then Error "truncated manifest"
  else
    let body = String.sub s 0 (n - 1) in
    match String.rindex_opt body '\n' with
    | None -> Error "truncated manifest"
    | Some i -> (
      let last = String.sub body (i + 1) (n - 2 - i) in
      let payload = String.sub s 0 (i + 1) in
      match String.split_on_char ' ' last with
      | [ "sum"; hex ] ->
        if Digest.to_hex (Digest.string payload) = hex then Ok payload
        else Error "checksum mismatch (corrupt manifest)"
      | _ -> Error "truncated manifest (missing sum line)")

let manifest_of_string s =
  let ( let* ) = Result.bind in
  let* payload = verified s in
  let lines = ref (String.split_on_char '\n' payload) in
  let next key =
    match !lines with
    | [] | [ "" ] -> Error (Printf.sprintf "missing field %S" key)
    | line :: rest -> (
      lines := rest;
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = key ->
        Ok (String.sub line (i + 1) (String.length line - i - 1))
      | _ -> Error (Printf.sprintf "expected field %S, got %S" key line))
  in
  let int key =
    let* v = next key in
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %S is not an integer: %S" key v)
  in
  let unescape key v =
    match Scanf.unescaped v with
    | s -> Ok s
    | exception _ -> Error (Printf.sprintf "field %S has a bad escape" key)
  in
  let* version = next "mutexlb-check-manifest" in
  let* () =
    if version = "1" then Ok ()
    else Error (Printf.sprintf "unsupported manifest version %S" version)
  in
  let* algo_esc = next "algo" in
  let* c_algo = unescape "algo" algo_esc in
  let* c_n = int "n" in
  let* c_nregs = int "nregs" in
  let* c_rounds = int "rounds" in
  let* c_max_states = int "maxstates" in
  let* c_nshards = int "shards" in
  let* c_keylen = int "keylen" in
  let* c_lossy = next "lossy" in
  let* c_layer = int "layer" in
  let* c_states = int "states" in
  let* c_transitions = int "transitions" in
  let* c_words = int "words" in
  let* c_interned = int "interned" in
  let* c_interner_bytes = int "internerbytes" in
  let* runs_s = next "runs" in
  let* c_runs =
    if runs_s = "-" then Ok []
    else
      let parts = String.split_on_char ',' runs_s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
          match String.split_on_char ':' p with
          | [ l; c ] -> (
            match (int_of_string_opt l, int_of_string_opt c) with
            | Some l, Some c -> go ((l, c) :: acc) rest
            | _ -> Error (Printf.sprintf "bad runs entry %S" p))
          | _ -> Error (Printf.sprintf "bad runs entry %S" p))
      in
      go [] parts
  in
  let* c_frontier = int "frontier" in
  let* status = next "status" in
  let* c_status =
    match status with
    | "running" -> Ok Running
    | "final" ->
      let* f_verdict = next "verdict" in
      let* f_count = int "count" in
      let* f_node = int "node" in
      let* f_who = int "who" in
      let* detail_esc = next "detail" in
      let* f_detail = unescape "detail" detail_esc in
      let* step_s = next "step" in
      let* f_step =
        if step_s = "-" then Ok []
        else
          let parts = String.split_on_char ' ' step_s in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | p :: rest -> (
              match int_of_string_opt p with
              | Some i -> go (i :: acc) rest
              | None -> Error (Printf.sprintf "bad step entry %S" p))
          in
          go [] parts
      in
      Ok (Final { f_verdict; f_count; f_node; f_who; f_detail; f_step })
    | other -> Error (Printf.sprintf "unknown status %S" other)
  in
  Ok
    {
      c_algo;
      c_n;
      c_nregs;
      c_rounds;
      c_max_states;
      c_nshards;
      c_keylen;
      c_lossy;
      c_layer;
      c_states;
      c_transitions;
      c_words;
      c_interned;
      c_interner_bytes;
      c_runs;
      c_frontier;
      c_status;
    }

let load_manifest ~dir =
  let path = Filename.concat dir manifest_file in
  if not (Sys.file_exists path) then `Absent
  else
    match manifest_of_string (Fsio.read ~path ()) with
    | Ok m -> `Manifest m
    | Error e -> `Damaged e
    | exception Sys_error e -> `Damaged e

let save_manifest ~dir m =
  Fsio.write_atomic
    ~path:(Filename.concat dir manifest_file)
    (manifest_to_string m)

(* ------------------------------------------------------------------ *)
(* Step codec. Steps are pure data (§3.1's actions), so five small
   integers round-trip one exactly. *)

let encode_step (s : Step.t) =
  let tag, reg, a, b =
    match s.Step.action with
    | Step.Read r -> (0, r, 0, 0)
    | Step.Write (r, v) -> (1, r, v, 0)
    | Step.Rmw (r, Step.Test_and_set) -> (2, r, 0, 0)
    | Step.Rmw (r, Step.Fetch_add v) -> (3, r, v, 0)
    | Step.Rmw (r, Step.Swap v) -> (4, r, v, 0)
    | Step.Rmw (r, Step.Cas { expect; replace }) -> (5, r, expect, replace)
    | Step.Crit Step.Try -> (6, 0, 0, 0)
    | Step.Crit Step.Enter -> (7, 0, 0, 0)
    | Step.Crit Step.Exit -> (8, 0, 0, 0)
    | Step.Crit Step.Rem -> (9, 0, 0, 0)
  in
  (s.Step.who, tag, reg, a, b)

let decode_step who tag reg a b =
  let action =
    match tag with
    | 0 -> Step.Read reg
    | 1 -> Step.Write (reg, a)
    | 2 -> Step.Rmw (reg, Step.Test_and_set)
    | 3 -> Step.Rmw (reg, Step.Fetch_add a)
    | 4 -> Step.Rmw (reg, Step.Swap a)
    | 5 -> Step.Rmw (reg, Step.Cas { expect = a; replace = b })
    | 6 -> Step.Crit Step.Try
    | 7 -> Step.Crit Step.Enter
    | 8 -> Step.Crit Step.Exit
    | 9 -> Step.Crit Step.Rem
    | t -> invalid_arg (Printf.sprintf "Check_spill.decode_step: bad tag %d" t)
  in
  Step.step who action

(* ------------------------------------------------------------------ *)
(* Key runs: keys delta-coded against the previous key, in the caller's
   order (the model checker groups a layer's keys by shard, sorted
   within each shard, so runs are byte-identical across job counts).
   The per-key record codec lives in Lb_bitio.Key_run. Values must fit
   zigzag+gamma, i.e. stay below 2^60 in magnitude — packed slots and
   register values are tiny. *)

let write_run ~dir ~layer keys =
  let w = Bit_writer.create () in
  Bit_writer.gamma0 w (List.length keys);
  let prev = ref [||] in
  List.iter
    (fun k ->
      Lb_bitio.Key_run.write_key w ~prev:!prev k;
      prev := k)
    keys;
  Fsio.write_atomic
    ~path:(Filename.concat dir (run_file layer))
    (Bytes.to_string (Bit_writer.to_bytes w))

let iter_run_keys ~dir ~layer ~keylen ~count:expect f =
  let path = Filename.concat dir (run_file layer) in
  let s = Fsio.read ~path () in
  try
    let r = Bit_reader.of_string s in
    let count = Bit_reader.gamma0 r in
    if count <> expect then
      failwith
        (Printf.sprintf "malformed key run %s: %d keys, manifest says %d" path
           count expect);
    let prev = Array.make keylen 0 in
    for _ = 1 to count do
      (match Lb_bitio.Key_run.read_key r prev with
      | () -> ()
      | exception Failure _ ->
        failwith (Printf.sprintf "malformed key run %s: bad prefix" path));
      f prev
    done
  with Bit_reader.Exhausted ->
    failwith (Printf.sprintf "malformed key run %s: truncated" path)

let write_frontier ~dir ~layer idxs =
  let w = Bit_writer.create () in
  Bit_writer.gamma0 w (List.length idxs);
  let prev = ref (-1) in
  List.iter
    (fun i ->
      if i <= !prev then
        invalid_arg "Check_spill.write_frontier: indices not ascending";
      Bit_writer.gamma0 w (i - !prev - 1);
      prev := i)
    idxs;
  Fsio.write_atomic
    ~path:(Filename.concat dir (frontier_file layer))
    (Bytes.to_string (Bit_writer.to_bytes w))

let read_frontier ~dir ~layer =
  let path = Filename.concat dir (frontier_file layer) in
  let s = Fsio.read ~path () in
  try
    let r = Bit_reader.of_string s in
    let count = Bit_reader.gamma0 r in
    let prev = ref (-1) in
    let acc = ref [] in
    for _ = 1 to count do
      let i = !prev + 1 + Bit_reader.gamma0 r in
      acc := i :: !acc;
      prev := i
    done;
    List.rev !acc
  with Bit_reader.Exhausted ->
    failwith (Printf.sprintf "malformed frontier %s: truncated" path)

(* ------------------------------------------------------------------ *)
(* Session handle over the two append-positioned files *)

type t = {
  t_dir : string;
  names_fd : Unix.file_descr;
  mutable t_names_bytes : int;
  nodes_fd : Unix.file_descr;
  mutable flushed : int;  (* node records durable on disk *)
  tail : (int * Step.t) Vec.t;  (* appended since the last flush *)
}

let record_bytes = 48

let write_fully fd buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd buf !off (len - !off)
  done

let read_fully fd buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    let k = Unix.read fd buf !off (len - !off) in
    if k = 0 then failwith "Check_spill: unexpected end of file";
    off := !off + k
  done

let open_ ~dir ~names_bytes ~node_count =
  Fsio.mkdir_p dir;
  let openf name =
    Unix.openfile (Filename.concat dir name)
      [ Unix.O_RDWR; Unix.O_CREAT ]
      0o644
  in
  let names_fd = openf names_file in
  let nodes_fd =
    try openf nodes_file
    with e ->
      Unix.close names_fd;
      raise e
  in
  let check fd name want =
    let have = (Unix.fstat fd).Unix.st_size in
    if have < want then begin
      Unix.close names_fd;
      Unix.close nodes_fd;
      failwith
        (Printf.sprintf "Check_spill.open_: %s is %d bytes, manifest needs %d"
           name have want)
    end
  in
  check names_fd names_file names_bytes;
  check nodes_fd nodes_file (node_count * record_bytes);
  Unix.ftruncate names_fd names_bytes;
  Unix.ftruncate nodes_fd (node_count * record_bytes);
  {
    t_dir = dir;
    names_fd;
    t_names_bytes = names_bytes;
    nodes_fd;
    flushed = node_count;
    tail = Vec.create ();
  }

let close t =
  Unix.close t.names_fd;
  Unix.close t.nodes_fd

let dir t = t.t_dir
let names_bytes t = t.t_names_bytes

let append_names t names =
  if names <> [] then begin
    let buf = Buffer.create 256 in
    List.iter
      (fun s ->
        Buffer.add_string buf (String.escaped s);
        Buffer.add_char buf '\n')
      names;
    let b = Buffer.to_bytes buf in
    ignore (Unix.lseek t.names_fd t.t_names_bytes Unix.SEEK_SET);
    write_fully t.names_fd b;
    t.t_names_bytes <- t.t_names_bytes + Bytes.length b
  end

let load_names t =
  ignore (Unix.lseek t.names_fd 0 Unix.SEEK_SET);
  let b = Bytes.create t.t_names_bytes in
  read_fully t.names_fd b;
  let s = Bytes.to_string b in
  let lines = String.split_on_char '\n' s in
  let rec strip_last = function
    | [] | [ "" ] -> []
    | x :: rest -> x :: strip_last rest
  in
  List.map
    (fun line ->
      match Scanf.unescaped line with
      | s -> s
      | exception _ ->
        failwith (Printf.sprintf "interner.names: bad escape in %S" line))
    (strip_last lines)

module Nodes = struct
  type log = t

  let record_bytes = record_bytes
  let of_handle t = t
  let length l = l.flushed + Vec.length l.tail
  let tail_length l = Vec.length l.tail
  let append l ~parent step = Vec.push l.tail (parent, step)

  let flush l =
    let n = Vec.length l.tail in
    if n > 0 then begin
      let buf = Bytes.create (n * record_bytes) in
      let set off v = Bytes.set_int64_le buf off (Int64.of_int v) in
      for i = 0 to n - 1 do
        let parent, step = Vec.get l.tail i in
        let who, tag, reg, a, b = encode_step step in
        let off = i * record_bytes in
        set off parent;
        set (off + 8) who;
        set (off + 16) tag;
        set (off + 24) reg;
        set (off + 32) a;
        set (off + 40) b
      done;
      ignore (Unix.lseek l.nodes_fd (l.flushed * record_bytes) Unix.SEEK_SET);
      write_fully l.nodes_fd buf;
      l.flushed <- l.flushed + n;
      Vec.clear l.tail
    end

  let get l i =
    if i < 0 || i >= length l then
      invalid_arg (Printf.sprintf "Check_spill.Nodes.get: %d" i);
    if i >= l.flushed then Vec.get l.tail (i - l.flushed)
    else begin
      let buf = Bytes.create record_bytes in
      ignore (Unix.lseek l.nodes_fd (i * record_bytes) Unix.SEEK_SET);
      read_fully l.nodes_fd buf;
      let g off = Int64.to_int (Bytes.get_int64_le buf off) in
      (g 0, decode_step (g 8) (g 16) (g 24) (g 32) (g 40))
    end
end
