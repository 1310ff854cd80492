(* In-memory spans, recorded by the benchmark around its calls into
   each layer and written out when the run ends. *)

type span = {
  id : int;
  name : string;
  unit_id : string;  (** spans of one work unit share this *)
  parent : int;  (** [-1] for a root span *)
  start : float;
  stop : float;
}

type t = {
  enabled : bool;
  mu : Mutex.t;
  mutable next : int;
  mutable spans : span list;
}

let create ~enabled = { enabled; mu = Mutex.create (); next = 0; spans = [] }

(* A recorder that keeps nothing, for the untraced reps of a traced run. *)
let off = create ~enabled:false

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let fresh_id t =
  locked t (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

let add t ?(parent = -1) ~unit_id ~start ~stop name =
  if not t.enabled then -1
  else begin
    let id = fresh_id t in
    locked t (fun () ->
        t.spans <- { id; name; unit_id; parent; start; stop } :: t.spans);
    id
  end

(* [with_ t name f] times [f id], where [id] names this span as the
   parent of spans opened inside [f]. Disabled, it is a plain call. *)
let with_ t ?(parent = -1) ~unit_id name f =
  if not t.enabled then f (-1)
  else begin
    let id = fresh_id t in
    let start = Unix.gettimeofday () in
    let r = f id in
    let stop = Unix.gettimeofday () in
    locked t (fun () ->
        t.spans <- { id; name; unit_id; parent; start; stop } :: t.spans);
    r
  end

(* Consecutive stages of one unit: [stage s name f] times [f ()] as a
   child of [parent] whose span starts where the previous stage stopped,
   so the bookkeeping between stages is charged to the next stage
   instead of being left uncovered. *)
type stages = { s_rec : t; s_parent : int; s_unit : string; mutable s_last : float }

let stages t ~parent ~unit_id =
  { s_rec = t; s_parent = parent; s_unit = unit_id; s_last = Unix.gettimeofday () }

let stage s name f =
  let r = f () in
  let stop = Unix.gettimeofday () in
  ignore (add s.s_rec ~parent:s.s_parent ~unit_id:s.s_unit ~start:s.s_last ~stop name);
  s.s_last <- stop;
  r

let spans t = locked t (fun () -> List.rev t.spans)

(* Ids grow monotonically: [since t (mark t)] later returns the spans
   opened after the mark. *)
let mark t = locked t (fun () -> t.next)

let since t m = List.filter (fun s -> s.id >= m) (spans t)

let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let children_table spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.parent)))
    spans;
  fun s -> Option.value ~default:[] (Hashtbl.find_opt tbl s.id)

let child_coverage children s =
  covered ~lo:s.start ~hi:s.stop
    (List.map (fun c -> (c.start, c.stop)) (children s))

(* Self time: the span's duration minus the part of it its direct
   children cover (grandchildren lie inside their own parent). *)
let self_times spans =
  let children = children_table spans in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration s -. child_coverage children s in
      Hashtbl.replace acc s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt acc s.name)))
    spans;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

(* The smallest share of a [name] span that its children cover. *)
let min_coverage spans ~name =
  let children = children_table spans in
  List.fold_left
    (fun m s ->
      if s.name = name && duration s > 0.0 then
        Float.min m (child_coverage children s /. duration s)
      else m)
    1.0 spans

let to_jsonl ~t0 spans =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf b
        "{\"id\":%d,\"name\":\"%s\",\"unit\":\"%s\",\"parent\":%d,\"start_s\":%.6f,\"end_s\":%.6f}\n"
        s.id (String.escaped s.name) (String.escaped s.unit_id) s.parent
        (s.start -. t0) (s.stop -. t0))
    spans;
  Buffer.contents b
