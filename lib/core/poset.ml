module Vec = Lb_util.Vec

(* Ids index every array directly, and all six arrays grow together. A
   query claims a fresh generation [gen] and marks what it visits by
   writing it into [stamp], so visited sets never need clearing.
   [queue] is the search frontier (and topo_sort's heap); [deg] holds
   topo_sort's in-degrees. *)
type t = {
  order : int Vec.t;  (* registration order *)
  mutable present : bool array;
  mutable preds : int list array;
  mutable succs : int list array;
  mutable stamp : int array;
  mutable queue : int array;
  mutable deg : int array;
  mutable gen : int;
}

exception Cycle of int * int

let create () =
  {
    order = Vec.create ();
    present = [||];
    preds = [||];
    succs = [||];
    stamp = [||];
    queue = [||];
    deg = [||];
    gen = 0;
  }

let capacity t = Array.length t.preds

let grow t id =
  let cap = max (id + 1) (max 64 (2 * capacity t)) in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  t.present <- extend t.present false;
  t.preds <- extend t.preds [];
  t.succs <- extend t.succs [];
  t.stamp <- extend t.stamp 0;
  t.queue <- extend t.queue 0;
  t.deg <- extend t.deg 0

let mem t id = id >= 0 && id < capacity t && t.present.(id)

let add_element t id =
  if id < 0 then invalid_arg "Poset.add_element: negative id";
  if mem t id then invalid_arg "Poset.add_element: duplicate";
  if id >= capacity t then grow t id;
  t.present.(id) <- true;
  Vec.push t.order id

let cardinal t = Vec.length t.order
let elements t = Vec.to_list t.order

let check t id =
  if not (mem t id) then
    invalid_arg (Printf.sprintf "Poset: unknown element %d" id)

let preds t id =
  check t id;
  t.preds.(id)

let succs t id =
  check t id;
  t.succs.(id)

let next_gen t =
  t.gen <- t.gen + 1;
  t.gen

(* Breadth-first search along [next] from the neighbours of [roots]:
   each unstamped neighbour that passes [keep] is stamped, enqueued and
   handed to [visit]; returns [true] as soon as [visit] does. The roots
   are not stamped, so a search from several roots can reach one root
   from another. *)
let search t ~next ~roots ~keep ~visit =
  let g = next_gen t in
  let tail = ref 0 and found = ref false in
  let reach y =
    if (not !found) && t.stamp.(y) <> g && keep y then begin
      t.stamp.(y) <- g;
      t.queue.(!tail) <- y;
      incr tail;
      if visit y then found := true
    end
  in
  List.iter (fun x -> List.iter reach (next x)) roots;
  let head = ref 0 in
  while (not !found) && !head < !tail do
    let x = t.queue.(!head) in
    incr head;
    List.iter reach (next x)
  done;
  !found

let reaches t a b =
  a = b
  || search t ~next:(Array.get t.succs) ~roots:[ a ]
       ~keep:(fun _ -> true)
       ~visit:(fun y -> y = b)

let leq t a b =
  check t a;
  check t b;
  reaches t a b

let add_edge t a b =
  check t a;
  check t b;
  if a <> b && not (List.mem b t.succs.(a)) then begin
    if reaches t b a then raise (Cycle (a, b));
    t.succs.(a) <- b :: t.succs.(a);
    t.preds.(b) <- a :: t.preds.(b)
  end

(* Post-order depth-first search over predecessors. The stack holds, for
   each element on the current path, the predecessors it has yet to try;
   it is a list rather than the call stack, since down-sets reach tens of
   thousands of elements. An element is emitted once every predecessor
   it reaches has been, so the output is a topological order. *)
let down_set_stopping t m ~stop =
  check t m;
  if stop m then []
  else begin
    let g = next_gen t in
    t.stamp.(m) <- g;
    let rec go out = function
      | [] -> out
      | (x, []) :: stack -> go (x :: out) stack
      | (x, p :: ps) :: stack ->
        if t.stamp.(p) <> g && not (stop p) then begin
          t.stamp.(p) <- g;
          go out ((p, t.preds.(p)) :: (x, ps) :: stack)
        end
        else go out ((x, ps) :: stack)
    in
    List.rev (go [] [ (m, t.preds.(m)) ])
  end

let down_set t m = down_set_stopping t m ~stop:(fun _ -> false)

(* One backward search from every member at once: whatever it reaches
   lies strictly below some member, so the unreached members are the
   maximal ones. *)
let maximal_among t xs ~stop =
  List.iter (check t) xs;
  ignore
    (search t ~next:(Array.get t.preds) ~roots:xs
       ~keep:(fun y -> not (stop y))
       ~visit:(fun _ -> false));
  List.filter (fun x -> t.stamp.(x) <> t.gen) xs

(* A binary min-heap over [t.queue.(0 .. size-1)]. *)
let heap_push t size x =
  let q = t.queue in
  let i = ref size in
  while !i > 0 && q.((!i - 1) / 2) > x do
    q.(!i) <- q.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  q.(!i) <- x

let heap_pop t size =
  let q = t.queue in
  let top = q.(0) and last = q.(size - 1) in
  let size = size - 1 in
  let i = ref 0 and settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    if l >= size then settled := true
    else begin
      let c = if l + 1 < size && q.(l + 1) < q.(l) then l + 1 else l in
      if q.(c) < last then begin
        q.(!i) <- q.(c);
        i := c
      end
      else settled := true
    end
  done;
  if size > 0 then q.(!i) <- last;
  top

let topo_sort t xs =
  let fail () =
    invalid_arg "Poset.topo_sort: input not acyclic or contains duplicates"
  in
  let g = next_gen t in
  let total =
    List.fold_left
      (fun k x ->
        check t x;
        if t.stamp.(x) = g then fail ();
        t.stamp.(x) <- g;
        k + 1)
      0 xs
  in
  let size = ref 0 in
  List.iter
    (fun x ->
      let d =
        List.fold_left
          (fun d p -> if t.stamp.(p) = g then d + 1 else d)
          0 t.preds.(x)
      in
      t.deg.(x) <- d;
      if d = 0 then begin
        heap_push t !size x;
        incr size
      end)
    xs;
  let out = ref [] and count = ref 0 in
  while !size > 0 do
    let x = heap_pop t !size in
    decr size;
    out := x :: !out;
    incr count;
    List.iter
      (fun y ->
        if t.stamp.(y) = g then begin
          let d = t.deg.(y) - 1 in
          t.deg.(y) <- d;
          if d = 0 then begin
            heap_push t !size y;
            incr size
          end
        end)
      t.succs.(x)
  done;
  if !count <> total then fail ();
  List.rev !out
