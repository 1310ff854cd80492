type t = int array

let of_array arr =
  let n = Array.length arr in
  let seen = Array.make n false in
  Array.iter
    (fun x ->
      if x < 0 || x >= n then invalid_arg "Permutation.of_array: out of range";
      if seen.(x) then invalid_arg "Permutation.of_array: duplicate";
      seen.(x) <- true)
    arr;
  Array.copy arr

let to_array (t : t) = Array.copy t
let n (t : t) = Array.length t
let identity k = Array.init k (fun i -> i)
let reverse k = Array.init k (fun i -> k - 1 - i)

let stage_of (t : t) i =
  let rec go k =
    if k >= Array.length t then invalid_arg "Permutation.stage_of: not found"
    else if t.(k) = i then k
    else go (k + 1)
  in
  go 0

let process_at (t : t) k = t.(k)

let lower_or_equal t i j = stage_of t i <= stage_of t j

let min_by t = function
  | [] -> invalid_arg "Permutation.min_by: empty"
  | x :: rest ->
    List.fold_left
      (fun best y -> if stage_of t y < stage_of t best then y else best)
      x rest

let inverse (t : t) =
  let out = Array.make (Array.length t) 0 in
  Array.iteri (fun k i -> out.(i) <- k) t;
  out

let compose (a : t) (b : t) : t =
  if Array.length a <> Array.length b then
    invalid_arg "Permutation.compose: size mismatch";
  Array.init (Array.length a) (fun k -> a.(b.(k)))

let equal (a : t) (b : t) = a = b

let rank (t : t) =
  let k = Array.length t in
  if k > 20 then invalid_arg "Permutation.rank: n > 20";
  (* Lehmer code: for each position, count smaller elements to its right *)
  let acc = ref 0 in
  for i = 0 to k - 1 do
    let smaller = ref 0 in
    for j = i + 1 to k - 1 do
      if t.(j) < t.(i) then incr smaller
    done;
    acc := (!acc * (k - i)) + !smaller
  done;
  !acc

let unrank ~n:k r =
  if k > 20 then invalid_arg "Permutation.unrank: n > 20";
  if r < 0 || (k <= 20 && r >= Lb_util.Xmath.factorial k) then
    invalid_arg "Permutation.unrank: rank out of range";
  let digits = Array.make k 0 in
  let r = ref r in
  for i = k - 1 downto 0 do
    let base = k - i in
    digits.(i) <- !r mod base;
    r := !r / base
  done;
  let avail = ref (List.init k (fun i -> i)) in
  Array.map
    (fun d ->
      let x = List.nth !avail d in
      avail := List.filter (fun y -> y <> x) !avail;
      x)
    digits

let all k =
  if k > 8 then invalid_arg "Permutation.all: n > 8";
  List.init (Lb_util.Xmath.factorial k) (fun r -> unrank ~n:k r)

let random rng k = Lb_util.Rng.permutation rng k

let sample rng ~n:k ~count =
  if k <= 8 && Lb_util.Xmath.factorial k <= 4 * count then begin
    (* small space: enumerate distinct ranks, shuffled *)
    let total = Lb_util.Xmath.factorial k in
    let ranks = Array.init total (fun i -> i) in
    Lb_util.Rng.shuffle rng ranks;
    List.init (min count total) (fun i -> unrank ~n:k ranks.(i))
  end
  else begin
    (* rejection-sample distinct permutations; for k > 8 the space dwarfs
       any reasonable [count], so rejections are rare. Cap the request at
       |S_k| so an over-large count cannot loop forever. *)
    let count =
      if k <= 20 then min count (Lb_util.Xmath.factorial k) else count
    in
    let seen = Hashtbl.create count in
    let out = ref [] in
    while Hashtbl.length seen < count do
      let pi = random rng k in
      let key = Array.to_list pi in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        out := pi :: !out
      end
    done;
    List.rev !out
  end

let pp ppf (t : t) =
  Format.fprintf ppf "(%s)"
    (String.concat " " (Array.to_list (Array.map string_of_int t)))

let to_string t = Format.asprintf "%a" pp t

let to_csv (t : t) =
  String.concat "," (Array.to_list (Array.map string_of_int t))

let of_csv ?n s =
  let bad why = Error (Printf.sprintf "bad permutation %S: %s" s why) in
  match List.map int_of_string (String.split_on_char ',' s) with
  | exception Failure _ -> bad "expected comma-separated process indices"
  | ints -> (
    let len = List.length ints in
    match n with
    | Some n when n <> len ->
      Error (Printf.sprintf "permutation length %d does not match n=%d" len n)
    | _ -> (
      match of_array (Array.of_list ints) with
      | pi -> Ok pi
      | exception Invalid_argument _ ->
        bad (Printf.sprintf "not a permutation of 0..%d" (len - 1))))
