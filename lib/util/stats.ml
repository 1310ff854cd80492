type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | x0 :: _ ->
    let n = List.length xs in
    let fn = float_of_int n in
    let sum = List.fold_left ( +. ) 0.0 xs in
    let mean = sum /. fn in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs /. fn
    in
    let mn = List.fold_left Float.min x0 xs in
    let mx = List.fold_left Float.max x0 xs in
    { count = n; mean; stddev = sqrt var; min = mn; max = mx }

let summarize_ints xs = summarize (List.map float_of_int xs)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty"
  | _ ->
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = if rank <= 0 then 0 else if rank > n then n - 1 else rank - 1 in
    arr.(idx)

let ratio a b = if b = 0.0 then nan else a /. b

