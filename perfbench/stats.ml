(* The benchmark's own arithmetic over timing samples. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type tail = {
  value : float;
  pct : float;  (** the percentile [value] sits at, in (0, 100] *)
  samples : int;
}

(* The tail is the highest percentile that still has [beyond] samples
   above it: in sorted order that is the sample at 0-based index
   [n - beyond - 1], which has [n - beyond] samples at or below it. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < beyond + 1 then None
  else
    let i = n - beyond - 1 in
    Some
      {
        value = a.(i);
        pct = 100.0 *. float_of_int (i + 1) /. float_of_int n;
        samples = n;
      }

(* With fewer than [2 * beyond + 1] samples the rule's percentile would
   sit at or below the median (and with fewer than [beyond + 1] there
   is none), so the tail falls back to the maximum. *)
let tail_or_max ?(beyond = 10) xs =
  match tail ~beyond xs with
  | Some t when t.samples > 2 * beyond -> t
  | Some _ | None -> (
    match sorted xs with
    | [||] -> invalid_arg "Stats.tail_or_max: no samples"
    | a ->
      { value = a.(Array.length a - 1); pct = 100.0; samples = Array.length a })

(* The median over groups (reps, time windows) of a per-group
   statistic: a stall that slows a minority of the groups does not move
   it, where it would move the same statistic over the pooled samples. *)
let median_of_groups f groups = median (List.map f (List.filter (( <> ) []) groups))

let failed_share ~attempted ~failed =
  if attempted < 1 then invalid_arg "Stats.failed_share: nothing attempted";
  if failed < 0 || failed > attempted then
    invalid_arg "Stats.failed_share: failed outside [0, attempted]";
  float_of_int failed /. float_of_int attempted
