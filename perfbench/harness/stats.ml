(* Order statistics for benchmark samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: no samples";
  Array.fold_left ( +. ) 0. xs /. Float.of_int n

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so the spreads this benchmark reports are the ones its
   steadiness check recomputes from the printed medians. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let a = sorted xs in
  let n = 4 and m = ld + 1 in
  let q i =
    let j = i * m / n in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. Float.of_int (n - delta)) +. (a.(j) *. Float.of_int delta)) /. Float.of_int n
  in
  (q 1, q 2, q 3)

(* The percentiles a latency table may quote.  A percentile is supported
   by [n] samples only when at least [min_beyond] of them lie beyond it;
   quoting p99 from 200 samples would report the second-largest sample
   as if it were a stable tail. *)
let ladder = [ 50.; 90.; 99.; 99.9; 99.99 ]
let min_beyond = 10

let beyond ~n p = Float.to_int (Float.of_int n *. (1. -. (p /. 100.)) +. 1e-9)

let supported ~n = List.filter (fun p -> beyond ~n p >= min_beyond) ladder

let highest_supported ~n = List.fold_left (fun _ p -> Some p) None (supported ~n)

(* Nearest-rank percentile of an already sorted array. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile_sorted: no samples";
  let rank = Float.to_int (Float.ceil (p /. 100. *. Float.of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))
