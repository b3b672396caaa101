(* Order statistics over benchmark samples.

   One run reports nearest-rank percentiles of its own samples; comparing
   sets of runs uses the median and the quartiles exactly as Python's
   [statistics.median] and [statistics.quantiles(values, n=4)] compute
   them, so the numbers printed here can be checked with a one-liner. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest sample with
   at least [p] percent of the samples at or below it. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* How many samples of an ascending array lie strictly above its [p]-th
   percentile: the support of a tail percentile. *)
let beyond a p =
  let v = percentile a p in
  Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 a

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles(values, n=4)] (the default "exclusive"
   method): returns (q1, q2, q3). Needs two samples; fewer collapse to the
   median. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld < 2 then
    let m = median values in
    (m, m, m)
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
