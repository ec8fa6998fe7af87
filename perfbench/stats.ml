(* Order statistics for the benchmark's reports. Quartiles follow the
   "exclusive" method of Python's [statistics.quantiles], the method the
   steadiness command applies across runs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Cut points dividing the samples into [n] intervals of equal
   probability; [n - 1] values. Needs at least two samples. *)
let quantiles ?(n = 4) xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quantiles: needs at least two samples";
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n)

let quartiles xs =
  match quantiles ~n:4 xs with
  | [ q1; q2; q3 ] -> (q1, q2, q3)
  | _ -> assert false

(* Samples strictly beyond a tail percentile must number at least this
   many before the percentile is reported at all: a p99 of 200 samples
   is the second-largest sample, not a tail estimate. *)
let min_beyond = 10

(* Nearest-rank percentile [p] (0 < p < 100), or [None] when fewer
   than {!min_beyond} samples lie beyond it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  let rank = max 1 (min n rank) in
  if n - rank < min_beyond then None else Some a.(rank - 1)
