(* Sample summaries as the benchmark reports them.

   A percentile is the nearest-rank value of the sorted samples, and it
   is reported only when at least [min_beyond] samples lie beyond it: a
   tail estimate that rests on fewer samples is omitted, not guessed. *)

let min_beyond = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank index of quantile [q] among [n] sorted samples. *)
let rank n q =
  max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let beyond n q = n - 1 - rank n q

let percentile sorted q =
  let n = Array.length sorted in
  if n > 0 && beyond n q >= min_beyond then Some sorted.(rank n q) else None

(* Plain median of a few run-level values (set-up repetitions): no tail
   rule, the middle value or the mean of the middle two. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
