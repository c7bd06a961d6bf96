(* Per-call samples and the summaries the benchmark reports. *)

type samples = { mutable a : int array; mutable n : int }

let samples () = { a = Array.make 4096 0; n = 0 }

let add s v =
  if s.n = Array.length s.a then begin
    let bigger = Array.make (2 * s.n) 0 in
    Array.blit s.a 0 bigger 0 s.n;
    s.a <- bigger
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let length s = s.n

(* The [p] quantile of the first [upto] samples (default all), as a
   Harrell-Davis estimate: a weighted mean of the order statistics,
   weighted by the distribution of the quantile's rank (a Beta law,
   here in its normal approximation). Unlike the nearest rank it moves
   smoothly with the data, which matters for simulated latencies: they
   take a handful of distinct values, so a nearest-rank p99 sits on the
   same value for every seed. *)
let percentile ?upto s p =
  let n = match upto with Some u -> min u s.n | None -> s.n in
  if n = 0 then 0.0
  else begin
    let c = Array.sub s.a 0 n in
    Array.sort compare c;
    let fn = float_of_int n in
    let a = p *. (fn +. 1.0) and b = (1.0 -. p) *. (fn +. 1.0) in
    let mu = a /. (a +. b) in
    let sd = sqrt (a *. b /. ((a +. b) *. (a +. b) *. (a +. b +. 1.0))) in
    let cdf x = 0.5 *. (1.0 +. Float.erf ((x -. mu) /. (sd *. Float.sqrt 2.0))) in
    let lo = max 1 (int_of_float (Float.floor ((mu -. (8.0 *. sd)) *. fn))) in
    let hi = min n (int_of_float (Float.ceil ((mu +. (8.0 *. sd)) *. fn)) + 1) in
    let sum = ref 0.0 and wsum = ref 0.0 in
    for i = lo to hi do
      let w = cdf (float_of_int i /. fn) -. cdf (float_of_int (i - 1) /. fn) in
      sum := !sum +. (w *. float_of_int c.(i - 1));
      wsum := !wsum +. w
    done;
    if !wsum > 0.0 then !sum /. !wsum else float_of_int c.(min (n - 1) (int_of_float (p *. fn)))
  end

let sum ?upto s =
  let n = match upto with Some u -> min u s.n | None -> s.n in
  let t = ref 0 in
  for i = 0 to n - 1 do
    t := !t + s.a.(i)
  done;
  !t

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio num den = if den = 0.0 then 0.0 else num /. den
let per num den = ratio (float_of_int num) (float_of_int den)
