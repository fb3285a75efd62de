(* Order statistics shared by the run report and the comparison tool. *)

(* A growable float buffer: latencies and per-call layer timings are
   appended one sample at a time. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 256 0.; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let bigger = Array.make (2 * b.len) 0. in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let to_array b = Array.sub b.data 0 b.len
let length b = b.len
let last b = b.data.(b.len - 1)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks, [q] in [0, 1];
   [nan] on no samples. *)
let percentile a q =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median a = percentile a 0.5

(* First quartile, median and third quartile by the "exclusive" method
   of Python's statistics.quantiles(n=4), so spreads computed here agree
   with the ones an outside script computes from the same values.  Needs
   at least two samples. *)
let quartiles a =
  let a = sorted a in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)
