(* Expected answers computed by the benchmark itself, with Nat/Zint
   arithmetic, independently of the dispatcher arm that answers on the
   server.  The smoke run checks every formula here against Brute_par on
   small instances, so a wrong formula fails the smoke rather than
   passing or failing a benchmark run. *)

open Incdb_bignum

let zpow b e = Zint.pow (Zint.of_int b) e
let npow b e = Nat.pow (Nat.of_int b) e

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

(* C(n, k), exact at every step: the product of i+1 consecutive
   integers is divisible by (i+1)!. *)
let binomial n k =
  if k < 0 || k > n then Nat.zero
  else begin
    let r = ref Nat.one in
    for i = 0 to k - 1 do
      r := Nat.div (Nat.mul !r (Nat.of_int (n - i))) (Nat.of_int (i + 1))
    done;
    !r
  end

let zbinomial n k = Zint.of_nat (binomial n k)

let zproduct xs = List.fold_left (fun acc x -> Zint.mul acc (Zint.of_int x)) Zint.one xs

(* #Val of R(x), S(x,y), T(y) when R holds one single-occurrence null
   per entry of [r_sizes] and T one per entry of [t_sizes], each null's
   domain holding the values 0..d-1 plus (size - d) values no edge
   uses, and S holds the constant [edges] over 0..d-1.  All valuations
   minus those avoiding every edge; the avoiding ones are summed over
   X, the set of edge left endpoints the R-nulls hit.  The R-side count
   hitting exactly X is an inclusion–exclusion over the subsets Z of X;
   the T-nulls must then miss every right endpoint of an edge leaving
   X. *)
let path_val ~r_sizes ~t_sizes ~d ~edges =
  if List.exists (fun s -> s < d) (r_sizes @ t_sizes) then
    invalid_arg "Oracle.path_val: a domain misses a shared value";
  let edges =
    List.sort_uniq compare
      (List.filter (fun (a, b) -> a >= 0 && b >= 0 && a < d && b < d) edges)
  in
  let lefts = Array.of_list (List.sort_uniq compare (List.map fst edges)) in
  let na = Array.length lefts in
  let in_mask x a =
    let rec find i = i < na && ((lefts.(i) = a && x land (1 lsl i) <> 0) || find (i + 1)) in
    find 0
  in
  let rights x =
    List.length
      (List.sort_uniq compare
         (List.filter_map (fun (a, b) -> if in_mask x a then Some b else None) edges))
  in
  let avoid = ref Zint.zero in
  for x = 0 to (1 lsl na) - 1 do
    let exactly_x = ref Zint.zero in
    let rec submasks z =
      let term = zproduct (List.map (fun s -> s - na + popcount z) r_sizes) in
      exactly_x :=
        if (popcount x - popcount z) land 1 = 1 then Zint.sub !exactly_x term
        else Zint.add !exactly_x term;
      if z > 0 then submasks ((z - 1) land x)
    in
    submasks x;
    let t_miss = zproduct (List.map (fun s -> s - rights x) t_sizes) in
    avoid := Zint.add !avoid (Zint.mul !exactly_x t_miss)
  done;
  Zint.to_nat (Zint.sub (zproduct (r_sizes @ t_sizes)) !avoid)

(* #Val of R(x,x) on a Codd table of [n] binary all-null tuples over a
   uniform domain of size [d]: a valuation fails iff every tuple gets
   two different values. *)
let diagonal_val ~n ~d = Nat.sub (npow d (2 * n)) (npow ((d * d) - d) n)

(* #Val of R(x), S(x) on a uniform table over a domain of size [d]: R
   holds [cr] constants and [nr] nulls, S holds [cs] other constants and
   [ns] nulls, all constants inside the domain.  A failing valuation
   gives R the value set CR ∪ T with T drawn from the u = d-cr-cs
   values no constant uses; the R-nulls cover T exactly (inclusion–
   exclusion over the values of T they miss) and the S-nulls must avoid
   CR ∪ T. *)
let two_unary_val ~d ~nr ~cr ~ns ~cs =
  let u = d - cr - cs in
  let fail = ref Zint.zero in
  for t = 0 to min u nr do
    let cover = ref Zint.zero in
    for j = 0 to t do
      let term = Zint.mul (zbinomial t j) (zpow (cr + t - j) nr) in
      cover := if j land 1 = 1 then Zint.sub !cover term else Zint.add !cover term
    done;
    fail :=
      Zint.add !fail
        (Zint.mul (zbinomial u t) (Zint.mul !cover (zpow (d - cr - t) ns)))
  done;
  Zint.to_nat (Zint.sub (zpow d (nr + ns)) !fail)

(* #Val of a query whose every variable occurs once, on a table where
   each of its relations is non-empty: every valuation satisfies it. *)
let product_val ~domain_sizes = Nat.product (List.map Nat.of_int domain_sizes)

(* #Comp of R(x) on a uniform unary table: [c] constants and [n] nulls
   over a domain of size [d], constants inside it.  A completion is the
   constants plus any t ≤ n of the other d-c values (t ≥ 1 when there
   are no constants but some nulls). *)
let unary_comp ~d ~n ~c =
  let lo = if c = 0 && n > 0 then 1 else 0 in
  let acc = ref Nat.zero in
  for t = lo to min n (d - c) do
    acc := Nat.add !acc (binomial (d - c) t)
  done;
  !acc
