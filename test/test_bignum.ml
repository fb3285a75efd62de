open Incdb_bignum

let check_int name expected n =
  Alcotest.(check int) name expected (Nat.to_int n)

(* ------------------------------------------------------------------ *)
(* Nat unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_basics () =
  check_int "zero" 0 Nat.zero;
  check_int "one" 1 Nat.one;
  check_int "of_int" 123456789 (Nat.of_int 123456789);
  Alcotest.(check string) "to_string small" "42" (Nat.to_string (Nat.of_int 42));
  Alcotest.(check string) "to_string 0" "0" (Nat.to_string Nat.zero);
  Alcotest.(check bool) "is_zero" true (Nat.is_zero Nat.zero);
  Alcotest.(check bool) "is_zero one" false (Nat.is_zero Nat.one)

let test_big_values () =
  (* 2^200 has a well-known decimal expansion. *)
  Alcotest.(check string)
    "2^200"
    "1606938044258990275541962092341162602522202993782792835301376"
    (Nat.to_string (Nat.pow Nat.two 200));
  let big = Nat.of_string "123456789012345678901234567890" in
  Alcotest.(check string)
    "of_string round trip" "123456789012345678901234567890"
    (Nat.to_string big);
  let q, r = Nat.divmod big (Nat.of_int 1000007) in
  Gen.check_nat "divmod reconstruct" big
    (Nat.add (Nat.mul q (Nat.of_int 1000007)) r)

let test_sub_errors () =
  Alcotest.check_raises "sub underflow"
    (Invalid_argument "Nat.sub: result would be negative") (fun () ->
      ignore (Nat.sub Nat.one Nat.two));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod Nat.one Nat.zero))

let test_factorial () =
  Alcotest.(check string)
    "20!" "2432902008176640000"
    (Nat.to_string (Combinat.factorial 20));
  Alcotest.(check string)
    "50!"
    "30414093201713378043612608166064768844377641568960512000000000000"
    (Nat.to_string (Combinat.factorial 50))

let test_binomial () =
  check_int "C(10,3)" 120 (Combinat.binomial 10 3);
  check_int "C(10,0)" 1 (Combinat.binomial 10 0);
  check_int "C(10,10)" 1 (Combinat.binomial 10 10);
  check_int "C(5,7)=0" 0 (Combinat.binomial 5 7);
  check_int "C(52,5)" 2598960 (Combinat.binomial 52 5)

let test_surjections () =
  check_int "surj(3,2)" 6 (Combinat.surj 3 2);
  check_int "surj(4,2)" 14 (Combinat.surj 4 2);
  check_int "surj(n,n)=n!" 24 (Combinat.surj 4 4);
  check_int "surj(2,3)=0" 0 (Combinat.surj 2 3);
  check_int "surj(0,0)=1" 1 (Combinat.surj 0 0);
  check_int "surj(5,0)=0" 0 (Combinat.surj 5 0)

let test_stirling () =
  check_int "S(4,2)" 7 (Combinat.stirling2 4 2);
  check_int "S(5,3)" 25 (Combinat.stirling2 5 3);
  (* surj n m = m! * S(n, m) *)
  for n = 0 to 7 do
    for m = 0 to n do
      Gen.check_nat
        (Printf.sprintf "surj(%d,%d) = %d! * S" n m m)
        (Combinat.surj n m)
        (Nat.mul (Combinat.factorial m) (Combinat.stirling2 n m))
    done
  done

let test_surj_recurrence () =
  (* surj(n, m) = m * (surj(n-1, m) + surj(n-1, m-1)) *)
  for n = 1 to 8 do
    for m = 1 to n do
      Gen.check_nat
        (Printf.sprintf "recurrence surj(%d,%d)" n m)
        (Combinat.surj n m)
        (Nat.mul (Nat.of_int m)
           (Nat.add (Combinat.surj (n - 1) m) (Combinat.surj (n - 1) (m - 1))))
    done
  done

let test_misc_combinat () =
  check_int "falling 5 2" 20 (Combinat.falling 5 2);
  check_int "falling 5 0" 1 (Combinat.falling 5 0);
  check_int "pow2 10" 1024 (Combinat.pow2 10);
  Alcotest.(check int) "subsets size" 16 (List.length (Combinat.subsets [ 1; 2; 3; 4 ]));
  Alcotest.(check int)
    "compositions 4 into 3"
    15
    (List.length (Combinat.int_compositions 4 3));
  Alcotest.(check int)
    "vectors_upto"
    12
    (List.length (Combinat.vectors_upto [ 1; 2; 1 ]))

(* ------------------------------------------------------------------ *)
(* Property-based tests against machine arithmetic                     *)
(* ------------------------------------------------------------------ *)

let small = QCheck.Gen.int_bound 1_000_000

let prop_add =
  QCheck.Test.make ~count:500 ~name:"Nat.add agrees with int"
    QCheck.(make (Gen.pair small small))
    (fun (a, b) ->
      Nat.to_int (Nat.add (Nat.of_int a) (Nat.of_int b)) = a + b)

let prop_mul =
  QCheck.Test.make ~count:500 ~name:"Nat.mul agrees with int"
    QCheck.(make (Gen.pair small small))
    (fun (a, b) ->
      Nat.to_int (Nat.mul (Nat.of_int a) (Nat.of_int b)) = a * b)

let prop_divmod =
  QCheck.Test.make ~count:500 ~name:"Nat.divmod agrees with int"
    QCheck.(make (Gen.pair small (Gen.int_range 1 99999)))
    (fun (a, b) ->
      let q, r = Nat.divmod (Nat.of_int a) (Nat.of_int b) in
      Nat.to_int q = a / b && Nat.to_int r = a mod b)

let prop_string_roundtrip =
  QCheck.Test.make ~count:200 ~name:"Nat decimal round trip"
    QCheck.(make (Gen.list_size (Gen.int_range 1 6) small))
    (fun parts ->
      let n =
        List.fold_left
          (fun acc p -> Nat.add (Nat.mul acc (Nat.of_int 1_000_001)) (Nat.of_int p))
          Nat.zero parts
      in
      Nat.equal n (Nat.of_string (Nat.to_string n)))

let prop_mul_assoc =
  QCheck.Test.make ~count:200 ~name:"Nat.mul associative on large values"
    QCheck.(make (Gen.triple small small small))
    (fun (a, b, c) ->
      let a = Nat.pow (Nat.of_int (a + 2)) 7
      and b = Nat.pow (Nat.of_int (b + 2)) 5
      and c = Nat.of_int c in
      Nat.equal (Nat.mul (Nat.mul a b) c) (Nat.mul a (Nat.mul b c)))

let prop_karatsuba =
  (* Build numbers far above the Karatsuba threshold (32 digits of 31
     bits each, i.e. roughly 1000 bits) and check multiplication against
     an independent identity: (x + y)^2 = x^2 + 2xy + y^2. *)
  QCheck.Test.make ~count:60 ~name:"Karatsuba multiplication identities"
    QCheck.(make (Gen.pair small small))
    (fun (a, b) ->
      let x = Nat.pow (Nat.of_int (a + 2)) 150 in
      let y = Nat.pow (Nat.of_int (b + 3)) 140 in
      let lhs = Nat.mul (Nat.add x y) (Nat.add x y) in
      let rhs =
        Nat.add (Nat.mul x x)
          (Nat.add (Nat.mul (Nat.of_int 2) (Nat.mul x y)) (Nat.mul y y))
      in
      Nat.equal lhs rhs
      (* and division undoes the big product *)
      && Nat.equal (Nat.div (Nat.mul x y) y) x)

let prop_gcd =
  QCheck.Test.make ~count:300 ~name:"Nat.gcd divides and is maximal-ish"
    QCheck.(make (Gen.pair (Gen.int_range 1 100000) (Gen.int_range 1 100000)))
    (fun (a, b) ->
      let rec igcd a b = if b = 0 then a else igcd b (a mod b) in
      Nat.to_int (Nat.gcd (Nat.of_int a) (Nat.of_int b)) = igcd a b)

(* ------------------------------------------------------------------ *)
(* Bitset: Int vs Wide agreement below one word, word boundaries       *)
(* ------------------------------------------------------------------ *)

module BI = Bitset.Int
module BW = Bitset.Wide

let both ~width bits =
  ( List.fold_left BI.set (BI.zero ~width) bits,
    List.fold_left BW.set (BW.zero ~width) bits )

let wide_bits m =
  let acc = ref [] in
  BW.iter (fun i -> acc := i :: !acc) m;
  List.rev !acc

let sign n = compare n 0

(* Below one word the two implementations must agree operation by
   operation: a Wide value is then a single array slot holding exactly
   the Int mask's word (same bit positions, same nonnegative-word
   convention), so even compare orders coincide. *)
let prop_bitset_int_wide =
  QCheck.Test.make ~count:300 ~name:"Bitset.Int = Bitset.Wide below one word"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let width = 1 + Random.State.int st Bitset.bits_per_word in
      let bits () =
        List.filter (fun _ -> Random.State.bool st) (List.init width Fun.id)
      in
      let ba = bits () and bb = bits () in
      let ia, wa = both ~width ba and ib, wb = both ~width bb in
      List.for_all (fun i -> BI.test ia i = BW.test wa i)
        (List.init width Fun.id)
      && BI.popcount ia = BW.popcount wa
      && BI.popcount_inter ia ib = BW.popcount_inter wa wb
      && BI.popcount_diff ia ib = BW.popcount_diff wa wb
      && BI.lowest ia = BW.lowest wa
      && BI.is_empty ia = BW.is_empty wa
      && BI.disjoint ia ib = BW.disjoint wa wb
      && BI.subset ia ib = BW.subset wa wb
      && BI.equal ia ib = BW.equal wa wb
      && sign (BI.compare ia ib) = sign (BW.compare wa wb)
      && wide_bits (BW.union wa wb)
         = List.filter (fun i -> BI.test (BI.union ia ib) i)
             (List.init width Fun.id)
      && ((not (BW.equal wa wb)) || BW.hash wa = BW.hash wb))

(* Multi-word semantics independent of Int: set algebra on sorted bit
   lists is the reference model, exercised across the 62/63 and 124/125
   word boundaries. *)
let prop_bitset_wide_model =
  QCheck.Test.make ~count:300 ~name:"Bitset.Wide = set algebra across words"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let width = 1 + Random.State.int st 150 in
      let bits () =
        List.filter (fun _ -> Random.State.int st 4 = 0)
          (List.init width Fun.id)
      in
      let ba = bits () and bb = bits () in
      let wa = List.fold_left BW.set (BW.zero ~width) ba
      and wb = List.fold_left BW.set (BW.zero ~width) bb in
      let inter = List.filter (fun i -> List.mem i bb) ba in
      let union = List.sort_uniq compare (ba @ bb) in
      wide_bits wa = ba
      && wide_bits (BW.union wa wb) = union
      && BW.popcount wa = List.length ba
      && BW.popcount_inter wa wb = List.length inter
      && BW.popcount_diff wa wb
         = List.length (List.filter (fun i -> not (List.mem i bb)) ba)
      && BW.lowest wa = (match ba with [] -> -1 | i :: _ -> i)
      && BW.is_empty wa = (ba = [])
      && BW.disjoint wa wb = (inter = [])
      && BW.subset wa wb = List.for_all (fun i -> List.mem i bb) ba
      && BW.equal wa wb = (ba = bb))

let test_bitset_words_for () =
  let bpw = Bitset.bits_per_word in
  Alcotest.(check int) "bits_per_word" (Sys.int_size - 1) bpw;
  Alcotest.(check int) "words_for 0" 0 (Bitset.words_for 0);
  Alcotest.(check int) "words_for 1" 1 (Bitset.words_for 1);
  Alcotest.(check int) "words_for bpw" 1 (Bitset.words_for bpw);
  Alcotest.(check int) "words_for bpw+1" 2 (Bitset.words_for (bpw + 1));
  Alcotest.(check int) "words_for 2*bpw" 2 (Bitset.words_for (2 * bpw));
  Alcotest.(check int) "words_for 2*bpw+1" 3 (Bitset.words_for (2 * bpw + 1))

let test_bitset_boundaries () =
  (* low at exactly one-word, one-word-plus-one and two-word widths:
     the bits just below and just above each boundary behave
     identically. *)
  List.iter
    (fun width ->
      let f = BW.low ~width width in
      Alcotest.(check int)
        (Printf.sprintf "full %d popcount" width)
        width (BW.popcount f);
      Alcotest.(check bool)
        (Printf.sprintf "full %d top bit" width)
        true
        (BW.test f (width - 1));
      Alcotest.(check int)
        (Printf.sprintf "full %d lowest" width)
        0 (BW.lowest f);
      Alcotest.(check bool)
        (Printf.sprintf "full %d = every bit set" width)
        true
        (BW.equal f (List.fold_left BW.set (BW.zero ~width) (List.init width Fun.id)));
      let l = BW.low ~width (width - 1) in
      Alcotest.(check int)
        (Printf.sprintf "low %d popcount" (width - 1))
        (width - 1) (BW.popcount l);
      Alcotest.(check bool)
        (Printf.sprintf "low misses bit %d" (width - 1))
        false
        (BW.test l (width - 1));
      Alcotest.(check bool)
        (Printf.sprintf "low subset full (%d)" width)
        true (BW.subset l f))
    [ 62; 63; 64; 124; 125 ];
  (* A bit in word 0 and a bit in word 1 straddling the boundary. *)
  let width = 70 in
  let a = BW.set (BW.zero ~width) 61 and b = BW.set (BW.zero ~width) 62 in
  Alcotest.(check bool) "straddle disjoint" true (BW.disjoint a b);
  Alcotest.(check int) "straddle union" 2 (BW.popcount (BW.union a b));
  Alcotest.(check bool) "order across words" true (BW.compare a b < 0);
  Alcotest.(check (list int)) "iter ascending" [ 61; 62 ]
    (wide_bits (BW.union a b))

let test_bitset_inplace () =
  let width = 100 in
  let base = BW.set (BW.zero ~width) 7 in
  let scratch = BW.copy base in
  BW.set_inplace scratch 99;
  Alcotest.(check bool) "copy isolates" false (BW.test base 99);
  Alcotest.(check bool) "set_inplace lands" true (BW.test scratch 99);
  BW.clear_inplace scratch 99;
  Alcotest.(check bool) "clear undoes" true (BW.equal scratch base)

let zsmall = QCheck.Gen.int_range (-1_000_000) 1_000_000

let prop_zint_ring =
  QCheck.Test.make ~count:500 ~name:"Zint ring operations agree with int"
    QCheck.(make (Gen.pair zsmall zsmall))
    (fun (a, b) ->
      let za = Zint.of_int a and zb = Zint.of_int b in
      Zint.to_int (Zint.add za zb) = a + b
      && Zint.to_int (Zint.sub za zb) = a - b
      && Zint.to_int (Zint.mul za zb) = a * b
      && Zint.compare za zb = Stdlib.compare a b)

let prop_zint_divmod =
  QCheck.Test.make ~count:500 ~name:"Zint.divmod truncates like OCaml"
    QCheck.(make (Gen.pair zsmall zsmall))
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      let q, r = Zint.divmod (Zint.of_int a) (Zint.of_int b) in
      Zint.to_int q = a / b && Zint.to_int r = a mod b)

let qfrac =
  QCheck.make
    QCheck.Gen.(pair (pair (int_range (-50) 50) (int_range 1 30))
                  (pair (int_range (-50) 50) (int_range 1 30)))

let prop_qnum_field =
  QCheck.Test.make ~count:500 ~name:"Qnum field laws" qfrac
    (fun (((an, ad), (bn, bd))) ->
      let a = Qnum.of_ints an ad and b = Qnum.of_ints bn bd in
      let sum = Qnum.add a b and prod = Qnum.mul a b in
      Qnum.equal (Qnum.sub sum b) a
      && (Qnum.is_zero b || Qnum.equal (Qnum.div prod b) a)
      && Qnum.equal (Qnum.add a (Qnum.neg a)) Qnum.zero)

let prop_qnum_compare =
  QCheck.Test.make ~count:500 ~name:"Qnum.compare matches cross-multiplication"
    qfrac
    (fun ((an, ad), (bn, bd)) ->
      let a = Qnum.of_ints an ad and b = Qnum.of_ints bn bd in
      Qnum.compare a b = Stdlib.compare (an * bd) (bn * ad))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_add;
        prop_mul;
        prop_divmod;
        prop_string_roundtrip;
        prop_mul_assoc;
        prop_karatsuba;
        prop_gcd;
        prop_zint_ring;
        prop_zint_divmod;
        prop_qnum_field;
        prop_qnum_compare;
      ]
  in
  Alcotest.run "bignum"
    [
      ( "nat",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "big values" `Quick test_big_values;
          Alcotest.test_case "errors" `Quick test_sub_errors;
        ] );
      ( "bitset",
        [
          QCheck_alcotest.to_alcotest prop_bitset_int_wide;
          QCheck_alcotest.to_alcotest prop_bitset_wide_model;
          Alcotest.test_case "words_for" `Quick test_bitset_words_for;
          Alcotest.test_case "word boundaries" `Quick test_bitset_boundaries;
          Alcotest.test_case "in-place scratch" `Quick test_bitset_inplace;
        ] );
      ( "combinat",
        [
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "surjections" `Quick test_surjections;
          Alcotest.test_case "stirling" `Quick test_stirling;
          Alcotest.test_case "surj recurrence" `Quick test_surj_recurrence;
          Alcotest.test_case "misc" `Quick test_misc_combinat;
        ] );
      ("properties", qsuite);
    ]
