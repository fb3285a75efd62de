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
