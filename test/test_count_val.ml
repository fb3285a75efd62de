(* Cross-validation of the three tractable #Val algorithms against the
   brute-force definition, on randomized instances — the soundness core of
   the reproduction of Theorems 3.6, 3.7 and 3.9. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_core

let check_nat = Gen.check_nat

let brute q db = Brute.count_valuations (Query.Bcq q) db

(* ------------------------------------------------------------------ *)
(* Theorem 3.6: single-occurrence variables                            *)
(* ------------------------------------------------------------------ *)

let prop_thm_3_6 query schema =
  let q = Cq.of_string query in
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "Thm 3.6 agrees with brute force [%s]" query)
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema ~rows:2 ~codd:(seed mod 2 = 0)
          ~uniform:(seed mod 3 = 0)
      in
      QCheck.assume (Gen.manageable db);
      Nat.equal (Count_val.nonuniform_naive q db) (brute q db))

let prop_36_rxy = prop_thm_3_6 "R(x,y)" [ ("R", 2) ]
let prop_36_two = prop_thm_3_6 "R(x), S(y,z)" [ ("R", 1); ("S", 2) ]

let test_36_empty_relation () =
  let q = Cq.of_string "R(x), S(y)" in
  let db =
    Idb.make [ Idb.fact "R" [ Term.null "n" ] ]
      (Idb.Nonuniform [ ("n", [ "a"; "b" ]) ])
  in
  check_nat "empty S forces 0" Nat.zero (Count_val.nonuniform_naive q db)

let test_36_rejects () =
  let q = Cq.of_string "R(x,x)" in
  let db = Idb.make [] (Idb.Uniform [ "a" ]) in
  Alcotest.check_raises "repeated variable rejected"
    (Invalid_argument "Count_val.nonuniform_naive: a variable occurs twice")
    (fun () -> ignore (Count_val.nonuniform_naive q db))

(* ------------------------------------------------------------------ *)
(* Theorem 3.7: Codd tables, variable-disjoint atoms                   *)
(* ------------------------------------------------------------------ *)

let prop_thm_3_7 query schema =
  let q = Cq.of_string query in
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "Thm 3.7 agrees with brute force [%s]" query)
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema ~rows:2 ~codd:true ~uniform:(seed mod 3 = 0)
      in
      QCheck.assume (Gen.manageable db);
      Nat.equal (Count_val.codd_nonuniform q db) (brute q db))

let prop_37_rxx = prop_thm_3_7 "R(x,x)" [ ("R", 2) ]
let prop_37_rxx_sy = prop_thm_3_7 "R(x,x), S(y)" [ ("R", 2); ("S", 1) ]
let prop_37_rxyx = prop_thm_3_7 "R(x,y,x)" [ ("R", 3) ]
let prop_37_disjoint = prop_thm_3_7 "R(x,y), S(z,z)" [ ("R", 2); ("S", 2) ]

let test_37_example () =
  (* R(x,x) over a Codd table: facts R(n1, n2) with dom(n1) = {a,b},
     dom(n2) = {b,c}: matching valuations are n1=n2=b, so #Val = 1;
     adding R(a, n3), dom(n3) = {a,c}: second tuple matches iff n3 = a.
     Non-matching: (4-1) * (2-1) = 3; total 8; #Val = 5. *)
  let q = Cq.of_string "R(x,x)" in
  let db =
    Idb.make
      [
        Idb.fact "R" [ Term.null "n1"; Term.null "n2" ];
        Idb.fact "R" [ Term.const "a"; Term.null "n3" ];
      ]
      (Idb.Nonuniform
         [ ("n1", [ "a"; "b" ]); ("n2", [ "b"; "c" ]); ("n3", [ "a"; "c" ]) ])
  in
  check_nat "hand-computed" (Nat.of_int 5) (Count_val.codd_nonuniform q db);
  check_nat "brute agrees" (Nat.of_int 5) (brute q db)

(* ------------------------------------------------------------------ *)
(* Theorem 3.9: uniform naive tables                                   *)
(* ------------------------------------------------------------------ *)

let prop_thm_3_9 query schema =
  let q = Cq.of_string query in
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "Thm 3.9 agrees with brute force [%s]" query)
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema ~rows:2 ~codd:(seed mod 2 = 0) ~uniform:true
      in
      QCheck.assume (Gen.manageable db);
      Nat.equal (Count_val.uniform_naive q db) (brute q db))

let prop_39_rx_sx = prop_thm_3_9 "R(x), S(x)" [ ("R", 1); ("S", 1) ]
let prop_39_three = prop_thm_3_9 "R(x), S(x), T(x)" [ ("R", 1); ("S", 1); ("T", 1) ]

let prop_39_two_groups =
  prop_thm_3_9 "R(x), S(x), T(y), U(y)" [ ("R", 1); ("S", 1); ("T", 1); ("U", 1) ]

let prop_39_wide =
  (* Shared variable inside wider atoms plus single-occurrence variables. *)
  prop_thm_3_9 "R(x,u), S(x,v)" [ ("R", 2); ("S", 2) ]

let prop_39_mixed =
  prop_thm_3_9 "R(x,u), S(x), T(w,z)" [ ("R", 2); ("S", 1); ("T", 2) ]

let test_39_example_3_10 () =
  (* Example 3.10 for R(x) ∧ S(x), checked against the closed form
     given in the paper. *)
  let q = Cq.of_string "R(x), S(x)" in
  let dom = [ "1"; "2"; "3"; "4" ] in
  let d = 4 in
  let cr = 1 and cs = 1 and nr = 2 and ns = 2 in
  let db =
    Idb.make
      [
        Idb.fact "R" [ Term.const "1" ];
        Idb.fact "R" [ Term.null "r1" ];
        Idb.fact "R" [ Term.null "r2" ];
        Idb.fact "S" [ Term.const "2" ];
        Idb.fact "S" [ Term.null "s1" ];
        Idb.fact "S" [ Term.null "s2" ];
      ]
      (Idb.Uniform dom)
  in
  (* Closed form from Example 3.10: the number of NON-satisfying
     valuations is sum over m', r' of C(m,m') C(cR,r') surj(nR, m'+r')
     (d - cR - m')^nS, with M = dom \ (C_R ∪ C_S), m = 2. *)
  let m = d - cr - cs in
  let bad = ref Nat.zero in
  for m' = 0 to m do
    for r' = 0 to cr do
      let term =
        Nat.mul
          (Nat.mul (Combinat.binomial m m') (Combinat.binomial cr r'))
          (Nat.mul (Combinat.surj nr (m' + r'))
             (Combinat.power (d - cr - m') ns))
      in
      bad := Nat.add !bad term
    done
  done;
  let total = Combinat.power d (nr + ns) in
  let expected = Nat.sub total !bad in
  check_nat "algorithm = Example 3.10 closed form" expected
    (Count_val.uniform_naive q db);
  check_nat "brute agrees" expected (brute q db)

let test_39_fixed_cases () =
  (* No nulls at all: counts collapse to satisfaction of the fixed db. *)
  let q = Cq.of_string "R(x), S(x)" in
  let sat =
    Idb.make
      [ Idb.fact "R" [ Term.const "a" ]; Idb.fact "S" [ Term.const "a" ] ]
      (Idb.Uniform [ "a"; "b" ])
  in
  check_nat "satisfied constant db" Nat.one (Count_val.uniform_naive q sat);
  let unsat =
    Idb.make
      [ Idb.fact "R" [ Term.const "a" ]; Idb.fact "S" [ Term.const "b" ] ]
      (Idb.Uniform [ "a"; "b" ])
  in
  check_nat "unsatisfied constant db" Nat.zero (Count_val.uniform_naive q unsat);
  (* Constants outside the uniform domain still witness satisfaction. *)
  let outside =
    Idb.make
      [
        Idb.fact "R" [ Term.const "z" ];
        Idb.fact "S" [ Term.const "z" ];
        Idb.fact "S" [ Term.null "n" ];
      ]
      (Idb.Uniform [ "a" ])
  in
  check_nat "external constant satisfies" Nat.one
    (Count_val.uniform_naive q outside)

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)
(* ------------------------------------------------------------------ *)

let prop_dispatcher =
  QCheck.Test.make ~count:60 ~name:"dispatcher always agrees with brute force"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 1_000_000)
                    (QCheck.Gen.int_bound 3)))
    (fun (seed, qi) ->
      let query, schema =
        match qi with
        | 0 -> ("R(x,y)", [ ("R", 2) ])
        | 1 -> ("R(x,x)", [ ("R", 2) ])
        | 2 -> ("R(x), S(x)", [ ("R", 1); ("S", 1) ])
        | _ -> ("R(x), S(x,y), T(y)", [ ("R", 1); ("S", 2); ("T", 1) ])
      in
      let q = Cq.of_string query in
      let db =
        Gen.random_idb ~seed ~schema ~rows:2 ~codd:(seed mod 2 = 0)
          ~uniform:(seed mod 3 <> 0)
      in
      QCheck.assume (Gen.manageable db);
      let _, n = Count_val.count q db in
      Nat.equal n (brute q db))

let test_dispatcher_algorithms () =
  let check_algo query db expected =
    let algo, _ = Count_val.count (Cq.of_string query) db in
    Alcotest.(check string)
      ("algorithm for " ^ query)
      (Count_val.algorithm_to_string expected)
      (Count_val.algorithm_to_string algo)
  in
  let uniform_codd =
    Idb.make [ Idb.fact "R" [ Term.null "a"; Term.null "b" ] ]
      (Idb.Uniform [ "0"; "1" ])
  in
  check_algo "R(x,y)" uniform_codd Count_val.Product_of_domains;
  check_algo "R(x,x)" uniform_codd Count_val.Codd_per_atom;
  let naive =
    Idb.make
      [
        Idb.fact "R" [ Term.null "a" ];
        Idb.fact "S" [ Term.null "a" ];
        Idb.fact "S" [ Term.null "b" ];
      ]
      (Idb.Uniform [ "0"; "1" ])
  in
  check_algo "R(x), S(x)" naive Count_val.Uniform_block_dp;
  check_algo "R(x), S(x,y), T(y)" naive Count_val.Lineage_elimination

(* ------------------------------------------------------------------ *)
(* Observability probes must not change any count                      *)
(* ------------------------------------------------------------------ *)

(* Figure 1 instance: 6 valuations, 4 satisfying S(x,x), 3 satisfying
   completions.  Counts with tracing and metrics enabled must agree with
   the uninstrumented run, and the engine counters must have moved. *)
let test_instrumented_counts_agree () =
  let db =
    Idb.make
      [
        Idb.fact "S" [ Term.const "a"; Term.const "b" ];
        Idb.fact "S" [ Term.null "n1"; Term.const "a" ];
        Idb.fact "S" [ Term.const "a"; Term.null "n2" ];
      ]
      (Idb.Nonuniform [ ("n1", [ "a"; "b"; "c" ]); ("n2", [ "a"; "b" ]) ])
  in
  let q = Cq.of_string "S(x,x)" in
  Incdb_obs.Runtime.set_enabled false;
  let _, plain_val = Count_val.count q db in
  let _, plain_comp = Count_comp.count q db in
  check_nat "6 valuations" (Nat.of_int 6) (Idb.total_valuations db);
  check_nat "#Val baseline" (Nat.of_int 4) plain_val;
  check_nat "#Comp baseline" (Nat.of_int 3) plain_comp;
  Incdb_obs.Export.reset ();
  Incdb_obs.Runtime.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Incdb_obs.Runtime.set_enabled false)
    (fun () ->
      let _, traced_val = Count_val.count q db in
      let _, traced_comp = Count_comp.count q db in
      let traced_brute = brute q db in
      check_nat "instrumented #Val" plain_val traced_val;
      check_nat "instrumented #Comp" plain_comp traced_comp;
      check_nat "instrumented brute force" plain_val traced_brute;
      let counters = Incdb_obs.Metrics.counters_snapshot () in
      let counted name =
        match List.assoc_opt name counters with
        | Some n -> n
        | None -> Alcotest.failf "counter %s not registered" name
      in
      Alcotest.(check int)
        "brute force visited every valuation" 6
        (counted "valuations_visited");
      Alcotest.(check bool)
        "the #Comp elimination kernel ran" true
        (counted "comp_kernel.elim_dispatch" > 0))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_36_rxy;
        prop_36_two;
        prop_37_rxx;
        prop_37_rxx_sy;
        prop_37_rxyx;
        prop_37_disjoint;
        prop_39_rx_sx;
        prop_39_three;
        prop_39_two_groups;
        prop_39_wide;
        prop_39_mixed;
        prop_dispatcher;
      ]
  in
  Alcotest.run "count_val"
    [
      ( "thm-3.6",
        [
          Alcotest.test_case "empty relation" `Quick test_36_empty_relation;
          Alcotest.test_case "shape rejection" `Quick test_36_rejects;
        ] );
      ("thm-3.7", [ Alcotest.test_case "hand computed" `Quick test_37_example ]);
      ( "thm-3.9",
        [
          Alcotest.test_case "example 3.10" `Quick test_39_example_3_10;
          Alcotest.test_case "constant corner cases" `Quick test_39_fixed_cases;
        ] );
      ( "dispatch",
        [ Alcotest.test_case "algorithm selection" `Quick test_dispatcher_algorithms ] );
      ( "observability",
        [
          Alcotest.test_case "instrumented counts agree" `Quick
            test_instrumented_counts_agree;
        ] );
      ("properties", props);
    ]
