(* Cross-validation of the Theorem 4.6 completion counter against brute
   force, including the warm-up formulas B.6.1-B.6.5 of the appendix. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_core

let check_nat = Gen.check_nat

let brute q db = Brute.count_completions (Query.Bcq q) db
let brute_all db = Brute.count_all_completions db

(* ------------------------------------------------------------------ *)
(* Warm-up B.6.1: #Comp^u of a single unary relation, no constants     *)
(* ------------------------------------------------------------------ *)

let unary_db ?(rel = "R") ~dom ~consts ~nulls () =
  let facts =
    List.map (fun c -> Idb.fact rel [ Term.const c ]) consts
    @ List.init nulls (fun i ->
          Idb.fact rel [ Term.null (Printf.sprintf "%s%d" rel i) ])
  in
  Idb.make facts (Idb.Uniform dom)

let test_warmup_1 () =
  (* n_R nulls over domain of size d: sum_{1<=i<=n_R} C(d,i). *)
  let db = unary_db ~dom:[ "1"; "2"; "3"; "4"; "5" ] ~consts:[] ~nulls:3 () in
  let expected =
    Nat.sum (List.map (fun i -> Combinat.binomial 5 i) [ 1; 2; 3 ])
  in
  check_nat "Equation (3)" expected (Count_comp.uniform_unary db);
  check_nat "brute agrees" expected (brute_all db)

let test_warmup_2 () =
  (* c_R = 2 constants, n_R = 2 nulls, d = 5:
     sum_{0<=i<=2} C(d - c_R, i). *)
  let db =
    unary_db ~dom:[ "1"; "2"; "3"; "4"; "5" ] ~consts:[ "1"; "2" ] ~nulls:2 ()
  in
  let expected =
    Nat.sum (List.map (fun i -> Combinat.binomial 3 i) [ 0; 1; 2 ])
  in
  check_nat "Equation (4)" expected (Count_comp.uniform_unary db);
  check_nat "brute agrees" expected (brute_all db)

let test_empty_db () =
  let db = Idb.make [] (Idb.Uniform [ "1" ]) in
  check_nat "empty db has one completion" Nat.one (Count_comp.uniform_unary db)

(* ------------------------------------------------------------------ *)
(* Randomized cross-validation                                         *)
(* ------------------------------------------------------------------ *)

let prop_all_completions schema rows =
  QCheck.Test.make ~count:80
    ~name:
      (Printf.sprintf "#Comp^u (no query) = brute [%d unary relations]"
         (List.length schema))
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema ~rows ~codd:(seed mod 2 = 0) ~uniform:true
      in
      QCheck.assume (Gen.manageable db);
      Nat.equal (Count_comp.uniform_unary db) (brute_all db))

let prop_all_1rel = prop_all_completions [ ("R", 1) ] 4
let prop_all_2rel = prop_all_completions [ ("R", 1); ("S", 1) ] 3
let prop_all_3rel = prop_all_completions [ ("R", 1); ("S", 1); ("T", 1) ] 2

let prop_query_completions query schema rows =
  let q = Cq.of_string query in
  QCheck.Test.make ~count:80
    ~name:(Printf.sprintf "#Comp^u(%s) = brute" query)
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema ~rows ~codd:(seed mod 2 = 0) ~uniform:true
      in
      QCheck.assume (Gen.manageable db);
      Nat.equal (Count_comp.uniform_unary ~query:q db) (brute q db))

let prop_q_rx = prop_query_completions "R(x)" [ ("R", 1) ] 4
let prop_q_rx_sx = prop_query_completions "R(x), S(x)" [ ("R", 1); ("S", 1) ] 3
let prop_q_rx_sy = prop_query_completions "R(x), S(y)" [ ("R", 1); ("S", 1) ] 3

let prop_q_three =
  prop_query_completions "R(x), S(x), T(y)" [ ("R", 1); ("S", 1); ("T", 1) ] 2

(* ------------------------------------------------------------------ *)
(* The paper's closed forms as an independent reference                *)
(* ------------------------------------------------------------------ *)

let prop_closed_form_unary =
  QCheck.Test.make ~count:80 ~name:"Eq (3)/(4) closed form = Thm 4.6 algorithm"
    QCheck.(make (QCheck.Gen.triple (QCheck.Gen.int_range 1 8)
                    (QCheck.Gen.int_range 0 6) (QCheck.Gen.int_range 0 4)))
    (fun (d, n, c) ->
      QCheck.assume (c <= d);
      let db = unary_db ~dom:(List.init d string_of_int)
          ~consts:(List.init c string_of_int) ~nulls:n () in
      Nat.equal
        (Count_comp.uniform_unary db)
        (Closed_forms.comp_unary ~d ~n ~c))

(* Build the B.6.3 instance: nr nulls only in R, ns only in S, nrs shared
   (a naive table), no constants. *)
let two_rel_db ~d ~nr ~ns ~nrs =
  let facts =
    List.init nr (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "r%d" i) ])
    @ List.init ns (fun i -> Idb.fact "S" [ Term.null (Printf.sprintf "s%d" i) ])
    @ List.concat_map
        (fun i ->
          let n = Term.null (Printf.sprintf "rs%d" i) in
          [ Idb.fact "R" [ n ]; Idb.fact "S" [ n ] ])
        (List.init nrs Fun.id)
  in
  Idb.make facts (Idb.Uniform (List.init d string_of_int))

let prop_closed_form_two_unary =
  QCheck.Test.make ~count:60 ~name:"Eq (5) closed form = Thm 4.6 algorithm"
    QCheck.(make (QCheck.Gen.quad (QCheck.Gen.int_range 1 5)
                    (QCheck.Gen.int_range 0 3) (QCheck.Gen.int_range 0 3)
                    (QCheck.Gen.int_range 0 3)))
    (fun (d, nr, ns, nrs) ->
      let db = two_rel_db ~d ~nr ~ns ~nrs in
      Nat.equal (Count_comp.uniform_unary db)
        (Closed_forms.comp_two_unary_no_constants ~d ~nr ~ns ~nrs)
      &&
      let q = Cq.of_string "R(x), S(x)" in
      Nat.equal
        (Count_comp.uniform_unary ~query:q db)
        (Closed_forms.comp_two_unary_joint ~d ~nr ~ns ~nrs))

(* [d] ranges over [2, max_d] and the nulls per side over [0, max_nulls];
   one constant sits in R or in S. *)
let prop_closed_form_example_3_10 ~name ~count ~max_d ~max_nulls =
  QCheck.Test.make ~count ~name
    QCheck.(make (QCheck.Gen.quad (QCheck.Gen.int_range 2 max_d)
                    (QCheck.Gen.int_range 0 max_nulls)
                    (QCheck.Gen.int_range 0 max_nulls)
                    (QCheck.Gen.int_range 0 1)))
    (fun (d, nr, ns, cr) ->
      let cs = 1 - cr in
      QCheck.assume (cr + cs <= d);
      (* constants "0" for R (if cr=1), "1" for S (if cs=1) *)
      let facts =
        (if cr = 1 then [ Idb.fact "R" [ Term.const "0" ] ] else [])
        @ (if cs = 1 then [ Idb.fact "S" [ Term.const "1" ] ] else [])
        @ List.init nr (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "r%d" i) ])
        @ List.init ns (fun i -> Idb.fact "S" [ Term.null (Printf.sprintf "s%d" i) ])
      in
      let db = Idb.make facts (Idb.Uniform (List.init d string_of_int)) in
      let q = Cq.of_string "R(x), S(x)" in
      Nat.equal
        (Incdb_core.Count_val.uniform_naive q db)
        (Closed_forms.example_3_10 ~d ~nr ~cr ~ns ~cs))

let prop_example_3_10_small =
  prop_closed_form_example_3_10 ~name:"Example 3.10 closed form = Thm 3.9"
    ~count:60 ~max_d:6 ~max_nulls:3

(* Up to 39 plain values against at most 30 nulls: a group can outnumber
   the nulls, so its sum runs j up to N. *)
let prop_example_3_10_large =
  prop_closed_form_example_3_10
    ~name:"Example 3.10 closed form = Thm 3.9, large groups" ~count:20
    ~max_d:40 ~max_nulls:15

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)
(* ------------------------------------------------------------------ *)

let prop_dispatcher =
  QCheck.Test.make ~count:50 ~name:"#Comp dispatcher agrees with brute force"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 1_000_000)
                    (QCheck.Gen.int_bound 2)))
    (fun (seed, qi) ->
      let query, schema =
        match qi with
        | 0 -> ("R(x)", [ ("R", 1) ])
        | 1 -> ("R(x,y)", [ ("R", 2) ])
        | _ -> ("R(x), S(x)", [ ("R", 1); ("S", 1) ])
      in
      let q = Cq.of_string query in
      let db =
        Gen.random_idb ~seed ~schema ~rows:2 ~codd:(seed mod 2 = 0)
          ~uniform:(seed mod 3 <> 0)
      in
      QCheck.assume (Gen.manageable db);
      let _, n = Count_comp.count q db in
      Nat.equal n (brute q db))

let test_dispatcher_algorithms () =
  let uniform_unary_db =
    Idb.make [ Idb.fact "R" [ Term.null "n" ] ] (Idb.Uniform [ "0"; "1" ])
  in
  let algo, _ = Count_comp.count (Cq.of_string "R(x)") uniform_unary_db in
  Alcotest.(check string) "uniform unary uses Thm 4.6"
    (Count_comp.algorithm_to_string Count_comp.Uniform_unary)
    (Count_comp.algorithm_to_string algo);
  let nonuniform =
    Idb.make [ Idb.fact "R" [ Term.null "n" ] ]
      (Idb.Nonuniform [ ("n", [ "0"; "1" ]) ])
  in
  let algo2, _ = Count_comp.count (Cq.of_string "R(x)") nonuniform in
  Alcotest.(check string) "non-uniform Codd routes to lineage elimination"
    (Count_comp.algorithm_to_string Count_comp.Lineage_elimination)
    (Count_comp.algorithm_to_string algo2);
  let algo2_off, _ =
    Count_comp.count ~comp_elim:Comp_kernel.Off (Cq.of_string "R(x)") nonuniform
  in
  Alcotest.(check string) "with the kernel off it enumerates candidates"
    (Count_comp.algorithm_to_string Count_comp.Candidate_enumeration)
    (Count_comp.algorithm_to_string algo2_off);
  (* 17 nulls over one 20-value domain: the kernel declines on width,
     and the enumerator (20 candidates) answers.  Every non-empty set of
     at most 17 values is a completion. *)
  let values = List.init 20 string_of_int in
  let crowded =
    Idb.make
      (List.init 17 (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "n%d" i) ]))
      (Idb.Nonuniform (List.init 17 (fun i -> (Printf.sprintf "n%d" i, values))))
  in
  let algo5, n5 = Count_comp.count (Cq.of_string "R(x)") crowded in
  Alcotest.(check string) "17 nulls over 20 values route to candidate enumeration"
    (Count_comp.algorithm_to_string Count_comp.Candidate_enumeration)
    (Count_comp.algorithm_to_string algo5);
  check_nat "crowded count"
    (Nat.sum (List.init 17 (fun k -> Combinat.binomial 20 (k + 1))))
    n5;
  (* A naive table is now picked up by the elimination kernel (it used
     to be the brute-force cliff)... *)
  let naive_wide =
    Idb.make
      [
        Idb.fact "R" [ Term.null "n"; Term.null "m" ];
        Idb.fact "S" [ Term.null "n" ];
      ]
      (Idb.Nonuniform [ ("n", [ "0"; "1" ]); ("m", [ "0"; "1" ]) ])
  in
  let q3 = Cq.of_string "R(x,y), S(x)" in
  let algo3, n3 = Count_comp.count q3 naive_wide in
  Alcotest.(check string) "naive routes to lineage elimination"
    (Count_comp.algorithm_to_string Count_comp.Lineage_elimination)
    (Count_comp.algorithm_to_string algo3);
  check_nat "elimination count matches brute" (brute q3 naive_wide) n3;
  (* ... unless the elimination arm is off, which restores the cliff. *)
  let algo4, _ =
    Count_comp.count ~comp_elim:Comp_kernel.Off q3 naive_wide
  in
  Alcotest.(check string) "naive with --comp-elim off falls back to brute force"
    (Count_comp.algorithm_to_string Count_comp.Brute_force)
    (Count_comp.algorithm_to_string algo4)

(* ------------------------------------------------------------------ *)
(* Hand-checked small cases                                            *)
(* ------------------------------------------------------------------ *)

let test_hand_case_upgrade () =
  (* R(c), S(n) with uniform dom {c, e}: completions are
     {R(c), S(c)} and {R(c), S(e)}: the constant c can be "upgraded" into
     class {R,S}. *)
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.const "c" ]; Idb.fact "S" [ Term.null "n" ] ]
      (Idb.Uniform [ "c"; "e" ])
  in
  check_nat "two completions" (Nat.of_int 2) (Count_comp.uniform_unary db);
  check_nat "brute agrees" (Nat.of_int 2) (brute_all db);
  (* Of these, exactly one satisfies R(x) ∧ S(x). *)
  let q = Cq.of_string "R(x), S(x)" in
  check_nat "one satisfying" Nat.one (Count_comp.uniform_unary ~query:q db);
  check_nat "brute agrees (query)" Nat.one (brute q db)

let test_hand_case_shared_null () =
  (* A naive (non-Codd) table: the same null in R and S.
     R(n), S(n), dom {0,1}: completions {R(0),S(0)} and {R(1),S(1)}. *)
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "n" ]; Idb.fact "S" [ Term.null "n" ] ]
      (Idb.Uniform [ "0"; "1" ])
  in
  check_nat "two completions" (Nat.of_int 2) (Count_comp.uniform_unary db);
  (* Both satisfy R(x) ∧ S(x). *)
  let q = Cq.of_string "R(x), S(x)" in
  check_nat "both satisfying" (Nat.of_int 2)
    (Count_comp.uniform_unary ~query:q db);
  (* And R(x) ∧ S(y) likewise. *)
  let q2 = Cq.of_string "R(x), S(y)" in
  check_nat "rx-sy satisfying" (Nat.of_int 2)
    (Count_comp.uniform_unary ~query:q2 db)

let test_query_relation_missing () =
  (* The query mentions T but the table has no T-facts: no completion can
     satisfy it. *)
  let db =
    Idb.make [ Idb.fact "R" [ Term.null "n" ] ] (Idb.Uniform [ "0"; "1" ])
  in
  let q = Cq.of_string "R(x), T(x)" in
  check_nat "unsatisfiable query" Nat.zero (Count_comp.uniform_unary ~query:q db);
  check_nat "brute agrees" Nat.zero (brute q db)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_all_1rel;
        prop_all_2rel;
        prop_all_3rel;
        prop_q_rx;
        prop_q_rx_sx;
        prop_q_rx_sy;
        prop_q_three;
        prop_dispatcher;
        prop_closed_form_unary;
        prop_closed_form_two_unary;
        prop_example_3_10_small;
        prop_example_3_10_large;
      ]
  in
  Alcotest.run "count_comp"
    [
      ( "warmups",
        [
          Alcotest.test_case "B.6.1 no constants" `Quick test_warmup_1;
          Alcotest.test_case "B.6.2 with constants" `Quick test_warmup_2;
          Alcotest.test_case "empty db" `Quick test_empty_db;
        ] );
      ( "hand cases",
        [
          Alcotest.test_case "constant upgrade" `Quick test_hand_case_upgrade;
          Alcotest.test_case "shared null" `Quick test_hand_case_shared_null;
          Alcotest.test_case "missing relation" `Quick test_query_relation_missing;
        ] );
      ( "dispatch",
        [ Alcotest.test_case "algorithm selection" `Quick test_dispatcher_algorithms ] );
      ("properties", props);
    ]
