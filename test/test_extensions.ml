(* Tests for the extension modules: bounded minimal models (Prop 5.2),
   inequality queries (footnote 4), the zero-one law measure (Section 7),
   candidate-space completion counting (Prop B.1), answer support
   (Sections 7-8), bag semantics (Section 8), and the .idb text format. *)

open Incdb_bignum
open Incdb_relational
open Incdb_cq
open Incdb_incomplete
open Incdb_core

let check_nat = Gen.check_nat

let qn = Alcotest.testable Qnum.pp Qnum.equal

(* ------------------------------------------------------------------ *)
(* Minimal models                                                      *)
(* ------------------------------------------------------------------ *)

let test_minimal_models_basic () =
  let db =
    Cdb.of_list
      [
        Cdb.fact "R" [ "a" ];
        Cdb.fact "R" [ "b" ];
        Cdb.fact "S" [ "a" ];
      ]
  in
  let q = Query.Bcq (Cq.of_string "R(x), S(x)") in
  let models = Minimal_models.minimal_models q db in
  Alcotest.(check int) "one minimal model" 1 (List.length models);
  let m = List.hd models in
  Alcotest.(check int) "two facts" 2 (Cdb.cardinal m);
  Alcotest.(check bool) "validated" true (Minimal_models.is_minimal_model q db m);
  Alcotest.(check (option int)) "bound" (Some 2) (Minimal_models.bound q);
  Alcotest.(check (option int)) "no bound under negation" None
    (Minimal_models.bound (Query.Not q))

let prop_minimal_models =
  QCheck.Test.make ~count:60 ~name:"minimal models are minimal and bounded"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let idb =
        Gen.random_idb ~seed ~schema:[ ("R", 1); ("S", 2) ] ~rows:3 ~codd:true
          ~uniform:true
      in
      (* Take one concrete completion as the complete database. *)
      let v =
        List.map (fun n -> (n, List.hd (Idb.domain_of idb n))) (Idb.nulls idb)
      in
      let db = Idb.apply idb v in
      let q = Query.Bcq (Cq.of_string "R(x), S(x,y)") in
      let models = Minimal_models.minimal_models q db in
      let bound = Option.get (Minimal_models.bound q) in
      List.for_all
        (fun m ->
          Minimal_models.is_minimal_model q db m && Cdb.cardinal m <= bound)
        models
      && (Query.eval q db = (models <> [])))

(* ------------------------------------------------------------------ *)
(* Inequality queries                                                  *)
(* ------------------------------------------------------------------ *)

let test_neq_eval () =
  let db = Cdb.of_list [ Cdb.fact "R" [ "a"; "a" ] ] in
  let q_eq = Query.Bcq (Cq.of_string "R(x,y)") in
  let q_neq = Query.Bcq_neq (Cq.of_string "R(x,y)", [ ("x", "y") ]) in
  Alcotest.(check bool) "plain holds" true (Query.eval q_eq db);
  Alcotest.(check bool) "neq fails on diagonal" false (Query.eval q_neq db);
  let db2 = Cdb.of_list [ Cdb.fact "R" [ "a"; "b" ] ] in
  Alcotest.(check bool) "neq holds off-diagonal" true (Query.eval q_neq db2);
  Alcotest.(check bool) "still monotone" true (Query.is_monotone q_neq)

let prop_neq_events =
  QCheck.Test.make ~count:50
    ~name:"KL events handle inequalities (I-E = brute)"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 2) ] ~rows:2 ~codd:(seed mod 2 = 0)
          ~uniform:true
      in
      let q = Query.Bcq_neq (Cq.of_string "R(x,y)", [ ("x", "y") ]) in
      QCheck.assume (Gen.manageable db);
      QCheck.assume
        (List.length (Incdb_approx.Karp_luby.events q db) <= 18);
      Nat.equal
        (Incdb_approx.Karp_luby.exact_via_events q db)
        (Brute.count_valuations q db))

let test_neq_estimator () =
  (* Off-diagonal matches: a non-trivial instance with exact answer
     total - (diagonal only) computable by brute force. *)
  let db =
    Idb.make
      (List.init 4 (fun i ->
           Idb.fact "R"
             [ Term.null (Printf.sprintf "a%d" i);
               Term.null (Printf.sprintf "b%d" i) ]))
      (Idb.Uniform [ "0"; "1"; "2" ])
  in
  let q = Query.Bcq_neq (Cq.of_string "R(x,y)", [ ("x", "y") ]) in
  let exact = Brute.count_valuations q db in
  let est = Incdb_approx.Karp_luby.estimate ~seed:3 ~samples:20_000 q db in
  let rel = abs_float (est -. Nat.to_float exact) /. Nat.to_float exact in
  Alcotest.(check bool) "estimator within 5%" true (rel < 0.05)

(* ------------------------------------------------------------------ *)
(* Zero-one law                                                        *)
(* ------------------------------------------------------------------ *)

let test_mu_diagonal () =
  (* For T = {R(n1, n2)} and q = R(x,x): mu_k = 1/k -> 0. *)
  let facts = [ Idb.fact "R" [ Term.null "n1"; Term.null "n2" ] ] in
  let q = Cq.of_string "R(x,x)" in
  List.iter
    (fun k ->
      Alcotest.check qn
        (Printf.sprintf "mu_%d = 1/%d" k k)
        (Qnum.of_ints 1 k)
        (Zero_one.mu q facts ~k))
    [ 1; 2; 3; 5; 8 ]

let test_mu_tends_to_one () =
  (* q = R(x,y) on a non-empty binary table is satisfied always: mu = 1. *)
  let facts = [ Idb.fact "R" [ Term.null "n1"; Term.null "n2" ] ] in
  let q = Cq.of_string "R(x,y)" in
  Alcotest.check qn "mu_4 = 1" Qnum.one (Zero_one.mu q facts ~k:4);
  (* q = R(x), S(x) on single-null unary tables: mu_k = 1/k -> 0. *)
  let facts2 = [ Idb.fact "R" [ Term.null "a" ]; Idb.fact "S" [ Term.null "b" ] ] in
  let q2 = Cq.of_string "R(x), S(x)" in
  Alcotest.check qn "mu_5 = 1/5" (Qnum.of_ints 1 5) (Zero_one.mu q2 facts2 ~k:5)

let test_mu_scan_monotone_query () =
  let facts =
    [ Idb.fact "R" [ Term.null "a" ]; Idb.fact "S" [ Term.null "b" ] ]
  in
  let q = Cq.of_string "R(x), S(x)" in
  let scan = Zero_one.scan q facts ~kmax:6 in
  Alcotest.(check int) "six points" 6 (List.length scan);
  (* decreasing toward 0 *)
  let values = List.map snd scan in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> Qnum.compare b a <= 0 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "decreasing" true (decreasing values)

let test_mu_completions () =
  (* Example 2.2 flavored: distinct completions vs valuations differ. *)
  let facts =
    [
      Idb.fact "S" [ Term.const "1"; Term.null "n1" ];
      Idb.fact "S" [ Term.null "n2"; Term.const "1" ];
    ]
  in
  let q = Cq.of_string "S(x,x)" in
  let v = Zero_one.mu q facts ~k:2 in
  let c = Zero_one.mu_completions q facts ~k:2 in
  Alcotest.(check bool) "both defined in [0,1]" true
    (Qnum.compare v Qnum.zero >= 0 && Qnum.compare c Qnum.one <= 0)

(* ------------------------------------------------------------------ *)
(* Symbolic-domain counting                                            *)
(* ------------------------------------------------------------------ *)

let prop_symbolic_matches_explicit ~name query schema =
  QCheck.Test.make ~count:60 ~name
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 1_000_000)
                    (QCheck.Gen.int_range 1 6)))
    (fun (seed, d) ->
      (* Constants drawn from a..e; the explicit domain must be disjoint
         from them to match the symbolic convention. *)
      let db0 =
        Gen.random_idb ~seed ~schema ~rows:2 ~codd:(seed mod 2 = 0)
          ~uniform:true
      in
      let facts = Idb.facts db0 in
      let dom = List.init d (fun i -> Printf.sprintf "z%d" i) in
      let db = Idb.make facts (Idb.Uniform dom) in
      let q = Cq.of_string query in
      Nat.equal
        (Count_val.uniform_symbolic q facts ~domain_size:d)
        (Count_val.uniform_naive q db))

let prop_symbolic_one_group =
  prop_symbolic_matches_explicit
    ~name:"matrix-power #Val^u = explicit-domain algorithm"
    "R(x), S(x), T(u,v)" [ ("R", 1); ("S", 1); ("T", 2) ]

(* Two basic singletons: four signed Lemma A.13 terms. *)
let prop_symbolic_two_groups =
  prop_symbolic_matches_explicit
    ~name:"matrix-power #Val^u = explicit-domain algorithm, two singletons"
    "R(x), S(x), T(y), U(y)" [ ("R", 1); ("S", 1); ("T", 1); ("U", 1) ]

let test_symbolic_closed_form () =
  (* q = R(x) ∧ S(x) with 2 R-nulls and 1 S-null over a symbolic domain
     of size d: #Val = d^3 - d (d-1)^2, checked at d = 10^6. *)
  let facts =
    [
      Idb.fact "R" [ Term.null "r1" ];
      Idb.fact "R" [ Term.null "r2" ];
      Idb.fact "S" [ Term.null "s1" ];
    ]
  in
  let q = Cq.of_string "R(x), S(x)" in
  let d = 1_000_000 in
  let dn = Nat.of_int d in
  let expected =
    Nat.sub (Nat.pow dn 3) (Nat.mul dn (Nat.pow (Nat.of_int (d - 1)) 2))
  in
  Gen.check_nat "closed form at d = 10^6" expected
    (Count_val.uniform_symbolic q facts ~domain_size:d);
  (* And mu at k = 10^9 is exact. *)
  let mu = Zero_one.mu_symbolic q facts ~k:1_000_000_000 in
  let k = Zint.of_int 1_000_000_000 in
  let expected_mu =
    (* (k^3 - k(k-1)^2) / k^3 = (2k - 1) / k^2 *)
    Qnum.make
      (Zint.sub (Zint.mul (Zint.of_int 2) k) Zint.one)
      (Zint.mul k k)
  in
  Alcotest.check qn "mu at k = 10^9" expected_mu mu

let test_symbolic_example_3_10 () =
  (* Example 3.10 without constants: 20 R-nulls and 20 S-nulls over a
     symbolic domain of d = 10^9 values.  A valuation falsifies q when
     the R-nulls cover some m' values and the S-nulls avoid all of them:
     #Val = d^40 - sum_{m' <= 20} C(d, m') surj(20, m') (d - m')^20. *)
  let nulls rel =
    List.init 20 (fun i ->
        Idb.fact rel [ Term.null (Printf.sprintf "%s%d" rel i) ])
  in
  let facts = nulls "R" @ nulls "S" in
  let q = Cq.of_string "R(x), S(x)" in
  let d = 1_000_000_000 in
  let bad = ref Nat.zero in
  for m' = 0 to 20 do
    let term =
      Nat.mul
        (Nat.mul (Combinat.binomial d m') (Combinat.surj 20 m'))
        (Combinat.power (d - m') 20)
    in
    bad := Nat.add !bad term
  done;
  let expected = Nat.sub (Combinat.power d 40) !bad in
  Gen.check_nat "20 + 20 nulls at d = 10^9" expected
    (Count_val.uniform_symbolic q facts ~domain_size:d)

let prop_symbolic_comp =
  QCheck.Test.make ~count:50
    ~name:"symbolic-domain #Comp^u = explicit-domain algorithm"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 1_000_000)
                    (QCheck.Gen.int_range 1 6)))
    (fun (seed, d) ->
      let db0 =
        Gen.random_idb ~seed ~schema:[ ("R", 1); ("S", 1) ] ~rows:3
          ~codd:(seed mod 2 = 0) ~uniform:true
      in
      let facts = Idb.facts db0 in
      let dom = List.init d (fun i -> Printf.sprintf "z%d" i) in
      let db = Idb.make facts (Idb.Uniform dom) in
      let q = Cq.of_string "R(x), S(x)" in
      Nat.equal
        (Count_comp.uniform_symbolic facts ~domain_size:d)
        (Count_comp.uniform_unary db)
      && Nat.equal
           (Count_comp.uniform_symbolic ~query:q facts ~domain_size:d)
           (Count_comp.uniform_unary ~query:q db))

let test_symbolic_comp_huge () =
  (* Equation (3) at d = 10^9 with 3 nulls: sum_{1<=i<=3} C(d, i). *)
  let facts =
    List.init 3 (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "n%d" i) ])
  in
  let d = 1_000_000_000 in
  let expected =
    Nat.sum (List.map (fun i -> Combinat.binomial d i) [ 1; 2; 3 ])
  in
  Gen.check_nat "Eq (3) at a billion values" expected
    (Count_comp.uniform_symbolic facts ~domain_size:d)

let test_symbolic_rejects () =
  Alcotest.check_raises "hard pattern rejected"
    (Invalid_argument "Count_val.uniform_symbolic: query contains a hard pattern")
    (fun () ->
      ignore
        (Count_val.uniform_symbolic (Cq.of_string "R(x,x)")
           [ Idb.fact "R" [ Term.null "a"; Term.null "b" ] ]
           ~domain_size:3))

(* ------------------------------------------------------------------ *)
(* Candidate-space completion counting                                 *)
(* ------------------------------------------------------------------ *)

let prop_comp_candidates =
  QCheck.Test.make ~count:60 ~name:"candidate enumeration = brute force"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 1); ("S", 1) ] ~rows:3 ~codd:true
          ~uniform:(seed mod 2 = 0)
      in
      QCheck.assume (Gen.manageable db);
      QCheck.assume (List.length (Comp_candidates.candidate_facts db) <= 14);
      Nat.equal (Comp_candidates.count db) (Brute.count_all_completions db)
      &&
      let q = Query.Bcq (Cq.of_string "R(x), S(x)") in
      Nat.equal
        (Comp_candidates.count ~query:q db)
        (Brute.count_completions q db))

let test_comp_candidates_beats_brute () =
  (* 30 unary nulls over {0,1}: 2^30 valuations but only 2 candidates. *)
  let db =
    Idb.make
      (List.init 30 (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "n%d" i) ]))
      (Idb.Uniform [ "0"; "1" ])
  in
  Alcotest.(check int) "tiny candidate universe" 2
    (List.length (Comp_candidates.candidate_facts db));
  (* completions: {0}, {1}, {0,1} *)
  check_nat "three completions" (Nat.of_int 3) (Comp_candidates.count db);
  (* and the Theorem 4.6 algorithm agrees *)
  check_nat "Thm 4.6 agrees" (Nat.of_int 3) (Count_comp.uniform_unary db)

let test_comp_candidates_rejects_naive () =
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "n" ]; Idb.fact "S" [ Term.null "n" ] ]
      (Idb.Uniform [ "0" ])
  in
  Alcotest.check_raises "naive rejected"
    (Invalid_argument "Comp_candidates.count: requires a Codd table")
    (fun () -> ignore (Comp_candidates.count db))

(* ------------------------------------------------------------------ *)
(* Bounds for #Comp (Section 8 under-approximation)                    *)
(* ------------------------------------------------------------------ *)

let prop_comp_bounds_sound =
  QCheck.Test.make ~count:60 ~name:"lower <= #Comp <= upper"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 2); ("S", 1) ] ~rows:2
          ~codd:(seed mod 2 = 0) ~uniform:(seed mod 3 = 0)
      in
      QCheck.assume (Gen.manageable db);
      let q = Cq.of_string "R(x,y), S(y)" in
      let exact = Brute.count_completions (Query.Bcq q) db in
      let b = Comp_bounds.bounds ~seed:7 ~samples:200 q db in
      Nat.compare b.Comp_bounds.lower exact <= 0
      && Nat.compare exact b.Comp_bounds.upper <= 0)

let test_comp_bounds_meet () =
  (* On a tiny instance enough sampling witnesses every completion and
     the upper bound is the tractable #Val, so both bounds meet at the
     brute-force count. *)
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "n" ] ]
      (Idb.Uniform [ "0"; "1"; "2" ])
  in
  let q = Cq.of_string "R(x)" in
  let exact = Brute.count_completions (Query.Bcq q) db in
  let b = Comp_bounds.bounds ~seed:3 ~samples:500 q db in
  Gen.check_nat "lower meets the exact value" exact b.Comp_bounds.lower;
  Gen.check_nat "upper meets the exact value" exact b.Comp_bounds.upper;
  (* Unsatisfiable query: both bounds are zero. *)
  let q2 = Cq.of_string "R(x), S(x)" in
  let b = Comp_bounds.bounds ~seed:3 ~samples:50 q2 db in
  Gen.check_nat "lower zero" Nat.zero b.Comp_bounds.lower;
  Gen.check_nat "upper zero" Nat.zero b.Comp_bounds.upper

(* ------------------------------------------------------------------ *)
(* Answer support                                                      *)
(* ------------------------------------------------------------------ *)

let answers_db () =
  (* Office(p,c): ada in berlin; grace in berlin or paris. *)
  Idb.make
    [
      Idb.fact_of_strings "Office" [ "ada"; "berlin" ];
      Idb.fact_of_strings "Office" [ "grace"; "?gc" ];
    ]
    (Idb.Nonuniform [ ("gc", [ "berlin"; "paris" ]) ])

let test_answer_tuples () =
  let db =
    Cdb.of_list [ Cdb.fact "Office" [ "ada"; "berlin" ]; Cdb.fact "Office" [ "bob"; "paris" ] ]
  in
  let q = Cq.of_string "Office(p, c)" in
  Alcotest.(check (list (list string)))
    "projection to p"
    [ [ "ada" ]; [ "bob" ] ]
    (Answers.answer_tuples q ~free:[ "p" ] db);
  Alcotest.check_raises "bad free var"
    (Invalid_argument "Answers: z is not a variable of the query") (fun () ->
      ignore (Answers.answer_tuples q ~free:[ "z" ] db))

let test_supports () =
  let db = answers_db () in
  let q = Cq.of_string "Office(p, c)" in
  let supports = Answers.supports q ~free:[ "c" ] db in
  (* berlin answered in both worlds; paris only when gc = paris. *)
  let find city =
    List.find (fun (s : Answers.support) -> s.tuple = [ city ]) supports
  in
  check_nat "berlin support 2" (Nat.of_int 2) (find "berlin").Answers.count;
  check_nat "paris support 1" (Nat.of_int 1) (find "paris").Answers.count;
  (* sorted descending *)
  (match supports with
  | first :: _ -> Alcotest.(check (list string)) "top is berlin" [ "berlin" ] first.Answers.tuple
  | [] -> Alcotest.fail "no supports")

let test_best_and_certain () =
  let db = answers_db () in
  let q = Cq.of_string "Office(p, c)" in
  Alcotest.(check (list (list string)))
    "best answer is berlin"
    [ [ "berlin" ] ]
    (Answers.best_answers q ~free:[ "c" ] db);
  Alcotest.(check (list (list string)))
    "certain answer is berlin"
    [ [ "berlin" ] ]
    (Answers.certain_answers q ~free:[ "c" ] db);
  (* On the person column both are certain. *)
  Alcotest.(check (list (list string)))
    "both people certain"
    [ [ "ada" ]; [ "grace" ] ]
    (Answers.certain_answers q ~free:[ "p" ] db)

(* ------------------------------------------------------------------ *)
(* Bag semantics                                                       *)
(* ------------------------------------------------------------------ *)

let test_bag_semantics () =
  (* Example 2.1: S(n1,n1), S(a,n2): under set semantics the valuation
     n1=a, n2=a collapses to one fact; under bags it keeps two. *)
  let db =
    Idb.make
      [
        Idb.fact "S" [ Term.null "1"; Term.null "1" ];
        Idb.fact "S" [ Term.const "a"; Term.null "2" ];
      ]
      (Idb.Nonuniform [ ("1", [ "a"; "b" ]); ("2", [ "a"; "c" ]) ])
  in
  let set_count = Brute.count_all_completions db in
  let bag_count = Brute.count_all_completions_bag db in
  let total = Idb.total_valuations db in
  Alcotest.(check bool) "set <= bag" true (Nat.compare set_count bag_count <= 0);
  Alcotest.(check bool) "bag <= total" true (Nat.compare bag_count total <= 0);
  (* Here all 4 valuations give distinct bags. *)
  check_nat "four bag completions" (Nat.of_int 4) bag_count;
  check_nat "four set completions too" (Nat.of_int 4) set_count

let prop_bag_bounds =
  QCheck.Test.make ~count:50 ~name:"#Comp <= #Comp_bag <= total valuations"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 2) ] ~rows:3 ~codd:(seed mod 2 = 0)
          ~uniform:true
      in
      QCheck.assume (Gen.manageable db);
      let set_c = Brute.count_all_completions db in
      let bag_c = Brute.count_all_completions_bag db in
      Nat.compare set_c bag_c <= 0
      && Nat.compare bag_c (Idb.total_valuations db) <= 0)

(* ------------------------------------------------------------------ *)
(* The .idb text format                                                *)
(* ------------------------------------------------------------------ *)

let test_parser_roundtrip () =
  let db =
    Idb.make
      [
        Idb.fact_of_strings "S" [ "a"; "b" ];
        Idb.fact_of_strings "S" [ "?n1"; "a" ];
        Idb.fact_of_strings "R" [ "?n2" ];
      ]
      (Idb.Nonuniform [ ("n1", [ "a"; "b"; "c" ]); ("n2", [ "a" ]) ])
  in
  let reparsed = Idb_parser.of_string (Idb_parser.to_string db) in
  Alcotest.(check (list string)) "same nulls" (Idb.nulls db) (Idb.nulls reparsed);
  Alcotest.(check int) "same fact count"
    (List.length (Idb.facts db))
    (List.length (Idb.facts reparsed));
  Gen.check_nat "same valuation count" (Idb.total_valuations db)
    (Idb.total_valuations reparsed)

let test_parser_uniform_and_comments () =
  let db =
    Idb_parser.of_string
      "# a uniform database\ndom 0 1  # the shared domain\nR(?x, ?y)\n\nR(0, 1)\n"
  in
  Alcotest.(check bool) "uniform" true (Idb.is_uniform db);
  Alcotest.(check int) "two facts" 2 (List.length (Idb.facts db));
  Gen.check_nat "four valuations" (Nat.of_int 4) (Idb.total_valuations db)

let test_parser_errors () =
  let fails s =
    match Idb_parser.of_string s with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "mixed domains" true
    (fails "dom 0 1\ndom ?x 2 3\nR(?x)");
  Alcotest.(check bool) "duplicate uniform" true (fails "dom 0\ndom 1\n");
  Alcotest.(check bool) "missing null domain" true (fails "R(?x)\n");
  Alcotest.(check bool) "bad fact" true (fails "dom 0\nR(x\n");
  Alcotest.(check bool) "empty arg" true (fails "dom 0\nR(a,)\n")

(* ------------------------------------------------------------------ *)
(* Domain polynomials (the fixed-table structure behind Section 8)     *)
(* ------------------------------------------------------------------ *)

let test_domain_polynomial_open_case () =
  (* The open #Val^u_Cd query R(x,y) ∧ S(x,y) on a fixed Codd table:
     interpolate from small domains, predict beyond the sample, verify
     against brute force, then evaluate at d = 10^6. *)
  let q = Cq.of_string "R(x,y), S(x,y)" in
  let facts =
    [
      Idb.fact "R" [ Term.null "a"; Term.null "b" ];
      Idb.fact "S" [ Term.null "c"; Term.null "d" ];
    ]
  in
  let p = Domain_polynomial.interpolate q facts in
  Alcotest.(check bool) "degree at most N" true (Domain_polynomial.degree p <= 4);
  List.iter
    (fun d ->
      let predicted = Domain_polynomial.eval p ~d in
      let dom = List.init d (fun i -> Printf.sprintf "Â§%d" i) in
      let brute =
        Brute.count_valuations (Query.Bcq q)
          (Idb.make facts (Idb.Uniform dom))
      in
      Gen.check_nat (Printf.sprintf "prediction at d=%d" d) brute predicted)
    [ 6; 7; 8 ];
  (* The valuation satisfies q iff both tuples coincide: d^2 matches out
     of d^4, so the polynomial must be d^2 exactly... times nothing else:
     #Val = d^2. *)
  Gen.check_nat "closed form at 10^6"
    (Nat.pow (Nat.of_int 1_000_000) 2)
    (Domain_polynomial.eval p ~d:1_000_000)

let prop_domain_polynomial =
  QCheck.Test.make ~count:20 ~name:"interpolated polynomial predicts brute"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 1_000_000)
                    (QCheck.Gen.int_range 1 1_000_000)))
    (fun (qseed, dseed) ->
      let q = Gen.random_sjfbcq ~seed:qseed in
      let db0 =
        Gen.random_idb ~seed:dseed ~schema:(Gen.schema_of_query q) ~rows:1
          ~codd:(dseed mod 2 = 0) ~uniform:true
      in
      let facts = Idb.facts db0 in
      let n =
        List.length (Idb.nulls db0)
      in
      QCheck.assume (n >= 1 && n <= 4);
      let p = Domain_polynomial.interpolate q facts in
      let d = n + 3 in
      let dom = List.init d (fun i -> Printf.sprintf "Â§%d" i) in
      let brute =
        Brute.count_valuations (Query.Bcq q) (Idb.make facts (Idb.Uniform dom))
      in
      Nat.equal (Domain_polynomial.eval p ~d) brute)

(* ------------------------------------------------------------------ *)
(* The shipped .idb corpus                                             *)
(* ------------------------------------------------------------------ *)

let testdata name =
  (* dune runtest runs in _build/default/test; dune exec runs from the
     workspace root — probe both. *)
  let candidates =
    [
      Filename.concat "testdata" name;
      Filename.concat "../testdata" name;
      Filename.concat "../../../testdata" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate testdata file " ^ name)

let test_corpus_files () =
  (* dune runs tests in _build/default/test; the corpus lives in the
     source tree, which dune mirrors into _build. *)
  let load name = Idb_parser.of_file (testdata name) in
  let fig1 = load "figure1.idb" in
  Gen.check_nat "figure1 #Val" (Nat.of_int 4)
    (Brute.count_valuations (Query.Bcq (Cq.of_string "S(x,x)")) fig1);
  Gen.check_nat "figure1 #Comp" (Nat.of_int 3)
    (Brute.count_completions (Query.Bcq (Cq.of_string "S(x,x)")) fig1);
  let census = load "census.idb" in
  Gen.check_nat "census support" (Nat.of_int 28)
    (Brute.count_valuations
       (Query.Bcq (Cq.of_string "Office(p,c), Site(c)"))
       census);
  let network = load "network.idb" in
  Gen.check_nat "network reliability" (Nat.of_int 4)
    (Brute.count_valuations
       (Incdb_datalog.Datalog.reachability ~from:"s" ~to_:"t")
       network);
  let pair = load "uniform_pair.idb" in
  Alcotest.(check bool) "uniform naive" true
    (Idb.is_uniform pair && not (Idb.is_codd pair));
  let _, c = Count_comp.count (Cq.of_string "R(x), S(x)") pair in
  Gen.check_nat "pair satisfying completions"
    (Brute.count_completions (Query.Bcq (Cq.of_string "R(x), S(x)")) pair)
    c

let test_estimator_ci () =
  let db =
    Idb.make
      (List.init 6 (fun i ->
           Idb.fact "R"
             [ Term.null (Printf.sprintf "a%d" i);
               Term.null (Printf.sprintf "b%d" i) ]))
      (Idb.Uniform [ "0"; "1"; "2" ])
  in
  let q = Query.Bcq (Cq.of_string "R(x,x)") in
  let exact =
    Nat.to_float (Brute.count_valuations q db)
  in
  let est, half = Incdb_approx.Karp_luby.estimate_with_ci ~seed:9 ~samples:20_000 q db in
  Alcotest.(check bool) "CI is positive" true (half > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "CI covers the truth (est %.1f ± %.1f, exact %.1f)" est half exact)
    true
    (exact >= est -. half && exact <= est +. half)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_minimal_models;
        prop_neq_events;
        prop_comp_candidates;
        prop_bag_bounds;
        prop_symbolic_one_group;
        prop_symbolic_two_groups;
        prop_comp_bounds_sound;
        prop_symbolic_comp;
        prop_domain_polynomial;
      ]
  in
  Alcotest.run "extensions"
    [
      ( "minimal-models",
        [ Alcotest.test_case "basics" `Quick test_minimal_models_basic ] );
      ( "inequalities",
        [
          Alcotest.test_case "eval" `Quick test_neq_eval;
          Alcotest.test_case "estimator" `Quick test_neq_estimator;
        ] );
      ( "zero-one",
        [
          Alcotest.test_case "mu diagonal" `Quick test_mu_diagonal;
          Alcotest.test_case "mu limits" `Quick test_mu_tends_to_one;
          Alcotest.test_case "mu scan" `Quick test_mu_scan_monotone_query;
          Alcotest.test_case "mu completions" `Quick test_mu_completions;
        ] );
      ( "symbolic-domain",
        [
          Alcotest.test_case "closed form & huge k" `Quick test_symbolic_closed_form;
          Alcotest.test_case "Example 3.10 at d = 10^9" `Quick
            test_symbolic_example_3_10;
          Alcotest.test_case "shape rejection" `Quick test_symbolic_rejects;
          Alcotest.test_case "completions at 10^9" `Quick test_symbolic_comp_huge;
        ] );
      ( "comp-candidates",
        [
          Alcotest.test_case "beats brute" `Quick test_comp_candidates_beats_brute;
          Alcotest.test_case "rejects naive" `Quick test_comp_candidates_rejects_naive;
        ] );
      ( "comp-bounds",
        [ Alcotest.test_case "bounds meet" `Quick test_comp_bounds_meet ] );
      ( "answers",
        [
          Alcotest.test_case "tuples" `Quick test_answer_tuples;
          Alcotest.test_case "supports" `Quick test_supports;
          Alcotest.test_case "best & certain" `Quick test_best_and_certain;
        ] );
      ( "bag-semantics",
        [ Alcotest.test_case "example 2.1" `Quick test_bag_semantics ] );
      ( "domain-polynomial",
        [
          Alcotest.test_case "open case R(x,y)&S(x,y)" `Quick
            test_domain_polynomial_open_case;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "shipped .idb files" `Quick test_corpus_files;
          Alcotest.test_case "estimator CI" `Quick test_estimator_ci;
        ] );
      ( "idb-format",
        [
          Alcotest.test_case "round trip" `Quick test_parser_roundtrip;
          Alcotest.test_case "uniform & comments" `Quick test_parser_uniform_and_comments;
          Alcotest.test_case "errors" `Quick test_parser_errors;
        ] );
      ("properties", props);
    ]
