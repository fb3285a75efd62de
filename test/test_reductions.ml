(* Every reduction of the paper, verified as an exact counting identity
   against the direct combinatorial oracles on randomized instances. *)

open Incdb_bignum
open Incdb_graph
open Incdb_cq
open Incdb_incomplete
open Incdb_reductions

let check_nat = Gen.check_nat

let random_graph seed n = Generators.random ~seed n 1 2

(* ------------------------------------------------------------------ *)
(* Proposition 3.4: 3-colorings via #Val^u(R(x,x))                     *)
(* ------------------------------------------------------------------ *)

let prop_coloring =
  QCheck.Test.make ~count:40 ~name:"Prop 3.4: #3COL via #Val(R(x,x))"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let g = random_graph seed 6 in
      Nat.equal
        (Coloring_red.colorings_via_val g)
        (Colorings.count_colorings g 3))

let prop_coloring_k4 =
  QCheck.Test.make ~count:20 ~name:"Prop 3.4 generalized to k=4"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let g = random_graph seed 5 in
      Nat.equal
        (Coloring_red.colorings_via_val ~k:4 g)
        (Colorings.count_colorings g 4))

(* ------------------------------------------------------------------ *)
(* Proposition 3.8: independent sets via #Val^u                        *)
(* ------------------------------------------------------------------ *)

let prop_indep_val variant name =
  QCheck.Test.make ~count:40 ~name
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let g = random_graph seed 6 in
      Nat.equal
        (Indep_val.independent_sets_via_val ~variant g)
        (Independent.count_independent_sets g))

let prop_indep_rst = prop_indep_val `Rst "Prop 3.8: #IS via R(x),S(x,y),T(y)"
let prop_indep_rs = prop_indep_val `Rs "Prop 3.8: #IS via R(x,y),S(x,y)"

(* Past brute force: with the dispatcher as oracle, the identity holds on
   a 300-node path (F(302) independent sets, Fibonacci) and a 300-node
   cycle (L(300), Lucas). *)
let test_indep_val_large variant () =
  let oracle q db = snd (Incdb_core.Count_val.count q db) in
  (* The n-th term of a, b, a + b, ...: Fibonacci from (0, 1), Lucas from
     (2, 1). *)
  let rec nth a b n = if n = 0 then a else nth b (Nat.add a b) (n - 1) in
  check_nat "path 300 = F(302)" (nth Nat.zero Nat.one 302)
    (Indep_val.independent_sets_via_val ~variant ~oracle (Generators.path 300));
  check_nat "cycle 300 = L(300)" (nth Nat.two Nat.one 300)
    (Indep_val.independent_sets_via_val ~variant ~oracle
       (Generators.cycle 300))

(* ------------------------------------------------------------------ *)
(* Proposition 3.5: avoiding assignments via #Val_Cd(R(x) ∧ S(x))      *)
(* ------------------------------------------------------------------ *)

let prop_avoidance_red =
  QCheck.Test.make ~count:40 ~name:"Prop 3.5: #Avoidance via #Val_Cd(RxSx)"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let b = Generators.random_bipartite ~seed 4 4 1 2 in
      let no_isolated =
        List.for_all (fun i -> Bipartite.right_neighbors b i <> [])
          (List.init 4 Fun.id)
        && List.for_all (fun j -> Bipartite.left_neighbors b j <> [])
             (List.init 4 Fun.id)
      in
      QCheck.assume no_isolated;
      let direct =
        Avoidance.count_avoiding (Multigraph.of_graph (Bipartite.to_graph b))
      in
      Nat.equal (Avoidance_red.avoidance_via_val b) direct)

(* ------------------------------------------------------------------ *)
(* Proposition 4.2: vertex covers via #Comp_Cd(R(x))                   *)
(* ------------------------------------------------------------------ *)

let prop_vc =
  QCheck.Test.make ~count:30 ~name:"Prop 4.2: #VC via #Comp_Cd(R(x))"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let g = random_graph seed 4 in
      Nat.equal (Vc_comp.vertex_covers_via_comp g)
        (Independent.count_vertex_covers g))

let test_vc_is_parsimonious () =
  (* The encoding's completions are exactly the vertex covers: also check
     the witness bijection on a fixed triangle. *)
  let g = Generators.complete 3 in
  (* VC(K3): all 2^3 subsets except those missing 2+ nodes: {}, {0},{1},{2}
     are not covers; covers: {01},{02},{12},{012} = 4. *)
  check_nat "#VC(K3)" (Nat.of_int 4) (Vc_comp.vertex_covers_via_comp g);
  check_nat "#IS reading" (Nat.of_int 4) (Vc_comp.independent_sets_via_comp g)

(* ------------------------------------------------------------------ *)
(* Proposition 4.5(a): #Comp^u = 2^V + #IS                             *)
(* ------------------------------------------------------------------ *)

let prop_indep_comp =
  QCheck.Test.make ~count:25 ~name:"Prop 4.5a: #Comp = 2^V + #IS"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let g = random_graph seed 4 in
      Nat.equal
        (Indep_comp.independent_sets_via_comp g)
        (Independent.count_independent_sets g))

(* ------------------------------------------------------------------ *)
(* Proposition 4.5(b): #Comp^u_Cd = #PF on bipartite graphs            *)
(* ------------------------------------------------------------------ *)

let prop_pf =
  QCheck.Test.make ~count:15 ~name:"Prop 4.5b: #Comp^u_Cd = #PF"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let b = Generators.random_bipartite ~seed 3 3 1 2 in
      QCheck.assume (Bipartite.edge_count b <= 5);
      let g = Bipartite.to_graph b in
      Nat.equal (Pf_comp.pseudoforests_via_comp b)
        (Pseudoforest.count_pseudoforests g))

let test_pf_encoding_is_codd () =
  let b = Bipartite.make ~left:2 ~right:2 [ (0, 0); (1, 1) ] in
  Alcotest.(check bool) "codd" true (Idb.is_codd (Pf_comp.encode b));
  Alcotest.(check bool) "uniform" true (Idb.is_uniform (Pf_comp.encode b))

(* ------------------------------------------------------------------ *)
(* Proposition 3.11: #BIS via the linear-system Turing reduction       *)
(* ------------------------------------------------------------------ *)

let prop_bis =
  QCheck.Test.make ~count:12 ~name:"Prop 3.11: #BIS via (n+1)^2 oracle calls"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let b = Generators.random_bipartite ~seed 3 3 1 2 in
      Nat.equal (Bis_val.bis_via_val b)
        (Independent.count_bipartite_independent_sets b))

let test_bis_unbalanced () =
  (* Padding path: sides of different size. *)
  let b = Bipartite.make ~left:2 ~right:3 [ (0, 0); (1, 2) ] in
  check_nat "unbalanced #BIS" (Independent.count_bipartite_independent_sets b)
    (Bis_val.bis_via_val b)

(* ------------------------------------------------------------------ *)
(* Proposition 5.6: 7-vs-8 completions gadget                          *)
(* ------------------------------------------------------------------ *)

let prop_gadget =
  QCheck.Test.make ~count:15 ~name:"Prop 5.6: gadget has 7 or 8 completions"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let g = random_graph seed 4 in
      QCheck.assume (Graph.edge_count g >= 1);
      let count = Threecol_gadget.completion_count g in
      let colorable = Colorings.is_colorable g 3 in
      Nat.equal count (Nat.of_int (if colorable then 8 else 7)))

let test_gadget_decides () =
  let k4 = Generators.complete 4 in
  Alcotest.(check bool) "K4 not 3-colorable" false
    (Threecol_gadget.is_3colorable_via_comp k4);
  let c5 = Generators.cycle 5 in
  Alcotest.(check bool) "C5 3-colorable" true
    (Threecol_gadget.is_3colorable_via_comp c5);
  (* The decision threshold of the proof. *)
  Alcotest.(check bool) "7.4 rejects" false
    (Threecol_gadget.decide_3colorable ~count:7.4);
  Alcotest.(check bool) "7.6 accepts" true
    (Threecol_gadget.decide_3colorable ~count:7.6)

(* ------------------------------------------------------------------ *)
(* CNF and Theorem 6.3                                                 *)
(* ------------------------------------------------------------------ *)

let test_cnf_basics () =
  let f =
    Cnf.make ~nvars:3
      [ (Cnf.lit 0, Cnf.lit 1, Cnf.lit 2) ]
  in
  check_nat "#SAT of one clause" (Nat.of_int 7) (Cnf.count_sat f);
  check_nat "k=0 satisfiable" Nat.one (Cnf.count_k3sat f 0);
  check_nat "k=n" (Cnf.count_sat f) (Cnf.count_k3sat f f.Cnf.nvars);
  let unsat =
    Cnf.make ~nvars:3
      [
        (Cnf.lit 0, Cnf.lit 1, Cnf.lit 2);
        (Cnf.lit ~positive:false 0, Cnf.lit 1, Cnf.lit 2);
        (Cnf.lit 0, Cnf.lit ~positive:false 1, Cnf.lit 2);
        (Cnf.lit 0, Cnf.lit 1, Cnf.lit ~positive:false 2);
        (Cnf.lit ~positive:false 0, Cnf.lit ~positive:false 1, Cnf.lit 2);
        (Cnf.lit ~positive:false 0, Cnf.lit 1, Cnf.lit ~positive:false 2);
        (Cnf.lit 0, Cnf.lit ~positive:false 1, Cnf.lit ~positive:false 2);
        ( Cnf.lit ~positive:false 0,
          Cnf.lit ~positive:false 1,
          Cnf.lit ~positive:false 2 );
      ]
  in
  check_nat "unsat formula" Nat.zero (Cnf.count_sat unsat);
  check_nat "unsat k3sat" Nat.zero (Cnf.count_k3sat unsat 2)

let prop_k3sat_monotone =
  QCheck.Test.make ~count:40 ~name:"#k3SAT is monotone in k"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let f = Cnf.random ~seed ~nvars:5 ~nclauses:4 in
      let counts = List.map (Cnf.count_k3sat f) [ 0; 1; 2; 3; 4; 5 ] in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> Nat.compare a b <= 0 && nondecreasing rest
        | _ -> true
      in
      nondecreasing counts)

let prop_spanp =
  QCheck.Test.make ~count:12 ~name:"Thm 6.3: #Comp^u(neg q) = #k3SAT"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 1_000_000)
                    (QCheck.Gen.int_range 1 4)))
    (fun (seed, k) ->
      let f = Cnf.random ~seed ~nvars:4 ~nclauses:3 in
      Nat.equal (Spanp.k3sat_via_comp f k) (Cnf.count_k3sat f k))

let test_spanp_query_is_sjf () =
  Alcotest.(check bool) "Equation (8) query is self-join-free" true
    (Cq.is_self_join_free Spanp.query);
  Alcotest.(check int) "nine atoms" 9 (List.length Spanp.query)

(* ------------------------------------------------------------------ *)
(* Theorem 6.4: #HamSubgraphs via #Val^u of an ∃SO query               *)
(* ------------------------------------------------------------------ *)

let prop_hamsub =
  QCheck.Test.make ~count:10 ~name:"Thm 6.4: #HamSubgraphs via valuations"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 1_000_000)
                    (QCheck.Gen.int_range 3 5)))
    (fun (seed, k) ->
      let g = Generators.random ~seed 6 2 3 in
      Nat.equal (Hamsub.ham_subgraphs_via_val g k)
        (Incdb_graph.Hamiltonicity.count_hamiltonian_subgraphs g k))

(* ------------------------------------------------------------------ *)
(* Lemmas 3.3 / 4.1: the generic pattern reduction                     *)
(* ------------------------------------------------------------------ *)

let prop_pattern_reduction =
  QCheck.Test.make ~count:40
    ~name:"Lemma 3.3/4.1: pattern transform preserves #Val and #Comp"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 1_000_000)
                    (QCheck.Gen.int_bound 2)))
    (fun (seed, which) ->
      let pattern, target, schema' =
        match which with
        | 0 ->
          (* R(x,x) inside a wider atom *)
          ("R(x,x)", "A(u,x,u)", [ ("R", 2) ])
        | 1 ->
          (* R(x) ∧ S(x) inside two binary atoms *)
          ("R(x), S(x)", "A(x,y), B(x,z)", [ ("R", 1); ("S", 1) ])
        | _ ->
          (* atom deletion *)
          ("R(x)", "R(x,y), S(z)", [ ("R", 1) ])
      in
      let pattern = Cq.of_string pattern and target = Cq.of_string target in
      let db' =
        Gen.random_idb ~seed ~schema:schema' ~rows:2 ~codd:(seed mod 2 = 0)
          ~uniform:(seed mod 3 = 0)
      in
      QCheck.assume (Gen.manageable ~limit:30_000 db');
      let db = Pattern_red.transform ~pattern ~target db' in
      let val_eq =
        Nat.equal
          (Brute.count_valuations (Query.Bcq pattern) db')
          (Brute.count_valuations (Query.Bcq target) db)
      in
      let comp_eq =
        Nat.equal
          (Brute.count_completions (Query.Bcq pattern) db')
          (Brute.count_completions (Query.Bcq target) db)
      in
      val_eq && comp_eq)

let test_pattern_reduction_preserves_shape () =
  let pattern = Cq.of_string "R(x)" in
  let target = Cq.of_string "R(x,y)" in
  let db' =
    Idb.make [ Idb.fact "R" [ Term.null "n" ] ] (Idb.Uniform [ "a"; "b" ])
  in
  let db = Pattern_red.transform ~pattern ~target db' in
  (* The null-bearing tuple is replicated across the filled column, so the
     result is NOT Codd here (see the deviation note in Pattern_red). *)
  Alcotest.(check bool) "replication breaks codd" false (Idb.is_codd db);
  Alcotest.(check bool) "uniform preserved" true (Idb.is_uniform db);
  Alcotest.(check (list string)) "same nulls" (Idb.nulls db') (Idb.nulls db);
  (* With no deleted column on the null tuple, Codd-ness is preserved. *)
  let target2 = Cq.of_string "R(x)" in
  let db2 = Pattern_red.transform ~pattern ~target:target2 db' in
  Alcotest.(check bool) "identity embedding keeps codd" true (Idb.is_codd db2)

(* ------------------------------------------------------------------ *)
(* End-to-end hardness certificates for arbitrary hard queries         *)
(* ------------------------------------------------------------------ *)

let prop_val_certificates =
  (* For random queries classified hard in the uniform naive #Val
     setting, the composed reduction (source encoding + Lemma 3.3
     transform) must recover the graph quantity exactly. *)
  QCheck.Test.make ~count:25 ~name:"hardness certificates for #Val"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 2_000_000)
                    (QCheck.Gen.int_range 1 1_000_000)))
    (fun (qseed, gseed) ->
      let q = Gen.random_sjfbcq ~seed:qseed in
      match Certificate.for_val q with
      | None -> QCheck.assume_fail ()
      | Some cert ->
        let g = Generators.random ~seed:gseed 4 1 2 in
        let db = cert.Certificate.encode g in
        QCheck.assume (Gen.manageable ~limit:10_000 db);
        let count db = Brute.count_valuations (Query.Bcq q) db in
        let recovered, direct = Certificate.check cert ~count g in
        Nat.equal recovered direct)

let prop_comp_certificates =
  QCheck.Test.make ~count:20 ~name:"hardness certificates for #Comp"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 2_000_000)
                    (QCheck.Gen.int_range 1 1_000_000)))
    (fun (qseed, gseed) ->
      let q = Gen.random_sjfbcq ~seed:qseed in
      let cert = Certificate.for_comp q in
      let g = Generators.random ~seed:gseed 3 1 2 in
      let db = cert.Certificate.encode g in
      QCheck.assume (Gen.manageable ~limit:10_000 db);
      let count db = Brute.count_completions (Query.Bcq q) db in
      let recovered, direct = Certificate.check cert ~count g in
      Nat.equal recovered direct)

let test_certificate_fixed () =
  (* A concrete hard query lifted from R(x,x): A(u,v,u) ∧ B(w). *)
  let q = Cq.of_string "A(u,v,u), B(w)" in
  match Certificate.for_val q with
  | None -> Alcotest.fail "expected a certificate"
  | Some cert ->
    Alcotest.(check string) "source" "#3COL" cert.Certificate.source;
    let g = Generators.cycle 4 in
    let count db = Brute.count_valuations (Query.Bcq q) db in
    let recovered, direct = Certificate.check cert ~count g in
    check_nat "3-colorings of C4 via arbitrary hard query" direct recovered;
    check_nat "which is 18" (Nat.of_int 18) direct

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_coloring;
        prop_coloring_k4;
        prop_indep_rst;
        prop_indep_rs;
        prop_avoidance_red;
        prop_vc;
        prop_indep_comp;
        prop_pf;
        prop_bis;
        prop_gadget;
        prop_k3sat_monotone;
        prop_spanp;
        prop_hamsub;
        prop_pattern_reduction;
        prop_val_certificates;
        prop_comp_certificates;
      ]
  in
  Alcotest.run "reductions"
    [
      ( "unit",
        [
          Alcotest.test_case "VC on K3" `Quick test_vc_is_parsimonious;
          Alcotest.test_case "PF encoding shape" `Quick test_pf_encoding_is_codd;
          Alcotest.test_case "BIS unbalanced" `Quick test_bis_unbalanced;
          Alcotest.test_case "gadget decisions" `Quick test_gadget_decides;
          Alcotest.test_case "cnf basics" `Quick test_cnf_basics;
          Alcotest.test_case "Equation (8)" `Quick test_spanp_query_is_sjf;
          Alcotest.test_case "pattern transform shape" `Quick
            test_pattern_reduction_preserves_shape;
          Alcotest.test_case "certificate on a lifted query" `Quick
            test_certificate_fixed;
          Alcotest.test_case "Prop 3.8 on 300 nodes via R(x),S(x,y),T(y)"
            `Quick (test_indep_val_large `Rst);
          Alcotest.test_case "Prop 3.8 on 300 nodes via R(x,y),S(x,y)" `Quick
            (test_indep_val_large `Rs);
        ] );
      ("properties", props);
    ]
