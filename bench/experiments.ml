(* The per-experiment printed sections of the harness: each entry of the
   DESIGN.md experiment index regenerates the corresponding artifact of
   the paper and prints paper-vs-measured. *)

open Incdb_bignum
open Incdb_graph
open Incdb_cq
open Incdb_incomplete
open Incdb_core
open Incdb_approx
open Incdb_reductions

let section id title =
  Printf.printf "\n=== [%s] %s ===\n" id title

let failures = ref 0

let check name ok =
  if not ok then incr failures;
  Printf.printf "  %-58s %s\n" name (if ok then "OK" else "MISMATCH")

let nat_eq = Nat.equal

(* ------------------------------------------------------------------ *)
(* T1: Table 1, regenerated and checked cell by cell                   *)
(* ------------------------------------------------------------------ *)

let expected_table1 =
  (* (query, [#Val; #Val_Cd; #Val^u; #Val^u_Cd; #Comp; #Comp_Cd; #Comp^u;
     #Comp^u_Cd]) in the Setting.all order, straight from Table 1. *)
  [
    ("R(x)", [ "FP"; "FP"; "FP"; "FP"; "hard"; "hard"; "FP"; "FP" ]);
    ("R(x,y)", [ "FP"; "FP"; "FP"; "FP"; "hard"; "hard"; "hard"; "hard" ]);
    ("R(x,x)", [ "hard"; "FP"; "hard"; "FP"; "hard"; "hard"; "hard"; "hard" ]);
    ("R(x), S(x)", [ "hard"; "hard"; "FP"; "FP"; "hard"; "hard"; "FP"; "FP" ]);
    ( "R(x), S(x,y), T(y)",
      [ "hard"; "hard"; "hard"; "hard"; "hard"; "hard"; "hard"; "hard" ] );
    ( "R(x,y), S(x,y)",
      [ "hard"; "hard"; "hard"; "open"; "hard"; "hard"; "hard"; "hard" ] );
  ]

let table1 () =
  section "T1" "Table 1: the seven dichotomies (and the open case)";
  let queries = List.map (fun (q, _) -> Cq.of_string q) expected_table1 in
  print_string (Classify.table1 queries);
  let all_ok =
    List.for_all
      (fun (qs, expected) ->
        let q = Cq.of_string qs in
        List.for_all2
          (fun setting exp ->
            let got =
              match Classify.exact setting q with
              | Classify.Tractable _ -> "FP"
              | Classify.Hard _ -> "hard"
              | Classify.Open_case _ -> "open"
            in
            got = exp)
          Setting.all expected)
      expected_table1
  in
  check "every cell matches the paper's Table 1" all_ok

(* ------------------------------------------------------------------ *)
(* T1-scaling: tractable algorithms vs brute force                     *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "T1-scaling"
    "polynomial algorithms vs exponential brute force (tractable cells)";
  Printf.printf "  -- #Val_Cd(R(x,x)) (Thm 3.7), domain size 4 --\n";
  Printf.printf "  %-8s %-12s %-12s %-22s %s\n" "nulls" "poly (s)" "brute (s)"
    "count" "agree";
  List.iter
    (fun n ->
      let db = Instances.diagonal_codd n 4 in
      let q = Cq.of_string "R(x,x)" in
      let exact, t_poly =
        Instances.time (fun () -> Count_val.codd_nonuniform q db)
      in
      let brute_info =
        if Instances.brute_feasible db then begin
          let b, t =
            Instances.time (fun () ->
                Brute.count_valuations (Query.Bcq q) db)
          in
          Some (b, t)
        end
        else None
      in
      match brute_info with
      | Some (b, t_brute) ->
        Printf.printf "  %-8d %-12.5f %-12.5f %-22s %b\n" (2 * n) t_poly
          t_brute (Nat.to_string exact) (nat_eq exact b)
      | None ->
        Printf.printf "  %-8d %-12.5f %-12s %-22s -\n" (2 * n) t_poly
          "(2^n wall)"
          (let s = Nat.to_string exact in
           if String.length s <= 20 then s
           else String.sub s 0 17 ^ "..."))
    [ 2; 4; 5; 20; 100; 400 ];
  Printf.printf "  -- #Val^u(R(x) & S(x)) (Thm 3.9 block DP) --\n";
  Printf.printf "  %-16s %-12s %-12s %s\n" "(d,nR,nS)" "poly (s)" "brute (s)"
    "agree";
  List.iter
    (fun (d, nr, ns) ->
      let db = Instances.two_unary ~d ~nr ~cr:1 ~ns ~cs:1 in
      let q = Cq.of_string "R(x), S(x)" in
      let exact, t_poly =
        Instances.time (fun () -> Count_val.uniform_naive q db)
      in
      if Instances.brute_feasible db then begin
        let b, t_brute =
          Instances.time (fun () -> Brute.count_valuations (Query.Bcq q) db)
        in
        Printf.printf "  (%2d,%2d,%2d)       %-12.5f %-12.5f %b\n" d nr ns
          t_poly t_brute (nat_eq exact b)
      end
      else
        Printf.printf "  (%2d,%2d,%2d)       %-12.5f %-12s -\n" d nr ns t_poly
          "(d^n wall)")
    [ (4, 2, 2); (5, 3, 3); (6, 4, 4); (8, 10, 10); (10, 16, 16) ];
  Printf.printf "  -- #Comp^u(R(x)) (Thm 4.6 / warm-up B.6.2) --\n";
  Printf.printf "  %-16s %-12s %-12s %s\n" "(d,n,c)" "poly (s)" "brute (s)"
    "agree";
  List.iter
    (fun (d, n, c) ->
      let db = Instances.one_unary ~d ~n ~c in
      let exact, t_poly =
        Instances.time (fun () -> Count_comp.uniform_unary db)
      in
      if Instances.brute_feasible db then begin
        let b, t_brute =
          Instances.time (fun () -> Brute.count_all_completions db)
        in
        Printf.printf "  (%2d,%2d,%2d)       %-12.5f %-12.5f %b\n" d n c t_poly
          t_brute (nat_eq exact b)
      end
      else
        Printf.printf "  (%2d,%2d,%2d)       %-12.5f %-12s -\n" d n c t_poly
          "(d^n wall)")
    [ (4, 3, 1); (6, 5, 2); (8, 8, 2); (20, 30, 5); (40, 80, 10) ]

(* ------------------------------------------------------------------ *)
(* F1: Figure 1                                                        *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "F1" "Figure 1 / Example 2.2";
  let db = Instances.figure1 () in
  let q = Cq.of_string "S(x,x)" in
  let expected = [ true; true; true; false; true; false ] in
  let got = ref [] in
  Idb.iter_valuations db (fun v ->
      got := Cq.eval q (Idb.apply db v) :: !got);
  let verdicts = List.rev !got in
  List.iteri
    (fun i ok -> Printf.printf "  valuation %d: |= q? %b\n" (i + 1) ok)
    verdicts;
  check "verdict row matches Figure 1 (Y Y Y N Y N)" (verdicts = expected);
  let _, vals = Count_val.count q db in
  let _, comps = Count_comp.count q db in
  check "#Val = 4" (nat_eq vals (Nat.of_int 4));
  check "#Comp = 3" (nat_eq comps (Nat.of_int 3))

(* ------------------------------------------------------------------ *)
(* The hardness reductions, P3.4 .. P4.5b                              *)
(* ------------------------------------------------------------------ *)

let reductions () =
  section "P3.4" "3-colorings via #Val^u(R(x,x)), fixed domain {1,2,3}";
  List.iter
    (fun (name, g) ->
      let via, t = Instances.time (fun () -> Coloring_red.colorings_via_val g) in
      let direct = Colorings.count_colorings g 3 in
      Printf.printf "  %-22s #3COL = %-10s (%.4fs)\n" name (Nat.to_string via) t;
      check (name ^ " matches direct counter") (nat_eq via direct))
    [
      ("C5", Generators.cycle 5);
      ("Petersen", Generators.petersen ());
      ("grid 3x3", Generators.grid 3 3);
    ];

  section "P3.5/A.8" "#Avoidance via #Val_Cd(R(x) & S(x)) on bipartite graphs";
  let g3 = Generators.random_regular_multigraph ~seed:11 6 3 in
  let sub = Avoidance.subdivide g3 in
  (match Bipartite.of_graph sub with
  | None -> check "subdivision is bipartite" false
  | Some (b, _, _) ->
    let via = Avoidance_red.avoidance_via_val b in
    let direct = Avoidance.count_avoiding (Multigraph.of_graph sub) in
    check "#Avoidance(subdivision) via #Val_Cd" (nat_eq via direct);
    let identity =
      nat_eq direct
        (Nat.mul
           (Combinat.pow2 (Multigraph.edge_count g3 - Multigraph.node_count g3))
           (Avoidance.count_avoiding g3))
    in
    check "Prop A.8 identity 2^(E-V) * #Avoidance(G)" identity);

  section "P3.8" "#IS via #Val^u, fixed domain {0,1}";
  List.iter
    (fun (name, g) ->
      let rst = Indep_val.independent_sets_via_val ~variant:`Rst g in
      let rs = Indep_val.independent_sets_via_val ~variant:`Rs g in
      let direct = Independent.count_independent_sets g in
      Printf.printf "  %-22s #IS = %s\n" name (Nat.to_string direct);
      check (name ^ " via R,S(x,y),T") (nat_eq rst direct);
      check (name ^ " via R(x,y),S(x,y)") (nat_eq rs direct))
    [ ("C7", Generators.cycle 7); ("G(8,1/2)", Generators.random ~seed:3 8 1 2) ];

  section "P3.11" "#BIS via the (n+1)^2-call linear-system Turing reduction";
  let b = Generators.random_bipartite ~seed:9 4 4 1 2 in
  let calls = (4 + 1) * (4 + 1) in
  let via, t = Instances.time (fun () -> Bis_val.bis_via_val b) in
  let direct = Independent.count_bipartite_independent_sets b in
  Printf.printf "  4+4 bipartite, %d oracle calls, %.3fs\n" calls t;
  check "#BIS recovered through exact Q-linear algebra" (nat_eq via direct);

  section "P4.2" "#VC via #Comp_Cd(R(x)) (parsimonious)";
  List.iter
    (fun (name, g) ->
      let via = Vc_comp.vertex_covers_via_comp g in
      let direct = Independent.count_vertex_covers g in
      Printf.printf "  %-22s #VC = %s\n" name (Nat.to_string direct);
      check (name ^ " completions = vertex covers") (nat_eq via direct))
    [ ("C6", Generators.cycle 6); ("K4", Generators.complete 4) ];

  section "P4.5a" "#Comp^u over one binary relation = 2^V + #IS";
  List.iter
    (fun (name, g) ->
      let via = Indep_comp.independent_sets_via_comp g in
      let direct = Independent.count_independent_sets g in
      check
        (Printf.sprintf "%s: completions - 2^%d = #IS" name (Graph.node_count g))
        (nat_eq via direct))
    [ ("P4", Generators.path 4); ("C5", Generators.cycle 5) ];

  section "P4.5b" "#Comp^u_Cd over one binary relation = #PF (bipartite)";
  let b = Generators.random_bipartite ~seed:21 3 3 2 3 in
  let via = Pf_comp.pseudoforests_via_comp b in
  let direct = Pseudoforest.count_pseudoforests (Bipartite.to_graph b) in
  Printf.printf "  3+3 bipartite with %d edges: #PF = %s\n"
    (Bipartite.edge_count b) (Nat.to_string direct);
  check "completions = induced pseudoforests" (nat_eq via direct)

(* ------------------------------------------------------------------ *)
(* S5: approximation                                                   *)
(* ------------------------------------------------------------------ *)

let fpras () =
  section "S5-fpras"
    "Karp-Luby FPRAS for #Val (Cor 5.3) vs naive Monte-Carlo: error curves";
  let db = Instances.diagonal_codd 12 6 in
  let q = Cq.of_string "R(x,x)" in
  let exact = Count_val.codd_nonuniform q db in
  Printf.printf "  instance: 24 nulls, domain 6, exact #Val = %s\n"
    (Nat.to_string exact);
  Printf.printf "  %-10s %-16s %-16s %-12s %-12s\n" "samples" "KL estimate"
    "MC estimate" "KL rel.err" "MC rel.err";
  let exact_f = Nat.to_float exact in
  List.iter
    (fun samples ->
      let kl = Karp_luby.estimate ~seed:5 ~samples (Query.Bcq q) db in
      let mc = Montecarlo.estimate ~seed:5 ~samples (Query.Bcq q) db in
      Printf.printf "  %-10d %-16.5g %-16.5g %-12.5f %-12.5f\n" samples kl mc
        (abs_float (kl -. exact_f) /. exact_f)
        (abs_float (mc -. exact_f) /. exact_f))
    [ 100; 1000; 10_000; 100_000 ];
  (* Rare-event regime: satisfying fraction ~ 1e-4; MC needs ~1/p samples,
     KL does not. *)
  let db2 = Instances.diagonal_codd 2 100 in
  let exact2 = Count_val.codd_nonuniform q db2 in
  let kl2 = Karp_luby.estimate ~seed:5 ~samples:10_000 (Query.Bcq q) db2 in
  let mc2 = Montecarlo.estimate ~seed:5 ~samples:10_000 (Query.Bcq q) db2 in
  Printf.printf
    "  rare regime (fraction ~2e-4): exact %s, KL %.4g, MC %.4g (10k samples)\n"
    (Nat.to_string exact2) kl2 mc2;
  check "KL within 10% in the rare regime"
    (abs_float (kl2 -. Nat.to_float exact2) /. Nat.to_float exact2 < 0.1)

let gadget () =
  section "P5.6" "no-FPRAS gadget: 7 vs 8 completions decides 3-colorability";
  List.iter
    (fun (name, g, expected) ->
      let count = Threecol_gadget.completion_count g in
      let decision = Threecol_gadget.is_3colorable_via_comp g in
      Printf.printf "  %-22s completions = %-4s decision = %b\n" name
        (Nat.to_string count) decision;
      check (name ^ " decision correct") (decision = expected))
    [
      ("C5 (3-colorable)", Generators.cycle 5, true);
      ("K4 (not)", Generators.complete 4, false);
      ("grid 2x3 (3-col)", Generators.grid 2 3, true);
    ]

(* ------------------------------------------------------------------ *)
(* T6.3: SpanP-completeness reduction                                  *)
(* ------------------------------------------------------------------ *)

let spanp () =
  section "T6.3" "#Comp^u(neg q) = #k3SAT (parsimonious)";
  List.iter
    (fun seed ->
      let f = Cnf.random ~seed ~nvars:5 ~nclauses:4 in
      let ok =
        List.for_all
          (fun k -> nat_eq (Spanp.k3sat_via_comp f k) (Cnf.count_k3sat f k))
          [ 1; 2; 3; 4; 5 ]
      in
      check (Printf.sprintf "random 3-CNF (seed %d), k = 1..5" seed) ok)
    [ 1; 2; 3 ];
  let g = Generators.random ~seed:4 6 1 2 in
  let ok =
    List.for_all
      (fun k ->
        nat_eq
          (Hamsub.ham_subgraphs_via_val g k)
          (Hamiltonicity.count_hamiltonian_subgraphs g k))
      [ 3; 4; 5 ]
  in
  check "T6.4 companion: #HamSubgraphs via #Val^u of the ESO query" ok

(* ------------------------------------------------------------------ *)
(* B.5: bicircular matroids                                            *)
(* ------------------------------------------------------------------ *)

let matroid () =
  section "B.5" "bicircular Tutte polynomial and the Brylawski identity";
  List.iter
    (fun (name, g) ->
      let pf = Pseudoforest.count_pseudoforests g in
      let tutte = Incdb_matroid.Bicircular.count_independent_sets g in
      Printf.printf "  %-12s #PF = %-8s T(B(G);2,1) = %s\n" name
        (Nat.to_string pf) (Nat.to_string tutte);
      check (name ^ ": #PF = T(B(G);2,1)") (nat_eq pf tutte);
      check
        (name ^ ": stretch identity (k=2)")
        (Incdb_matroid.Bicircular.stretch_identity_holds g 2))
    [
      ("K3", Generators.complete 3);
      ("C4", Generators.cycle 4);
      ("K4", Generators.complete 4);
    ]

(* ------------------------------------------------------------------ *)
(* EXT: extensions beyond the paper's theorems                         *)
(* ------------------------------------------------------------------ *)

let extensions () =
  section "EXT" "extensions: 0-1 law, candidate counting, enumeration";
  (* Libkin's mu_k through the Thm 3.9 algorithm. *)
  let facts =
    List.init 3 (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "r%d" i) ])
    @ List.init 3 (fun i -> Idb.fact "S" [ Term.null (Printf.sprintf "s%d" i) ])
  in
  let q = Cq.of_string "R(x), S(x)" in
  Printf.printf "  mu_k scan for R(x) & S(x) over 3+3 nulls:\n";
  List.iter
    (fun (k, v) ->
      Printf.printf "    k=%-3d mu_k = %s\n" k (Qnum.to_string v))
    (Zero_one.scan q facts ~kmax:8);
  let decreasing =
    let vs = List.map snd (Zero_one.scan q facts ~kmax:8) in
    let rec go = function
      | a :: (b :: _ as rest) -> Qnum.compare b a <= 0 && go rest
      | _ -> true
    in
    go vs
  in
  check "mu_k decreases toward 0 (0-1 law)" decreasing;
  (* Candidate-space completion counting vs brute force. *)
  let db =
    Idb.make
      (List.init 18 (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "n%d" i) ]))
      (Idb.Uniform [ "0"; "1"; "2" ])
  in
  let via_candidates, t_cand =
    Instances.time (fun () -> Comp_candidates.count db)
  in
  let via_thm46, t_alg = Instances.time (fun () -> Count_comp.uniform_unary db) in
  Printf.printf
    "  18 unary nulls over 3 values: 3^18 valuations, 3 candidates\n";
  Printf.printf "    candidate enumeration: %s in %.5fs\n"
    (Nat.to_string via_candidates) t_cand;
  Printf.printf "    Thm 4.6 algorithm:     %s in %.5fs\n"
    (Nat.to_string via_thm46) t_alg;
  check "candidate counter agrees with Thm 4.6" (nat_eq via_candidates via_thm46);
  (* Output-sensitive enumeration and uniform sampling. *)
  let db2 =
    Idb.make
      (List.init 10 (fun i ->
           Idb.fact "R"
             [ Term.null (Printf.sprintf "a%d" i);
               Term.null (Printf.sprintf "b%d" i) ]))
      (Idb.Uniform [ "0"; "1"; "2"; "3" ])
  in
  let q2 = Query.Bcq (Cq.of_string "R(x,x)") in
  let first, t_first =
    Instances.time (fun () ->
        List.of_seq (Seq.take 10 (Incdb_approx.Enumerate.satisfying q2 db2)))
  in
  Printf.printf
    "  enumerator: first %d satisfying valuations of a 4^20 space in %.5fs\n"
    (List.length first) t_first;
  check "enumerator produced 10 outputs" (List.length first = 10);
  let sample = Incdb_approx.Enumerate.sample_uniform ~seed:1 q2 db2 in
  check "uniform sampler returned a satisfying valuation"
    (match sample with
    | Some v -> Query.eval q2 (Idb.apply db2 v)
    | None -> false)

(* ------------------------------------------------------------------ *)
(* EXT2: symbolic domains, certificates, weighted nulls                *)
(* ------------------------------------------------------------------ *)

let extensions2 () =
  section "EXT2" "symbolic domains, hardness certificates, weighted nulls";
  (* Symbolic-domain #Val^u at astronomically large domain sizes. *)
  let facts =
    List.init 3 (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "r%d" i) ])
    @ List.init 3 (fun i -> Idb.fact "S" [ Term.null (Printf.sprintf "s%d" i) ])
  in
  let q = Cq.of_string "R(x), S(x)" in
  Printf.printf "  #Val^u(R&S) for 3+3 nulls, symbolic domain size d:\n";
  List.iter
    (fun d ->
      let v, t =
        Instances.time (fun () -> Count_val.uniform_symbolic q facts ~domain_size:d)
      in
      let s = Nat.to_string v in
      let shown = if String.length s <= 28 then s else String.sub s 0 25 ^ "..." in
      Printf.printf "    d = %-12d %-30s (%.4fs)\n" d shown t)
    [ 10; 1_000; 1_000_000; 1_000_000_000 ];
  let explicit =
    Count_val.uniform_naive q
      (Idb.make facts (Idb.Uniform (List.init 10 (fun i -> "z" ^ string_of_int i))))
  in
  check "d=10 agrees with the explicit-domain algorithm"
    (nat_eq explicit (Count_val.uniform_symbolic q facts ~domain_size:10));
  (* Hardness certificate for an arbitrary lifted query. *)
  let lifted = Cq.of_string "A(u,v,u), B(w)" in
  (match Certificate.for_val lifted with
  | None -> check "certificate exists for A(u,v,u) & B(w)" false
  | Some cert ->
    let g = Generators.cycle 4 in
    let count db = Brute.count_valuations (Query.Bcq lifted) db in
    let recovered, direct = Certificate.check cert ~count g in
    Printf.printf
      "  certificate: #3COL(C4) recovered through #Val^u(%s) = %s (direct %s)\n"
      (Cq.to_string lifted) (Nat.to_string recovered) (Nat.to_string direct);
    check "certificate identity" (nat_eq recovered direct));
  (* Weighted (probabilistic) nulls: Thm 3.7 generalizes. *)
  let wdb = Instances.diagonal_codd 10 4 in
  let weighted =
    Incdb_probdb.Indnull.make wdb
      (List.map
         (fun n ->
           ( n,
             [
               ("v0", Qnum.of_ints 1 2);
               ("v1", Qnum.of_ints 1 4);
               ("v2", Qnum.of_ints 1 8);
               ("v3", Qnum.of_ints 1 8);
             ] ))
         (Idb.nulls wdb))
  in
  let p = Incdb_probdb.Indnull.probability_codd (Cq.of_string "R(x,x)") weighted in
  Printf.printf "  weighted Prob(R(x,x)) over 20 biased nulls: %s\n"
    (Qnum.to_string p);
  check "probability is a proper fraction"
    (Qnum.sign p > 0 && Qnum.compare p Qnum.one < 0);
  (* Domain polynomials: the open #Val^u_Cd query as a closed form. *)
  let open_q = Cq.of_string "R(x,y), S(x,y)" in
  let open_facts =
    [
      Idb.fact "R" [ Term.null "a"; Term.null "b" ];
      Idb.fact "S" [ Term.null "c"; Term.null "d" ];
    ]
  in
  let poly = Domain_polynomial.interpolate open_q open_facts in
  Printf.printf
    "  open-case counting polynomial for R(x,y)&S(x,y) on a 4-null table: %s\n"
    (Domain_polynomial.to_string poly);
  let brute_at_7 =
    Incdb_incomplete.Brute.count_valuations (Query.Bcq open_q)
      (Idb.make open_facts
         (Idb.Uniform (List.init 7 (fun i -> "\xc2\xa7" ^ string_of_int i))))
  in
  check "polynomial predicts brute force at d = 7"
    (nat_eq (Domain_polynomial.eval poly ~d:7) brute_at_7)

let run_all () =
  table1 ();
  scaling ();
  figure1 ();
  reductions ();
  fpras ();
  gadget ();
  spanp ();
  matroid ();
  extensions ();
  extensions2 ();
  if !failures > 0 then begin
    Printf.printf "\n%d CHECK(S) FAILED\n" !failures;
    exit 1
  end
