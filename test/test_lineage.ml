(* Tests for the bitset lineage compiler (Lineage) and the completion
   kernel built on it (Codd.kernel, Comp_candidates.count):

   - compiled DNF satisfaction agrees with materialized Query.eval on
     every sub-database of a random universe;
   - the mask-form completion test agrees with the Lemma B.2 matching
     test;
   - the kernel enumerator agrees with the seed enumerator (kept as
     Comp_candidates.count_reference) with and without queries;
   - sharded totals are bit-identical across job counts;
   - the typed Too_many_candidates error carries the real universe
     size. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_relational
open Incdb_core

let check_nat = Gen.check_nat

(* A random Codd table over [schema] whose candidate universe fits
   [limit] bits; [None] when the draw is too big (qcheck assumes). *)
let small_universe ~seed ~limit schema =
  let schema =
    (* One arity per relation: duplicate relation names across the atoms
       of random queries would otherwise produce conflicting rows. *)
    List.sort_uniq compare schema
    |> List.fold_left
         (fun acc (r, a) -> if List.mem_assoc r acc then acc else (r, a) :: acc)
         []
  in
  let db =
    Gen.random_idb ~seed ~schema ~rows:2 ~codd:true ~uniform:(seed mod 2 = 0)
  in
  match Comp_candidates.universe_within db ~limit with
  | Some u -> Some (db, u)
  | None -> None

let subset_of universe mask =
  Cdb.of_list
    (List.filteri
       (fun i _ -> mask land (1 lsl i) <> 0)
       (Array.to_list universe))

(* ------------------------------------------------------------------ *)
(* Lineage compilation vs materialized evaluation                      *)
(* ------------------------------------------------------------------ *)

let lineage_agrees q universe =
  match Lineage.compile q universe with
  | None -> QCheck.assume_fail ()
  | Some l ->
    let m = Array.length universe in
    List.for_all
      (fun mask -> Lineage.sat l mask = Query.eval q (subset_of universe mask))
      (List.init (1 lsl m) Fun.id)

let prop_lineage_eval =
  QCheck.Test.make ~count:80 ~name:"lineage DNF = Query.eval on subsets"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let cq = Gen.random_sjfbcq ~seed in
      match small_universe ~seed ~limit:10 (Gen.schema_of_query cq) with
      | None -> QCheck.assume_fail ()
      | Some (_, universe) ->
        lineage_agrees (Query.Bcq cq) universe
        && lineage_agrees (Query.Not (Query.Bcq cq)) universe)

let prop_lineage_union =
  QCheck.Test.make ~count:40 ~name:"lineage of unions and inequalities"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let cq1 = Gen.random_sjfbcq ~seed in
      let cq2 = Gen.random_sjfbcq ~seed:(seed + 7919) in
      let q = Query.Union [ cq1; cq2 ] in
      match
        small_universe ~seed ~limit:8
          (Gen.schema_of_query cq1 @ Gen.schema_of_query cq2)
      with
      | None -> QCheck.assume_fail ()
      | Some (_, universe) ->
        lineage_agrees q universe
        &&
        let vars =
          match Cq.variables cq1 with x :: y :: _ -> [ (x, y) ] | _ -> []
        in
        lineage_agrees (Query.Bcq_neq (cq1, vars)) universe)

let test_lineage_semantic_uncompilable () =
  let q =
    Query.Semantic
      { Query.name = "opaque"; monotone = true; sem_eval = (fun _ -> true) }
  in
  let universe = [| Cdb.fact "R" [ "a" ] |] in
  Alcotest.(check bool)
    "Semantic does not compile" true
    (Lineage.compile q universe = None);
  Alcotest.(check bool)
    "negated Semantic does not compile" true
    (Lineage.compile (Query.Not q) universe = None)

let test_lineage_minimality () =
  (* R(x) over {R(a), R(b)}: two singleton clauses, none subsumed; the
     2-atom match footprints R(a),R(b) are subsumed away. *)
  let universe = [| Cdb.fact "R" [ "a" ]; Cdb.fact "R" [ "b" ] |] in
  match Lineage.compile (Query.Bcq (Cq.of_string "R(x)")) universe with
  | None -> Alcotest.fail "R(x) must compile"
  | Some l ->
    Alcotest.(check int) "two minimal clauses" 2 (Lineage.clause_count l);
    Alcotest.(check bool) "positive" false (Lineage.is_negated l);
    Array.iter
      (fun c -> Alcotest.(check int) "singleton clause" 1 (Lineage.popcount c))
      (Lineage.clauses l)

(* ------------------------------------------------------------------ *)
(* Mask completion test vs Lemma B.2                                   *)
(* ------------------------------------------------------------------ *)

let prop_kernel_is_completion =
  QCheck.Test.make ~count:80
    ~name:"Codd.kernel_is_completion = Codd.is_completion"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 1); ("S", 2) ] ~rows:2 ~codd:true
          ~uniform:(seed mod 2 = 0)
      in
      match Comp_candidates.universe_within db ~limit:10 with
      | None -> QCheck.assume_fail ()
      | Some universe ->
        let k = Codd.kernel db ~universe in
        let m = Array.length universe in
        List.for_all
          (fun mask ->
            Codd.kernel_is_completion k mask
            = Codd.is_completion db (subset_of universe mask))
          (List.init (1 lsl m) Fun.id))

(* ------------------------------------------------------------------ *)
(* Kernel enumerator vs seed enumerator                                *)
(* ------------------------------------------------------------------ *)

let prop_kernel_vs_reference =
  QCheck.Test.make ~count:60 ~name:"kernel count = seed count"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 1); ("S", 1) ] ~rows:3 ~codd:true
          ~uniform:(seed mod 2 = 0)
      in
      QCheck.assume (Comp_candidates.universe_within db ~limit:12 <> None);
      let q = Query.Bcq (Cq.of_string "R(x), S(x)") in
      Nat.equal (Comp_candidates.count db)
        (Comp_candidates.count_reference db)
      && Nat.equal
           (Comp_candidates.count ~query:q db)
           (Comp_candidates.count_reference ~query:q db)
      (* Negated and opaque queries exercise the negated-DNF and
         materialized fallback leaves. *)
      && Nat.equal
           (Comp_candidates.count ~query:(Query.Not q) db)
           (Comp_candidates.count_reference ~query:(Query.Not q) db)
      && Nat.equal
           (Comp_candidates.count
              ~query:
                (Query.Semantic
                   {
                     Query.name = "has R";
                     monotone = true;
                     sem_eval = (fun s -> Cdb.cardinal s > 0);
                   })
              db)
           (Comp_candidates.count_reference
              ~query:
                (Query.Semantic
                   {
                     Query.name = "has R";
                     monotone = true;
                     sem_eval = (fun s -> Cdb.cardinal s > 0);
                   })
              db))

let prop_kernel_jobs_invariant =
  QCheck.Test.make ~count:40 ~name:"kernel totals bit-identical across jobs"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 2) ] ~rows:3 ~codd:true
          ~uniform:(seed mod 2 = 0)
      in
      QCheck.assume (Comp_candidates.universe_within db ~limit:12 <> None);
      let q = Query.Bcq (Cq.of_string "R(x,x)") in
      let n1 = Comp_candidates.count ~query:q ~jobs:1 db in
      let n2 = Comp_candidates.count ~query:q ~jobs:2 db in
      let n4 = Comp_candidates.count ~query:q ~jobs:4 db in
      Nat.equal n1 n2 && Nat.equal n1 n4)

let test_kernel_beyond_seed_ceiling () =
  (* 24 unary nulls over a 24-value domain: universe 24 > the seed's 22
     ceiling, fine for the kernel's default 26. *)
  let db =
    Idb.make
      (List.init 4 (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "n%d" i) ]))
      (Idb.Uniform (List.init 24 (fun i -> "v" ^ string_of_int i)))
  in
  Alcotest.check_raises "seed refuses"
    (Invalid_argument "Comp_candidates.count: candidate universe too large")
    (fun () -> ignore (Comp_candidates.count_reference db));
  (* Completions are the nonempty subsets of at most 4 values:
     C(24,1) + ... + C(24,4). *)
  let expected =
    Nat.sum (List.map (fun k -> Combinat.binomial 24 k) [ 1; 2; 3; 4 ])
  in
  check_nat "kernel handles 24 candidates" expected
    (Comp_candidates.count ~jobs:2 db);
  (* Theorem 4.6 agrees. *)
  check_nat "Thm 4.6 agrees" expected (Count_comp.uniform_unary db)

let test_too_many_candidates_typed () =
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "n" ] ]
      (Idb.Uniform (List.init 90 (fun i -> "v" ^ string_of_int i)))
  in
  (match Comp_candidates.count db with
  | (_ : Nat.t) -> Alcotest.fail "expected Too_many_candidates"
  | exception Comp_candidates.Too_many_candidates { universe; limit } ->
    Alcotest.(check int) "universe size" 90 universe;
    Alcotest.(check int) "limit" Comp_candidates.default_max_candidates limit);
  (* An explicit higher cap lifts the error (the wide path picks it up:
     90 candidates no longer fit one mask word). *)
  check_nat "explicit cap" (Nat.of_int 90)
    (Comp_candidates.count ~max_candidates:90 db);
  (* Forcing single-word masks re-imposes the word ceiling, as a typed
     error rather than a wrong answer. *)
  (match
     Comp_candidates.count ~max_candidates:90 ~mask:Comp_candidates.Int_masks
       db
   with
  | (_ : Nat.t) -> Alcotest.fail "expected Too_many_candidates under Int_masks"
  | exception Comp_candidates.Too_many_candidates { universe; limit } ->
    Alcotest.(check int) "forced-int universe" 90 universe;
    Alcotest.(check int) "forced-int limit" Lineage.max_universe limit)

let test_universe_within_probe () =
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "n" ] ]
      (Idb.Uniform (List.init 8 (fun i -> "v" ^ string_of_int i)))
  in
  (match Comp_candidates.universe_within db ~limit:8 with
  | Some u -> Alcotest.(check int) "full universe" 8 (Array.length u)
  | None -> Alcotest.fail "fits exactly");
  Alcotest.(check bool)
    "early exit" true
    (Comp_candidates.universe_within db ~limit:7 = None)

(* ------------------------------------------------------------------ *)
(* Wide masks: int/wide equivalence, the lifted ceiling, boundaries    *)
(* ------------------------------------------------------------------ *)

module Metrics = Incdb_obs.Metrics

let kernel_counters =
  [
    "comp_kernel.clauses_compiled";
    "comp_kernel.subsets_checked";
    "comp_kernel.masks_pruned";
    "comp_kernel.shards_run";
    "completions_checked";
  ]

(* Run [f] with metrics enabled and return its result together with the
   per-counter deltas it caused.  The test binary is single-domain
   outside the kernel's own pool, so deltas are attributable. *)
let with_counter_deltas f =
  let v n = Metrics.value (Metrics.counter n) in
  let before = List.map v kernel_counters in
  let was = Incdb_obs.Runtime.enabled () in
  Incdb_obs.Runtime.set_enabled true;
  let y =
    Fun.protect ~finally:(fun () -> Incdb_obs.Runtime.set_enabled was) f
  in
  (y, List.map2 (fun n b -> (n, v n - b)) kernel_counters before)

(* The ISSUE's core contract: on any instance the single-word kernel can
   handle, forcing wide masks changes nothing observable — not the
   count, and not the work metrics (subsets checked, masks pruned,
   shards run) either, because the enumeration order and the shard split
   are representation-independent. *)
let prop_int_wide_masks_identical =
  QCheck.Test.make ~count:40
    ~name:"wide masks = int masks (counts and metrics) below the ceiling"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 1); ("S", 1) ] ~rows:3 ~codd:true
          ~uniform:(seed mod 2 = 0)
      in
      QCheck.assume (Comp_candidates.universe_within db ~limit:12 <> None);
      let q = Query.Bcq (Cq.of_string "R(x), S(x)") in
      let run mask query =
        with_counter_deltas (fun () ->
            Comp_candidates.count ?query ~mask ~jobs:2 db)
      in
      List.for_all
        (fun query ->
          let ni, di = run Comp_candidates.Int_masks query in
          let nw, dw = run Comp_candidates.Wide_masks query in
          Nat.equal ni nw && di = dw)
        [ None; Some q; Some (Query.Not q) ])

let uniform_unary ~d ~n =
  Idb.make
    (List.init n (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "n%d" i) ]))
    (Idb.Uniform (List.init d (fun i -> "v" ^ string_of_int i)))

let test_wide_beyond_word_ceiling () =
  (* 65 candidates: one word cannot hold the universe, the wide kernel
     must agree with brute-force enumeration and the closed form
     C(65,1) + C(65,2), bit-identically at every job count. *)
  let db = uniform_unary ~d:65 ~n:2 in
  let expected =
    Nat.add (Combinat.binomial 65 1) (Combinat.binomial 65 2)
  in
  let counts =
    List.map (fun jobs -> Comp_candidates.count ~jobs db) [ 1; 2; 4 ]
  in
  List.iteri
    (fun i n ->
      check_nat (Printf.sprintf "wide total at jobs %d" (List.nth [ 1; 2; 4 ] i))
        expected n)
    counts;
  check_nat "Brute_par agrees" expected
    (Incdb_par.Brute_par.count_all_completions ~jobs:2 db);
  check_nat "Thm 4.6 agrees" expected (Count_comp.uniform_unary db);
  (* A query leg past the ceiling: R(x) never prunes here (every
     completion is nonempty), so pair it with a negated query that
     does. *)
  let q = Query.Bcq (Cq.of_string "R(x)") in
  check_nat "wide query = brute query"
    (Incdb_par.Brute_par.count_completions ~jobs:2 q db)
    (Comp_candidates.count ~query:q ~jobs:2 db);
  check_nat "wide negated query"
    (Incdb_par.Brute_par.count_completions ~jobs:2 (Query.Not q) db)
    (Comp_candidates.count ~query:(Query.Not q) ~jobs:2 db)

(* A Codd table whose candidate universe is exactly [sizes] summed: one
   unary null per domain block, pairwise-disjoint domains. *)
let disjoint_codd sizes =
  let facts =
    List.mapi
      (fun i _ -> Idb.fact "R" [ Term.null (Printf.sprintf "n%d" i) ])
      sizes
  in
  let doms =
    List.mapi
      (fun i d ->
        ( Printf.sprintf "n%d" i,
          List.init d (fun j -> Printf.sprintf "b%d_%d" i j) ))
      sizes
  in
  Idb.make facts (Idb.Nonuniform doms)

let test_codd_wide_matching_boundary () =
  (* Universes of exactly 63, 64 and 65 ground facts — one word plus
     one, two and three bits — so the Kuhn matching's mask walk crosses
     the word boundary.  Verdicts are checked against the materialized
     Codd.is_completion on hand-picked masks covering: a valid
     one-fact-per-null completion (including the highest candidate), a
     same-null double assignment (star holds, matching must fail), and
     an oversized mask (popcount > number of nulls). *)
  List.iter
    (fun sizes ->
      let m = List.fold_left ( + ) 0 sizes in
      let db = disjoint_codd sizes in
      let universe =
        match Comp_candidates.universe_within db ~limit:m with
        | Some u -> u
        | None -> Alcotest.fail "universe must fit exactly"
      in
      Alcotest.(check int) "universe size" m (Array.length universe);
      let k = Codd.Wide.make db ~universe in
      let module W = Bitset.Wide in
      let index_of value =
        let found = ref (-1) in
        Array.iteri
          (fun i f -> if f = Cdb.fact "R" [ value ] then found := i)
          universe;
        Alcotest.(check bool) (value ^ " in universe") true (!found >= 0);
        !found
      in
      let mask_of values =
        List.fold_left
          (fun acc v -> W.set acc (index_of v))
          (W.zero ~width:m) values
      in
      let check_mask name values =
        let mask = mask_of values in
        let subset =
          Cdb.of_list (List.map (fun v -> Cdb.fact "R" [ v ]) values)
        in
        let expected = Codd.is_completion db subset in
        Alcotest.(check bool)
          (Printf.sprintf "%s (m=%d)" name m)
          expected
          (Codd.Wide.is_completion k mask);
        expected
      in
      let last i = Printf.sprintf "b%d_%d" i (List.nth sizes i - 1) in
      Alcotest.(check bool) "valid completion, high bits" true
        (check_mask "one per null" [ "b0_0"; last 1; last 2 ]);
      Alcotest.(check bool) "double assignment fails matching" false
        (check_mask "two from one null" [ "b0_0"; "b0_1"; "b1_0" ]);
      Alcotest.(check bool) "oversized mask" false
        (check_mask "four facts, three nulls"
           [ "b0_0"; "b1_0"; "b2_0"; last 2 ]);
      (* Full count: disjoint domains make completions exactly the
         choice tuples. *)
      let expected = List.fold_left (fun a d -> a * d) 1 sizes in
      check_nat
        (Printf.sprintf "count at universe %d" m)
        (Nat.of_int expected)
        (Comp_candidates.count ~max_candidates:m ~jobs:2 db))
    [ [ 21; 21; 21 ]; [ 21; 21; 22 ]; [ 21; 22; 22 ] ]

(* ------------------------------------------------------------------ *)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "lineage"
    [
      ( "lineage",
        [
          to_alcotest prop_lineage_eval;
          to_alcotest prop_lineage_union;
          Alcotest.test_case "semantic uncompilable" `Quick
            test_lineage_semantic_uncompilable;
          Alcotest.test_case "minimality" `Quick test_lineage_minimality;
        ] );
      ( "kernel",
        [
          to_alcotest prop_kernel_is_completion;
          to_alcotest prop_kernel_vs_reference;
          to_alcotest prop_kernel_jobs_invariant;
          Alcotest.test_case "beyond seed ceiling" `Quick
            test_kernel_beyond_seed_ceiling;
          Alcotest.test_case "typed candidate limit" `Quick
            test_too_many_candidates_typed;
          Alcotest.test_case "universe probe" `Quick test_universe_within_probe;
        ] );
      ( "wide",
        [
          to_alcotest prop_int_wide_masks_identical;
          Alcotest.test_case "beyond word ceiling" `Quick
            test_wide_beyond_word_ceiling;
          Alcotest.test_case "Codd matching at 63/64/65" `Quick
            test_codd_wide_matching_boundary;
        ] );
    ]
