(* Tests for the lineage compiler (Lineage) and the candidate walk
   built on it (Codd.kernel, Comp_candidates.count), candidate sets
   being ascending arrays of universe indices:

   - compiled DNF satisfaction agrees with materialized Query.eval on
     every sub-database of a random universe, and clauses come in a
     pinned order;
   - the index-array completion test agrees with the Lemma B.2 matching
     test;
   - the walk agrees with the seed enumerator (kept as
     Comp_candidates.count_reference) with and without queries;
   - sharded totals and work counters are bit-identical across job
     counts, on either side of one machine word of candidates, pinned
     on fixed tables, and saturating instead of wrapping;
   - the matcher agrees with Lemma B.2 past one word, where domains
     overlap and nulls move along augmenting paths;
   - an oversized universe is refused early, with a typed lower bound. *)

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

(* Every subset of [0 .. m-1], as ascending index arrays. *)
let all_sets m =
  List.init (1 lsl m) (fun mask ->
      Array.of_list (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init m Fun.id)))

let subset_of universe set =
  Cdb.of_list (Array.to_list (Array.map (fun i -> universe.(i)) set))

(* ------------------------------------------------------------------ *)
(* Lineage compilation vs materialized evaluation                      *)
(* ------------------------------------------------------------------ *)

let lineage_agrees q universe =
  match Lineage.compile q universe with
  | None -> QCheck.assume_fail ()
  | Some l ->
    List.for_all
      (fun set -> Lineage.sat l set = Query.eval q (subset_of universe set))
      (all_sets (Array.length universe))

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
      (fun c -> Alcotest.(check int) "singleton clause" 1 (Array.length c))
      (Lineage.clauses l)

let test_lineage_clause_order () =
  (* R(x), S(x) ∪ T(y) over a shuffled universe: three clauses of size
     two and one of size one.  Clauses come by size, then in the order
     of the numbers their indices spell as bits: {2,3} = 12 before
     {1,4} = 18 before {0,5} = 33 — the reverse of their lexicographic
     order. *)
  let universe =
    [| Cdb.fact "R" [ "a" ]; Cdb.fact "S" [ "c" ]; Cdb.fact "R" [ "b" ];
       Cdb.fact "S" [ "b" ]; Cdb.fact "R" [ "c" ]; Cdb.fact "S" [ "a" ];
       Cdb.fact "T" [ "d" ] |]
  in
  let q = Query.Union [ Cq.of_string "R(x), S(x)"; Cq.of_string "T(y)" ] in
  match Lineage.compile q universe with
  | None -> Alcotest.fail "the union must compile"
  | Some l ->
    Alcotest.(check (array (array int)))
      "size, then number order"
      [| [| 6 |]; [| 2; 3 |]; [| 1; 4 |]; [| 0; 5 |] |]
      (Lineage.clauses l)

(* ------------------------------------------------------------------ *)
(* Index-array completion test vs Lemma B.2                            *)
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
        List.for_all
          (fun set ->
            Codd.kernel_is_completion k set
            = Codd.is_completion db (subset_of universe set))
          (all_sets (Array.length universe)))

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
    (* Grounding stops one fact past the cap: a lower bound. *)
    Alcotest.(check int) "universe size" 81 universe;
    Alcotest.(check int) "limit" Comp_candidates.default_max_candidates limit);
  (* An explicit higher cap lifts the error. *)
  check_nat "explicit cap" (Nat.of_int 90)
    (Comp_candidates.count ~max_candidates:90 db)

let test_huge_universe_refused_early () =
  (* R(?a,?b,?c) over 1000 values per null grounds 10^9 facts; the
     refusal must stop at the cap instead of grounding them. *)
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "a"; Term.null "b"; Term.null "c" ] ]
      (Idb.Uniform (List.init 1000 (fun i -> "v" ^ string_of_int i)))
  in
  let t0 = Sys.time () in
  (match Comp_candidates.count db with
  | (_ : Nat.t) -> Alcotest.fail "expected Too_many_candidates"
  | exception Comp_candidates.Too_many_candidates { universe; limit } ->
    Alcotest.(check int) "lower bound" (limit + 1) universe);
  let dt = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "refused in %.3fs of CPU" dt)
    true (dt < 0.25)

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
(* Past one machine word: the walk has no ceiling at 62 candidates     *)
(* ------------------------------------------------------------------ *)

module Metrics = Incdb_obs.Metrics

let walk_counters =
  [
    "comp_kernel.subsets_checked";
    "comp_kernel.masks_pruned";
    "comp_kernel.shards_run";
  ]

(* Run [f] with metrics enabled and counted from zero, and return its
   result with the walk counters' values after it.  Counting from zero
   matters: [masks_pruned] saturates at [max_int], which past about 62
   candidates one run can reach. *)
let with_walk_counters f =
  Metrics.reset ();
  let was = Incdb_obs.Runtime.enabled () in
  Incdb_obs.Runtime.set_enabled true;
  let y =
    Fun.protect ~finally:(fun () -> Incdb_obs.Runtime.set_enabled was) f
  in
  (y, List.map (fun n -> (n, Metrics.value (Metrics.counter n))) walk_counters)

let range lo hi = List.init (hi - lo + 1) (fun i -> string_of_int (lo + i))

(* The walk's pruning, pinned: on two Codd tables of 18 and 15
   candidates, the subsets that reach the Kuhn check and the leaves
   pruned in bulk (the two sum to 2^m), for no query, positive, negated
   and union DNFs and an opaque query.  Below 23 candidates the split is
   one shard per 6-bit prefix on any host.  The values are those the
   int-mask walk reported on the same tables. *)
let test_walk_counters_pinned () =
  let mixed =
    Idb.make
      [ Idb.fact "R" [ Term.null "a" ]; Idb.fact "R" [ Term.null "b" ];
        Idb.fact "R" [ Term.const "3" ]; Idb.fact "S" [ Term.null "c" ];
        Idb.fact "S" [ Term.null "d" ];
        Idb.fact "T" [ Term.null "e"; Term.const "1" ] ]
      (Idb.Nonuniform
         [ ("a", range 1 5); ("b", range 3 7); ("c", range 1 4);
           ("d", range 4 8); ("e", range 1 3) ])
  in
  let binary =
    Idb.make
      [ Idb.fact "R" [ Term.null "a"; Term.null "b" ];
        Idb.fact "R" [ Term.const "1"; Term.null "c" ];
        Idb.fact "S" [ Term.null "d" ] ]
      (Idb.Nonuniform
         [ ("a", range 1 3); ("b", range 1 3); ("c", range 1 4);
           ("d", range 1 5) ])
  in
  let rs = Cq.of_string "R(x), S(x)" in
  let has_s4 =
    Query.Semantic
      {
        Query.name = "has S(4)";
        monotone = true;
        sem_eval = (fun s -> Cdb.mem (Cdb.fact "S" [ "4" ]) s);
      }
  in
  List.iter
    (fun (name, db, query, (count, checked, pruned)) ->
      let brute =
        match query with
        | None -> Incdb_par.Brute_par.count_all_completions ~jobs:1 db
        | Some q -> Incdb_par.Brute_par.count_completions ~jobs:1 q db
      in
      check_nat (name ^ ": pinned count = brute force") brute
        (Nat.of_int count);
      List.iter
        (fun jobs ->
          let n, counters =
            with_walk_counters (fun () ->
                Comp_candidates.count ?query ~jobs db)
          in
          check_nat (Printf.sprintf "%s: count at jobs %d" name jobs) brute n;
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s: counters at jobs %d" name jobs)
            [
              ("comp_kernel.subsets_checked", checked);
              ("comp_kernel.masks_pruned", pruned);
              ("comp_kernel.shards_run", 64);
            ]
            counters)
        [ 1; 2; 4 ])
    [
      ("mixed", mixed, None, (1200, 3302, 258842));
      ("mixed R(x),S(x)", mixed, Some (Query.Bcq rs), (687, 1827, 260317));
      ( "mixed not R(x),S(x)",
        mixed,
        Some (Query.Not (Query.Bcq rs)),
        (513, 3302, 258842) );
      ( "mixed union",
        mixed,
        Some (Query.Union [ rs; Cq.of_string "T(y,y)" ]),
        (858, 2452, 259692) );
      ("mixed opaque", mixed, Some has_s4, (480, 3302, 258842));
      ("binary", binary, None, (165, 195, 32573));
      ( "binary R(x,x)",
        binary,
        Some (Query.Bcq (Cq.of_string "R(x,x)")),
        (80, 90, 32678) );
      ( "binary R(x,y),S(y)",
        binary,
        Some (Query.Bcq (Cq.of_string "R(x,y), S(y)")),
        (57, 69, 32699) );
    ]

let uniform_unary ~d ~n =
  Idb.make
    (List.init n (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "n%d" i) ]))
    (Idb.Uniform (List.init d (fun i -> "v" ^ string_of_int i)))

(* [k <= 3] unary nulls over one [d]-value domain, [d] on either side of
   the old 62-bit word: the completions are the nonempty subsets of at
   most [k] values, sum_{j=1..k} C(d,j).  The count and the walk's work
   counters must not depend on jobs, and the counters never go
   negative. *)
let prop_walk_across_word =
  QCheck.Test.make ~count:12
    ~name:"walk = closed form and brute, jobs-invariant, at 55-75 candidates"
    QCheck.(pair (int_range 55 75) (int_range 1 3))
    (fun (d, k) ->
      let db = uniform_unary ~d ~n:k in
      let expected =
        Nat.sum (List.init k (fun j -> Combinat.binomial d (j + 1)))
      in
      let runs =
        List.map
          (fun jobs ->
            with_walk_counters (fun () -> Comp_candidates.count ~jobs db))
          [ 1; 2; 4 ]
      in
      let _, counters1 = List.hd runs in
      List.for_all
        (fun (n, counters) ->
          Nat.equal n expected && counters = counters1
          && List.for_all (fun (_, x) -> x >= 0) counters)
        runs
      && (k > 2
         || List.for_all
              (fun jobs ->
                Nat.equal expected
                  (Incdb_par.Brute_par.count_all_completions ~jobs db))
              [ 1; 2; 4 ]))

let test_masks_pruned_saturates () =
  (* One null over 80 values: a completion holds one fact, so the walk
     prunes about 2^79 leaves in bulk, more than an int holds.  The
     counter must stop at [max_int], at every job count and when a
     second run adds to a saturated total, instead of wrapping
     negative. *)
  let db = uniform_unary ~d:80 ~n:1 in
  let pruned counters = List.assoc "comp_kernel.masks_pruned" counters in
  List.iter
    (fun jobs ->
      let n, counters =
        with_walk_counters (fun () -> Comp_candidates.count ~jobs db)
      in
      check_nat (Printf.sprintf "count at jobs %d" jobs) (Nat.of_int 80) n;
      Alcotest.(check int)
        (Printf.sprintf "masks_pruned at jobs %d" jobs)
        max_int (pruned counters))
    [ 1; 2; 4 ];
  let _, counters =
    with_walk_counters (fun () ->
        ignore (Comp_candidates.count db);
        Comp_candidates.count db)
  in
  Alcotest.(check int) "masks_pruned after two runs" max_int (pruned counters)

let test_wide_beyond_word_ceiling () =
  (* 65 candidates, past one machine word: the walk must agree with
     brute-force enumeration and the closed form C(65,1) + C(65,2),
     bit-identically at every job count. *)
  let db = uniform_unary ~d:65 ~n:2 in
  let expected =
    Nat.add (Combinat.binomial 65 1) (Combinat.binomial 65 2)
  in
  let counts =
    List.map (fun jobs -> Comp_candidates.count ~jobs db) [ 1; 2; 4 ]
  in
  List.iteri
    (fun i n ->
      check_nat (Printf.sprintf "total at jobs %d" (List.nth [ 1; 2; 4 ] i))
        expected n)
    counts;
  check_nat "Brute_par agrees" expected
    (Incdb_par.Brute_par.count_all_completions ~jobs:2 db);
  check_nat "Thm 4.6 agrees" expected (Count_comp.uniform_unary db);
  (* A query leg past the word: R(x) never prunes here (every
     completion is nonempty), so pair it with a negated query that
     does. *)
  let q = Query.Bcq (Cq.of_string "R(x)") in
  check_nat "query = brute query"
    (Incdb_par.Brute_par.count_completions ~jobs:2 q db)
    (Comp_candidates.count ~query:q ~jobs:2 db);
  check_nat "negated query"
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
     one, two and three bits — so the Kuhn matching sees indices past
     the old word.  Verdicts are checked against the materialized
     Codd.is_completion on hand-picked sets covering: a valid
     one-fact-per-null completion (including the highest candidate), a
     same-null double assignment (star holds, matching must fail), and
     an oversized set (more facts than nulls). *)
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
      let k = Codd.kernel db ~universe in
      let index_of value =
        let found = ref (-1) in
        Array.iteri
          (fun i f -> if f = Cdb.fact "R" [ value ] then found := i)
          universe;
        Alcotest.(check bool) (value ^ " in universe") true (!found >= 0);
        !found
      in
      let check_set name values =
        let set =
          Array.of_list (List.sort_uniq compare (List.map index_of values))
        in
        let subset =
          Cdb.of_list (List.map (fun v -> Cdb.fact "R" [ v ]) values)
        in
        let expected = Codd.is_completion db subset in
        Alcotest.(check bool)
          (Printf.sprintf "%s (m=%d)" name m)
          expected
          (Codd.kernel_is_completion k set);
        expected
      in
      let last i = Printf.sprintf "b%d_%d" i (List.nth sizes i - 1) in
      Alcotest.(check bool) "valid completion, high bits" true
        (check_set "one per null" [ "b0_0"; last 1; last 2 ]);
      Alcotest.(check bool) "double assignment fails matching" false
        (check_set "two from one null" [ "b0_0"; "b0_1"; "b1_0" ]);
      Alcotest.(check bool) "oversized set" false
        (check_set "four facts, three nulls"
           [ "b0_0"; "b1_0"; "b2_0"; last 2 ]);
      (* Full count: disjoint domains make completions exactly the
         choice tuples. *)
      let expected = List.fold_left (fun a d -> a * d) 1 sizes in
      check_nat
        (Printf.sprintf "count at universe %d" m)
        (Nat.of_int expected)
        (Comp_candidates.count ~max_candidates:m ~jobs:2 db))
    [ [ 21; 21; 21 ]; [ 21; 21; 22 ]; [ 21; 22; 22 ] ]

let prop_codd_overlapping_past_word =
  (* Three nulls whose domains are random halves of 80 values, plus the
     constant fact R(v79): about 70 candidates, and a fact usually has
     two or three producers, so the matcher must move nulls along
     augmenting paths at indices past the old word.  Random sets of 1-4
     facts, half of them with the constant's fact, against the
     materialized Codd.is_completion. *)
  QCheck.Test.make ~count:30
    ~name:"Codd matching on overlapping domains past one word"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let value i = Printf.sprintf "v%02d" i in
      let half () =
        match List.filter (fun _ -> Random.State.bool st) (List.init 80 value) with
        | [] -> [ value 0 ]
        | d -> d
      in
      let db =
        Idb.make
          [ Idb.fact "R" [ Term.null "a" ]; Idb.fact "R" [ Term.null "b" ];
            Idb.fact "R" [ Term.null "c" ]; Idb.fact "R" [ Term.const "v79" ] ]
          (Idb.Nonuniform [ ("a", half ()); ("b", half ()); ("c", half ()) ])
      in
      match Comp_candidates.universe_within db ~limit:80 with
      | None -> QCheck.assume_fail ()
      | Some universe ->
        let m = Array.length universe in
        QCheck.assume (m > 63);
        let k = Codd.kernel db ~universe in
        let const = m - 1 (* R(v79) sorts last *) in
        List.for_all
          (fun _ ->
            let picks =
              List.init (1 + Random.State.int st 4) (fun _ ->
                  Random.State.int st m)
            in
            let picks = if Random.State.bool st then const :: picks else picks in
            let set = Array.of_list (List.sort_uniq compare picks) in
            Codd.kernel_is_completion k set
            = Codd.is_completion db (subset_of universe set))
          (List.init 60 Fun.id))

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
          Alcotest.test_case "clause order" `Quick test_lineage_clause_order;
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
          Alcotest.test_case "huge universe refused early" `Quick
            test_huge_universe_refused_early;
          Alcotest.test_case "universe probe" `Quick test_universe_within_probe;
          Alcotest.test_case "walk counters pinned" `Quick
            test_walk_counters_pinned;
        ] );
      ( "past one word",
        [
          to_alcotest prop_walk_across_word;
          Alcotest.test_case "masks_pruned saturates" `Quick
            test_masks_pruned_saturates;
          Alcotest.test_case "beyond word ceiling" `Quick
            test_wide_beyond_word_ceiling;
          Alcotest.test_case "Codd matching at 63/64/65" `Quick
            test_codd_wide_matching_boundary;
          to_alcotest prop_codd_overlapping_past_word;
        ] );
    ]
