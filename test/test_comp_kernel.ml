(* Tests for the #Comp elimination kernel (Comp_kernel) and its
   dispatcher arm: hand-checked Codd and non-Codd instances (including
   the branch-overlap case where summing per-branch counts would
   overcount), typed-limit units for every Infeasible variant, the
   bag-boundary spill path, and qcheck agreement with the candidate
   enumerator and the parallel brute-force oracle on random Codd and
   non-Codd tables — counts and the deterministic elim counters
   bit-identical across jobs {1,2,4}, mask int/wide and cache on/off. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_core
module Brute = Incdb_par.Brute_par
module Metrics = Incdb_obs.Metrics

let check_nat = Gen.check_nat

(* The elim counters that must not depend on jobs / mask / cache (the
   cache hit/miss counters are excluded by design). *)
let elim_counters =
  [
    "comp_kernel.elim_dispatch";
    "comp_kernel.cond_branches";
    "comp_kernel.elim_states";
    "comp_kernel.elim_spilled_messages";
  ]

let with_elim_deltas f =
  let v n = Metrics.value (Metrics.counter n) in
  let before = List.map v elim_counters in
  let was = Incdb_obs.Runtime.enabled () in
  Incdb_obs.Runtime.set_enabled true;
  let y = Fun.protect ~finally:(fun () -> Incdb_obs.Runtime.set_enabled was) f in
  (y, List.map2 (fun n b -> (n, v n - b)) elim_counters before)

(* ------------------------------------------------------------------ *)
(* Hand-checked instances                                              *)
(* ------------------------------------------------------------------ *)

(* Codd, one unary relation, n nulls over a d-value domain: the number
   of completions is sum_{k=1..n} C(d,k). *)
let test_codd_one_unary () =
  let db =
    Idb.make
      [
        Idb.fact "R" [ Term.null "n0" ];
        Idb.fact "R" [ Term.null "n1" ];
      ]
      (Idb.Uniform [ "v0"; "v1"; "v2" ])
  in
  check_nat "C(3,1) + C(3,2)" (Nat.of_int 6) (Comp_kernel.count db);
  let brute = Brute.count_all_completions db in
  check_nat "matches brute force" brute (Comp_kernel.count db)

(* Non-Codd: R(n), S(n) over {0,1} — the two completions are
   {R(0),S(0)} and {R(1),S(1)}. *)
let shared_pair () =
  Idb.make
    [ Idb.fact "R" [ Term.null "n" ]; Idb.fact "S" [ Term.null "n" ] ]
    (Idb.Nonuniform [ ("n", [ "0"; "1" ]) ])

let test_noncodd_shared_pair () =
  let db = shared_pair () in
  check_nat "two completions" Nat.two (Comp_kernel.count db);
  let brute = Brute.count_all_completions db in
  check_nat "matches brute force" brute (Comp_kernel.count db)

(* The union-overcount trap: R(n), R(m), S(n), S(m), both nulls shared
   over {0,1}.  The assignments (n,m) = (0,1) and (1,0) produce the
   same completion {R(0),R(1),S(0),S(1)}, so summing per-branch counts
   would give 4; the joint sweep must give 3. *)
let test_noncodd_branch_overlap () =
  let db =
    Idb.make
      [
        Idb.fact "R" [ Term.null "n" ];
        Idb.fact "R" [ Term.null "m" ];
        Idb.fact "S" [ Term.null "n" ];
        Idb.fact "S" [ Term.null "m" ];
      ]
      (Idb.Nonuniform [ ("n", [ "0"; "1" ]); ("m", [ "0"; "1" ]) ])
  in
  check_nat "three distinct completions" (Nat.of_int 3) (Comp_kernel.count db);
  let brute = Brute.count_all_completions db in
  check_nat "matches brute force" brute (Comp_kernel.count db)

(* A repeated null inside one fact must condition, not ground the
   off-diagonal: R(n,n) over {0,1} has exactly the two diagonal
   completions. *)
let test_noncodd_diagonal () =
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "n"; Term.null "n" ] ]
      (Idb.Nonuniform [ ("n", [ "0"; "1" ]) ])
  in
  check_nat "diagonal only" Nat.two (Comp_kernel.count db);
  match Comp_kernel.plan db with
  | Error i -> Alcotest.failf "plan refused: %s" (Comp_kernel.infeasible_to_string i)
  | Ok p ->
    Alcotest.(check int) "two candidates" 2 (Comp_kernel.plan_universe p);
    Alcotest.(check int) "two branches" 2 (Comp_kernel.plan_branches p)

(* Queries through the lineage: the Figure 1 instance with S(x,x). *)
let test_query_figure1 () =
  let db =
    Idb.make
      [
        Idb.fact_of_strings "S" [ "a"; "b" ];
        Idb.fact_of_strings "S" [ "?n1"; "a" ];
        Idb.fact_of_strings "S" [ "a"; "?n2" ];
      ]
      (Idb.Nonuniform [ ("n1", [ "a"; "b"; "c" ]); ("n2", [ "a"; "b" ]) ])
  in
  let q = Cq.make [ Cq.atom "S" [ "x"; "x" ] ] in
  let _, expected = Count_comp.count ~comp_elim:Comp_kernel.Off q db in
  let got = Comp_kernel.count ~query:(Query.Bcq q) db in
  check_nat "kernel matches the enumerator" expected got;
  (* Negation compiles through the same lineage with the flag flipped:
     the two counts partition the completion space. *)
  let all = Comp_kernel.count db in
  let negated = Comp_kernel.count ~query:(Query.Not (Query.Bcq q)) db in
  check_nat "q and not-q partition the completions" all (Nat.add got negated)

(* Empty table: exactly one completion (the empty database), which
   satisfies no positive query. *)
let test_empty_table () =
  let db = Idb.make [] (Idb.Uniform [ "v" ]) in
  check_nat "one empty completion" Nat.one (Comp_kernel.count db);
  let q = Cq.make [ Cq.atom "R" [ "x" ] ] in
  check_nat "empty completion fails R(x)" Nat.zero
    (Comp_kernel.count ~query:(Query.Bcq q) db)

(* Unary R and S over one [d]-value domain (v0 .. v(d-1)): [shared]
   nulls ?p<k> in both relations, then [free_r] nulls only in R and
   [free_s] only in S, each over its own copy of the domain. *)
let unary_rs ?(shared = 1) ~d ~free_r ~free_s () =
  let dom = List.init d (fun i -> "v" ^ string_of_int i) in
  let nulls prefix k = List.init k (Printf.sprintf "%s%d" prefix) in
  let ps = nulls "p" shared and rs = nulls "r" free_r and ss = nulls "s" free_s in
  let facts rel names = List.map (fun n -> Idb.fact rel [ Term.null n ]) names in
  Idb.make
    (facts "R" (ps @ rs) @ facts "S" (ps @ ss))
    (Idb.Nonuniform (List.map (fun n -> (n, dom)) (ps @ rs @ ss)))

let rs_query = Query.Bcq (Cq.make [ Cq.atom "R" [ "x" ]; Cq.atom "S" [ "x" ] ])

(* Completions of R(x), S(x) when R takes at most [r] distinct values
   and S at most [s], out of [d]: an R-set of size i and an S-set of
   size j that meet, sum_{i<=r} sum_{j<=s} C(d,i)·(C(d,j) - C(d-i,j)).
   With one shared null the R- and S-sets must meet anyway (at ?p), so
   [r] = 1 + free_r and [s] = 1 + free_s count the shared tables too. *)
let meeting_pairs ~d ~r ~s =
  let c = Combinat.binomial in
  Nat.sum
    (List.concat_map
       (fun i ->
         List.init (s + 1) (fun j -> Nat.mul (c d i) (Nat.sub (c d j) (c (d - i) j))))
       (List.init (r + 1) Fun.id))

(* The shared null on either side of the free nulls: one free R-null
   and two free S-nulls, then the mirror.  A sweep that takes one
   relation before the other is cheap in one orientation only. *)
let test_shared_either_side () =
  let expected = meeting_pairs ~d:12 ~r:2 ~s:3 in
  check_nat "closed form" (Nat.of_int 8922) expected;
  List.iter
    (fun (free_r, free_s) ->
      let db = unary_rs ~d:12 ~free_r ~free_s () in
      let label = Printf.sprintf "free R %d, free S %d" free_r free_s in
      check_nat (label ^ ": brute force") expected (Brute.count_completions rs_query db);
      check_nat (label ^ ": kernel") expected (Comp_kernel.count ~query:rs_query db))
    [ (1, 2); (2, 1) ]

(* The sweep closes windows as it goes: a shared-null frontier holds
   hundreds of pooled states, not one per subset of open clauses, and a
   Codd frontier does not grow with the domain. *)
let test_frontier_small () =
  let states db =
    let n, deltas = with_elim_deltas (fun () -> Comp_kernel.count ~query:rs_query db) in
    (n, List.assoc "comp_kernel.elim_states" deltas)
  in
  let n, st = states (unary_rs ~d:30 ~free_r:1 ~free_s:2 ()) in
  check_nat "shared d=30" (Nat.of_int 379785) n;
  check_nat "shared d=30 closed form" (meeting_pairs ~d:30 ~r:2 ~s:3) n;
  if st > 5_000 then Alcotest.failf "shared d=30 swept %d states (at most 5000)" st;
  let n, st = states (unary_rs ~shared:0 ~d:30 ~free_r:4 ~free_s:4 ()) in
  check_nat "Codd 4+4 d=30" (Nat.of_int 432941320) n;
  check_nat "Codd 4+4 d=30 closed form" (meeting_pairs ~d:30 ~r:4 ~s:4) n;
  if st > 10_000 then Alcotest.failf "Codd 4+4 d=30 swept %d states (at most 10000)" st

(* ------------------------------------------------------------------ *)
(* Typed limits                                                        *)
(* ------------------------------------------------------------------ *)

let test_limits () =
  let db = shared_pair () in
  (match Comp_kernel.plan ~width_bound:0 db with
  | Error (Comp_kernel.Width_exceeded { bound = 0; _ }) -> ()
  | Error i ->
    Alcotest.failf "expected Width_exceeded, got %s"
      (Comp_kernel.infeasible_to_string i)
  | Ok _ -> Alcotest.fail "expected Width_exceeded, got a plan");
  (match Comp_kernel.plan ~max_branches:1 db with
  | Error (Comp_kernel.Too_many_branches { limit = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected Too_many_branches");
  (match Comp_kernel.plan ~max_universe:1 db with
  | Error (Comp_kernel.Universe_too_large { limit = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected Universe_too_large");
  (match Comp_kernel.count ~max_states:1 db with
  | exception Comp_kernel.Infeasible (Comp_kernel.Too_many_states { limit = 1; _ })
    -> ()
  | _ -> Alcotest.fail "expected Too_many_states");
  (* The same width failure raised through the convenience wrapper. *)
  match Comp_kernel.count ~width_bound:0 db with
  | exception Comp_kernel.Infeasible (Comp_kernel.Width_exceeded _) -> ()
  | _ -> Alcotest.fail "expected Infeasible through count"

(* Dispatcher: --comp-width-bound 0 under Auto must fall back (typed
   failure at plan time), and a mid-run state blowup under Auto must
   fall back to brute force with the same count. *)
let test_dispatcher_fallback () =
  let db = shared_pair () in
  let algo, n = Count_comp.count_all ~comp_width_bound:0 db in
  Alcotest.(check string)
    "width bound 0 falls back to brute force"
    (Count_comp.algorithm_to_string Count_comp.Brute_force)
    (Count_comp.algorithm_to_string algo);
  check_nat "fallback count" Nat.two n;
  let algo, n = Count_comp.count_all ~comp_max_states:1 db in
  Alcotest.(check string)
    "mid-run state blowup falls back to brute force"
    (Count_comp.algorithm_to_string Count_comp.Brute_force)
    (Count_comp.algorithm_to_string algo);
  check_nat "mid-run fallback count" Nat.two n;
  (* Force propagates instead. *)
  (match Count_comp.count_all ~comp_elim:Comp_kernel.Force ~comp_width_bound:0 db with
  | exception Comp_kernel.Infeasible (Comp_kernel.Width_exceeded _) -> ()
  | _ -> Alcotest.fail "Force must raise Infeasible");
  (* Off restores the pre-kernel policy: non-Codd goes brute. *)
  let algo, _ = Count_comp.count_all ~comp_elim:Comp_kernel.Off db in
  Alcotest.(check string) "Off routes non-Codd to brute force"
    (Count_comp.algorithm_to_string Count_comp.Brute_force)
    (Count_comp.algorithm_to_string algo)

(* ------------------------------------------------------------------ *)
(* Spill path                                                          *)
(* ------------------------------------------------------------------ *)

let test_spill_agreement () =
  let db =
    (* Two components (R-bits, S-bits) => at least two bags, and a
       frontier of more than one state at the boundary. *)
    Idb.make
      [
        Idb.fact "R" [ Term.null "n" ];
        Idb.fact "R" [ Term.null "r0" ];
        Idb.fact "S" [ Term.null "n" ];
        Idb.fact "S" [ Term.null "s0" ];
      ]
      (Idb.Nonuniform
         [
           ("n", [ "0"; "1"; "2" ]);
           ("r0", [ "0"; "1"; "2" ]);
           ("s0", [ "0"; "1"; "2" ]);
         ])
  in
  let reference = Comp_kernel.count db in
  let brute = Brute.count_all_completions db in
  check_nat "reference matches brute" brute reference;
  let spilled, deltas =
    with_elim_deltas (fun () -> Comp_kernel.count ~max_cells:1 db)
  in
  check_nat "count unchanged under max_cells 1" reference spilled;
  let spill_delta = List.assoc "comp_kernel.elim_spilled_messages" deltas in
  if spill_delta < 1 then
    Alcotest.failf "expected at least one spilled message, saw %d" spill_delta;
  (* And with the transform cache off. *)
  check_nat "spill x cache-off unchanged" reference
    (Comp_kernel.count ~max_cells:1 ~cache:false db)

(* ------------------------------------------------------------------ *)
(* Agreement properties                                                *)
(* ------------------------------------------------------------------ *)

let force_count ?jobs ?mask ?cache q db =
  Count_comp.count ?jobs ?mask ~comp_elim:Comp_kernel.Force ?comp_cache:cache q
    db

(* Random (Codd and non-Codd) tables, no query: kernel vs brute dedup. *)
let prop_kernel_vs_brute_all =
  QCheck.Test.make ~count:120 ~name:"comp_kernel count_all = brute dedup"
    QCheck.(triple small_int bool bool)
    (fun (seed, codd, uniform) ->
      let schema = [ ("R", 1); ("S", 2) ] in
      let db = Gen.random_idb ~seed ~schema ~rows:2 ~codd ~uniform in
      QCheck.assume (Gen.manageable ~limit:50_000 db);
      match Comp_kernel.count db with
      | exception Comp_kernel.Infeasible _ -> QCheck.assume_fail ()
      | n ->
        let brute = Brute.count_all_completions db in
        Nat.equal n brute)

(* Random query + random table: the dispatcher's forced elimination arm
   vs brute force. *)
let prop_kernel_vs_brute_query =
  QCheck.Test.make ~count:120 ~name:"comp_kernel query count = brute dedup"
    QCheck.(triple small_int small_int bool)
    (fun (qseed, dbseed, codd) ->
      let q = Gen.random_sjfbcq ~seed:qseed in
      let db =
        Gen.random_idb ~seed:dbseed ~schema:(Gen.schema_of_query q) ~rows:2
          ~codd ~uniform:false
      in
      QCheck.assume (Gen.manageable ~limit:50_000 db);
      match force_count q db with
      | exception Comp_kernel.Infeasible _ -> QCheck.assume_fail ()
      | _, n ->
        let brute = Brute.count_completions (Query.Bcq q) db in
        Nat.equal n brute)

(* Random Codd tables inside the enumerator's range: kernel vs
   Comp_candidates, both through the dispatcher. *)
let prop_kernel_vs_enumerator =
  QCheck.Test.make ~count:120 ~name:"comp_kernel = candidate enumerator"
    QCheck.(pair small_int small_int)
    (fun (qseed, dbseed) ->
      let q = Gen.random_sjfbcq ~seed:qseed in
      let db =
        Gen.random_idb ~seed:dbseed ~schema:(Gen.schema_of_query q) ~rows:2
          ~codd:true ~uniform:false
      in
      QCheck.assume (Idb.is_codd db);
      QCheck.assume
        (Option.is_some (Comp_candidates.universe_within db ~limit:60));
      match force_count q db with
      | exception Comp_kernel.Infeasible _ -> QCheck.assume_fail ()
      | _, n -> (
        match Count_comp.count ~comp_elim:Comp_kernel.Off q db with
        | Count_comp.Candidate_enumeration, m -> Nat.equal n m
        | algo, m ->
          (* Theorem 4.6 instances dispatch to the closed form; still
             must agree. *)
          ignore algo;
          Nat.equal n m))

(* Counts AND deterministic counter deltas bit-identical across
   jobs {1,2,4} x mask int/wide x cache on/off. *)
let prop_config_invariance =
  QCheck.Test.make ~count:40
    ~name:"comp_kernel invariant across jobs x mask x cache"
    QCheck.(triple small_int bool bool)
    (fun (seed, codd, uniform) ->
      let schema = [ ("R", 1); ("S", 2) ] in
      let db = Gen.random_idb ~seed ~schema ~rows:2 ~codd ~uniform in
      QCheck.assume (Gen.manageable ~limit:50_000 db);
      let q = Cq.make [ Cq.atom "R" [ "x" ]; Cq.atom "S" [ "x"; "y" ] ] in
      let run jobs mask cache =
        with_elim_deltas (fun () -> force_count ~jobs ~mask ~cache q db)
      in
      match run 1 Comp_candidates.Auto true with
      | exception Comp_kernel.Infeasible _ -> QCheck.assume_fail ()
      | (ref_algo, ref_n), ref_deltas ->
        List.for_all
          (fun (jobs, mask, cache) ->
            let (algo, n), deltas = run jobs mask cache in
            algo = ref_algo && Nat.equal n ref_n && deltas = ref_deltas)
          [
            (2, Comp_candidates.Auto, true);
            (4, Comp_candidates.Auto, true);
            (1, Comp_candidates.Int_masks, true);
            (1, Comp_candidates.Wide_masks, true);
            (1, Comp_candidates.Auto, false);
            (2, Comp_candidates.Wide_masks, false);
            (4, Comp_candidates.Int_masks, false);
          ])

(* Unary pairs whose R and S share 1-2 nulls, plus 0-2 free nulls and
   0-2 constants per relation, every domain 1-5 values out of 6: forced
   elimination against brute-force dedup, with and without R(x), S(x),
   and the count unchanged when R and S swap names. *)
let shared_pair_table ~seed ~swap =
  let st = Random.State.make [| seed |] in
  let pool = Array.init 6 (fun i -> "v" ^ string_of_int i) in
  let pick () =
    let k = 1 + Random.State.int st 5 in
    let a = Array.copy pool in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list (Array.sub a 0 k)
  in
  let nulls prefix k = List.init k (fun i -> Printf.sprintf "%s%d" prefix i) in
  let ps = nulls "p" (1 + Random.State.int st 2) in
  let rs = nulls "r" (Random.State.int st 3) and ss = nulls "s" (Random.State.int st 3) in
  let cr = List.init (Random.State.int st 3) (fun _ -> pool.(Random.State.int st 6)) in
  let cs = List.init (Random.State.int st 3) (fun _ -> pool.(Random.State.int st 6)) in
  let doms = List.map (fun n -> (n, pick ())) (ps @ rs @ ss) in
  let r, s = if swap then ("S", "R") else ("R", "S") in
  let facts rel names consts =
    List.map (fun n -> Idb.fact rel [ Term.null n ]) names
    @ List.map (fun c -> Idb.fact rel [ Term.const c ]) consts
  in
  Idb.make (facts r (ps @ rs) cr @ facts s (ps @ ss) cs) (Idb.Nonuniform doms)

let prop_shared_pairs =
  QCheck.Test.make ~count:150 ~name:"comp_kernel shared-null unary pairs = brute dedup"
    QCheck.(pair small_int bool)
    (fun (seed, with_query) ->
      let db = shared_pair_table ~seed ~swap:false in
      let mirror = shared_pair_table ~seed ~swap:true in
      let forced db =
        if with_query then
          snd (Count_comp.count ~comp_elim:Comp_kernel.Force
                 (Cq.make [ Cq.atom "R" [ "x" ]; Cq.atom "S" [ "x" ] ]) db)
        else snd (Count_comp.count_all ~comp_elim:Comp_kernel.Force db)
      in
      let brute =
        if with_query then Brute.count_completions rs_query db
        else Brute.count_all_completions db
      in
      let n = forced db in
      Nat.equal n brute && Nat.equal n (forced mirror))

let () =
  Alcotest.run "comp_kernel"
    [
      ( "hand",
        [
          Alcotest.test_case "codd one unary" `Quick test_codd_one_unary;
          Alcotest.test_case "non-codd shared pair" `Quick
            test_noncodd_shared_pair;
          Alcotest.test_case "non-codd branch overlap" `Quick
            test_noncodd_branch_overlap;
          Alcotest.test_case "non-codd diagonal" `Quick test_noncodd_diagonal;
          Alcotest.test_case "query figure1" `Quick test_query_figure1;
          Alcotest.test_case "empty table" `Quick test_empty_table;
          Alcotest.test_case "shared null on either side" `Quick
            test_shared_either_side;
          Alcotest.test_case "frontier stays small" `Quick test_frontier_small;
        ] );
      ( "limits",
        [
          Alcotest.test_case "typed limits" `Quick test_limits;
          Alcotest.test_case "dispatcher fallback" `Quick
            test_dispatcher_fallback;
        ] );
      ("spill", [ Alcotest.test_case "spill agreement" `Quick test_spill_agreement ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_kernel_vs_brute_all;
          QCheck_alcotest.to_alcotest prop_kernel_vs_brute_query;
          QCheck_alcotest.to_alcotest prop_kernel_vs_enumerator;
          QCheck_alcotest.to_alcotest prop_config_invariance;
          QCheck_alcotest.to_alcotest prop_shared_pairs;
        ] );
    ]
