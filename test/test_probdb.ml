(* The Section 7 comparison substrate: tuple-independent and BID
   probabilistic databases, counting repairs under primary keys, and the
   bridge to incomplete databases. *)

open Incdb_bignum
open Incdb_relational
open Incdb_cq
open Incdb_incomplete
open Incdb_probdb

let qn = Alcotest.testable Qnum.pp Qnum.equal
let check_nat = Gen.check_nat

let half = Qnum.of_ints 1 2
let third = Qnum.of_ints 1 3

(* ------------------------------------------------------------------ *)
(* TID                                                                 *)
(* ------------------------------------------------------------------ *)

let test_tid_basics () =
  let t =
    Tid.make [ (Cdb.fact "R" [ "a" ], half); (Cdb.fact "S" [ "a" ], third) ]
  in
  Alcotest.(check int) "four worlds" 4 (List.length (Tid.worlds t));
  let total =
    List.fold_left (fun acc (_, p) -> Qnum.add acc p) Qnum.zero (Tid.worlds t)
  in
  Alcotest.check qn "probabilities sum to 1" Qnum.one total;
  (* Prob(R(x) ∧ S(x)) = 1/2 * 1/3 (independence). *)
  Alcotest.check qn "independent conjunction" (Qnum.of_ints 1 6)
    (Tid.probability (Query.Bcq (Cq.of_string "R(x), S(x)")) t);
  (* Prob(R(x)) = 1/2. *)
  Alcotest.check qn "marginal" half
    (Tid.probability (Query.Bcq (Cq.of_string "R(x)")) t)

let test_tid_validation () =
  Alcotest.check_raises "probability out of range"
    (Invalid_argument "Tid.make: probability outside [0,1]") (fun () ->
      ignore (Tid.make [ (Cdb.fact "R" [ "a" ], Qnum.of_int 2) ]));
  Alcotest.check_raises "duplicate fact"
    (Invalid_argument "Tid.make: duplicate fact") (fun () ->
      ignore
        (Tid.make [ (Cdb.fact "R" [ "a" ], half); (Cdb.fact "R" [ "a" ], half) ]))

let prop_tid_union_bound =
  QCheck.Test.make ~count:60 ~name:"TID: monotone query probability bounds"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let t =
        Tid.make
          (List.init 5 (fun i ->
               ( Cdb.fact "R" [ string_of_int i; string_of_int (Random.State.int st 3) ],
                 Qnum.of_ints (1 + Random.State.int st 3) 4 )))
      in
      let p1 = Tid.probability (Query.Bcq (Cq.of_string "R(x,y)")) t in
      let p2 = Tid.probability (Query.Bcq (Cq.of_string "R(x,x)")) t in
      (* monotone containment R(x,x) |= R(x,y): Prob(Rxx) <= Prob(Rxy);
         and both probabilities live in [0,1]. *)
      Qnum.compare p2 p1 <= 0
      && Qnum.compare p1 Qnum.one <= 0
      && Qnum.sign p1 >= 0)

(* ------------------------------------------------------------------ *)
(* BID and repairs                                                     *)
(* ------------------------------------------------------------------ *)

let test_bid_basics () =
  let b =
    Bid.make
      [
        [ (Cdb.fact "R" [ "a" ], half); (Cdb.fact "R" [ "b" ], half) ];
        [ (Cdb.fact "S" [ "a" ], third) ];
      ]
  in
  (* 2 choices x (1 + absent) = 4 worlds. *)
  Alcotest.(check int) "worlds" 4 (List.length (Bid.worlds b));
  let total =
    List.fold_left (fun acc (_, p) -> Qnum.add acc p) Qnum.zero (Bid.worlds b)
  in
  Alcotest.check qn "sums to 1" Qnum.one total;
  (* Prob(R(x) ∧ S(x)) = Prob(R(a)) * Prob(S(a)) = 1/2 * 1/3. *)
  Alcotest.check qn "conjunction" (Qnum.of_ints 1 6)
    (Bid.probability (Query.Bcq (Cq.of_string "R(x), S(x)")) b)

let test_bid_validation () =
  Alcotest.check_raises "block overflow"
    (Invalid_argument "Bid.make: invalid block probabilities") (fun () ->
      ignore
        (Bid.make [ [ (Cdb.fact "R" [ "a" ], half); (Cdb.fact "R" [ "b" ], Qnum.of_ints 2 3) ] ]))

let conflicting_db () =
  (* Emp(name, dept): key = name; alice is recorded twice. *)
  Repairs.make
    ~keys:[ ("Emp", [ 0 ]) ]
    [
      Cdb.fact "Emp" [ "alice"; "sales" ];
      Cdb.fact "Emp" [ "alice"; "hr" ];
      Cdb.fact "Emp" [ "bob"; "hr" ];
      Cdb.fact "Dept" [ "hr" ];
    ]

let test_repairs_basics () =
  let r = conflicting_db () in
  Alcotest.(check int) "three groups" 3 (List.length (Repairs.groups r));
  check_nat "two repairs" (Nat.of_int 2) (Repairs.total_repairs r);
  (* q: someone works in a listed department. *)
  let q = Query.Bcq (Cq.of_string "Emp(n, d), Dept(d)") in
  (* both repairs keep bob->hr and Dept(hr), so q holds in both *)
  check_nat "both repairs satisfy" (Nat.of_int 2)
    (Repairs.count_repairs ~query:q r);
  (* A query true in exactly one repair: no employee outside hr.  The
     negation of "someone is in a department with no Dept fact" is not a
     BCQ, so phrase it through counting: alice-in-hr holds in one repair
     via the pigeonhole on the two repairs above. *)
  let one_repair =
    Repairs.count_repairs
      ~query:(Query.Not (Query.Bcq (Cq.of_string "Emp(n, d), Dept(d)")))
      r
  in
  check_nat "negation counts the rest" Nat.zero one_repair

let prop_repairs_bid_correspondence =
  QCheck.Test.make ~count:40
    ~name:"uniform BID probability = #Repairs(q)/total"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let facts =
        List.init 6 (fun i ->
            Cdb.fact "R"
              [ string_of_int (Random.State.int st 3); string_of_int i ])
        @ [ Cdb.fact "S" [ string_of_int (Random.State.int st 3) ] ]
      in
      let r = Repairs.make ~keys:[ ("R", [ 0 ]) ] facts in
      let q = Query.Bcq (Cq.of_string "R(x,y), S(x)") in
      let count = Repairs.count_repairs ~query:q r in
      let total = Repairs.total_repairs r in
      let prob = Bid.probability q (Repairs.to_bid r) in
      Qnum.equal prob
        (Qnum.make (Zint.of_nat count) (Zint.of_nat total)))

(* Every repair is a distinct database — the structural property the
   paper contrasts with valuations (which may collide). *)
let prop_repairs_distinct =
  QCheck.Test.make ~count:40 ~name:"repairs never collide"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let facts =
        List.init 5 (fun i ->
            Cdb.fact "R"
              [ string_of_int (Random.State.int st 2); "v" ^ string_of_int i ])
      in
      let r = Repairs.make ~keys:[ ("R", [ 0 ]) ] facts in
      let bid_worlds = Bid.worlds (Repairs.to_bid r) in
      let dbs = List.map fst bid_worlds in
      List.length (List.sort_uniq Cdb.compare dbs) = List.length dbs)

(* ------------------------------------------------------------------ *)
(* The bridge to incomplete databases                                  *)
(* ------------------------------------------------------------------ *)

let figure1_db () =
  Idb.make
    [
      Idb.fact_of_strings "S" [ "a"; "b" ];
      Idb.fact_of_strings "S" [ "?n1"; "a" ];
      Idb.fact_of_strings "S" [ "a"; "?n2" ];
    ]
    (Idb.Nonuniform [ ("n1", [ "a"; "b"; "c" ]); ("n2", [ "a"; "b" ]) ])

let test_worlds_bridge () =
  let db = figure1_db () in
  let q = Query.Bcq (Cq.of_string "S(x,x)") in
  (* Prob(q) = #Val / total = 4/6 = 2/3. *)
  Alcotest.check qn "Prob = #Val/total" (Qnum.of_ints 2 3)
    (Worlds.probability q db);
  let worlds = Worlds.of_incomplete db in
  Alcotest.(check int) "five distinct worlds" 5 (List.length worlds);
  let total =
    List.fold_left (fun acc (_, p) -> Qnum.add acc p) Qnum.zero worlds
  in
  Alcotest.check qn "distribution sums to 1" Qnum.one total;
  (* 6 valuations but 5 completions: exactly one collision. *)
  check_nat "one collision" Nat.one (Worlds.collision_count db)

let prop_bridge_probability =
  QCheck.Test.make ~count:60 ~name:"Worlds.probability = #Val / total"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 2); ("S", 1) ] ~rows:2
          ~codd:(seed mod 2 = 0) ~uniform:(seed mod 3 = 0)
      in
      QCheck.assume (Gen.manageable db);
      let q = Query.Bcq (Cq.of_string "R(x,y), S(y)") in
      let vals = Brute.count_valuations q db in
      let total = Idb.total_valuations db in
      Qnum.equal (Worlds.probability q db)
        (if Nat.is_zero total then Qnum.one
         else Qnum.make (Zint.of_nat vals) (Zint.of_nat total)))

(* ------------------------------------------------------------------ *)
(* Independent-null probabilistic incomplete databases                 *)
(* ------------------------------------------------------------------ *)

let test_indnull_uniform_is_counting () =
  let db = figure1_db () in
  let t = Indnull.uniform db in
  let q = Query.Bcq (Cq.of_string "S(x,x)") in
  (* uniform weights recover #Val / total = 2/3 *)
  Alcotest.check qn "uniform = counting" (Qnum.of_ints 2 3)
    (Indnull.probability_brute q t)

let test_indnull_weighted () =
  (* One null, biased: R(?n), dom {a,b}, P(a) = 3/4; q = R(x) ∧ S(x) with
     S(a) fixed: probability = P(n = a) = 3/4. *)
  let db =
    Idb.make
      [ Idb.fact_of_strings "R" [ "?n" ]; Idb.fact_of_strings "S" [ "a" ] ]
      (Idb.Nonuniform [ ("n", [ "a"; "b" ]) ])
  in
  let t =
    Indnull.make db [ ("n", [ ("a", Qnum.of_ints 3 4); ("b", Qnum.of_ints 1 4) ]) ]
  in
  let q = Query.Bcq (Cq.of_string "R(x), S(x)") in
  Alcotest.check qn "biased" (Qnum.of_ints 3 4) (Indnull.probability_brute q t);
  Alcotest.check qn "weight lookup" (Qnum.of_ints 1 4) (Indnull.weight t "n" "b")

let test_indnull_validation () =
  let db =
    Idb.make [ Idb.fact_of_strings "R" [ "?n" ] ]
      (Idb.Nonuniform [ ("n", [ "a"; "b" ]) ])
  in
  Alcotest.check_raises "bad sum"
    (Invalid_argument "Indnull.make: weights of n do not sum to 1") (fun () ->
      ignore (Indnull.make db [ ("n", [ ("a", Qnum.of_ints 1 2) ]) ]));
  Alcotest.check_raises "value outside domain"
    (Invalid_argument "Indnull.make: c outside domain of n") (fun () ->
      ignore
        (Indnull.make db
           [ ("n", [ ("a", Qnum.of_ints 1 2); ("c", Qnum.of_ints 1 2) ]) ]))

let random_weighted seed db =
  let st = Random.State.make [| seed |] in
  Indnull.make db
    (List.map
       (fun n ->
         let dom = Incdb_incomplete.Idb.domain_of db n in
         let raw = List.map (fun v -> (v, 1 + Random.State.int st 4)) dom in
         let total = List.fold_left (fun s (_, w) -> s + w) 0 raw in
         (n, List.map (fun (v, w) -> (v, Qnum.of_ints w total)) raw))
       (Incdb_incomplete.Idb.nulls db))

let prop_indnull_codd =
  QCheck.Test.make ~count:60
    ~name:"weighted Thm 3.7 probability = enumeration"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 2); ("S", 1) ] ~rows:2 ~codd:true
          ~uniform:(seed mod 3 = 0)
      in
      QCheck.assume (Gen.manageable db);
      let t = random_weighted seed db in
      let q = Cq.of_string "R(x,x), S(y)" in
      Qnum.equal
        (Indnull.probability_codd q t)
        (Indnull.probability_brute (Query.Bcq q) t))

let prop_indnull_single =
  QCheck.Test.make ~count:40
    ~name:"weighted Thm 3.6 probability = enumeration"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 2) ] ~rows:2 ~codd:(seed mod 2 = 0)
          ~uniform:(seed mod 3 = 0)
      in
      QCheck.assume (Gen.manageable db);
      let t = random_weighted seed db in
      let q = Cq.of_string "R(x,y)" in
      Qnum.equal
        (Indnull.probability_single_occurrence q t)
        (Indnull.probability_brute (Query.Bcq q) t))

let prop_uniform_weighted ~name ~rows query schema =
  (* The weighted Thm 3.9 DP equals weighted enumeration, and uniform
     weights reproduce #Val/total. *)
  QCheck.Test.make ~count:50 ~name
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema ~rows ~codd:(seed mod 2 = 0) ~uniform:true
      in
      QCheck.assume (Gen.manageable db);
      let dom =
        match Idb.domain_spec db with
        | Idb.Uniform dom -> dom
        | Idb.Nonuniform _ -> assert false
      in
      let st = Random.State.make [| seed |] in
      let raw = List.map (fun v -> (v, 1 + Random.State.int st 4)) dom in
      let total = List.fold_left (fun s (_, w) -> s + w) 0 raw in
      let weight a =
        Qnum.of_ints (List.assoc a raw) total
      in
      let q = Cq.of_string query in
      let via_dp = Incdb_core.Count_val.uniform_weighted q db ~weight in
      (* reference: weighted enumeration through Indnull with the shared
         distribution attached to every null *)
      let shared =
        Indnull.make db
          (List.map
             (fun n ->
               (n, List.map (fun (v, w) -> (v, Qnum.of_ints w total)) raw))
             (Idb.nulls db))
      in
      let brute = Indnull.probability_brute (Query.Bcq q) shared in
      Qnum.equal via_dp brute)

let prop_uniform_weighted_rx_sx =
  prop_uniform_weighted ~name:"weighted Thm 3.9 DP = enumeration" ~rows:3
    "R(x), S(x)" [ ("R", 1); ("S", 1) ]

(* Two basic singletons: four signed Lemma A.13 terms. *)
let prop_uniform_weighted_two_groups =
  prop_uniform_weighted
    ~name:"weighted Thm 3.9 DP = enumeration, two singletons" ~rows:2
    "R(x), S(x), T(y), U(y)" [ ("R", 1); ("S", 1); ("T", 1); ("U", 1) ]

let test_uniform_weighted_recovers_counting () =
  let db =
    Idb.make
      [
        Idb.fact_of_strings "R" [ "?a" ];
        Idb.fact_of_strings "R" [ "?b" ];
        Idb.fact_of_strings "S" [ "?c" ];
      ]
      (Idb.Uniform [ "0"; "1"; "2" ])
  in
  let q = Cq.of_string "R(x), S(x)" in
  let p =
    Incdb_core.Count_val.uniform_weighted q db ~weight:(fun _ -> Qnum.of_ints 1 3)
  in
  let vals = Incdb_core.Count_val.uniform_naive q db in
  let expected =
    Qnum.make (Zint.of_nat vals) (Zint.of_nat (Idb.total_valuations db))
  in
  Alcotest.check qn "uniform weights = #Val/total" expected p

let test_uniform_weighted_errors () =
  (* The weighted engine names itself, not the counting engine, in its
     errors. *)
  let db =
    Idb.make
      [ Idb.fact_of_strings "R" [ "?a" ]; Idb.fact_of_strings "S" [ "?b" ] ]
      (Idb.Nonuniform [ ("a", [ "0"; "1" ]); ("b", [ "0" ]) ])
  in
  Alcotest.check_raises "non-uniform table"
    (Invalid_argument "Count_val.uniform_weighted: database is not uniform")
    (fun () ->
      ignore
        (Incdb_core.Count_val.uniform_weighted (Cq.of_string "R(x), S(x)") db
           ~weight:(fun _ -> Qnum.of_ints 1 2)))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_tid_union_bound;
        prop_repairs_bid_correspondence;
        prop_repairs_distinct;
        prop_bridge_probability;
        prop_indnull_codd;
        prop_indnull_single;
        prop_uniform_weighted_rx_sx;
        prop_uniform_weighted_two_groups;
      ]
  in
  Alcotest.run "probdb"
    [
      ( "tid",
        [
          Alcotest.test_case "basics" `Quick test_tid_basics;
          Alcotest.test_case "validation" `Quick test_tid_validation;
        ] );
      ( "bid-repairs",
        [
          Alcotest.test_case "bid basics" `Quick test_bid_basics;
          Alcotest.test_case "bid validation" `Quick test_bid_validation;
          Alcotest.test_case "repairs" `Quick test_repairs_basics;
        ] );
      ( "indnull",
        [
          Alcotest.test_case "uniform is counting" `Quick
            test_indnull_uniform_is_counting;
          Alcotest.test_case "biased weights" `Quick test_indnull_weighted;
          Alcotest.test_case "validation" `Quick test_indnull_validation;
          Alcotest.test_case "weighted Thm 3.9" `Quick
            test_uniform_weighted_recovers_counting;
          Alcotest.test_case "weighted Thm 3.9 errors" `Quick
            test_uniform_weighted_errors;
        ] );
      ( "bridge",
        [ Alcotest.test_case "figure 1 distribution" `Quick test_worlds_bridge ] );
      ("properties", props);
    ]
