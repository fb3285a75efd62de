(* Tests for the multicore execution layer: the domain pool and sharded
   brute force.

   The load-bearing properties are the agreement ones: for any instance
   and any job count the parallel engines must return bit-identical
   results to their sequential counterparts. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_par

let job_levels = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_resolve () =
  Alcotest.(check bool) "0 resolves to recommended >= 1" true
    (Pool.resolve 0 >= 1);
  Alcotest.(check int) "positive passes through" 3 (Pool.resolve 3);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Pool.resolve: negative job count") (fun () ->
      ignore (Pool.resolve (-2)))

let test_pool_run_order () =
  List.iter
    (fun jobs ->
      let tasks = List.init 23 (fun i () -> i * i) in
      Alcotest.(check (list int))
        (Printf.sprintf "results in task order (jobs=%d)" jobs)
        (List.init 23 (fun i -> i * i))
        (Pool.run ~jobs tasks))
    job_levels;
  Alcotest.(check (list int)) "no tasks" [] (Pool.run ~jobs:4 [])

exception Boom of int

let test_pool_run_exception () =
  List.iter
    (fun jobs ->
      match
        Pool.run ~jobs
          (List.init 8 (fun i () -> if i mod 2 = 1 then raise (Boom i) else i))
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        (* The lowest-indexed failing task wins, whatever the schedule. *)
        Alcotest.(check int)
          (Printf.sprintf "lowest failure re-raised (jobs=%d)" jobs)
          1 i)
    job_levels

(* ------------------------------------------------------------------ *)
(* Prefix enumeration and the typed limit exception                    *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  Idb.make
    [
      Idb.fact "S" [ Term.const "a"; Term.const "b" ];
      Idb.fact "S" [ Term.null "n1"; Term.const "a" ];
      Idb.fact "S" [ Term.const "a"; Term.null "n2" ];
    ]
    (Idb.Nonuniform [ ("n1", [ "a"; "b"; "c" ]); ("n2", [ "a"; "b" ]) ])

let test_prefix_partitions () =
  let db = figure1 () in
  let whole = ref [] in
  Idb.iter_valuations db (fun v -> whole := v :: !whole);
  let sharded = ref [] in
  List.iter
    (fun c ->
      Idb.iter_valuations_prefix db ~prefix:[ ("n1", c) ] (fun v ->
          sharded := v :: !sharded))
    (Idb.domain_of db "n1");
  let norm vs =
    List.sort compare (List.map (fun v -> List.sort compare v) vs)
  in
  Alcotest.(check (list (list (pair string string))))
    "shards partition the valuation stream" (norm !whole) (norm !sharded);
  Alcotest.check_raises "bad prefix value rejected"
    (Invalid_argument
       "Idb.iter_valuations_prefix: value z outside domain of null n1")
    (fun () -> Idb.iter_valuations_prefix db ~prefix:[ ("n1", "z") ] ignore)

let test_too_many_valuations () =
  let db = figure1 () in
  (try
     Idb.iter_valuations ~limit:2 db ignore;
     Alcotest.fail "expected Too_many_valuations"
   with Idb.Too_many_valuations { total; limit } ->
     Gen.check_nat "payload total" (Nat.of_int 6) total;
     Alcotest.(check int) "payload limit" 2 limit);
  try
    ignore (Brute_par.count_valuations ~limit:3 ~jobs:2 (Query.Bcq Cq.q_rx)
              (figure1 ()));
    Alcotest.fail "expected Too_many_valuations from the sharded engine"
  with Idb.Too_many_valuations { limit = 3; _ } -> ()

(* ------------------------------------------------------------------ *)
(* Deterministic Figure 1 agreement                                    *)
(* ------------------------------------------------------------------ *)

let test_figure1_counts () =
  let db = figure1 () in
  let q = Query.Bcq (Cq.of_string "S(x,y), S(y,x)") in
  List.iter
    (fun jobs ->
      let tag s = Printf.sprintf "%s (jobs=%d)" s jobs in
      Gen.check_nat (tag "#Val") (Nat.of_int 5)
        (Brute_par.count_valuations ~jobs q db);
      Gen.check_nat (tag "#Comp") (Nat.of_int 4)
        (Brute_par.count_completions ~jobs q db);
      Gen.check_nat (tag "all completions") (Nat.of_int 5)
        (Brute_par.count_all_completions ~jobs db))
    job_levels

(* ------------------------------------------------------------------ *)
(* Randomized parallel-vs-sequential agreement                         *)
(* ------------------------------------------------------------------ *)

let seeds_arb =
  QCheck.(
    make
      (Gen.pair (Gen.int_range 1 1_000_000) (Gen.int_range 1 1_000_000)))

let random_instance (qseed, dseed) =
  let q = Gen.random_sjfbcq ~seed:qseed in
  let db =
    Gen.random_idb ~seed:dseed ~schema:(Gen.schema_of_query q) ~rows:2
      ~codd:(dseed mod 2 = 0) ~uniform:(dseed mod 3 <> 0)
  in
  (q, db)

let prop_par_val_agrees =
  QCheck.Test.make ~count:60
    ~name:"sharded #Val = sequential for jobs in {1,2,4}" seeds_arb
    (fun seeds ->
      let q, db = random_instance seeds in
      QCheck.assume (Gen.manageable ~limit:20_000 db);
      let want = Brute.count_valuations (Query.Bcq q) db in
      List.for_all
        (fun jobs ->
          Nat.equal want (Brute_par.count_valuations ~jobs (Query.Bcq q) db))
        job_levels)

let prop_par_comp_agrees =
  QCheck.Test.make ~count:40
    ~name:"sharded #Comp and completion sets = sequential for jobs in {1,2,4}"
    seeds_arb
    (fun seeds ->
      let q, db = random_instance seeds in
      QCheck.assume (Gen.manageable ~limit:20_000 db);
      let want_count = Brute.count_completions (Query.Bcq q) db in
      let want_comps = Brute.completions db in
      List.for_all
        (fun jobs ->
          Nat.equal want_count
            (Brute_par.count_completions ~jobs (Query.Bcq q) db)
          && List.equal
               (fun a b -> Incdb_relational.Cdb.compare a b = 0)
               want_comps
               (Brute_par.completions ~jobs db))
        job_levels)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "resolve" `Quick test_pool_resolve;
          Alcotest.test_case "run order" `Quick test_pool_run_order;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_run_exception;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "prefix shards partition" `Quick
            test_prefix_partitions;
          Alcotest.test_case "typed limit exception" `Quick
            test_too_many_valuations;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "figure 1 deterministic" `Quick
            test_figure1_counts;
          QCheck_alcotest.to_alcotest prop_par_val_agrees;
          QCheck_alcotest.to_alcotest prop_par_comp_agrees;
        ] );
    ]
