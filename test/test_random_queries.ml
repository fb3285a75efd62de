(* Fuzzing over RANDOM self-join-free BCQs: the strongest soundness net.
   Whatever the query shape, the dispatchers must agree with brute force,
   the classifier's verdicts must be internally monotone across settings,
   the certainty shortcuts must agree with enumeration, and randomly
   generated patterns (built by applying Definition 3.1 operations) must
   be recognized by the pattern decision procedure. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_core

(* ------------------------------------------------------------------ *)
(* Dispatchers vs brute force on random queries                        *)
(* ------------------------------------------------------------------ *)

let prop_val_dispatcher_random_queries =
  QCheck.Test.make ~count:150
    ~name:"#Val dispatcher = brute force on random sjfBCQs"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 1_000_000)
                    (QCheck.Gen.int_range 1 1_000_000)))
    (fun (qseed, dseed) ->
      let q = Gen.random_sjfbcq ~seed:qseed in
      let db =
        Gen.random_idb ~seed:dseed ~schema:(Gen.schema_of_query q) ~rows:2
          ~codd:(dseed mod 2 = 0) ~uniform:(dseed mod 3 <> 0)
      in
      QCheck.assume (Gen.manageable ~limit:60_000 db);
      let _, got = Count_val.count q db in
      Nat.equal got (Brute.count_valuations (Query.Bcq q) db))

let prop_comp_dispatcher_random_queries =
  QCheck.Test.make ~count:100
    ~name:"#Comp dispatcher = brute force on random sjfBCQs"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 1_000_000)
                    (QCheck.Gen.int_range 1 1_000_000)))
    (fun (qseed, dseed) ->
      let q = Gen.random_sjfbcq ~seed:qseed in
      let db =
        Gen.random_idb ~seed:dseed ~schema:(Gen.schema_of_query q) ~rows:2
          ~codd:(dseed mod 2 = 0) ~uniform:(dseed mod 3 <> 0)
      in
      QCheck.assume (Gen.manageable ~limit:60_000 db);
      let _, got = Count_comp.count q db in
      Nat.equal got (Brute.count_completions (Query.Bcq q) db))

(* ------------------------------------------------------------------ *)
(* Classifier coherence on random queries                              *)
(* ------------------------------------------------------------------ *)

let verdict_rank = function
  | Classify.Tractable _ -> 0
  | Classify.Open_case _ -> 1
  | Classify.Hard _ -> 2

let setting table domain problem = { Setting.table; domain; problem }

let prop_classifier_monotone =
  (* Restricting the inputs can only make the problem easier:
     naive -> Codd and non-uniform -> uniform must never go from
     tractable to hard. *)
  QCheck.Test.make ~count:300 ~name:"classifier verdicts are monotone"
    QCheck.(make (QCheck.Gen.int_range 1 2_000_000))
    (fun seed ->
      let q = Gen.random_sjfbcq ~seed in
      List.for_all
        (fun problem ->
          List.for_all
            (fun domain ->
              verdict_rank
                (Classify.exact (setting Setting.Codd domain problem) q)
              <= verdict_rank
                   (Classify.exact (setting Setting.Naive domain problem) q))
            [ Setting.Non_uniform; Setting.Uniform ]
          && List.for_all
               (fun table ->
                 verdict_rank
                   (Classify.exact (setting table Setting.Uniform problem) q)
                 <= verdict_rank
                      (Classify.exact
                         (setting table Setting.Non_uniform problem) q))
               [ Setting.Naive; Setting.Codd ])
        [ Setting.Valuations; Setting.Completions ])

let prop_comp_nonuniform_always_hard =
  QCheck.Test.make ~count:200 ~name:"Thm 4.3: non-uniform #Comp always hard"
    QCheck.(make (QCheck.Gen.int_range 1 2_000_000))
    (fun seed ->
      let q = Gen.random_sjfbcq ~seed in
      List.for_all
        (fun table ->
          match
            Classify.exact (setting table Setting.Non_uniform Setting.Completions) q
          with
          | Classify.Hard _ -> true
          | _ -> false)
        [ Setting.Naive; Setting.Codd ])

let prop_val_always_approximable =
  QCheck.Test.make ~count:200 ~name:"Cor 5.3: #Val never lacks an FPRAS"
    QCheck.(make (QCheck.Gen.int_range 1 2_000_000))
    (fun seed ->
      let q = Gen.random_sjfbcq ~seed in
      List.for_all
        (fun s ->
          match Classify.approximate s q with
          | Classify.Fpras _ | Classify.Fp _ -> true
          | Classify.No_fpras _ | Classify.Approx_open _ -> false)
        (List.filter
           (fun (s : Setting.t) -> s.problem = Setting.Valuations)
           Setting.all))

(* ------------------------------------------------------------------ *)
(* Random Definition 3.1 patterns are recognized                       *)
(* ------------------------------------------------------------------ *)

(* Apply random pattern operations (delete atom, delete a variable
   occurrence keeping the atom non-empty, rename relation to fresh,
   rename variable to fresh, shuffle positions) to q; the result is a
   pattern of q by construction. *)
let random_pattern_of ~seed q =
  let st = Random.State.make [| seed |] in
  let atoms = ref (List.map (fun (a : Cq.atom) -> (a.Cq.rel, Array.to_list a.Cq.vars)) q) in
  let steps = Random.State.int st 6 in
  for step = 1 to steps do
    match Random.State.int st 5 with
    | 0 ->
      (* delete an atom, keeping at least one *)
      if List.length !atoms > 1 then begin
        let i = Random.State.int st (List.length !atoms) in
        atoms := List.filteri (fun j _ -> j <> i) !atoms
      end
    | 1 ->
      (* delete one variable occurrence, keeping the atom non-empty *)
      let i = Random.State.int st (List.length !atoms) in
      atoms :=
        List.mapi
          (fun j (r, vs) ->
            if j = i && List.length vs > 1 then begin
              let drop = Random.State.int st (List.length vs) in
              (r, List.filteri (fun p _ -> p <> drop) vs)
            end
            else (r, vs))
          !atoms
    | 2 ->
      (* rename a relation to a fresh one *)
      let i = Random.State.int st (List.length !atoms) in
      atoms :=
        List.mapi
          (fun j (r, vs) ->
            if j = i then (r ^ "f" ^ string_of_int (Random.State.int st 1000), vs)
            else (r, vs))
          !atoms
    | 3 ->
      (* rename one variable everywhere to a fresh name; the step number
         keeps two renames from merging two variables into one *)
      let vars =
        List.sort_uniq String.compare (List.concat_map snd !atoms)
      in
      let v = List.nth vars (Random.State.int st (List.length vars)) in
      let fresh = Printf.sprintf "fv%d_%d" (Random.State.int st 1000) step in
      atoms :=
        List.map
          (fun (r, vs) -> (r, List.map (fun u -> if u = v then fresh else u) vs))
          !atoms
    | _ ->
      (* shuffle the positions of one atom *)
      let i = Random.State.int st (List.length !atoms) in
      atoms :=
        List.mapi
          (fun j (r, vs) ->
            if j = i then begin
              let arr = Array.of_list vs in
              for k = Array.length arr - 1 downto 1 do
                let l = Random.State.int st (k + 1) in
                let t = arr.(k) in
                arr.(k) <- arr.(l);
                arr.(l) <- t
              done;
              (r, Array.to_list arr)
            end
            else (r, vs))
          !atoms
  done;
  Cq.make (List.map (fun (r, vs) -> Cq.atom r vs) !atoms)

let prop_random_patterns_recognized =
  QCheck.Test.make ~count:400
    ~name:"randomly generated Definition 3.1 patterns are recognized"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 2_000_000)
                    (QCheck.Gen.int_range 1 2_000_000)))
    (fun (qseed, pseed) ->
      let q = Gen.random_sjfbcq ~seed:qseed in
      let p = random_pattern_of ~seed:pseed q in
      Pattern.is_pattern_of p q)

(* ------------------------------------------------------------------ *)
(* Certainty shortcuts                                                 *)
(* ------------------------------------------------------------------ *)

let prop_certainty =
  QCheck.Test.make ~count:120
    ~name:"possible/certain agree with enumeration on random queries"
    QCheck.(make (QCheck.Gen.pair (QCheck.Gen.int_range 1 1_000_000)
                    (QCheck.Gen.int_range 1 1_000_000)))
    (fun (qseed, dseed) ->
      let q = Gen.random_sjfbcq ~seed:qseed in
      let db =
        Gen.random_idb ~seed:dseed ~schema:(Gen.schema_of_query q) ~rows:2
          ~codd:(dseed mod 2 = 0) ~uniform:(dseed mod 3 = 0)
      in
      QCheck.assume (Gen.manageable ~limit:60_000 db);
      let query = Query.Bcq q in
      let brute_possible = ref false and brute_certain = ref true in
      Idb.iter_valuations db (fun v ->
          if Query.eval query (Idb.apply db v) then brute_possible := true
          else brute_certain := false);
      Certainty.possible query db = !brute_possible
      && Certainty.certain query db = !brute_certain
      &&
      let ratio = Certainty.support_ratio query db in
      (Qnum.equal ratio Qnum.one = !brute_certain)
      && (Qnum.is_zero ratio = not !brute_possible))

let () =
  Alcotest.run "random_queries"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_val_dispatcher_random_queries;
            prop_comp_dispatcher_random_queries;
            prop_classifier_monotone;
            prop_comp_nonuniform_always_hard;
            prop_val_always_approximable;
            prop_random_patterns_recognized;
            prop_certainty;
          ] );
    ]
