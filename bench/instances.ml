(* Shared instance builders for the benchmark harness. *)

open Incdb_incomplete

(* Codd table with [n] binary all-null tuples over a domain of size [d];
   the workhorse for the Theorem 3.7 / #Val(R(x,x)) scaling experiments. *)
let diagonal_codd n d =
  let facts =
    List.init n (fun i ->
        Idb.fact "R"
          [
            Term.null (Printf.sprintf "a%d" i);
            Term.null (Printf.sprintf "b%d" i);
          ])
  in
  Idb.make facts (Idb.Uniform (List.init d (fun i -> "v" ^ string_of_int i)))

(* Uniform naive table for R(x) ∧ S(x): nR nulls and cR constants in R,
   likewise for S, over a domain of size d (Example 3.10 shape). *)
let two_unary ~d ~nr ~cr ~ns ~cs =
  let dom = List.init d (fun i -> "v" ^ string_of_int i) in
  let consts k prefix = List.init k (fun i -> "v" ^ string_of_int (prefix + i)) in
  let facts =
    List.map (fun c -> Idb.fact "R" [ Term.const c ]) (consts cr 0)
    @ List.init nr (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "r%d" i) ])
    @ List.map (fun c -> Idb.fact "S" [ Term.const c ]) (consts cs cr)
    @ List.init ns (fun i -> Idb.fact "S" [ Term.null (Printf.sprintf "s%d" i) ])
  in
  Idb.make facts (Idb.Uniform dom)

(* Single unary relation with [n] nulls and [c] constants over domain d:
   the Theorem 4.6 / warm-up B.6 completion-counting instance. *)
let one_unary ~d ~n ~c =
  let dom = List.init d (fun i -> "v" ^ string_of_int i) in
  let facts =
    List.init c (fun i -> Idb.fact "R" [ Term.const ("v" ^ string_of_int i) ])
    @ List.init n (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "n%d" i) ])
  in
  Idb.make facts (Idb.Uniform dom)

(* Path query instance R(x) ∧ S(x,y) ∧ T(y): [k] unary nulls on each
   side of a fixed set of S edges, each null over its own copy of a
   [d]-value domain.  Shared variables plus nonuniform domains keep it
   outside every closed form, and the compiled lineage is K_{k,k}-dense
   per edge — the #Val kernel's hard pattern. *)
let path_chain ~k ~d ~edges =
  let dom = List.init d (fun i -> "v" ^ string_of_int i) in
  let side prefix rel =
    List.init k (fun i ->
        Idb.fact rel [ Term.null (Printf.sprintf "%s%d" prefix i) ])
  in
  let names prefix = List.init k (fun i -> Printf.sprintf "%s%d" prefix i) in
  Idb.make
    (side "r" "R"
    @ List.map (fun (a, b) -> Idb.fact "S" [ Term.const a; Term.const b ]) edges
    @ side "t" "T")
    (Idb.Nonuniform (List.map (fun n -> (n, dom)) (names "r" @ names "t")))

(* Dense K_{k,k} biclique lineage for the same path query: [e] constant
   S edges over pairwise-distinct values, so every (R-null, T-null,
   edge) triple compiles to a clause — e·k² events, a complete bipartite
   interaction graph, and a reduced domain of e mentioned values plus
   the weighted rest per slot.  Bag tables are then (e+1)^width cells:
   the out-of-core DP's workload. *)
let dense_biclique ~k ~d ~e =
  path_chain ~k ~d
    ~edges:
      (List.init e (fun i ->
           ( "v" ^ string_of_int (2 * i),
             "v" ^ string_of_int ((2 * i) + 1) )))

(* Non-Codd workload: the null ?p occurs in both an R-fact and an
   S-fact, plus [free_r] and [free_s] single-occurrence nulls, each null
   over its own copy of a [d]-value domain (nonuniform, so the
   Theorem 4.6 closed form is out; non-Codd, so the candidate enumerator
   is out).  Before the elimination kernel this shape always fell off
   the brute-force cliff — d^(1+free_r+free_s) valuations enumerated and
   deduped.  The kernel conditions on ?p (d branches, run jointly) and
   sweeps the 2d-candidate universe once. *)
let shared_unary ~d ~free_r ~free_s =
  let dom = List.init d (fun i -> "v" ^ string_of_int i) in
  let free rel prefix k =
    List.init k (fun i ->
        Idb.fact rel [ Term.null (Printf.sprintf "%s%d" prefix i) ])
  in
  let names =
    "p"
    :: (List.init free_r (Printf.sprintf "r%d")
       @ List.init free_s (Printf.sprintf "s%d"))
  in
  Idb.make
    ((Idb.fact "R" [ Term.null "p" ] :: free "R" "r" free_r)
    @ (Idb.fact "S" [ Term.null "p" ] :: free "S" "s" free_s))
    (Idb.Nonuniform (List.map (fun n -> (n, dom)) names))

(* The Codd counterpart: [n] single-occurrence nulls in R and [n] in S,
   each over its own copy of a [d]-value domain (2d candidates). *)
let codd_unary_pair ~d ~n =
  let dom = List.init d (fun i -> "v" ^ string_of_int i) in
  let names prefix = List.init n (Printf.sprintf "%s%d" prefix) in
  let side rel prefix = List.map (fun x -> Idb.fact rel [ Term.null x ]) (names prefix) in
  Idb.make
    (side "R" "r" @ side "S" "s")
    (Idb.Nonuniform (List.map (fun x -> (x, dom)) (names "r" @ names "s")))

let figure1 () =
  Idb.make
    [
      Idb.fact_of_strings "S" [ "a"; "b" ];
      Idb.fact_of_strings "S" [ "?n1"; "a" ];
      Idb.fact_of_strings "S" [ "a"; "?n2" ];
    ]
    (Idb.Nonuniform [ ("n1", [ "a"; "b"; "c" ]); ("n2", [ "a"; "b" ]) ])

(* Brute force is feasible when the full valuation space fits under the
   enumeration limit. *)
let brute_feasible ?(limit = 2_000_000) db =
  match Incdb_bignum.Nat.to_int_opt (Idb.total_valuations db) with
  | Some t -> t <= limit
  | None -> false

let time f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)
