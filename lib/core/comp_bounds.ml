open Incdb_bignum
open Incdb_cq
open Incdb_incomplete

type bounds = { lower : Nat.t; upper : Nat.t }

module Cdb_set = Set.Make (struct
  type t = Incdb_relational.Cdb.t

  let compare = Incdb_relational.Cdb.compare
end)

(* Deterministic sweep valuations: assign every null its i-th domain
   value (wrapping); cheap extra coverage for the witness set. *)
let sweep_valuation db i =
  List.map
    (fun n ->
      let dom = Array.of_list (Idb.domain_of db n) in
      (n, dom.(i mod Array.length dom)))
    (Idb.nulls db)

let lower_bound ~seed ~samples q db =
  let st = Random.State.make [| seed |] in
  let witnessed = ref Cdb_set.empty in
  let consider v =
    let c = Idb.apply db v in
    if Cq.eval q c then witnessed := Cdb_set.add c !witnessed
  in
  let max_dom =
    List.fold_left
      (fun acc n -> max acc (List.length (Idb.domain_of db n)))
      1 (Idb.nulls db)
  in
  for i = 0 to max_dom - 1 do
    consider (sweep_valuation db i)
  done;
  for _ = 1 to samples do
    consider (Incdb_approx.Sampling.random_valuation st db)
  done;
  Nat.of_int (Cdb_set.cardinal !witnessed)

let upper_bound q db =
  (* #Comp <= #Val; bound #Val by the exact count when Count_val has a
     closed form, by the union-of-events size otherwise (sum of event
     sizes over-counts overlaps, soundly). *)
  match Count_val.closed_form q db with
  | Some (_, run) -> run ()
  | None ->
    let events = Incdb_approx.Karp_luby.events (Query.Bcq q) db in
    let union_bound =
      Nat.sum (List.map (fun e -> e.Incdb_approx.Karp_luby.size) events)
    in
    Nat.min union_bound (Idb.total_valuations db)

let bounds ~seed ~samples q db =
  let lower = lower_bound ~seed ~samples q db in
  let upper = Nat.max lower (upper_bound q db) in
  { lower; upper }
