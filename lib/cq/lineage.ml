open Incdb_relational

let max_universe = Sys.int_size - 1

type t = { clauses : int array; negated : bool }

let clause_count l = Array.length l.clauses
let is_negated l = l.negated
let clauses l = l.clauses

let popcount mask =
  let rec pop m acc = if m = 0 then acc else pop (m land (m - 1)) (acc + 1) in
  pop mask 0

(* Keep only the minimal clauses of a deduplicated DNF: a clause subsumed
   by a strict subset is redundant (the subset fires first).  Sorting by
   popcount lets the filter compare each clause only against already-kept
   smaller ones. *)
let minimal clauses =
  let sorted =
    List.sort_uniq compare clauses
    |> List.map (fun c -> (popcount c, c))
    |> List.sort compare
  in
  let kept = ref [] in
  List.iter
    (fun (_, c) ->
      if not (List.exists (fun c' -> c' land c = c') !kept) then
        kept := c :: !kept)
    sorted;
  Array.of_list (List.rev !kept)

let index_universe universe =
  let idx : (Cdb.fact, int) Hashtbl.t =
    Hashtbl.create (2 * Array.length universe)
  in
  Array.iteri (fun i g -> Hashtbl.replace idx g i) universe;
  idx

(* Clauses of one BCQ disjunct: every homomorphism into the universe
   leaves a footprint (the set of image facts); a sub-database satisfies
   the disjunct iff it contains some footprint. *)
let cq_clauses ?(neqs = []) idx universe cq =
  let cdb = Cdb.of_list (Array.to_list universe) in
  let image h (a : Cq.atom) =
    Cdb.fact a.Cq.rel (List.map (fun v -> List.assoc v h) (Array.to_list a.Cq.vars))
  in
  Cq.homomorphisms cq cdb
  |> List.filter_map (fun h ->
         if
           List.for_all
             (fun (x, y) -> List.assoc_opt x h <> List.assoc_opt y h)
             neqs
         then
           Some
             (List.fold_left
                (fun m a -> m lor (1 lsl Hashtbl.find idx (image h a)))
                0 cq)
         else None)

let compile q universe =
  if Array.length universe > max_universe then None
  else begin
    let idx = index_universe universe in
    let rec go negated = function
      | Query.Bcq cq -> Some (cq_clauses idx universe cq, negated)
      | Query.Bcq_neq (cq, neqs) -> Some (cq_clauses ~neqs idx universe cq, negated)
      | Query.Union cqs ->
        Some (List.concat_map (cq_clauses idx universe) cqs, negated)
      | Query.Not q -> go (not negated) q
      | Query.Semantic _ -> None
    in
    Option.map
      (fun (clauses, negated) -> { clauses = minimal clauses; negated })
      (go false q)
  end

let dnf_sat clauses mask =
  let n = Array.length clauses in
  let rec go i =
    if i = n then false
    else
      let c = Array.unsafe_get clauses i in
      c land mask = c || go (i + 1)
  in
  go 0

let sat l mask = dnf_sat l.clauses mask <> l.negated

(* ------------------------------------------------------------------ *)
(* The same compiler over an abstract mask representation              *)
(* ------------------------------------------------------------------ *)

module type MASKED = sig
  type mask
  type lineage

  val clause_count : lineage -> int
  val is_negated : lineage -> bool
  val clauses : lineage -> mask array
  val compile : Query.t -> Cdb.fact array -> lineage option
  val sat : lineage -> mask -> bool
  val dnf_sat : mask array -> mask -> bool
end

module Make (M : Incdb_bignum.Bitset.MASK) = struct
  type mask = M.t
  type lineage = { clauses : mask array; negated : bool }

  let clause_count l = Array.length l.clauses
  let is_negated l = l.negated
  let clauses l = l.clauses

  (* Mirrors the single-word {!minimal} above, with the implicit int
     orderings spelled out: dedup by mask order, then sort by
     (popcount, mask) so the subsumption filter only compares against
     already-kept smaller clauses. *)
  let minimal clauses =
    let sorted =
      List.sort_uniq M.compare clauses
      |> List.map (fun c -> (M.popcount c, c))
      |> List.sort (fun (pa, a) (pb, b) ->
             match Stdlib.Int.compare pa pb with
             | 0 -> M.compare a b
             | c -> c)
    in
    let kept = ref [] in
    List.iter
      (fun (_, c) ->
        if not (List.exists (fun c' -> M.subset c' c) !kept) then
          kept := c :: !kept)
      sorted;
    Array.of_list (List.rev !kept)

  let cq_clauses ?(neqs = []) ~width idx universe cq =
    let cdb = Cdb.of_list (Array.to_list universe) in
    let image h (a : Cq.atom) =
      Cdb.fact a.Cq.rel
        (List.map (fun v -> List.assoc v h) (Array.to_list a.Cq.vars))
    in
    Cq.homomorphisms cq cdb
    |> List.filter_map (fun h ->
           if
             List.for_all
               (fun (x, y) -> List.assoc_opt x h <> List.assoc_opt y h)
               neqs
           then
             Some
               (List.fold_left
                  (fun m a -> M.set m (Hashtbl.find idx (image h a)))
                  (M.zero ~width) cq)
           else None)

  let compile q universe =
    let width = Array.length universe in
    if width > M.max_width then None
    else begin
      let idx = index_universe universe in
      let rec go negated = function
        | Query.Bcq cq -> Some (cq_clauses ~width idx universe cq, negated)
        | Query.Bcq_neq (cq, neqs) ->
          Some (cq_clauses ~neqs ~width idx universe cq, negated)
        | Query.Union cqs ->
          Some (List.concat_map (cq_clauses ~width idx universe) cqs, negated)
        | Query.Not q -> go (not negated) q
        | Query.Semantic _ -> None
      in
      Option.map
        (fun (clauses, negated) -> { clauses = minimal clauses; negated })
        (go false q)
    end

  let dnf_sat clauses mask =
    let n = Array.length clauses in
    let rec go i =
      if i = n then false
      else M.subset (Array.unsafe_get clauses i) mask || go (i + 1)
    in
    go 0

  let sat l mask = dnf_sat l.clauses mask <> l.negated
end

module Wide = Make (Incdb_bignum.Bitset.Wide)

(* ------------------------------------------------------------------ *)
(* Slot-assignment clauses (the valuation-space face of the same idea) *)
(* ------------------------------------------------------------------ *)

(* [a] subsumes [b] when every (slot, value) pair of [a] appears in [b]:
   any assignment matching [b] then matches [a], so [b] is redundant in a
   disjunction of slot clauses.  Both sorted by slot, one merge pass. *)
let fixes_subset a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i = la then true
    else if j = lb then false
    else
      let sa, va = a.(i) and sb, vb = b.(j) in
      if sa < sb then false
      else if sa > sb then go i (j + 1)
      else va = vb && go (i + 1) (j + 1)
  in
  go 0 0

(* The slot-clause analogue of {!minimal}: sort by length so each clause
   is only compared against already-kept shorter (or equal-length) ones. *)
let minimal_fixes fixes =
  let sorted =
    List.sort_uniq Stdlib.compare (Array.to_list fixes)
    |> List.map (fun c -> (Array.length c, c))
    |> List.sort Stdlib.compare
  in
  let kept = ref [] in
  List.iter
    (fun (_, c) ->
      if not (List.exists (fun c' -> fixes_subset c' c) !kept) then
        kept := c :: !kept)
    sorted;
  Array.of_list (List.rev !kept)

module Iset = Set.Make (Int)

let fixes_slots fixes =
  let slots =
    Array.fold_left
      (fun acc c ->
        Array.fold_left (fun acc (slot, _) -> Iset.add slot acc) acc c)
      Iset.empty fixes
  in
  Array.of_list (Iset.elements slots)

let condition_fixes fixes ~slot ~value =
  let fired = ref false in
  let keep = ref [] in
  Array.iter
    (fun c ->
      if not !fired then
        match Array.find_opt (fun (s, _) -> s = slot) c with
        | None -> keep := c :: !keep
        | Some (_, v) ->
          if v = value then begin
            let c' =
              Array.of_list
                (List.filter (fun (s, _) -> s <> slot) (Array.to_list c))
            in
            if Array.length c' = 0 then fired := true else keep := c' :: !keep
          end
          (* [v <> value]: the clause can no longer match; drop it. *))
    fixes;
  if !fired then None else Some (Array.of_list (List.rev !keep))

let drop_slot_fixes fixes ~slot =
  Array.of_list
    (List.filter
       (fun c -> not (Array.exists (fun (s, _) -> s = slot) c))
       (Array.to_list fixes))

(* Canonical form of a disjunction of slot clauses, for keying a
   subproblem cache: slots are renamed to dense ids in order of first
   occurrence (scanning clauses in the given order, pairs slot-first),
   each slot's values are renamed to dense ids in order of first
   occurrence, and the renamed clauses are re-sorted (pairs by new slot,
   clauses lexicographically).  Two subproblems with the same canonical
   clauses and the same per-canonical-slot domain sizes have the same
   avoidance count: the renaming is a slot bijection composed with a
   per-slot value bijection, and the count only depends on the clause
   structure up to such bijections.  The converse does not hold — the
   first-occurrence scan is order-sensitive, so some isomorphic pairs
   canonicalize apart — which costs cache hits, never correctness. *)
let canonical_fixes fixes ~dom =
  let slot_ids = Hashtbl.create 16 in
  let doms = ref [] in
  let val_ids : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  let slot_id s =
    match Hashtbl.find_opt slot_ids s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length slot_ids in
      Hashtbl.replace slot_ids s i;
      Hashtbl.replace val_ids i (Hashtbl.create 4);
      doms := dom s :: !doms;
      i
  in
  let value_id i v =
    let vals = Hashtbl.find val_ids i in
    match Hashtbl.find_opt vals v with
    | Some r -> r
    | None ->
      let r = Hashtbl.length vals in
      Hashtbl.replace vals v r;
      r
  in
  let renamed =
    Array.map
      (fun c ->
        let c' =
          Array.map
            (fun (s, v) ->
              let i = slot_id s in
              (i, value_id i v))
            c
        in
        Array.sort compare c';
        c')
      fixes
  in
  Array.sort compare renamed;
  (renamed, Array.of_list (List.rev !doms))
