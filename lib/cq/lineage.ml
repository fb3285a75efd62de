open Incdb_relational

type t = { clauses : int array array; negated : bool }

let clause_count l = Array.length l.clauses
let is_negated l = l.negated
let clauses l = l.clauses

(* [subset a b] on ascending index arrays: every index of [a] is in [b]. *)
let subset a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    i = la
    || la - i <= lb - j
       &&
       let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
       if x = y then go (i + 1) (j + 1) else x > y && go i (j + 1)
  in
  go 0 0

(* Clause order: by size, then as the numbers whose set bits the indices
   are.  For two clauses of one size that number order is decided at the
   highest position where they differ, so compare from the top. *)
let compare_clause a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go k =
      if k < 0 then 0
      else
        let c = Int.compare a.(k) b.(k) in
        if c <> 0 then c else go (k - 1)
    in
    go (Array.length a - 1)

(* Keep only the minimal clauses of a DNF: a clause subsumed by a strict
   subset is redundant (the subset fires first).  Sorting by size lets
   the filter compare each clause only against already-kept smaller
   ones. *)
let minimal clauses =
  let kept = ref [] in
  List.iter
    (fun c ->
      if not (List.exists (fun c' -> subset c' c) !kept) then kept := c :: !kept)
    (List.sort_uniq compare_clause clauses);
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
             (Array.of_list
                (List.sort_uniq Int.compare
                   (List.map (fun a -> Hashtbl.find idx (image h a)) cq)))
         else None)

let compile q universe =
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

let sat l set = Array.exists (fun c -> subset c set) l.clauses <> l.negated

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

(* Product detection.  If C = A ⊗ B, every literal of A meets every
   literal of B in some clause, so each connected component of the
   complement of the co-occurrence graph lies inside one factor; those
   components are the candidate groups G.  A clause fixes a slot at most
   once, so two literals of one slot never co-occur and land in one
   group: A and B never share a slot.  A group is split off only when
   every clause has literals on both sides (c ↦ (c|G, c|rest) is then
   injective into A × B) and |A|·|B| = |C| (so it is onto). *)
let product_fixes fixes =
  let n = Array.length fixes in
  let lits =
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map Array.to_list (Array.to_list fixes)))
  in
  let nl = Array.length lits in
  if n < 1 || nl < 2 then None
  else begin
    let ids = Hashtbl.create (2 * nl) in
    Array.iteri (fun i l -> Hashtbl.replace ids l i) lits;
    let cls = Array.map (Array.map (fun l -> Hashtbl.find ids l)) fixes in
    let holding = Array.make nl [] in
    Array.iteri
      (fun c cl -> Array.iter (fun i -> holding.(i) <- c :: holding.(i)) cl)
      cls;
    (* Complement components by search over the unvisited literals: a
       literal joins the current group unless it co-occurs with the one
       being expanded, so each scan removes or is paid for by an edge. *)
    let group = Array.make nl (-1) and stamp = Array.make nl (-1) in
    let unvisited = ref (List.init nl Fun.id) in
    let rec grow g = function
      | [] -> ()
      | u :: frontier ->
        List.iter
          (fun c -> Array.iter (fun i -> stamp.(i) <- u) cls.(c))
          holding.(u);
        let joined, kept =
          List.partition (fun i -> stamp.(i) <> u) !unvisited
        in
        unvisited := kept;
        List.iter (fun i -> group.(i) <- g) joined;
        grow g (List.rev_append joined frontier)
    in
    let rec sweep g =
      match !unvisited with
      | [] -> g
      | s :: rest ->
        unvisited := rest;
        group.(s) <- g;
        grow g [ s ];
        sweep (g + 1)
    in
    let groups = sweep 0 in
    let project keep =
      Array.to_list cls
      |> List.map (fun cl ->
             Array.of_list
               (List.filter_map
                  (fun i -> if keep group.(i) then Some lits.(i) else None)
                  (Array.to_list cl)))
      |> List.sort_uniq compare |> Array.of_list
    in
    let splits g =
      let straddles cl =
        Array.exists (fun i -> group.(i) = g) cl
        && Array.exists (fun i -> group.(i) <> g) cl
      in
      if not (Array.for_all straddles cls) then None
      else
        let a = project (fun h -> h = g) and b = project (fun h -> h <> g) in
        let la = Array.length a and lb = Array.length b in
        if n mod lb = 0 && n / lb = la then Some (a, b) else None
    in
    if groups < 2 then None
    else Seq.find_map splits (Seq.init groups Fun.id)
  end

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
