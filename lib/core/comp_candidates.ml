open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_relational

module Fset = Set.Make (struct
  type t = Cdb.fact

  let compare = Cdb.compare_fact
end)

(* Ground instantiations of one incomplete fact, streamed: the product of
   the term candidate sets, visited without materializing the product. *)
let iter_ground_facts db (f : Idb.fact) yield =
  let arity = Array.length f.Idb.args in
  let choices =
    Array.map
      (function
        | Term.Const c -> [| c |]
        | Term.Null n -> Array.of_list (Idb.domain_of db n))
      f.Idb.args
  in
  let args = Array.make arity "" in
  let rec go i =
    if i = arity then yield (Cdb.fact f.Idb.rel (Array.to_list args))
    else
      Array.iter
        (fun c ->
          args.(i) <- c;
          go (i + 1))
        choices.(i)
  in
  go 0

let candidate_facts db =
  let acc = ref Fset.empty in
  List.iter
    (fun f -> iter_ground_facts db f (fun g -> acc := Fset.add g !acc))
    (Idb.facts db);
  Fset.elements !acc

exception Universe_exceeded

(* Early-exit probe: the ground-fact universe as a sorted array, or [None]
   as soon as its size passes [limit] — grounding stops there, so probing
   a huge instance costs [limit + 1] set insertions, not the full
   product. *)
let universe_within db ~limit =
  let acc = ref Fset.empty in
  let size = ref 0 in
  match
    List.iter
      (fun f ->
        iter_ground_facts db f (fun g ->
            let acc' = Fset.add g !acc in
            if acc' != !acc then begin
              incr size;
              if !size > limit then raise Universe_exceeded;
              acc := acc'
            end))
      (Idb.facts db)
  with
  | () -> Some (Array.of_list (Fset.elements !acc))
  | exception Universe_exceeded -> None

exception Too_many_candidates of { universe : int; limit : int }

let () =
  Printexc.register_printer (function
    | Too_many_candidates { universe; limit } ->
      Some
        (Printf.sprintf
           "Comp_candidates.Too_many_candidates(universe %d, limit %d)"
           universe limit)
    | _ -> None)

module Metrics = Incdb_obs.Metrics
module Events = Incdb_obs.Events

(* Same counter the brute-force path registers: candidate subsets that
   went through the is-completion check. *)
let completions_checked = Metrics.counter "completions_checked"

(* Kernel instrumentation, batched per shard: per-subset atomic updates
   at 2^26 subsets would cost more than the subsets themselves. *)
let clauses_compiled = Metrics.counter "comp_kernel.clauses_compiled"
let masks_pruned = Metrics.counter "comp_kernel.masks_pruned"
let subsets_checked = Metrics.counter "comp_kernel.subsets_checked"
let shards_run = Metrics.counter "comp_kernel.shards_run"

(* The probed universe size of the last run: one bit per candidate in
   the space the walk enumerates. *)
let mask_width = Metrics.gauge "comp_kernel.mask_width"

let default_max_candidates = 80

(* Ignored; see the interface for why it stays. *)
type mask_choice = Auto

(* How the query is decided at an enumeration leaf. *)
type sat_mode =
  | All  (* no query *)
  | Dnf of bool (* compiled lineage; [true] = outer negation *)
  | Opaque of Query.t (* uncompilable: materialize and evaluate *)

(* ------------------------------------------------------------------ *)
(* One shard: recursive-prefix walk over the candidate sets extending  *)
(* a fixed choice of the highest bits.                                 *)
(* ------------------------------------------------------------------ *)

(* The walk decides bits from the highest down and maintains,
   incrementally along the prefix tree, for the reachable set
   R = included ∪ {undecided bits}:
   - per table fact, |image ∩ R| — when it hits 0 the star check
     can never pass below this node (a completion must give every table
     fact a landing spot), killing the subtree;
   - per lineage clause, |clause \ R| — a clause is winnable iff 0;
     when no clause is winnable a positive query cannot hold below this
     node, and at a leaf (R = included) winnability IS satisfaction, so
     the DNF is never rescanned per subset;
   - the included bits, on a stack — a completion has at most [nd]
     facts (distinct producers), so overfull branches die on entry, and
     so does a shard whose prefix alone is overfull.
   Only bit *exclusions* shrink R, so each branch updates exactly the
   facts/clauses indexed by its bit. *)

type shard_stats = {
  mutable checked : int;
  mutable pruned : int; (* saturates at [max_int] *)
  mutable found : int;
}

let add_sat a b = if a > max_int - b then max_int else a + b

(* A node killed at bit [i] prunes its 2^i leaves at once. *)
let prune stats i =
  stats.pruned <-
    add_sat stats.pruned (if i >= Sys.int_size - 1 then max_int else 1 lsl i)

let run_shard ~m ~shard_bits ~shard ~kernel ~clauses ~clauses_with_bit
    ~sat_mode ~universe stats =
  let nd = Codd.kernel_size kernel in
  let producers = Codd.kernel_producers kernel in
  let free_bits = m - shard_bits in
  (* R at the shard root: the free bits and the prefix bits [shard] sets. *)
  let in_reach0 j = j < free_bits || (shard lsr (j - free_bits)) land 1 = 1 in
  let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a in
  let reach = Array.map (count in_reach0) (Codd.kernel_images kernel) in
  let outside = Array.map (count (fun j -> not (in_reach0 j))) clauses in
  let winnable = ref (count (fun o -> o = 0) outside) in
  let positive_dnf = match sat_mode with Dnf false -> true | _ -> false in
  let subtree_dead () =
    Array.exists (fun r -> r = 0) reach || (positive_dnf && !winnable = 0)
  in
  (* Included bits, highest first: the prefix, then the walk's own. *)
  let stack = Array.make m 0 and depth = ref 0 in
  for j = shard_bits - 1 downto 0 do
    if (shard lsr j) land 1 = 1 then begin
      stack.(!depth) <- free_bits + j;
      incr depth
    end
  done;
  let leaf_sat () =
    match sat_mode with
    | All -> true
    | Dnf negated -> !winnable > 0 <> negated
    | Opaque q ->
      Query.eval q
        (Cdb.of_list (List.init !depth (fun k -> universe.(stack.(k)))))
  in
  let rec go i =
    if i < 0 then begin
      stats.checked <- stats.checked + 1;
      if leaf_sat () && Codd.kernel_saturates kernel stack ~len:!depth then
        stats.found <- stats.found + 1
    end
    else begin
      (* Include bit i: R is unchanged, only the cardinality grows. *)
      if !depth < nd then begin
        stack.(!depth) <- i;
        incr depth;
        go (i - 1);
        decr depth
      end
      else prune stats i;
      (* Exclude bit i: R shrinks by bit i. *)
      Array.iter (fun f -> reach.(f) <- reach.(f) - 1) producers.(i);
      Array.iter
        (fun c ->
          if outside.(c) = 0 then decr winnable;
          outside.(c) <- outside.(c) + 1)
        clauses_with_bit.(i);
      if subtree_dead () then prune stats i else go (i - 1);
      Array.iter (fun f -> reach.(f) <- reach.(f) + 1) producers.(i);
      Array.iter
        (fun c ->
          outside.(c) <- outside.(c) - 1;
          if outside.(c) = 0 then incr winnable)
        clauses_with_bit.(i)
    end
  in
  if !depth > nd || subtree_dead () then prune stats free_bits
  else go (free_bits - 1)

(* ------------------------------------------------------------------ *)
(* The kernel driver                                                    *)
(* ------------------------------------------------------------------ *)

(* Shard granularity.  At least the 64-way split of small universes, and
   on large ones enough prefix bits to cap a shard's subtree at 2^16
   leaf masks — concentrated pruning can no longer strand most of the
   surviving work in one shard.  But sharding is not free: every shard
   re-walks the prefix constraints before touching its subtree, so a
   shard count far beyond what the pool can keep busy is pure overhead
   (a 1-core host paid 2–5x for the 4096-way split that a 64-core host
   amortizes).  Cap the split at [16 x recommended] shards — ample for
   the pool's size-halving chunk claiming to balance, proportional to
   the machine.  The split depends only on [m] and the host's
   recommended domain count, never on the [jobs] argument, so per-shard
   work and metric totals stay jobs-invariant, like the counts
   themselves. *)
let shard_bits_for ?(pool = Incdb_par.Pool.recommended ()) m =
  let cap =
    let target = 16 * max 1 pool in
    let b = ref 6 in
    while 1 lsl !b < target do incr b done;
    !b
  in
  min m (min (max 6 (min 12 (m - 16))) cap)

let count ?query ?(max_candidates = default_max_candidates) ?(jobs = 1)
    ?mask:_ ?universe db =
  if not (Idb.is_codd db) then
    invalid_arg "Comp_candidates.count: requires a Codd table";
  let universe =
    match universe with
    | Some u -> u
    | None -> (
      Events.with_span "count_comp.candidate_generation" (fun () ->
          match universe_within db ~limit:max_candidates with
          | Some u -> u
          | None ->
            raise
              (Too_many_candidates
                 { universe = max_candidates + 1; limit = max_candidates })))
  in
  let m = Array.length universe in
  if m > max_candidates then
    raise (Too_many_candidates { universe = m; limit = max_candidates });
  Metrics.set mask_width (float_of_int m);
  Events.with_span "count_comp.mask_enumeration" (fun () ->
      let kernel0 = Codd.kernel db ~universe in
      let sat_mode, clauses =
        match query with
        | None -> (All, [||])
        | Some q -> (
          match
            Events.with_span "count_comp.lineage_compile" (fun () ->
                Lineage.compile q universe)
          with
          | Some l -> (Dnf (Lineage.is_negated l), Lineage.clauses l)
          | None -> (Opaque q, [||]))
      in
      Metrics.incr clauses_compiled ~by:(Array.length clauses);
      let clauses_with_bit = Array.make m [] in
      for c = Array.length clauses - 1 downto 0 do
        Array.iter
          (fun j -> clauses_with_bit.(j) <- c :: clauses_with_bit.(j))
          clauses.(c)
      done;
      let clauses_with_bit = Array.map Array.of_list clauses_with_bit in
      let shard_bits = shard_bits_for m in
      let tasks =
        List.init (1 lsl shard_bits) (fun shard () ->
            Metrics.incr shards_run;
            let stats = { checked = 0; pruned = 0; found = 0 } in
            Events.with_span "comp_kernel.shard"
              ~args:[ ("shard", Events.Int shard) ]
              (fun () ->
                run_shard ~m ~shard_bits ~shard
                  ~kernel:(Codd.kernel_copy kernel0) ~clauses
                  ~clauses_with_bit ~sat_mode ~universe stats);
            Metrics.incr subsets_checked ~by:stats.checked;
            Metrics.incr completions_checked ~by:stats.checked;
            (stats.found, stats.pruned))
      in
      let per_shard = Incdb_par.Pool.run ~jobs tasks in
      (* Past 2^62 pruned leaves the counter holds [max_int]. *)
      let pruned = List.fold_left (fun acc (_, p) -> add_sat acc p) 0 per_shard in
      Metrics.incr masks_pruned
        ~by:(min pruned (max_int - Metrics.value masks_pruned));
      Nat.of_int (List.fold_left (fun acc (f, _) -> acc + f) 0 per_shard))

(* ------------------------------------------------------------------ *)
(* The seed implementation, kept verbatim as the agreement/bench oracle *)
(* ------------------------------------------------------------------ *)

let count_reference ?query ?(max_candidates = 22) db =
  if not (Idb.is_codd db) then
    invalid_arg "Comp_candidates.count: requires a Codd table";
  let universe =
    Events.with_span "count_comp.candidate_generation" (fun () ->
        Array.of_list (candidate_facts db))
  in
  let m = Array.length universe in
  if m > max_candidates then
    invalid_arg "Comp_candidates.count: candidate universe too large";
  let satisfies s =
    match query with None -> true | Some q -> Query.eval q s
  in
  let count = ref Nat.zero in
  for mask = 0 to (1 lsl m) - 1 do
    Metrics.incr completions_checked;
    let s =
      Cdb.of_list
        (List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
           (Array.to_list universe))
    in
    if satisfies s && Codd.is_completion db s then count := Nat.succ !count
  done;
  !count
