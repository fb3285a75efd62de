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

(* Which representation the last dispatch chose: the probed universe
   size (= mask width in bits), and how often the wide path ran. *)
let mask_width = Metrics.gauge "comp_kernel.mask_width"
let wide_dispatch = Metrics.counter "comp_kernel.wide_dispatch"

let default_max_candidates = 80

type mask_choice = Auto | Int_masks | Wide_masks

(* How the query is decided at an enumeration leaf. *)
type sat_mode =
  | All  (* no query *)
  | Dnf of bool (* compiled lineage; [true] = outer negation *)
  | Opaque of Query.t (* uncompilable: materialize and evaluate *)

(* ------------------------------------------------------------------ *)
(* One shard: recursive-prefix enumeration of the masks extending a     *)
(* fixed high-bit prefix.                                               *)
(* ------------------------------------------------------------------ *)

(* The enumeration maintains, incrementally along the prefix tree, for
   the reachable set R = partial ∪ {undecided bits}:
   - per table fact, |ground_mask ∩ R| — when it hits 0 the star check
     can never pass below this node (a completion must give every table
     fact a landing spot), killing the subtree;
   - per lineage clause, |clause \ R| — a clause is winnable iff 0;
     when no clause is winnable a positive query cannot hold below this
     node, and at a leaf (R = partial) winnability IS satisfaction, so
     the DNF is never rescanned per subset;
   - the included-bit count — a completion has at most [nd] facts
     (distinct producers), so overfull branches die on entry.
   Only bit *exclusions* shrink R, so each branch updates exactly the
   facts/clauses indexed by its bit. *)

type shard_stats = {
  mutable checked : int;
  mutable pruned : int;
  mutable found : int;
}

let run_shard ~m ~shard_bits ~prefix ~kernel ~clauses ~sat_mode ~universe
    ~facts_with_bit ~clauses_with_bit (stats : shard_stats) =
  let nd = Codd.kernel_size kernel in
  let dmasks = Codd.kernel_masks kernel in
  let free_bits = m - shard_bits in
  let reach0 = prefix lor ((1 lsl free_bits) - 1) in
  let reach = Array.map (fun dm -> Lineage.popcount (dm land reach0)) dmasks in
  let outside =
    Array.map (fun c -> Lineage.popcount (c land lnot reach0)) clauses
  in
  let winnable = ref (Array.fold_left (fun n o -> n + if o = 0 then 1 else 0) 0 outside) in
  let positive_dnf = match sat_mode with Dnf false -> true | _ -> false in
  let subtree_dead () =
    Array.exists (fun r -> r = 0) reach || (positive_dnf && !winnable = 0)
  in
  let leaf_sat partial =
    match sat_mode with
    | All -> true
    | Dnf negated -> !winnable > 0 <> negated
    | Opaque q ->
      let rec facts i acc =
        if i = m then acc
        else
          facts (i + 1)
            (if partial land (1 lsl i) <> 0 then universe.(i) :: acc else acc)
      in
      Query.eval q (Cdb.of_list (facts 0 []))
  in
  if subtree_dead () then begin
    stats.pruned <- stats.pruned + (1 lsl free_bits);
    0
  end
  else begin
    let rec go i partial included =
      if i < 0 then begin
        stats.checked <- stats.checked + 1;
        if leaf_sat partial && Codd.kernel_saturates kernel partial then
          stats.found <- stats.found + 1
      end
      else begin
        (* Include bit i: R is unchanged, only the cardinality grows. *)
        if included + 1 <= nd then
          go (i - 1) (partial lor (1 lsl i)) (included + 1)
        else stats.pruned <- stats.pruned + (1 lsl i);
        (* Exclude bit i: R shrinks by bit i. *)
        Array.iter (fun f -> reach.(f) <- reach.(f) - 1) facts_with_bit.(i);
        Array.iter
          (fun c ->
            if outside.(c) = 0 then decr winnable;
            outside.(c) <- outside.(c) + 1)
          clauses_with_bit.(i);
        if subtree_dead () then stats.pruned <- stats.pruned + (1 lsl i)
        else go (i - 1) partial included;
        Array.iter (fun f -> reach.(f) <- reach.(f) + 1) facts_with_bit.(i);
        Array.iter
          (fun c ->
            outside.(c) <- outside.(c) - 1;
            if outside.(c) = 0 then incr winnable)
          clauses_with_bit.(i)
      end
    in
    go (free_bits - 1) prefix (Lineage.popcount prefix);
    stats.found
  end

(* ------------------------------------------------------------------ *)
(* The same shard over multi-word masks                                 *)
(* ------------------------------------------------------------------ *)

module WB = Bitset.Wide

(* Identical prefix-tree walk, with two representation changes: the
   [partial] mask is a single worker-private scratch array mutated along
   the walk (set bit / recurse / clear bit) instead of a value threaded
   through the recursion, and the bulk pruned-leaf count is a [Nat] —
   [2^i] leaves at a killed node no longer fits an int once [i] can
   exceed the word size. *)
type wide_stats = {
  mutable wchecked : int;
  mutable wpruned : Nat.t;
  mutable wfound : int;
}

let prune_wide stats i =
  stats.wpruned <- Nat.add stats.wpruned (Nat.pow Nat.two i)

let run_shard_wide ~m ~shard_bits ~prefix ~kernel ~clauses ~sat_mode ~universe
    ~facts_with_bit ~clauses_with_bit (stats : wide_stats) =
  let nd = Codd.Wide.size kernel in
  let dmasks = Codd.Wide.masks kernel in
  let free_bits = m - shard_bits in
  let reach0 = WB.union prefix (WB.low ~width:m free_bits) in
  let reach = Array.map (fun dm -> WB.popcount_inter dm reach0) dmasks in
  let outside = Array.map (fun c -> WB.popcount_diff c reach0) clauses in
  let winnable =
    ref (Array.fold_left (fun n o -> n + if o = 0 then 1 else 0) 0 outside)
  in
  let positive_dnf = match sat_mode with Dnf false -> true | _ -> false in
  let subtree_dead () =
    Array.exists (fun r -> r = 0) reach || (positive_dnf && !winnable = 0)
  in
  let partial = WB.copy prefix in
  let leaf_sat () =
    match sat_mode with
    | All -> true
    | Dnf negated -> !winnable > 0 <> negated
    | Opaque q ->
      let rec facts i acc =
        if i = m then acc
        else facts (i + 1) (if WB.test partial i then universe.(i) :: acc else acc)
      in
      Query.eval q (Cdb.of_list (facts 0 []))
  in
  if subtree_dead () then begin
    prune_wide stats free_bits;
    0
  end
  else begin
    let rec go i included =
      if i < 0 then begin
        stats.wchecked <- stats.wchecked + 1;
        if leaf_sat () && Codd.Wide.saturates kernel partial then
          stats.wfound <- stats.wfound + 1
      end
      else begin
        if included + 1 <= nd then begin
          WB.set_inplace partial i;
          go (i - 1) (included + 1);
          WB.clear_inplace partial i
        end
        else prune_wide stats i;
        Array.iter (fun f -> reach.(f) <- reach.(f) - 1) facts_with_bit.(i);
        Array.iter
          (fun c ->
            if outside.(c) = 0 then decr winnable;
            outside.(c) <- outside.(c) + 1)
          clauses_with_bit.(i);
        if subtree_dead () then prune_wide stats i else go (i - 1) included;
        Array.iter (fun f -> reach.(f) <- reach.(f) + 1) facts_with_bit.(i);
        Array.iter
          (fun c ->
            outside.(c) <- outside.(c) - 1;
            if outside.(c) = 0 then incr winnable)
          clauses_with_bit.(i)
      end
    in
    go (free_bits - 1) (WB.popcount prefix);
    stats.wfound
  end

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

(* The wide driver: same sharding, same shard split (so the totals and
   metric deltas stay jobs-invariant), masks [Bitset.Wide].  The bulk
   pruned-leaf total is summed as a [Nat] across shards and exported
   into the int [masks_pruned] counter with saturation — exact whenever
   it fits a word (in particular on every universe the int path can also
   run, which is what the int-vs-wide metric agreement tests pin). *)
let count_wide ?query ~jobs ~universe ~m db =
  let kernel0 = Codd.Wide.make db ~universe in
  let sat_mode, clauses =
    match query with
    | None -> (All, [||])
    | Some q -> (
      match
        Events.with_span "count_comp.lineage_compile" (fun () ->
            Lineage.Wide.compile q universe)
      with
      | Some l -> (Dnf (Lineage.Wide.is_negated l), Lineage.Wide.clauses l)
      | None -> (Opaque q, [||]))
  in
  Metrics.incr clauses_compiled ~by:(Array.length clauses);
  let index_bits masks n =
    Array.init m (fun j ->
        let hits = ref [] in
        for i = n - 1 downto 0 do
          if WB.test masks.(i) j then hits := i :: !hits
        done;
        Array.of_list !hits)
  in
  let facts_with_bit =
    index_bits (Codd.Wide.masks kernel0) (Codd.Wide.size kernel0)
  in
  let clauses_with_bit = index_bits clauses (Array.length clauses) in
  let shard_bits = shard_bits_for m in
  let nshards = 1 lsl shard_bits in
  let wide_prefix s =
    let p = ref (WB.zero ~width:m) in
    for j = 0 to shard_bits - 1 do
      if s land (1 lsl j) <> 0 then p := WB.set !p (m - shard_bits + j)
    done;
    !p
  in
  let tasks =
    List.init nshards (fun s () ->
        Metrics.incr shards_run;
        let stats = { wchecked = 0; wpruned = Nat.zero; wfound = 0 } in
        let found =
          Events.with_span "comp_kernel.shard"
            ~args:[ ("shard", Events.Int s) ]
            (fun () ->
              run_shard_wide ~m ~shard_bits ~prefix:(wide_prefix s)
                ~kernel:(Codd.Wide.copy kernel0) ~clauses ~sat_mode ~universe
                ~facts_with_bit ~clauses_with_bit stats)
        in
        Metrics.incr subsets_checked ~by:stats.wchecked;
        Metrics.incr completions_checked ~by:stats.wchecked;
        (found, stats.wpruned))
  in
  let per_shard = Incdb_par.Pool.run ~jobs tasks in
  let pruned = Nat.sum (List.map snd per_shard) in
  let pruned_int =
    match Nat.to_int_opt pruned with
    | Some p -> Stdlib.min p (max_int - Metrics.value masks_pruned)
    | None -> max_int - Metrics.value masks_pruned
  in
  Metrics.incr masks_pruned ~by:pruned_int;
  Nat.of_int (List.fold_left (fun acc (f, _) -> acc + f) 0 per_shard)

let count ?query ?(max_candidates = default_max_candidates) ?(jobs = 1)
    ?(mask = Auto) ?universe db =
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
                 {
                   universe = List.length (candidate_facts db);
                   limit = max_candidates;
                 })))
  in
  let m = Array.length universe in
  if m > max_candidates then
    raise (Too_many_candidates { universe = m; limit = max_candidates });
  let wide =
    match mask with
    | Wide_masks -> true
    | Auto -> m > Lineage.max_universe
    | Int_masks ->
      (* Forced int masks past one word cannot run: report the word
         ceiling as the limit, like the pre-wide dispatcher did. *)
      if m > Lineage.max_universe then
        raise
          (Too_many_candidates { universe = m; limit = Lineage.max_universe });
      false
  in
  Metrics.set mask_width (float_of_int m);
  if wide then Metrics.incr wide_dispatch;
  if wide then
    Events.with_span "count_comp.mask_enumeration" (fun () ->
        count_wide ?query ~jobs ~universe ~m db)
  else
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
      let index_bits masks n =
        Array.init m (fun j ->
            let hits = ref [] in
            for i = n - 1 downto 0 do
              if masks.(i) land (1 lsl j) <> 0 then hits := i :: !hits
            done;
            Array.of_list !hits)
      in
      let facts_with_bit =
        index_bits (Codd.kernel_masks kernel0) (Codd.kernel_size kernel0)
      in
      let clauses_with_bit = index_bits clauses (Array.length clauses) in
      let shard_bits = shard_bits_for m in
      let nshards = 1 lsl shard_bits in
      let tasks =
        List.init nshards (fun s () ->
            Metrics.incr shards_run;
            let stats = { checked = 0; pruned = 0; found = 0 } in
            let found =
              Events.with_span "comp_kernel.shard"
                ~args:[ ("shard", Events.Int s) ]
                (fun () ->
                  run_shard ~m ~shard_bits ~prefix:(s lsl (m - shard_bits))
                    ~kernel:(Codd.kernel_copy kernel0) ~clauses ~sat_mode
                    ~universe ~facts_with_bit ~clauses_with_bit stats)
            in
            Metrics.incr subsets_checked ~by:stats.checked;
            Metrics.incr completions_checked ~by:stats.checked;
            Metrics.incr masks_pruned ~by:stats.pruned;
            found)
      in
      Nat.of_int
        (List.fold_left ( + ) 0 (Incdb_par.Pool.run ~jobs tasks)))

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
