(** Exact completion counting for Codd tables by candidate-space
    enumeration — the constructive reading of Proposition B.1's membership
    proof.

    The #P machine of Proposition B.1 guesses a set [S] of ground facts
    drawn from the union of the per-fact ground instantiations [P(f)] and
    accepts iff [S] satisfies the query and is a completion (decided by
    the Lemma B.2 matching test).  Running the same machine
    deterministically enumerates [2^|U|] candidate sets where
    [U = ⋃_f P(f)], which beats brute-force valuation enumeration whenever
    the candidate universe is small — e.g. many nulls over few domain
    values: [R(⊥1) ... R(⊥n)] over [{0,1}] has [2^n] valuations but only
    [4] candidate sets.

    {b The walk.}  [count] does not materialize one [Cdb.t] per subset.
    It compiles the query to a {!Incdb_cq.Lineage.t} (a DNF whose clauses
    are ascending arrays of indices into [U]), precomputes each table
    fact's ground image ({!Incdb_incomplete.Codd.kernel}), and walks the
    candidate sets by recursive prefix descent from the highest index
    down.  It keeps the included indices on a stack and maintains
    per-fact reachability and per-clause winnability counters
    incrementally, so star-check failures and query falsification prune
    whole subtrees, and a leaf costs only the saturating-matching test.
    The candidate space is split into prefix shards executed on
    {!Incdb_par.Pool} — at least 64, growing with the universe up to a
    cap of 16x the host's recommended domain count (so a small machine
    is not taxed with re-walking thousands of shard prefixes it cannot
    run in parallel).  The shard split depends on the universe and the
    host, never on [jobs], so totals (and the [comp_kernel.*] metrics)
    are bit-identical at any job count. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_relational

(** [candidate_facts db] is the ground-fact universe [⋃_f P(f)]. *)
val candidate_facts : Idb.t -> Cdb.fact list

(** [universe_within db ~limit] is the candidate universe as a sorted
    array, or [None] as soon as its size is found to exceed [limit] —
    grounding stops at [limit + 1] distinct facts, so probing an instance
    with a huge universe is cheap.  Dispatchers use this to both decide
    feasibility and hand the materialized universe to {!count}. *)
val universe_within : Idb.t -> limit:int -> Cdb.fact array option

(** Raised by {!count} when the candidate universe exceeds the cap.
    [universe] is a lower bound on its size: [limit + 1] when grounding
    stopped early (as {!universe_within} does), the exact size when the
    caller passed the universe in. *)
exception Too_many_candidates of { universe : int; limit : int }

(** Default candidate cap of {!count} (80; previously 26, and the
    pre-kernel enumerator capped at 22). *)
val default_max_candidates : int

(** A single value, ignored by {!count}.  It stays only because the
    end-to-end benchmark, which is frozen, passes it; it leaves with the
    ROADMAP's dispatcher-as-data change. *)
type mask_choice = Auto

(** [count ?query ?max_candidates ?jobs ?universe db] counts the
    completions of the Codd table [db] satisfying [query] (all
    completions if omitted), sharding the candidate space over [jobs]
    worker domains (default 1; totals are bit-identical at any job
    count).  Pass [~universe] (as produced by {!universe_within}) to
    skip re-grounding.  The [comp_kernel.mask_width] gauge records the
    universe size; [comp_kernel.masks_pruned] saturates at [max_int].
    [mask] is ignored (see {!mask_choice}).
    @raise Invalid_argument if [db] is not Codd.
    @raise Too_many_candidates if the candidate universe exceeds
    [max_candidates] (default {!default_max_candidates}). *)
val count :
  ?query:Query.t ->
  ?max_candidates:int ->
  ?jobs:int ->
  ?mask:mask_choice ->
  ?universe:Cdb.fact array ->
  Idb.t ->
  Nat.t

(** The pre-kernel enumerator, kept verbatim: materializes every subset
    as a [Cdb.t] and evaluates the query on it.  Agreement oracle for the
    kernel and the "before" leg of the benchmark.
    @raise Invalid_argument if [db] is not Codd or the universe exceeds
    [max_candidates] (default 22, the seed ceiling). *)
val count_reference : ?query:Query.t -> ?max_candidates:int -> Idb.t -> Nat.t
