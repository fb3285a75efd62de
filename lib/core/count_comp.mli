(** Exact counting of satisfying completions — the tractable side of the
    #Comp dichotomies (last two columns of Table 1).

    By Theorem 4.6 the only tractable cells are uniform databases with a
    query whose atoms are all unary (absence of the [R(x,x)] and [R(x,y)]
    patterns).  The algorithm implements the completion-shape enumeration
    of Lemmas B.17–B.19: a completion of a unary-schema uniform database is
    determined by the {e exact class} of every domain value (the set of
    relations it belongs to), so we sum, over all ways to assign class
    sizes to plain domain values and to "upgrade" table constants into
    larger classes, the number of value choices (a product of binomials),
    keeping only assignments that are {e realizable} by the available
    nulls and that satisfy the query.

    Realizability (the paper's [check] predicate, Lemma B.19) is decided
    by an exact cover-feasibility search rather than the paper's loose
    bounded z-system enumeration: every null must land on a value whose
    class contains the null's occurrence class, and every counted value
    must have its missing coverage covered by the classes of at least one
    null routed to it; minimal covers are enumerated per value type and
    distributed by a memoized search.  See DESIGN.md §4. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete

type algorithm =
  | Uniform_unary  (** Theorem 4.6 completion-shape enumeration *)
  | Candidate_enumeration
      (** Proposition B.1 candidate-space enumeration (Codd tables with a
          small ground-fact universe that the elimination kernel
          declines); see {!Comp_candidates} *)
  | Lineage_elimination
      (** Counting by DP over the candidate-fact interaction graph — Codd
          tables and (via shared-null conditioning) non-Codd tables; see
          {!Comp_kernel} *)
  | Brute_force

val algorithm_to_string : algorithm -> string

(** [uniform_unary ?query db] counts the completions of the uniform
    database [db] (naïve or Codd) over a unary schema that satisfy
    [query]; with [query] omitted it counts all completions.
    @raise Invalid_argument if [db] is not uniform, a fact is not unary,
    or the query mentions a relation with non-unary atoms / is missing a
    relation of [db]. *)
val uniform_unary : ?query:Cq.t -> Idb.t -> Nat.t

(** [uniform_symbolic ?query facts ~domain_size] counts the completions
    over a {e symbolic} uniform domain of [domain_size] fresh values
    (every table constant treated as external to the domain).  The
    Theorem 4.6 enumeration is bounded by the null count, not the domain,
    so this is polynomial in [log domain_size] — completion counting with
    domains of size 10^9.
    @raise Invalid_argument as {!uniform_unary}, or on
    [domain_size < 1]. *)
val uniform_symbolic :
  ?query:Cq.t -> Incdb_incomplete.Idb.fact list -> domain_size:int -> Nat.t

(** [count ?brute_limit ?max_candidates ?jobs q db] dispatches: the
    Theorem 4.6 algorithm when it applies; otherwise — Codd or not — the
    {!Comp_kernel} elimination arm whenever it can compile a plan; when
    the plan declines, the {!Comp_candidates} candidate walk for a
    Codd table whose candidate universe fits within [max_candidates]
    (default {!Comp_candidates.default_max_candidates}; probed with an
    early-exit grounding, and the probed universe is reused by the
    counting call); brute-force enumeration as the last resort.  [jobs]
    (default 1: sequential; 0: auto-detect) shards the brute-force
    completion dedup — or the enumerator's candidate space — across
    domains; totals are bit-identical at any job count (the elimination
    DP is sequential).  [mask] is ignored (see
    {!Comp_candidates.mask_choice}).

    The elimination arm is steered by [comp_elim] (default
    [Comp_kernel.Auto]): [Off] skips it (enumerator, then brute force),
    [Force] requires the kernel — overriding every other arm, the
    Theorem 4.6 closed form included — and raises
    {!Comp_kernel.Infeasible} when it declines; under [Auto] a mid-run
    [Too_many_states] falls back to the enumerator or brute force as if
    the plan had declined.  [comp_width_bound] caps the sweep's open
    fact windows (plan-time, typed failure), [comp_max_cells] bounds the in-memory
    bag-boundary message before counts spill to disk under
    [comp_spill_dir], [comp_max_states] bounds the DP frontier,
    [comp_cache] (default [true]) toggles the kernel's antichain
    transform memos, and [comp_memos] backs those memos with a
    caller-owned bundle surviving the call (see
    {!Comp_kernel.type-memos} — the incdbd warm-reuse hook; the bundle
    self-clears on a plan change, so passing one is always sound) —
    none of them change any count.
    @raise Idb.Too_many_valuations if enumeration is needed but the
    instance exceeds [brute_limit] valuations.
    @raise Comp_kernel.Infeasible under [comp_elim = Force] when the
    kernel declines the instance. *)
val count :
  ?brute_limit:int ->
  ?max_candidates:int ->
  ?jobs:int ->
  ?mask:Comp_candidates.mask_choice ->
  ?comp_elim:Comp_kernel.choice ->
  ?comp_width_bound:int ->
  ?comp_max_cells:int ->
  ?comp_max_states:int ->
  ?comp_cache:bool ->
  ?comp_memos:Comp_kernel.memos ->
  ?comp_spill_dir:string ->
  Cq.t ->
  Idb.t ->
  algorithm * Nat.t

(** [count_all ?brute_limit ?max_candidates ?jobs db] counts all
    completions (no query); same dispatch and options as {!count}. *)
val count_all :
  ?brute_limit:int ->
  ?max_candidates:int ->
  ?jobs:int ->
  ?comp_elim:Comp_kernel.choice ->
  ?comp_width_bound:int ->
  ?comp_max_cells:int ->
  ?comp_max_states:int ->
  ?comp_cache:bool ->
  ?comp_memos:Comp_kernel.memos ->
  ?comp_spill_dir:string ->
  Idb.t ->
  algorithm * Nat.t
