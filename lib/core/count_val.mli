(** Exact counting of satisfying valuations — the tractable sides of the
    #Val dichotomies (first two columns of Table 1).

    Three polynomial-time algorithms are provided, one per tractable cell:

    - {!nonuniform_naive} (Theorem 3.6): when every variable of [q] occurs
      exactly once, every valuation satisfies [q] as soon as each relation
      of [q] is non-empty, so the answer is the product of domain sizes.
    - {!codd_nonuniform} (Theorem 3.7): when no two atoms share a variable
      and the table is Codd, the count factorizes over atoms, with a
      per-tuple inclusion–exclusion within each relation.
    - {!uniform_naive} (Theorem 3.9 / Proposition A.14): when [q] avoids
      [R(x,x)], [R(x) ∧ S(x,y) ∧ T(y)] and [R(x,y) ∧ S(x,y)], the query
      decomposes into basic singletons (Lemma A.11), single-occurrence
      variables factor out (Lemma A.12), and each term of the Lemma A.13
      inclusion–exclusion is computed by a dynamic program over tables
      indexed by how many nulls of each occurrence class are placed — the
      executable form of the paper's nested block sums.

    That DP is written once, over its number type: domain values enter
    in groups that share a base coverage, and a group of m values costs
    min(m, N) binomial convolutions for N nulls, so the domain size
    enters only through C(m, j).  {!uniform_naive} ([Nat]) tallies the
    domain by coverage, {!uniform_symbolic} ([Nat]) is one group of d
    plain values, and {!uniform_weighted} ([Qnum]) takes each value as
    its own group.

    {!count} dispatches on the query shape; hard instances go to the
    {!Val_kernel} lineage variable-elimination kernel, with brute force
    (under an enumeration limit) only when the kernel's compiled event
    set would be too large. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete

(** Which algorithm answered (reported by {!count}). *)
type algorithm =
  | Product_of_domains  (** Theorem 3.6 *)
  | Codd_per_atom  (** Theorem 3.7 *)
  | Uniform_block_dp  (** Theorem 3.9 *)
  | Lineage_elimination
      (** the {!Val_kernel} bucket-elimination / conditioning counter over
          compiled Karp–Luby events; handles every hard-pattern BCQ and
          every union / inequality / negation query whose event set fits
          the kernel's limit *)
  | Brute_force

val algorithm_to_string : algorithm -> string

(** @raise Invalid_argument if some variable of [q] occurs twice. *)
val nonuniform_naive : Cq.t -> Idb.t -> Nat.t

(** @raise Invalid_argument if two atoms of [q] share a variable, or if the
    table is not Codd. *)
val codd_nonuniform : Cq.t -> Idb.t -> Nat.t

(** @raise Invalid_argument if [q] contains one of the three uniform hard
    patterns, or if the database is not uniform. *)
val uniform_naive : Cq.t -> Idb.t -> Nat.t

(** [uniform_symbolic q facts ~domain_size] computes [#Val^u(q)] for the
    naïve table [facts] over a {e symbolic} uniform domain of
    [domain_size] fresh values (every constant of the table is treated as
    lying outside the domain).  Same tractable query shapes as
    {!uniform_naive}; the d values form one group of plain values, so
    each Lemma A.13 term costs at most N binomial convolutions of tables
    of [S] = prod_i (n_i + 1) entries for N = sum_i n_i nulls, whatever
    [d]: exact counting with domains of size 10^9 and beyond.
    @raise Invalid_argument on a hard query shape or [domain_size < 1]. *)
val uniform_symbolic : Cq.t -> Idb.fact list -> domain_size:int -> Nat.t

(** [uniform_weighted q db ~weight] is the {e probability} that a random
    valuation satisfies [q], when every null draws independently from the
    shared uniform domain under the distribution [weight] (which must sum
    to 1 over the domain).  This is the weighted generalization of the
    Theorem 3.9 dynamic program — nulls stay interchangeable because the
    distribution is shared — bridging the paper's counting setting to
    probabilistic databases (Section 7): with uniform weights it equals
    [#Val / total].
    @raise Invalid_argument on hard query shapes, non-uniform databases,
    or a distribution not summing to 1. *)
val uniform_weighted :
  Cq.t -> Incdb_incomplete.Idb.t -> weight:(string -> Qnum.t) -> Qnum.t

(** [closed_form q db] is the closed form that answers [#Val(q)] on [db]
    — Theorem 3.6, 3.7 or 3.9, tested in that order, as {!count} does —
    with a thunk computing it, or [None] when [(q, db)] has none. *)
val closed_form : Cq.t -> Idb.t -> (algorithm * (unit -> Nat.t)) option

(** [count ?brute_limit ?val_width_bound ?val_max_events ?jobs q db] picks
    the matching tractable algorithm for [(q, db)] — or, on the hard
    shapes, the {!Val_kernel} lineage-elimination kernel (with
    [val_width_bound] as its induced-width bound and [val_max_events] as
    its event cap) — and reports which one ran.  Brute force remains the
    fallback when the kernel declines ([Val_kernel.Too_many_events]).
    [jobs] (default 1: the sequential path; 0: auto-detect) parallelizes
    the kernel's conditioning branches and the brute-force fallback's
    shards; counts are bit-identical at every job count.  [val_order]
    selects the kernel's elimination-order heuristic,
    [val_cache_entries] bounds its cross-branch subproblem cache
    ([0] disables it) and [val_cache] substitutes a caller-owned cache
    that survives the call (see {!Val_kernel.type-cache} — the incdbd
    warm-reuse hook), [val_max_cells] caps one in-memory message table,
    and [val_spill]/[val_spill_dir] control the kernel's spill-to-disk
    policy for oversized tables (within the kernel's default per-call
    spill budget); see {!Val_kernel.count}.
    @raise Idb.Too_many_valuations if brute force is needed but the
    instance exceeds [brute_limit] valuations. *)
val count :
  ?brute_limit:int ->
  ?val_width_bound:int ->
  ?val_max_events:int ->
  ?val_max_cells:int ->
  ?val_order:Val_kernel.order ->
  ?val_cache_entries:int ->
  ?val_cache:Val_kernel.cache ->
  ?val_spill:Val_kernel.spill ->
  ?val_spill_dir:string ->
  ?jobs:int ->
  Cq.t ->
  Idb.t ->
  algorithm * Nat.t

(** [count_query ?brute_limit ?val_width_bound ?val_max_events ?jobs q db]
    extends {!count} to the full query language along one path: only a
    single BCQ tries the closed forms, as {!count} does; unions,
    inequalities and negations go straight to the {!Val_kernel} (which
    handles [Not] by complementing the avoidance count) with
    brute-force enumeration as the over-limit fallback; opaque
    [Semantic] queries always enumerate. *)
val count_query :
  ?brute_limit:int ->
  ?val_width_bound:int ->
  ?val_max_events:int ->
  ?val_max_cells:int ->
  ?val_order:Val_kernel.order ->
  ?val_cache_entries:int ->
  ?val_cache:Val_kernel.cache ->
  ?val_spill:Val_kernel.spill ->
  ?val_spill_dir:string ->
  ?jobs:int ->
  Query.t ->
  Idb.t ->
  algorithm * Nat.t
