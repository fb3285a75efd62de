(** Query lineage compiled to a DNF over universe indices.

    In the probabilistic-database tradition (and the Kenig–Suciu model
    counting line of work), counting over uncertain data reduces to a
    Boolean formula over ground tuples.  For a monotone query [q] and a
    finite universe [U] of ground facts, the {e lineage} of [q] over [U]
    is the DNF whose clauses are the footprints of the homomorphisms of
    [q] into [U]: a sub-database [S ⊆ U] satisfies [q] iff [S] contains
    some footprint.  A clause, like a candidate set [S], is an ascending
    array of indices into [U], so the universe has no size ceiling.
    [Comp_candidates.count] keeps a counter per clause along its walk
    over candidate sets, and [Comp_kernel] sweeps the clauses as windows
    of its DP.

    The module lives in [incdb_cq] (not [incdb_core]) because the
    compiler only needs [Query] and [Cdb]. *)

open Incdb_relational

(** A compiled lineage: minimal DNF clauses over universe indices, with
    an outer negation flag (so [Not q] compiles when [q] does). *)
type t

(** Number of (minimal, deduplicated) clauses. *)
val clause_count : t -> int

(** Whether the compiled query is evaluated as the negation of the DNF. *)
val is_negated : t -> bool

(** The minimal clauses, each an ascending array of universe indices (do
    not mutate).  They come ordered by size, then by the number whose
    set bits they are: of two clauses of one size, the one holding the
    larger index at the highest position where they differ comes
    second. *)
val clauses : t -> int array array

(** [compile q universe] compiles [q]'s satisfaction over sub-databases
    of [universe].  Returns [None] on opaque [Semantic] queries.  [Not]
    recurses with the negation flag flipped, so any (iterated) negation
    of a compilable query compiles. *)
val compile : Query.t -> Cdb.fact array -> t option

(** [sat l set] decides whether the sub-database of the universe
    selected by [set] (ascending universe indices) satisfies the
    compiled query.  Semantically equal to [Query.eval q] on those facts
    — property-tested against it. *)
val sat : t -> int array -> bool

(** {2 Slot-assignment clauses}

    The valuation-space face of the same compilation: a clause fixes
    values for a set of {e slots} (null indices), given as an array of
    [(slot, value)] pairs sorted by slot.  [Karp_luby] compiles its
    union-of-events representation this way — one clause per match
    candidate — so its per-sample coverage test runs on ints instead of
    re-matching association lists, and the #Val kernel eliminates over
    the same clauses. *)

(** [fixes_subset a b]: every pair of [a] occurs in [b] (both sorted by
    slot).  In a disjunction of slot clauses, [a] then subsumes [b]. *)
val fixes_subset : (int * int) array -> (int * int) array -> bool

(** Minimal, deduplicated form of a disjunction of slot clauses: clauses
    subsumed by a (sub)clause are dropped — the slot-assignment analogue
    of the {!clauses} minimization.  An empty clause (matches
    everything) collapses the result to [[| [||] |]]. *)
val minimal_fixes : (int * int) array array -> (int * int) array array

(** The distinct slots fixed by any clause, sorted ascending. *)
val fixes_slots : (int * int) array array -> int array

(** [condition_fixes fixes ~slot ~value] restricts the disjunction to the
    assignments with [slot = value]: clauses fixing [slot] to another
    value are dropped (they can no longer match), clauses fixing
    [slot = value] lose that pair.  [None] means some clause became empty
    — every assignment of the restricted space matches the disjunction. *)
val condition_fixes :
  (int * int) array array ->
  slot:int ->
  value:int ->
  (int * int) array array option

(** Clauses not mentioning [slot] — the residual disjunction seen by the
    assignments whose value at [slot] appears in no clause. *)
val drop_slot_fixes : (int * int) array array -> slot:int -> (int * int) array array

(** [canonical_fixes fixes ~dom] is the canonical form of the
    disjunction, for keying a subproblem cache: slots renamed to dense
    ids by first occurrence, each slot's values renamed to dense ids by
    first occurrence, clauses re-sorted, paired with the per-canonical-
    slot domain sizes ([dom] maps an original slot to its domain size).
    Subproblems with equal canonical forms have equal avoidance counts
    (the renaming composes a slot bijection with per-slot value
    bijections); the first-occurrence scan is order-sensitive, so the
    converse may fail — missed sharing, never wrong sharing.  Input
    clauses must be slot-sorted, as produced by {!minimal_fixes}. *)
val canonical_fixes :
  (int * int) array array ->
  dom:(int -> int) ->
  (int * int) array array * int array
