(** Completion membership for Codd tables (Lemma B.2).

    Given a Codd table [D] and a set [S] of ground facts, decide in
    polynomial time whether some valuation [v] of [D] has [v(D) = S].
    The test combines a per-fact realizability check with a maximum
    bipartite matching between the facts of [D] and the facts of [S];
    this is the engine behind membership of [#Comp_Cd(q)] in #P
    (Proposition B.1). *)

open Incdb_relational

(** [fact_can_produce db f g] decides whether the incomplete fact [f] has a
    valuation (within the null domains of [db]) yielding exactly the ground
    fact [g]. *)
val fact_can_produce : Idb.t -> Idb.fact -> Cdb.fact -> bool

(** [is_completion db s] decides whether [s] is a completion of [db].
    @raise Invalid_argument when [db] is not a Codd table (the matching
    argument is only sound for Codd tables; see the remark after
    Proposition 5.2 for why naïve tables resist this approach). *)
val is_completion : Idb.t -> Cdb.t -> bool

(** {2 Completion kernel over a universe}

    The same Lemma B.2 test for enumerations over a fixed ground-fact
    universe [U] (Proposition B.1's candidate space).  A candidate set is
    an array of distinct indices into [U].  Each table fact's ground
    image and each universe fact's producers are precomputed as
    ascending index arrays, and the saturating-matching check runs
    Kuhn's algorithm over the producer lists with reusable scratch state
    — no per-candidate allocation.  One {!kernel} value holds mutable
    matching scratch: build one per domain when sharding. *)

type kernel

(** [kernel db ~universe] precomputes the ground images and producer
    lists of the facts of [db] over [universe] (a universe fact is named
    by its array index).
    @raise Invalid_argument if [db] is not Codd. *)
val kernel : Idb.t -> universe:Cdb.fact array -> kernel

(** Per table fact (in [Idb.facts] order), the ascending indices of the
    universe facts it can produce. *)
val kernel_images : kernel -> int array array

(** Per universe index, the table facts (ascending) that can produce
    it. *)
val kernel_producers : kernel -> int array array

(** Number of table facts. *)
val kernel_size : kernel -> int

(** A kernel sharing the immutable precomputation but with fresh matching
    scratch — one per worker domain when sharding an enumeration. *)
val kernel_copy : kernel -> kernel

(** [kernel_is_completion k set] decides whether the sub-universe
    selected by [set] (ascending universe indices) is a completion: the
    star check, a cardinality bound, then {!kernel_saturates}.  Agrees
    with {!is_completion} on the materialized set (property-tested). *)
val kernel_is_completion : kernel -> int array -> bool

(** [kernel_saturates k bits ~len], the matching half alone: each of the
    first [len] entries of [bits] (distinct universe indices, in any
    order) is matched to a distinct producing table fact.  For callers
    (the candidate walk) that already maintain the star check
    incrementally and keep the candidate set on a stack. *)
val kernel_saturates : kernel -> int array -> len:int -> bool

(** [is_completion_naive db s] decides completion membership for
    arbitrary (naïve) tables by backtracking over nulls with forward
    pruning: a partial assignment is abandoned as soon as some table fact
    can no longer land inside [s].  Exponential in the worst case — the
    remark after Proposition 5.2 explains why no matching-style
    polynomial test is known here — but far faster than full valuation
    enumeration in practice, and exact. *)
val is_completion_naive : Idb.t -> Cdb.t -> bool

(** [is_completion_brute db s] decides the same by enumerating valuations;
    works for naïve tables too but is exponential.  Test oracle. *)
val is_completion_brute : ?limit:int -> Idb.t -> Cdb.t -> bool
