(** A Karp–Luby union-of-events FPRAS for [#Val(q)] when [q] is a BCQ or a
    union of BCQs (Corollary 5.3).

    The satisfying valuations are exactly the union, over all {e match
    candidates}, of the valuations extending the candidate's induced
    partial valuation.  A match candidate picks one table fact per atom of
    a disjunct and a consistent homomorphism from the disjunct's variables
    into constants; this is the constructive core of Proposition 5.2's
    bounded-minimal-models argument (a minimal model of a BCQ has at most
    [|q|] facts).  The number of candidates is polynomial for a fixed
    query, each event's cardinality is a product of domain sizes, uniform
    sampling within an event is trivial, and membership is a prefix check:
    exactly the ingredients of the Karp–Luby coverage estimator. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete

(** One event of the union: the valuations extending [partial]. *)
type event = { partial : (string * string) list; size : Nat.t }

(** [partials q db] enumerates the (deduplicated) events' partial
    valuations without sizing them: the [partial] fields of {!events},
    in the same order.  Callers that never read an event's [size] (the
    [Val_kernel] counter, an event count) use this and skip a [Nat]
    product over every null per event.  Counted in
    [karp_luby.events_built], as {!events} is.
    @raise Invalid_argument on a non-monotone query. *)
val partials : Query.t -> Idb.t -> (string * string) list list

(** [events q db] enumerates the (deduplicated) events with their sizes;
    their union is the set of satisfying valuations.
    @raise Invalid_argument on a non-monotone query. *)
val events : Query.t -> Idb.t -> event list

(** [encode_fixes partials db] encodes each event's partial valuation as
    a slot-sorted [(slot, value)] array — {!Incdb_cq.Lineage}'s
    slot-assignment clause form — where slots index [Idb.nulls db] and
    values index the slot's domain array.  A valuation satisfies the
    query iff its slot encoding extends some clause, which is what both
    the compiled sampler and the [Val_kernel] variable-elimination
    counter consume. *)
val encode_fixes :
  (string * string) list array -> Idb.t -> (int * int) array array

(** {2 Compiled events}

    The sampler's inner loop compiled to machine ints: nulls become
    slots, domain values become indices into the slot's (duplicate-free)
    domain array, and each event becomes a slot-sorted [(slot, value)]
    array — {!Incdb_cq.Lineage}'s slot-assignment clause form.  Sampling
    and the canonical first-cover check then run on int arrays instead of
    re-matching string association lists per valuation.  The RNG is
    consumed exactly as the uncompiled sampler did, so estimates are
    bit-identical for any seed. *)

type compiled

(** [compile q db] builds and encodes the events once.
    @raise Invalid_argument on a non-monotone query. *)
val compile : Query.t -> Idb.t -> compiled

(** [estimate ~seed ~samples q db] runs the coverage estimator and returns
    the estimated [#Val(q)(db)].  The standard analysis gives relative
    error [epsilon] with confidence [3/4] once
    [samples >= 4 * (number of events) / epsilon^2]. *)
val estimate : seed:int -> samples:int -> Query.t -> Idb.t -> float

(** [wilson_half_width ~samples rate] is the half-width of a 95% Wilson
    score interval around the Bernoulli point estimate [rate], relative
    to [rate] itself: [rate ± half-width] covers the Wilson interval.
    Unlike the normal-approximation standard error, it stays strictly
    positive at [rate ∈ {0, 1}], where an all-hits (or no-hits) sample
    run still carries genuine uncertainty. *)
val wilson_half_width : samples:int -> float -> float

(** [estimate_with_ci ~seed ~samples q db] additionally returns a 95%
    confidence half-width for the estimate: the coverage indicator is a
    Bernoulli variable scaled by the total event weight, and the
    half-width is the scaled {!wilson_half_width} — positive for every
    finite sample count, including degenerate all-hit/no-hit runs. *)
val estimate_with_ci :
  seed:int -> samples:int -> Query.t -> Idb.t -> float * float

(** The FPRAS budget [4 * events / epsilon^2] exceeds [max_int]: raised
    by {!samples_for} instead of silently truncating the float to a
    meaningless (possibly negative) sample count. *)
exception Sample_budget_overflow of { epsilon : float; events : int }

(** [samples_for ~epsilon ~events] is the sample count prescribed by the
    FPRAS analysis (with the 3/4 success probability of the Section 5
    definition).
    @raise Invalid_argument on [epsilon <= 0] or negative [events].
    @raise Sample_budget_overflow when the budget exceeds [max_int]. *)
val samples_for : epsilon:float -> events:int -> int

(** [exact_via_events q db] computes [#Val] exactly by inclusion–exclusion
    over the events, merging the partial valuations of each of the 2^m
    event subsets from scratch — exponential in the number of events,
    used by [fuzz] and the tests as an independent oracle for the event
    construction (no dispatcher calls it: the exact path for unions runs
    through the [Val_kernel] variable-elimination counter).
    @raise Invalid_argument with more than 20 events. *)
val exact_via_events : Query.t -> Idb.t -> Nat.t
