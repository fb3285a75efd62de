(** Lineage-driven elimination for [#Comp]: count the query-satisfying
    completions of an incomplete database by dynamic programming over the
    candidate-fact interaction graph, without visiting completions one by
    one — and without requiring the table to be Codd.

    {2 The surjection view}

    Fix an assignment [a] of the {e shared} nulls (those occurring in
    more than one argument position).  A ground database [S] over the
    candidate universe is a completion of the residual table iff

    - {e star}: every table fact's ground image under [a] intersects [S]
      (each fact must land somewhere inside [S]), and
    - {e matching}: [S] is saturated by a matching of candidates to
      distinct table facts whose images contain them (the valuation is a
      surjection onto [S]; equivalently [S] is independent in the
      transversal matroid of the candidate-fact bipartite graph — the
      Lemma B.2 matching condition, generalized off the Codd diagonal).

    The kernel sweeps the candidate bits one at a time and counts the
    accepted subsets by DP.  Its state lives on the {e open windows}:
    fact images and lineage clauses with some bits swept and some not.
    Per conditioning branch that state is (i) the {e antichain of
    achievable free-fact sets} over the open fact windows — the exact
    information needed to extend a partial matching — and (ii) a
    {e hit} mask recording which open facts already intersect the chosen
    prefix.  Clause satisfaction of the compiled {!Lineage} DNF is
    tracked the same way with per-clause viability bits.  The sweep
    order keeps few windows open: it finishes the open window with the
    fewest unswept bits first, taking the bit that opens the fewest new
    windows net of those it closes.

    Non-Codd tables are handled by conditioning on the shared nulls, but
    the branches are {e not} summed — distinct shared assignments can
    produce the same completion — instead all branches run jointly in
    one sweep and a subset is accepted when at least one branch stays
    alive, so each completion is counted exactly once.  Branches whose
    producing facts agree on every remaining bit have the same future,
    so the state keeps one set of sub-states per such class of branches
    (dead branches drop out, equal sub-states merge) rather than one
    sub-state per branch.

    The DP is sequential and fully deterministic: counts and the
    [comp_kernel.elim_*] counters are invariant across the dispatcher's
    [jobs] and cache configuration. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete

(** Dispatch choice for the elimination arm ([--comp-elim]). *)
type choice = Auto | Off | Force

val choice_to_string : choice -> string

(** Typed reasons the kernel declines (or abandons) an instance, in the
    style of the other limits ([Too_many_valuations] / [_candidates] /
    [_events]) so the CLI reports them uniformly:

    - [Uncompilable_query]: the query has no DNF lineage
      (opaque [Semantic] queries).
    - [Universe_too_large]: the per-branch ground universe exceeds
      [max_universe] candidates.
    - [Too_many_branches]: the shared-null assignment space exceeds
      [max_branches] (reported count is a partial product — "at least").
    - [Width_exceeded]: more than [width_bound] fact windows (or more
      than 62 clause windows) would be open at once in the sweep order.
    - [Too_many_states]: the DP frontier outgrew [max_states] mid-run. *)
type infeasible =
  | Uncompilable_query
  | Universe_too_large of { universe : int; limit : int }
  | Too_many_branches of { branches : int; limit : int }
  | Width_exceeded of { width : int; bound : int }
  | Too_many_states of { states : int; limit : int }

exception Infeasible of infeasible

val infeasible_to_string : infeasible -> string

val default_width_bound : int
val default_max_branches : int
val default_max_universe : int
val default_max_states : int

(** Frontier size past which a bag-boundary message spills its counts
    through {!Factor_store} (the [--comp-max-cells] default). *)
val default_max_cells : int

(** A compiled instance: universe, conditioning branches, the sweep
    order with its window entry/exit schedule, the producing facts of
    each bit per class of interchangeable branches, compiled clause
    windows. *)
type plan

(** Number of candidate bits (distinct ground facts over all branches). *)
val plan_universe : plan -> int

(** Number of shared-null conditioning branches ([1] on Codd tables). *)
val plan_branches : plan -> int

(** Maximum number of fact windows open at once in the sweep. *)
val plan_width : plan -> int

(** Bags of the sweep: a bag ends after each bit that closes a window
    ([0] on an empty table).  The [comp_kernel.bag] span and the spill
    check run once per bag. *)
val plan_bags : plan -> int

(** [plan ?query ... db] compiles [db] (Codd or not) and the optional
    query into a sweep plan, or says why it will not.  Cheap relative to
    {!run}: grounding is capped by [max_universe] with early exit, the
    branch product bails at [max_branches], and width is computed from
    the window-closing sweep order before any DP state exists. *)
val plan :
  ?query:Query.t ->
  ?width_bound:int ->
  ?max_branches:int ->
  ?max_universe:int ->
  Idb.t ->
  (plan, infeasible) result

(** {2 Caller-owned transform memos}

    By default each {!run} allocates (and drops) its family intern store
    and the three antichain-transform memo tables.  A long-lived process
    can instead own one {!type-memos} bundle and pass it to successive
    runs: every key inside is plan-relative, so the bundle binds to the
    first plan it serves and silently clears itself when handed a
    structurally different one — cross-plan contamination is impossible,
    while a repeat of the same (query, db) pair (whose deterministic
    {!plan} compiles to an equal plan) replays its transforms as cache
    hits.  Counts are bit-identical with any memos, shared or fresh. *)

type memos

(** A fresh, unbound memo bundle. *)
val memos_create : unit -> memos

(** Drop every table and the plan binding; the handle stays valid. *)
val memos_clear : memos -> unit

(** Total entries across the three transform tables. *)
val memos_length : memos -> int

(** [run plan] executes the sweep and returns the exact number of
    distinct query-satisfying completions.  [cache] (default [true])
    memoizes the antichain transforms (entry / include / project) across
    branches and states; [memos] (when given) backs those tables with a
    caller-owned bundle that survives the run (see {!type-memos} — the
    incdbd warm-reuse hook); [max_cells] bounds the in-memory message at
    bag boundaries before counts spill to disk under [spill_dir].  Sets
    the gauges [comp_kernel.elim_width] (most fact windows open at once)
    and [comp_kernel.clause_width] (most clause windows open at once).
    @raise Infeasible ([Too_many_states]) if the frontier outgrows
    [max_states]. *)
val run :
  ?max_states:int ->
  ?max_cells:int ->
  ?cache:bool ->
  ?memos:memos ->
  ?spill_dir:string ->
  plan ->
  Nat.t

(** {!plan} + {!run}.
    @raise Infeasible instead of returning [Error]. *)
val count :
  ?query:Query.t ->
  ?width_bound:int ->
  ?max_branches:int ->
  ?max_universe:int ->
  ?max_states:int ->
  ?max_cells:int ->
  ?cache:bool ->
  ?memos:memos ->
  ?spill_dir:string ->
  Idb.t ->
  Nat.t
