(** Exact [#Val] by variable elimination over compiled lineage.

    The Karp–Luby event construction (Proposition 5.2) already
    characterizes the satisfying valuations of a monotone query exactly: a
    valuation satisfies [q] iff it extends some event, and
    {!Incdb_approx.Karp_luby.encode_fixes} turns each event's partial
    valuation (enumerated unsized, {!Incdb_approx.Karp_luby.partials}) into a
    {!Incdb_cq.Lineage} slot clause — a conjunction of [(null, value)]
    literals over machine ints.  Counting satisfying valuations is then
    weighted model counting of a DNF over the nulls, and this kernel does
    it the knowledge-compilation way instead of enumerating the
    [∏ |dom(N_i)|] valuation space:

    - count the {e avoiding} assignments (extending no clause) and
      subtract from the total, flipping for an odd number of outer [Not]s;
    - split the minimal clause set into connected components of the
      null-interaction graph (components multiply);
    - per component, shrink every null's domain to its mentioned values
      plus one weighted "other" bucket, pick a min-degree elimination
      order, and run dynamic programming over the induced
      {!Treedec} tree decomposition — one bag-local join per clique
      node, one upward message per parent separator, marginalizing each
      null with its reduced-value weights at its topmost bag;
    - sweep each bag incrementally: one odometer over its digits whose
      digit changes update per-clause violated-literal counts, child
      message offsets and the summed-out weight product, with cells as
      machine ints under overflow-checked arithmetic and only the rare
      cell (or separator sum) past 2{^62} computed in [Nat] — counted
      by [val_kernel.nat_cells];
    - when a message table would exceed [max_cells], stream it through
      a disk-backed {!Factor_store} instead of giving up (the dpdb
      idiom), as long as the estimated IO fits the spill budget;
    - when the simulated induced width exceeds the bound — or spilling
      is off or out of budget — first try the {e product split}: if
      the component's clauses are a product [A ⊗ B] over disjoint nulls
      ({!Incdb_cq.Lineage.product_fixes}; one-edge path lineage, an OR
      over the R-nulls times an OR over the T-nulls, is one), solve the
      factors apart and combine them as
      [T_A·T_B − (T_A − avoid A)·(T_B − avoid B)], [T] being the
      product of a side's domain sizes;
    - otherwise fall back to {e conditioning}: branch
      on the highest-degree null's mentioned values plus the aggregated
      rest, simplify, and recurse on the now smaller (often
      disconnected) residual problems, so worst-case cost degrades
      gracefully instead of cliff-ing.

    So the order per call is: components, then the DP for a component
    in bounds, then the product split, then conditioning.  Branches of
    an outermost conditioning split run on
    {!Incdb_par.Pool} when [jobs <> 1]; branch and component results are
    combined in a fixed order, so counts and metric totals are
    bit-identical at every job count.  Spans and the
    [val_kernel.{events_compiled,width,factors_merged,conditioning_splits,
    product_splits,slots_eliminated,nat_cells}] counters record what the
    kernel did. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete

(** The event set exceeded [max_events]: compiling the lineage would cost
    more than it saves, the caller should fall back to enumeration. *)
exception Too_many_events of { events : int; limit : int }

(** Default induced-width bound ([8]) above which a component is split by
    conditioning rather than eliminated. *)
val default_width_bound : int

(** Default cap ([4096]) on the number of compiled events. *)
val default_max_events : int

(** Default size bound ([65536] entries) of the cross-branch subproblem
    cache. *)
val default_cache_entries : int

(** Default in-memory cap ([2{^20}]) on the cells of one message table;
    larger tables spill (policy permitting) or force conditioning. *)
val default_max_cells : int

(** Default spill budget ([2{^30}] bytes ≈ 1 GiB) on the bytes one
    [count] call may stream through spilled tables. *)
val default_spill_budget_bytes : int

(** Elimination-order heuristic over the slot-interaction graph.
    [Min_degree] (the default) greedily eliminates the smallest-degree
    slot.  [Min_fill] greedily eliminates the slot whose neighborhood
    needs the fewest fill edges, simulates both heuristics, and keeps
    whichever order induces the smaller (width, cells) — so it is never
    worse than [Min_degree] on the instance at hand.  Both break ties on
    the smallest slot index; orders, counts and metrics are
    deterministic either way. *)
type order = Min_degree | Min_fill

val order_to_string : order -> string

(** When a component's message tables outgrow [max_cells]:

    - [Auto] (the default) — spill the oversized messages to disk as
      long as the component's induced width respects [width_bound] and
      the estimated stream fits what is left of the spill budget;
      condition otherwise.  In-bounds components never spill.
    - [Off] — the seed kernel's behavior: never touch disk, condition
      any component whose width or tables exceed the bounds.
    - [Force] — spill {e every} message of {e every} component,
      ignoring [width_bound] (only the spill budget gates admission).
      A testing and measurement mode: it exercises the disk backend on
      instances of any size and makes
      [val_kernel.spilled_factors]/[spill_bytes] deterministic targets
      for smoke assertions.

    Counts are bit-identical across all three modes. *)
type spill = Auto | Off | Force

val spill_to_string : spill -> string

(** {2 Caller-owned subproblem cache}

    By default every {!count} call creates (and drops) its own
    subproblem cache.  A long-lived process can instead own one cache
    and pass it to successive calls: entries key on
    {!Incdb_cq.Lineage.canonical_fixes} of the component plus its
    reduced-domain sizes — nothing database- or call-specific — so
    cross-call sharing is sound, and a repeat of the same query against
    the same database resolves its components entirely from cache.
    The table stops absorbing entries at its capacity (no eviction);
    counts are bit-identical with any cache, shared or fresh. *)

type cache

(** [cache_create entries] is an empty cache absorbing at most
    [entries] keys.  @raise Invalid_argument when [entries < 1]. *)
val cache_create : int -> cache

(** Drop every entry; the handle and its capacity stay valid. *)
val cache_clear : cache -> unit

(** Number of subproblem counts currently held. *)
val cache_length : cache -> int

(** [count ?width_bound ?max_events ?max_cells ?order ?cache_entries
    ?spill ?spill_dir ?spill_budget_bytes ?jobs q db] is
    [Some (#Val(q)(db))] for any query built from monotone parts and
    [Not] — [None] only for queries containing an opaque [Semantic]
    leaf.  [jobs] follows the {!Incdb_par.Pool} convention
    (1 = sequential, 0 = auto-detect); results are bit-identical at
    every job count, under either [order], and with the cache on or off.

    [cache_entries] bounds the cross-branch subproblem cache: component
    avoidance counts memoized on {!Incdb_cq.Lineage.canonical_fixes} of
    the component (slots and values renamed to dense ids, clauses
    sorted, paired with the per-slot domain sizes), shared across the
    conditioning recursion and the outermost parallel split — the
    isomorphic residual subproblems that K_{k,k}-style lineage
    regenerates once per branch are then solved once.  [0] disables the
    cache; the [val_kernel.cache_hits]/[..._misses] counters record the
    sharing.  [cache] (when given) overrides [cache_entries] with a
    caller-owned table that survives the call — see {!type-cache}.

    [max_cells] caps the in-memory cells of one message table (see
    {!spill} for what happens beyond it); [spill_dir] is where spilled
    tables live (default: the system temp directory — temp files are
    deleted before [count] returns, on every path including
    exceptions); [spill_budget_bytes] bounds the call's total spill
    traffic, shared across branches and pool domains.  The
    [val_kernel.bags] counter, [val_kernel.bag] flight-recorder spans
    and the [treedec.width] gauge record the DP's shape, and
    [val_kernel.spilled_factors]/[spill_bytes]/[spill_read_bytes] its
    disk traffic.
    @raise Too_many_events when more than [max_events] events compile.
    @raise Invalid_argument on a negative [width_bound], [max_events],
    [cache_entries] or [spill_budget_bytes], or a [max_cells] below 1. *)
val count :
  ?width_bound:int ->
  ?max_events:int ->
  ?max_cells:int ->
  ?order:order ->
  ?cache_entries:int ->
  ?cache:cache ->
  ?spill:spill ->
  ?spill_dir:string ->
  ?spill_budget_bytes:int ->
  ?jobs:int ->
  Query.t ->
  Idb.t ->
  Nat.t option
