(** Guaranteed bounds and under-approximations for [#Comp(q)] — the
    heuristic direction the paper's final remarks call for (Section 8:
    "developing algorithms that compute under-approximations for the
    number of completions ... without provable quantitative guarantees,
    but that work sufficiently well in practice").

    [#Comp] admits no FPRAS in most settings (Section 5.2), so these
    bounds are the honest alternative: the lower bound is the number of
    {e distinct} completions actually witnessed among sampled valuations
    (always sound), and the upper bound is [#Val(q)] (sound because the
    completion map is surjective onto the counted set). *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete

type bounds = { lower : Nat.t; upper : Nat.t }

(** [bounds ~seed ~samples q db] returns sound bounds
    [lower <= #Comp(q)(db) <= upper].  The lower bound is the number of
    distinct satisfying completions among [samples] uniformly drawn
    valuations (plus deterministic sweeps of each null's extreme values);
    the upper bound is [min(#Val(q), upper bound on completions)] with
    [#Val] computed by the dispatcher when tractable and by the Karp–Luby
    event union size otherwise. *)
val bounds : seed:int -> samples:int -> Cq.t -> Idb.t -> bounds
