(** Libkin's relative-frequency measure and the 0–1 law (Section 7).

    For a Boolean query [q], a naïve table [T] and an integer [k],
    [mu_k(q, T) = |Supp_k(q,T)| / |V_k(T)|] is the fraction of valuations
    over the uniform domain [{1,...,k}] whose completion satisfies [q].
    Libkin (PODS 2018) showed that for generic queries this value tends to
    0 or 1 as [k] grows; the paper studies the complexity of actually
    {e computing} it, under the name [#Val^u(q)].

    This module computes [mu_k] exactly (as a rational), routing through
    the dispatcher so that tractable query shapes use the Theorem 3.9
    algorithm, and exposes a convergence scan that makes the 0–1 behaviour
    observable. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete

(** [mu q facts ~k] is [mu_k] for the naïve table [facts].  Constants
    already in the table are kept as-is (they are "large" values in
    Libkin's sense unless they collide with ["1"..."k"]).
    @raise Invalid_argument if [k < 1] or brute force would exceed its
    enumeration limit on a hard query shape. *)
val mu : Cq.t -> Idb.fact list -> k:int -> Qnum.t

(** The same measure over distinct completions instead of valuations
    (computed by enumeration; Libkin's results cover this variant too). *)
val mu_completions : Cq.t -> Idb.fact list -> k:int -> Qnum.t

(** [mu_symbolic q facts ~k] computes [mu_k] with the symbolic-domain
    count ({!Count_val.uniform_symbolic}): [k] may be astronomically
    large (e.g. 10^9) as long as the table constants are regarded as
    external to [{1..k}].  Exact rational output. *)
val mu_symbolic : Cq.t -> Idb.fact list -> k:int -> Qnum.t

(** [scan q facts ~kmax] tabulates [(k, mu_k)] for [k = 1 .. kmax]. *)
val scan : Cq.t -> Idb.fact list -> kmax:int -> (int * Qnum.t) list

(** [float_of_mu] for display. *)
val float_of_mu : Qnum.t -> float
