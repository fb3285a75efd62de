(** Fixed-width bitsets, one machine word or many.

    The completion kernel ([Lineage] clause masks, [Codd]'s Lemma B.2
    matching, [Comp_candidates]' prefix enumerator) was written against
    single-word int masks, which caps the candidate universe at
    [Sys.int_size - 1] bits.  This module abstracts the operations that
    stack actually uses behind a small {!MASK} signature with two
    implementations: {!Int}, the original single-word masks (kept as the
    fast path — a mask is an unboxed int), and {!Wide}, immutable
    [int array] bitsets whose width is fixed at construction.

    Every word of a {!Wide} value holds {!bits_per_word} payload bits
    ([Sys.int_size - 1], so a word is always a nonnegative int — the
    same convention as the single-word masks, which keeps the two
    implementations bit-for-bit comparable position by position).  All
    binary operations require both operands built for the same width;
    bits at or above the width are never set (operations preserve this
    invariant, so structural equality is set equality). *)

(** Payload bits per word ([Sys.int_size - 1] = 62 on 64-bit). *)
val bits_per_word : int

(** Number of words a width-[w] wide bitset occupies ([0] for width 0). *)
val words_for : int -> int

(** The operations the mask-consuming layers are functorized over.
    Sets are over bit positions [0 .. width - 1]; [zero]/[low]
    fix the width, everything else preserves it. *)
module type MASK = sig
  type t

  (** Implementation tag, for metrics and error messages. *)
  val name : string

  (** Largest representable width ([bits_per_word] for {!Int},
      effectively unbounded for {!Wide}). *)
  val max_width : int

  (** The empty set over [width] bits. *)
  val zero : width:int -> t

  (** The lowest [n] bits set, in a set of [width] bits ([n <= width]). *)
  val low : width:int -> int -> t

  (** [set m i] is [m] with bit [i] set (functional). *)
  val set : t -> int -> t

  (** [test m i] is whether bit [i] is set. *)
  val test : t -> int -> bool

  val union : t -> t -> t
  val is_empty : t -> bool

  (** [disjoint a b]: no common bit. *)
  val disjoint : t -> t -> bool

  (** [subset a b]: every bit of [a] is in [b]. *)
  val subset : t -> t -> bool

  val popcount : t -> int

  (** [popcount_inter a b] = [popcount (inter a b)], allocation-free. *)
  val popcount_inter : t -> t -> int

  (** [popcount_diff a b] = |a \ b|, allocation-free — the only use the
      kernel has for within-width complement. *)
  val popcount_diff : t -> t -> int

  (** Index of the lowest set bit, [-1] on the empty set. *)
  val lowest : t -> int

  (** [iter f m] applies [f] to each set bit in ascending order. *)
  val iter : (int -> unit) -> t -> unit

  (** Structural (= set) equality, a total order, and a hash consistent
      with {!equal} — so masks key [Hashtbl]s and sort clause lists. *)
  val equal : t -> t -> bool

  val compare : t -> t -> int
  val hash : t -> int
end

(** Single-word masks: the original kernel representation, verbatim.
    [zero]/[set]/[union]/... compile to the int operations the
    pre-functor code spelled inline.  Widths beyond {!bits_per_word}
    are a programming error ([low] raises [Invalid_argument]). *)
module Int : MASK with type t = int

(** Multi-word masks: [int array] of {!bits_per_word}-bit words, lowest
    bits in word 0.  Values are immutable except through the explicitly
    unsafe in-place operations below, which exist for worker-private
    enumeration scratch (one array mutated along a depth-first walk
    instead of one allocation per node). *)
module Wide : sig
  include MASK

  (** A private mutable copy for in-place scratch use. *)
  val copy : t -> t

  (** [set_inplace m i] / [clear_inplace m i] mutate [m].  Unsafe in the
      sharing sense: never apply to a mask that escaped to a reader
      (kernel masks, clause arrays, hash keys). *)
  val set_inplace : t -> int -> unit

  val clear_inplace : t -> int -> unit
end
