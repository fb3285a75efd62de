let bits_per_word = Sys.int_size - 1
let words_for width = (width + bits_per_word - 1) / bits_per_word

let popword m =
  let rec pop m acc = if m = 0 then acc else pop (m land (m - 1)) (acc + 1) in
  pop m 0

let lowword m =
  (* Index of the lowest set bit of a nonzero word. *)
  let b = m land -m in
  let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
  log2 b 0

module type MASK = sig
  type t

  val name : string
  val max_width : int
  val zero : width:int -> t
  val low : width:int -> int -> t
  val set : t -> int -> t
  val test : t -> int -> bool
  val union : t -> t -> t
  val is_empty : t -> bool
  val disjoint : t -> t -> bool
  val subset : t -> t -> bool
  val popcount : t -> int
  val popcount_inter : t -> t -> int
  val popcount_diff : t -> t -> int
  val lowest : t -> int
  val iter : (int -> unit) -> t -> unit
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
end

module Int = struct
  type t = int

  let name = "int"
  let max_width = bits_per_word

  let low ~width n =
    if n < 0 || n > width || width > max_width then
      invalid_arg "Bitset.Int.low: width out of range";
    if n = max_width then max_int else (1 lsl n) - 1

  let zero ~width:_ = 0
  let set m i = m lor (1 lsl i)
  let test m i = m land (1 lsl i) <> 0
  let union a b = a lor b
  let is_empty m = m = 0
  let disjoint a b = a land b = 0
  let subset a b = a land b = a
  let popcount = popword
  let popcount_inter a b = popword (a land b)
  let popcount_diff a b = popword (a land lnot b)
  let lowest m = if m = 0 then -1 else lowword m

  let iter f m =
    let rest = ref m in
    while !rest <> 0 do
      f (lowword !rest);
      rest := !rest land (!rest - 1)
    done

  let equal (a : int) b = a = b
  let compare = Stdlib.Int.compare
  let hash (m : int) = m
end

module Wide = struct
  type t = int array

  let name = "wide"

  (* Bounded only by array length; in practice the candidate cap rules
     long before this does. *)
  let max_width = bits_per_word * Sys.max_array_length

  let zero ~width = Array.make (words_for width) 0

  let low ~width n =
    if n < 0 || n > width then invalid_arg "Bitset.Wide.low: width out of range";
    let m = zero ~width in
    let fullw = n / bits_per_word and rem = n mod bits_per_word in
    (* [max_int] is exactly [bits_per_word] ones. *)
    for k = 0 to fullw - 1 do
      m.(k) <- max_int
    done;
    if rem > 0 then m.(fullw) <- (1 lsl rem) - 1;
    m

  let set m i =
    let m' = Array.copy m in
    m'.(i / bits_per_word) <-
      m'.(i / bits_per_word) lor (1 lsl (i mod bits_per_word));
    m'

  let test m i = m.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

  let union a b = Array.init (Array.length a) (fun k -> a.(k) lor b.(k))

  let is_empty m =
    let rec go k = k = Array.length m || (m.(k) = 0 && go (k + 1)) in
    go 0

  let disjoint a b =
    let rec go k = k = Array.length a || (a.(k) land b.(k) = 0 && go (k + 1)) in
    go 0

  let subset a b =
    let rec go k =
      k = Array.length a || (a.(k) land b.(k) = a.(k) && go (k + 1))
    in
    go 0

  let popcount m = Array.fold_left (fun acc w -> acc + popword w) 0 m

  let popcount_inter a b =
    let acc = ref 0 in
    for k = 0 to Array.length a - 1 do
      acc := !acc + popword (a.(k) land b.(k))
    done;
    !acc

  let popcount_diff a b =
    (* Word-wise [lnot] sets junk high bits, but [land a] clears them
       again ([a]'s bits beyond the width are zero by invariant). *)
    let acc = ref 0 in
    for k = 0 to Array.length a - 1 do
      acc := !acc + popword (a.(k) land lnot b.(k))
    done;
    !acc

  let lowest m =
    let rec go k =
      if k = Array.length m then -1
      else if m.(k) <> 0 then (k * bits_per_word) + lowword m.(k)
      else go (k + 1)
    in
    go 0

  let iter f m =
    for k = 0 to Array.length m - 1 do
      let rest = ref m.(k) in
      while !rest <> 0 do
        f ((k * bits_per_word) + lowword !rest);
        rest := !rest land (!rest - 1)
      done
    done

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go k = k = Array.length a || (a.(k) = b.(k) && go (k + 1)) in
    go 0

  (* Same-width masks compare as the numbers they spell (word 0 least
     significant), matching the numeric order int masks sort in. *)
  let compare a b =
    let c = Stdlib.Int.compare (Array.length a) (Array.length b) in
    if c <> 0 then c
    else
      let rec go k =
        if k < 0 then 0
        else
          let c = Stdlib.Int.compare a.(k) b.(k) in
          if c <> 0 then c else go (k - 1)
      in
      go (Array.length a - 1)

  let hash m =
    Array.fold_left (fun h w -> ((h * 1000003) lxor w) land max_int) 17 m

  let copy = Array.copy

  let set_inplace m i =
    m.(i / bits_per_word) <-
      m.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

  let clear_inplace m i =
    m.(i / bits_per_word) <-
      m.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))
end
