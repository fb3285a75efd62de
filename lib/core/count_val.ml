open Incdb_bignum
open Incdb_cq
open Incdb_incomplete

type algorithm =
  | Product_of_domains
  | Codd_per_atom
  | Uniform_block_dp
  | Lineage_elimination
  | Brute_force

let algorithm_to_string = function
  | Product_of_domains -> "product-of-domains (Thm 3.6)"
  | Codd_per_atom -> "codd-per-atom (Thm 3.7)"
  | Uniform_block_dp -> "uniform-block-dp (Thm 3.9)"
  | Lineage_elimination -> "lineage variable elimination (#Val kernel)"
  | Brute_force -> "brute-force enumeration"

module Sset = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Theorem 3.6: every variable occurs exactly once.                    *)
(* ------------------------------------------------------------------ *)

let all_variables_single q =
  List.for_all (fun v -> Cq.occurrences q v = 1) (Cq.variables q)

let nonuniform_naive q db =
  if not (all_variables_single q) then
    invalid_arg "Count_val.nonuniform_naive: a variable occurs twice";
  (* With single-occurrence variables, any fact of the right arity matches
     an atom, so q holds under every valuation unless some atom has no
     candidate fact at all (footnote 2 of the paper). *)
  let atom_has_fact (a : Cq.atom) =
    List.exists
      (fun (f : Idb.fact) -> Array.length f.Idb.args = Array.length a.Cq.vars)
      (Idb.facts_of db a.Cq.rel)
  in
  if List.for_all atom_has_fact q then Idb.total_valuations db else Nat.zero

(* ------------------------------------------------------------------ *)
(* Theorem 3.7: Codd table, atoms pairwise variable-disjoint.          *)
(* ------------------------------------------------------------------ *)

let atoms_share_no_variable q =
  let rec go = function
    | [] -> true
    | a :: rest ->
      List.for_all (fun b -> Conngraph.shared_vars a b = []) rest && go rest
  in
  go q

(* Values a term can take: the domain of a null, the singleton of a
   constant (this replaces the paper's preprocessing that turns each
   constant into a fresh null with a singleton domain). *)
let candidates db = function
  | Term.Null n -> Sset.of_list (Idb.domain_of db n)
  | Term.Const c -> Sset.singleton c

let fact_null_names (f : Idb.fact) =
  Array.to_list f.Idb.args
  |> List.filter_map (function Term.Null n -> Some n | Term.Const _ -> None)

(* Number of valuations of the nulls of tuple [f] making it match atom
   [a]: the product over the distinct variables of [a] of the size of the
   intersection of the candidate sets at that variable's positions. *)
let tuple_match_count db (a : Cq.atom) (f : Idb.fact) =
  if Array.length f.Idb.args <> Array.length a.Cq.vars then Nat.zero
  else begin
    let by_var = Hashtbl.create 4 in
    Array.iteri
      (fun i v ->
        let cand = candidates db f.Idb.args.(i) in
        let cur = Option.value ~default:None (Hashtbl.find_opt by_var v) in
        let inter = match cur with None -> cand | Some s -> Sset.inter s cand in
        Hashtbl.replace by_var v (Some inter))
      a.Cq.vars;
    Hashtbl.fold
      (fun _ inter acc ->
        match inter with
        | Some s -> Nat.mul acc (Nat.of_int (Sset.cardinal s))
        | None -> acc)
      by_var Nat.one
  end

let tuple_total_valuations db f =
  Nat.product
    (List.map (fun n -> Nat.of_int (List.length (Idb.domain_of db n)))
       (fact_null_names f))

let codd_nonuniform q db =
  if not (atoms_share_no_variable q) then
    invalid_arg "Count_val.codd_nonuniform: atoms share a variable";
  if not (Idb.is_codd db) then
    invalid_arg "Count_val.codd_nonuniform: not a Codd table";
  (* #Val(q) = prod_i #Val(R_i(x_i))(D(R_i)) x (free-null domain sizes);
     within a relation, #Val = total - prod_j rho(t_j) where rho counts the
     non-matching valuations of tuple t_j (tuples have disjoint nulls). *)
  let atom_count (a : Cq.atom) =
    let tuples = Idb.facts_of db a.Cq.rel in
    let total =
      Nat.product (List.map (tuple_total_valuations db) tuples)
    in
    let rho f =
      Nat.sub (tuple_total_valuations db f) (tuple_match_count db a f)
    in
    Nat.sub total (Nat.product (List.map rho tuples))
  in
  let per_atom = Nat.product (List.map atom_count q) in
  (* Nulls in relations not mentioned by q are unconstrained. *)
  let rels = Cq.relations q in
  let free_nulls =
    Idb.facts db
    |> List.filter (fun (f : Idb.fact) -> not (List.mem f.Idb.rel rels))
    |> List.concat_map fact_null_names
    |> List.sort_uniq String.compare
  in
  Nat.mul per_atom
    (Nat.product
       (List.map
          (fun n -> Nat.of_int (List.length (Idb.domain_of db n)))
          free_nulls))

(* ------------------------------------------------------------------ *)
(* Theorem 3.9: uniform naive tables, basic-singleton shape.           *)
(* ------------------------------------------------------------------ *)

(* One block convolution serves three engines: [uniform_naive] counts in
   [Nat], [uniform_weighted] weighs in [Qnum], and [uniform_symbolic]
   takes all d values of its domain as one group.  They share the basic
   singletons, the per-subset term, [block_conv] and the Lemma A.13
   signed sum, and name themselves in their errors through [name]. *)

let uniform_shape_ok q =
  not (Pattern.has_rxx q || Pattern.has_rx_sxy_ty q || Pattern.has_rxy_sxy q)

let check_shape ~name q =
  if not (uniform_shape_ok q) then
    invalid_arg (name ^ ": query contains a hard pattern")

let uniform_domain ~name db =
  match Idb.domain_spec db with
  | Idb.Uniform dom -> dom
  | Idb.Nonuniform _ -> invalid_arg (name ^ ": database is not uniform")

(* The basic singletons (Lemmas A.11 and A.12): every component of two or
   more atoms shares one variable, and each of its atoms is projected
   onto that variable's column, one bit per projected atom.  A one-atom
   component has single-occurrence variables only, so it just needs a
   non-empty relation (footnote 2); [None] when one is empty. *)
type singletons = {
  groups : int list;  (* per basic singleton, the mask of its atoms *)
  cover : (Term.t, int) Hashtbl.t;  (* term -> projected atoms holding it *)
  nulls : string list;
}

let basic_singletons ~name q db =
  let comps = Conngraph.components q in
  let empty (c : Conngraph.component) =
    match c.Conngraph.atoms with
    | [ a ] -> Idb.facts_of db a.Cq.rel = []
    | _ -> false
  in
  if List.exists empty comps then None
  else begin
    let cover = Hashtbl.create 16 and next = ref 0 in
    let project v (a : Cq.atom) =
      let bit = 1 lsl !next in
      incr next;
      let pos = ref (-1) in
      Array.iteri (fun i u -> if u = v then pos := i) a.Cq.vars;
      List.iter
        (fun (f : Idb.fact) ->
          if Array.length f.Idb.args > !pos then begin
            let t = f.Idb.args.(!pos) in
            let cur = Option.value ~default:0 (Hashtbl.find_opt cover t) in
            Hashtbl.replace cover t (cur lor bit)
          end)
        (Idb.facts_of db a.Cq.rel);
      bit
    in
    let groups =
      List.filter_map
        (fun (c : Conngraph.component) ->
          match (c.Conngraph.atoms, c.Conngraph.shared_var) with
          | [ _ ], _ -> None
          | atoms, Some v ->
            Some (List.fold_left (fun m a -> m lor project v a) 0 atoms)
          | _, None -> invalid_arg (name ^ ": query has a hard pattern"))
        comps
    in
    Some { groups; cover; nulls = Idb.nulls db }
  end

let covered s t = Option.value ~default:0 (Hashtbl.find_opt s.cover t)

(* A coverage (the projected atoms one value meets) satisfies a basic
   singleton of S when it contains all of that singleton's atoms. *)
let unsafe forbidden cov = List.exists (fun f -> cov land f = f) forbidden

(* The term of one subset S of basic singletons ([forbidden]: their atom
   masks): N_S counts the valuations under which no value's coverage is
   unsafe.  The nulls in atoms of S fall into occurrence classes by the
   atoms they occur in; the rest are free.  [None] when one of the
   [fixed] coverages (constants outside the domain) already satisfies a
   singleton of S, so N_S = 0. *)
type term = {
  forbidden : int list;
  masks : int array;  (* occurrence classes, ascending *)
  sizes : int array;  (* nulls per class *)
  free : int;
}

(* The distinct elements of [l], ascending, each with its multiplicity. *)
let tally l =
  List.fold_right
    (fun x acc ->
      match acc with
      | (y, m) :: rest when y = x -> (x, m + 1) :: rest
      | acc -> (x, 1) :: acc)
    (List.sort Int.compare l) []

let term s ~fixed forbidden =
  if List.exists (unsafe forbidden) fixed then None
  else begin
    let atoms = List.fold_left ( lor ) 0 forbidden in
    let free, bound =
      List.partition (( = ) 0)
        (List.map (fun n -> covered s (Term.Null n) land atoms) s.nulls)
    in
    let masks, sizes = List.split (tally bound) in
    Some
      { forbidden; masks = Array.of_list masks; sizes = Array.of_list sizes;
        free = List.length free }
  end

(* [block_conv]'s number type: [Nat] for counts, [Qnum] for
   probabilities. *)
type 'a num = {
  zero : 'a;
  add : 'a -> 'a -> 'a;
  sub : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a;
  is_zero : 'a -> bool;
  of_nat : Nat.t -> 'a;
}

let nat =
  { zero = Nat.zero; add = Nat.add; sub = Nat.sub; mul = Nat.mul;
    is_zero = Nat.is_zero; of_nat = Fun.id }

(* Prop. A.14's nested block sums as dense tables over the placement
   vectors k <= t.sizes, in mixed radix: entry k is the mass of putting
   k_i given nulls of each class i on the values taken so far with every
   value safe.  Values come in groups [(base, m, w)] of m values with
   base coverage [base], where k nulls placed on one value weigh w^k.
   With h one value's table of non-empty safe placements, a group maps f
   to sum_{j <= min(m, N)} C(m, j) conv f h^j, where N is the number of
   nulls, h^j is h's j-fold power under conv (zero below j nulls) and
   conv is the binomial convolution
     conv f g (k) = sum_{j <= k} prod_i C(k_i, j_i) f(j) g(k - j).
   A value left empty keeps its base coverage, so one unsafe base makes
   N_S = 0.  Returns the entry of all nulls placed. *)
let block_conv num t groups =
  let n = Array.length t.sizes and nulls = Array.fold_left ( + ) 0 t.sizes in
  let size, strides =
    Array.fold_left_map (fun p s -> (p * (s + 1), p)) 1 t.sizes
  in
  let digits k =
    Array.init n (fun i -> k / strides.(i) mod (t.sizes.(i) + 1))
  in
  let binom =
    Array.init (Array.fold_left max 0 t.sizes + 1) (fun a ->
        Array.map num.of_nat (Array.init (a + 1) (Combinat.binomial a)))
  in
  (* [conv f h] for h given by its non-zero entries (j, h(j)): every
     k >= j gains C(k, j) h(j) f(k - j). *)
  let conv f h =
    let out = Array.make size num.zero in
    List.iter
      (fun (j, hj) ->
        let jd = digits j in
        let rec go i k c =
          for ki = jd.(i) to t.sizes.(i) do
            let k = k + (ki * strides.(i)) in
            let c =
              if jd.(i) = 0 then c else num.mul c binom.(ki).(jd.(i))
            in
            if i > 0 then go (i - 1) k c
            else if not (num.is_zero f.(k - j)) then
              out.(k) <- num.add out.(k) (num.mul c f.(k - j))
          done
        in
        go (n - 1) 0 hj)
      h;
    out
  in
  let group f (base, m, w) =
    let pow = Array.make (nulls + 1) w in
    for k = 2 to nulls do
      pow.(k) <- num.mul pow.(k - 1) w
    done;
    let h =
      List.filter_map
        (fun j ->
          let jd = digits j and cov = ref base in
          Array.iteri
            (fun i ji -> if ji > 0 then cov := !cov lor t.masks.(i))
            jd;
          if unsafe t.forbidden !cov then None
          else Some (j, pow.(Array.fold_left ( + ) 0 jd)))
        (List.init (size - 1) succ)
    in
    let acc = Array.copy f and p = ref f and c = ref Nat.one in
    for j = 1 to min m nulls do
      p := conv !p h;
      c := Nat.div (Nat.mul !c (Nat.of_int (m - j + 1))) (Nat.of_int j);
      let cj = num.of_nat !c in
      Array.iteri
        (fun k x ->
          if not (num.is_zero x) then acc.(k) <- num.add acc.(k) (num.mul cj x))
        !p
    done;
    acc
  in
  if List.exists (fun (base, _, _) -> unsafe t.forbidden base) groups then
    num.zero
  else begin
    let start = Array.make size num.zero in
    start.(0) <- num.of_nat Nat.one;
    (List.fold_left group start groups).(size - 1)
  end

(* Lemma A.13: the count is sum_S (-1)^|S| N_S over the subsets S of
   basic singletons, where [n_s ~cover t] computes N_S from S's term and
   [cover c] is the coverage of constant [c].  Constants outside
   [in_domain] keep their coverage under every valuation.  Even and odd
   subsets are summed apart, so partial sums stay in the number type. *)
let signed_sum num ~name q db ~in_domain n_s =
  match basic_singletons ~name q db with
  | None -> num.zero
  | Some s ->
    let fixed =
      Hashtbl.fold
        (fun t m acc ->
          match t with
          | Term.Const c when not (Sset.mem c in_domain) -> m :: acc
          | Term.Const _ | Term.Null _ -> acc)
        s.cover []
    in
    let cover c = covered s (Term.Const c) in
    let even, odd =
      List.fold_left
        (fun (even, odd) forbidden ->
          match term s ~fixed forbidden with
          | None -> (even, odd)
          | Some t ->
            let n = n_s ~cover t in
            if List.length forbidden land 1 = 0 then (num.add even n, odd)
            else (even, num.add odd n))
        (num.zero, num.zero)
        (Combinat.subsets s.groups)
    in
    num.sub even odd

(* The domain values tallied by coverage: every value no constant covers
   falls in the coverage-0 group. *)
let uniform_naive q db =
  let name = "Count_val.uniform_naive" in
  check_shape ~name q;
  let dom = uniform_domain ~name db in
  let d = List.length dom in
  signed_sum nat ~name q db ~in_domain:(Sset.of_list dom) (fun ~cover t ->
      let groups = tally (List.map cover dom) in
      Nat.mul
        (block_conv nat t (List.map (fun (c, m) -> (c, m, Nat.one)) groups))
        (Combinat.power d t.free))

(* The probability version: N_S becomes the probability that no value is
   unsafe, each value is its own group whose placements of k nulls weigh
   w(a)^k, and the free nulls integrate to total mass 1. *)
let uniform_weighted q db ~weight =
  let name = "Count_val.uniform_weighted" in
  check_shape ~name q;
  let dom = uniform_domain ~name db in
  let total_mass =
    List.fold_left (fun acc a -> Qnum.add acc (weight a)) Qnum.zero dom
  in
  if not (Qnum.equal total_mass Qnum.one) then
    invalid_arg (name ^ ": weights must sum to 1");
  let qnum =
    { zero = Qnum.zero; add = Qnum.add; sub = Qnum.sub; mul = Qnum.mul;
      is_zero = Qnum.is_zero; of_nat = Qnum.of_nat }
  in
  signed_sum qnum ~name q db ~in_domain:(Sset.of_list dom) (fun ~cover t ->
      block_conv qnum t (List.map (fun a -> (cover a, 1, weight a)) dom))

(* Every table constant lies outside the symbolic domain, so all d values
   are plain: one group of coverage 0, where d enters only through the
   C(d, j). *)
let uniform_symbolic q facts ~domain_size =
  let name = "Count_val.uniform_symbolic" in
  if domain_size < 1 then
    invalid_arg (name ^ ": domain_size must be positive");
  check_shape ~name q;
  (* The placeholder value never meets the table: constants are treated as
     external to the symbolic domain. *)
  let db = Idb.make facts (Idb.Uniform [ "Â§sym" ]) in
  let d = domain_size in
  signed_sum nat ~name q db ~in_domain:Sset.empty (fun ~cover:_ t ->
      Nat.mul
        (block_conv nat t [ (0, d, Nat.one) ])
        (Combinat.power d t.free))

(* ------------------------------------------------------------------ *)
(* Dispatcher.                                                         *)
(* ------------------------------------------------------------------ *)

module Events = Incdb_obs.Events
module Log = Incdb_obs.Log

let arm_span = function
  | Product_of_domains -> "count_val.product_of_domains"
  | Codd_per_atom -> "count_val.codd_per_atom"
  | Uniform_block_dp -> "count_val.uniform_block_dp"
  | Lineage_elimination -> "count_val.lineage_elimination"
  | Brute_force -> "count_val.brute_force"

(* Table 1's tractable #Val cells, tested in order: Theorem 3.6, 3.7,
   then 3.9. *)
let closed_form q db =
  if all_variables_single q then
    Some (Product_of_domains, fun () -> nonuniform_naive q db)
  else if atoms_share_no_variable q && Idb.is_codd db then
    Some (Codd_per_atom, fun () -> codd_nonuniform q db)
  else if uniform_shape_ok q && Idb.is_uniform db then
    Some (Uniform_block_dp, fun () -> uniform_naive q db)
  else None

(* The one dispatch path: the closed forms, tried for a BCQ only; then the
   lineage variable-elimination kernel, which declines an opaque query or
   more events than [val_max_events] would compile; then brute force,
   routed through the sharded engine ([jobs = 1], the default, is the
   sequential [Brute] code path).  [count] is its BCQ case. *)
let count_query ?brute_limit ?val_width_bound ?val_max_events ?val_max_cells
    ?val_order ?val_cache_entries ?val_cache ?val_spill ?val_spill_dir ?jobs q
    db =
  Events.with_span "count_val.count" (fun () ->
      (* Phase 1: pattern matching -- decide which closed form applies. *)
      let closed =
        match q with
        | Query.Bcq cq ->
          let closed =
            Events.with_span "count_val.pattern_match" (fun () ->
                closed_form cq db)
          in
          let algo = Option.fold ~none:Lineage_elimination ~some:fst closed in
          Log.debugf "count_val: %s -> %s" (Cq.to_string cq)
            (algorithm_to_string algo);
          closed
        | Query.Union _ | Query.Bcq_neq _ | Query.Not _ | Query.Semantic _ ->
          None
      in
      (* Phase 2: the closed form, the compiled-lineage kernel, or
         brute-force enumeration. *)
      let kernel () =
        match q with
        | Query.Semantic _ -> None
        | Query.Bcq _ | Query.Union _ | Query.Bcq_neq _ | Query.Not _ ->
          Events.with_span (arm_span Lineage_elimination) (fun () ->
              match
                Val_kernel.count ?width_bound:val_width_bound
                  ?max_events:val_max_events ?max_cells:val_max_cells
                  ?order:val_order ?cache_entries:val_cache_entries
                  ?cache:val_cache ?spill:val_spill ?spill_dir:val_spill_dir
                  ?jobs q db
              with
              | result -> result
              | exception Val_kernel.Too_many_events { events; limit } ->
                Log.debugf
                  "count_val: %d events exceed the kernel limit %d; \
                   enumerating"
                  events limit;
                None)
      in
      match closed with
      | Some (algo, run) -> (algo, Events.with_span (arm_span algo) run)
      | None -> (
        match kernel () with
        | Some n -> (Lineage_elimination, n)
        | None ->
          ( Brute_force,
            Events.with_span (arm_span Brute_force) (fun () ->
                Incdb_par.Brute_par.count_valuations ?limit:brute_limit ?jobs
                  q db) )))

let count ?brute_limit ?val_width_bound ?val_max_events ?val_max_cells
    ?val_order ?val_cache_entries ?val_cache ?val_spill ?val_spill_dir ?jobs q
    db =
  count_query ?brute_limit ?val_width_bound ?val_max_events ?val_max_cells
    ?val_order ?val_cache_entries ?val_cache ?val_spill ?val_spill_dir ?jobs
    (Query.Bcq q) db
