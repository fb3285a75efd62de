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

(* One block DP serves three engines: [uniform_naive] counts in [Nat],
   [uniform_weighted] weighs in [Qnum], and [uniform_symbolic] raises the
   plain-value transition to the d-th power.  They share the basic
   singletons, the per-subset term, the allocation enumerator and the
   Lemma A.13 signed sum. *)

let uniform_shape_ok q =
  not (Pattern.has_rxx q || Pattern.has_rx_sxy_ty q || Pattern.has_rxy_sxy q)

let uniform_domain db =
  match Idb.domain_spec db with
  | Idb.Uniform dom -> dom
  | Idb.Nonuniform _ ->
    invalid_arg "Count_val.uniform_naive: database is not uniform"

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

let basic_singletons q db =
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
          | _, None ->
            invalid_arg "Count_val.uniform_naive: query has a hard pattern")
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
  sizes : int array;  (* nulls per class: the DP's starting state *)
  free : int;
}

let term s ~fixed forbidden =
  if List.exists (unsafe forbidden) fixed then None
  else begin
    let atoms = List.fold_left ( lor ) 0 forbidden in
    let counts = Hashtbl.create 8 and free = ref 0 in
    List.iter
      (fun n ->
        match covered s (Term.Null n) land atoms with
        | 0 -> incr free
        | m ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt counts m) in
          Hashtbl.replace counts m (cur + 1))
      s.nulls;
    let masks, sizes =
      List.split
        (List.sort Stdlib.compare
           (Hashtbl.fold (fun m c acc -> (m, c) :: acc) counts []))
    in
    Some
      { forbidden; masks = Array.of_list masks; sizes = Array.of_list sizes;
        free = !free }
  end

(* Every safe way for one value of base coverage [base] to take
   k_i <= rem.(i) of the nulls left in each class i: [yield left ways k]
   gets the nulls left after the placement (a reused buffer: copy it to
   keep it), ways = prod_i C(rem_i, k_i) and k = sum_i k_i.  A coverage
   only grows as classes join it, so an unsafe prefix prunes its whole
   subtree. *)
let allocations t ~base rem yield =
  let n = Array.length rem in
  let left = Array.copy rem in
  let rec go i cov ways k =
    if i = n then yield left ways k
    else
      for j = 0 to rem.(i) do
        let cov = if j > 0 then cov lor t.masks.(i) else cov in
        if not (unsafe t.forbidden cov) then begin
          left.(i) <- rem.(i) - j;
          go (i + 1) cov (Nat.mul ways (Combinat.binomial rem.(i) j)) (k + j)
        end
      done
  in
  if not (unsafe t.forbidden base) then go 0 base Nat.one 0

(* Prop. A.14's nested block sums as a DP over the domain values, one at
   a time, in the number type given by [zero]/[one]/[add]: the state is
   the vector of nulls not yet placed, and each of [steps] — a value's
   base coverage and how it scales the mass [x] carried through one
   placement [ways], [k] — moves every state to the states its safe
   allocations leave.  Returns the mass of the all-placed state. *)
let block_dp ~zero ~one ~add t steps =
  let start = Hashtbl.create 1 in
  Hashtbl.replace start t.sizes (ref one);
  let last =
    List.fold_left
      (fun tbl (base, scale) ->
        let next = Hashtbl.create 64 in
        Hashtbl.iter
          (fun rem x ->
            allocations t ~base rem (fun left ways k ->
                let y = scale !x ways k in
                match Hashtbl.find_opt next left with
                | Some acc -> acc := add !acc y
                | None -> Hashtbl.add next (Array.copy left) (ref y)))
          tbl;
        next)
      start steps
  in
  match Hashtbl.find_opt last (Array.map (fun _ -> 0) t.sizes) with
  | Some x -> !x
  | None -> zero

(* Lemma A.13: the count is sum_S (-1)^|S| N_S over the subsets S of
   basic singletons, where [n_s ~cover t] computes N_S from S's term and
   [cover c] is the coverage of constant [c].  Constants outside
   [in_domain] keep their coverage under every valuation. *)
let signed_sum ~zero ~add ~neg q db ~in_domain n_s =
  match basic_singletons q db with
  | None -> zero
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
    List.fold_left
      (fun acc forbidden ->
        match term s ~fixed forbidden with
        | None -> acc
        | Some t ->
          let n = n_s ~cover t in
          add acc (if List.length forbidden land 1 = 0 then n else neg n))
      zero
      (Combinat.subsets s.groups)

(* [signed_sum] over natural N_S; partial sums may be negative. *)
let nat_signed_sum q db ~in_domain n_s =
  Zint.to_nat
    (signed_sum ~zero:Zint.zero ~add:Zint.add ~neg:Zint.neg q db ~in_domain
       (fun ~cover t -> Zint.of_nat (n_s ~cover t)))

let uniform_naive q db =
  if not (uniform_shape_ok q) then
    invalid_arg "Count_val.uniform_naive: query contains a hard pattern";
  let dom = uniform_domain db in
  let d = List.length dom in
  nat_signed_sum q db ~in_domain:(Sset.of_list dom) (fun ~cover t ->
      let step a = (cover a, fun x ways _ -> Nat.mul x ways) in
      Nat.mul
        (block_dp ~zero:Nat.zero ~one:Nat.one ~add:Nat.add t
           (List.map step dom))
        (Combinat.power d t.free))

(* The probability version: N_S becomes the probability that no value is
   unsafe, a placement of k nulls at value a weighs its ways times
   w(a)^k, and the free nulls integrate to total mass 1. *)
let uniform_weighted q db ~weight =
  if not (uniform_shape_ok q) then
    invalid_arg "Count_val.uniform_weighted: query contains a hard pattern";
  let dom = uniform_domain db in
  let total_mass =
    List.fold_left (fun acc a -> Qnum.add acc (weight a)) Qnum.zero dom
  in
  if not (Qnum.equal total_mass Qnum.one) then
    invalid_arg "Count_val.uniform_weighted: weights must sum to 1";
  signed_sum ~zero:Qnum.zero ~add:Qnum.add ~neg:Qnum.neg q db
    ~in_domain:(Sset.of_list dom) (fun ~cover t ->
      let nulls = Array.fold_left ( + ) 0 t.sizes in
      let step a =
        let w = weight a and pow = Array.make (nulls + 1) Qnum.one in
        for k = 1 to nulls do
          pow.(k) <- Qnum.mul pow.(k - 1) w
        done;
        ( cover a,
          fun x ways k -> Qnum.mul x (Qnum.mul (Qnum.of_nat ways) pow.(k)) )
      in
      block_dp ~zero:Qnum.zero ~one:Qnum.one ~add:Qnum.add t
        (List.map step dom))

(* Dense square matrices of naturals, just big enough for the transition
   powering below. *)
let nat_mat_mul a b =
  let n = Array.length a in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let acc = ref Nat.zero in
          for k = 0 to n - 1 do
            if not (Nat.is_zero a.(i).(k) || Nat.is_zero b.(k).(j)) then
              acc := Nat.add !acc (Nat.mul a.(i).(k) b.(k).(j))
          done;
          !acc))

let rec nat_mat_pow m e =
  let n = Array.length m in
  if e = 0 then
    Array.init n (fun i -> Array.init n (fun j -> if i = j then Nat.one else Nat.zero))
  else begin
    let h = nat_mat_pow m (e / 2) in
    let h2 = nat_mat_mul h h in
    if e land 1 = 1 then nat_mat_mul h2 m else h2
  end

(* Every table constant lies outside the symbolic domain, so all d values
   are plain (base coverage 0) and induce the same transition: the value
   scan is that matrix, over remaining-null vectors in mixed radix,
   raised to the d-th power. *)
let uniform_symbolic q facts ~domain_size =
  if domain_size < 1 then
    invalid_arg "Count_val.uniform_symbolic: domain_size must be positive";
  if not (uniform_shape_ok q) then
    invalid_arg "Count_val.uniform_symbolic: query contains a hard pattern";
  (* The placeholder value never meets the table: constants are treated as
     external to the symbolic domain. *)
  let db = Idb.make facts (Idb.Uniform [ "Â§sym" ]) in
  let d = domain_size in
  nat_signed_sum q db ~in_domain:Sset.empty (fun ~cover:_ t ->
      let radix = Array.map succ t.sizes in
      let nstates, strides =
        Array.fold_left_map (fun p r -> (p * r, p)) 1 radix
      in
      let encode v = Array.fold_left ( + ) 0 (Array.map2 ( * ) v strides) in
      let m = Array.make_matrix nstates nstates Nat.zero in
      for s = 0 to nstates - 1 do
        let rem = Array.mapi (fun i st -> s / st mod radix.(i)) strides in
        allocations t ~base:0 rem (fun left ways _ ->
            let s' = encode left in
            m.(s').(s) <- Nat.add m.(s').(s) ways)
      done;
      (* state 0 encodes the all-placed vector *)
      Nat.mul (nat_mat_pow m d).(0).(encode t.sizes) (Combinat.power d t.free))

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

(* Brute-force routed through the sharded engine; [jobs = 1] (the
   default) is exactly the sequential [Brute] code path. *)
let brute_force ?limit ?(jobs = 1) q db =
  Incdb_par.Brute_par.count_valuations ?limit ~jobs q db

(* Try the lineage variable-elimination kernel; [None] means it declined
   (opaque query, or more events than [max_events] would compile) and the
   caller should enumerate instead. *)
let try_kernel ?width_bound ?max_events ?max_cells ?order ?cache_entries
    ?cache ?spill ?spill_dir ?jobs q db =
  Events.with_span (arm_span Lineage_elimination) (fun () ->
      match
        Val_kernel.count ?width_bound ?max_events ?max_cells ?order
          ?cache_entries ?cache ?spill ?spill_dir ?jobs q db
      with
      | result -> result
      | exception Val_kernel.Too_many_events { events; limit } ->
        Log.debugf
          "count_val: %d events exceed the kernel limit %d; enumerating"
          events limit;
        None)

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

let count ?brute_limit ?val_width_bound ?val_max_events ?val_max_cells
    ?val_order ?val_cache_entries ?val_cache ?val_spill ?val_spill_dir ?jobs q
    db =
  Events.with_span "count_val.count" (fun () ->
      (* Phase 1: pattern matching -- decide which closed form applies. *)
      let closed =
        Events.with_span "count_val.pattern_match" (fun () -> closed_form q db)
      in
      let algo = Option.fold ~none:Lineage_elimination ~some:fst closed in
      Log.debugf "count_val: %s -> %s" (Cq.to_string q) (algorithm_to_string algo);
      (* Phase 2: the closed form, the compiled-lineage kernel, or
         brute-force enumeration when the event set is too large. *)
      match closed with
      | Some (algo, run) -> (algo, Events.with_span (arm_span algo) run)
      | None -> (
        match
          try_kernel ?width_bound:val_width_bound ?max_events:val_max_events
            ?max_cells:val_max_cells ?order:val_order
            ?cache_entries:val_cache_entries ?cache:val_cache ?spill:val_spill
            ?spill_dir:val_spill_dir ?jobs (Query.Bcq q) db
        with
        | Some n -> (Lineage_elimination, n)
        | None ->
          ( Brute_force,
            Events.with_span (arm_span Brute_force) (fun () ->
                brute_force ?limit:brute_limit ?jobs (Query.Bcq q) db) )))

let count_query ?brute_limit ?val_width_bound ?val_max_events ?val_max_cells
    ?val_order ?val_cache_entries ?val_cache ?val_spill ?val_spill_dir ?jobs q
    db =
  match q with
  | Query.Bcq cq ->
    count ?brute_limit ?val_width_bound ?val_max_events ?val_max_cells
      ?val_order ?val_cache_entries ?val_cache ?val_spill ?val_spill_dir ?jobs
      cq db
  | Query.Union _ | Query.Bcq_neq _ | Query.Not _ ->
    Events.with_span "count_val.count" (fun () ->
        match
          try_kernel ?width_bound:val_width_bound ?max_events:val_max_events
            ?max_cells:val_max_cells ?order:val_order
            ?cache_entries:val_cache_entries ?cache:val_cache ?spill:val_spill
            ?spill_dir:val_spill_dir ?jobs q db
        with
        | Some n -> (Lineage_elimination, n)
        | None ->
          ( Brute_force,
            Events.with_span (arm_span Brute_force) (fun () ->
                brute_force ?limit:brute_limit ?jobs q db) ))
  | Query.Semantic _ ->
    Events.with_span "count_val.count" (fun () ->
        ( Brute_force,
          Events.with_span (arm_span Brute_force) (fun () ->
              brute_force ?limit:brute_limit ?jobs q db) ))
