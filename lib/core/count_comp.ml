open Incdb_bignum
open Incdb_cq
open Incdb_incomplete

type algorithm =
  | Uniform_unary
  | Candidate_enumeration
  | Lineage_elimination
  | Brute_force

let algorithm_to_string = function
  | Uniform_unary -> "uniform-unary completion shapes (Thm 4.6)"
  | Candidate_enumeration -> "candidate-space enumeration (Prop B.1)"
  | Lineage_elimination -> "lineage-driven elimination (fact-interaction DP)"
  | Brute_force -> "brute-force enumeration"

module Sset = Set.Make (String)

(* The split enumeration assigns values to exact classes from pools. *)
type pool = Plain | Const_pool of int (* basecov mask *)

(* One enumeration variable: how many values of [pool] get target class
   [target]. *)
type split_var = { pool : pool; target : int }

(* ------------------------------------------------------------------ *)
(* Cover feasibility (the check predicate of Lemma B.19).              *)
(* ------------------------------------------------------------------ *)

(* A value type: [count] values each needing the atom set [missing]
   covered by classes drawn from [covers] (each cover is a list of null
   class indices, using each class at most once). *)
type value_type = { count : int; covers : int list list }

(* Minimal covers of [missing] using the null classes [classes] (masks)
   that are subsets of [target]; returns lists of class indices. *)
let minimal_covers ~classes ~target ~missing =
  let allowed =
    List.mapi (fun i m -> (i, m)) classes
    |> List.filter (fun (_, m) -> m land target = m && m land missing <> 0)
  in
  let rec subsets = function
    | [] -> [ ([], 0) ]
    | (i, m) :: rest ->
      let subs = subsets rest in
      List.map (fun (s, u) -> (i :: s, u lor m)) subs @ subs
  in
  let covering =
    List.filter (fun (_, u) -> u land missing = missing) (subsets allowed)
  in
  let is_minimal (s, _) =
    List.for_all
      (fun (s', _) ->
        s' = s
        || not (List.for_all (fun i -> List.mem i s) s' && List.length s' < List.length s))
      covering
  in
  List.filter is_minimal covering |> List.map fst

(* Decide whether the value types can all be covered within the null
   supplies.  Exhaustive search over cover distributions, memoized on
   (type index, remaining supplies).  Supplies are copy-on-write int
   arrays: an update is one copy + in-place subtractions, and — since a
   supply array is never mutated after it is used as a key — arrays hash
   and compare structurally in the memo table just like the lists did. *)
let covers_feasible types supplies =
  let memo = Hashtbl.create 256 in
  (* Subtract [amount] from every class of [cover], or [None] if some
     class runs short. *)
  let apply (sup : int array) amount cover =
    if List.for_all (fun cls -> sup.(cls) >= amount) cover then begin
      let sup' = Array.copy sup in
      List.iter (fun cls -> sup'.(cls) <- sup'.(cls) - amount) cover;
      Some sup'
    end
    else None
  in
  let rec feasible idx (supplies : int array) =
    if idx = Array.length types then true
    else begin
      let key = (idx, supplies) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
        let t = types.(idx) in
        let covers = Array.of_list t.covers in
        let k = Array.length covers in
        let result =
          if k = 0 then t.count = 0 && feasible (idx + 1) supplies
          else begin
            (* Distribute t.count values among the k covers. *)
            let rec distribute c remaining sup =
              if c = k - 1 then
                (* Last cover takes everything left. *)
                match apply sup remaining covers.(c) with
                | Some sup' -> feasible (idx + 1) sup'
                | None -> false
              else begin
                let rec try_amount a =
                  if a > remaining then false
                  else
                    match apply sup a covers.(c) with
                    | Some sup' ->
                      distribute (c + 1) (remaining - a) sup' || try_amount (a + 1)
                    | None ->
                      (* Larger amounts only fail harder. *)
                      false
                in
                try_amount 0
              end
            in
            distribute 0 t.count supplies
          end
        in
        Hashtbl.replace memo key result;
        result
    end
  in
  feasible 0 supplies

(* ------------------------------------------------------------------ *)
(* The Theorem 4.6 algorithm.                                          *)
(* ------------------------------------------------------------------ *)

(* Parameterized core: the enumeration only touches the domain through
   its size [d] and the in-domain test for table constants, so the same
   code serves explicit and symbolic (astronomically large) domains. *)
let uniform_core ?query ~d ~in_dom db =
  let qrels = match query with None -> [] | Some q -> Cq.relations q in
  (match query with
  | Some q ->
    List.iter
      (fun (a : Cq.atom) ->
        if Array.length a.Cq.vars <> 1 then
          invalid_arg "Count_comp.uniform_unary: query atom is not unary")
      q
  | None -> ());
  List.iter
    (fun (f : Idb.fact) ->
      if Array.length f.Idb.args <> 1 then
        invalid_arg "Count_comp.uniform_unary: table fact is not unary")
    (Idb.facts db);
  let rels =
    List.sort_uniq String.compare (Idb.relations db @ qrels)
  in
  let l = List.length rels in
  if l = 0 then Nat.one
  else begin
    let rel_index r =
      let rec go i = function
        | [] -> assert false
        | r' :: rest -> if r = r' then i else go (i + 1) rest
      in
      go 0 rels
    in
    (* Coverage of constants and occurrence classes of nulls. *)
    let const_cov = Hashtbl.create 16 in
    let null_occ = Hashtbl.create 16 in
    List.iter
      (fun (f : Idb.fact) ->
        let bit = 1 lsl rel_index f.Idb.rel in
        match f.Idb.args.(0) with
        | Term.Const c ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt const_cov c) in
          Hashtbl.replace const_cov c (cur lor bit)
        | Term.Null n ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt null_occ n) in
          Hashtbl.replace null_occ n (cur lor bit))
      (Idb.facts db);
    (* Null classes. *)
    let class_counts = Hashtbl.create 8 in
    Hashtbl.iter
      (fun _ m ->
        let cur = Option.value ~default:0 (Hashtbl.find_opt class_counts m) in
        Hashtbl.replace class_counts m (cur + 1))
      null_occ;
    let null_classes =
      Hashtbl.fold (fun m c acc -> (m, c) :: acc) class_counts []
      |> List.sort Stdlib.compare
    in
    let class_masks = List.map fst null_classes in
    let supplies0 = List.map snd null_classes in
    let supplies0_arr = Array.of_list supplies0 in
    let total_nulls = List.fold_left ( + ) 0 supplies0 in
    (* Constant pools: in-domain constants by exact base class; constants
       outside the domain are fixed, only their coverage matters. *)
    let const_pools = Hashtbl.create 8 in
    let external_covers = ref [] in
    Hashtbl.iter
      (fun c m ->
        if in_dom c then begin
          let cur = Option.value ~default:0 (Hashtbl.find_opt const_pools m) in
          Hashtbl.replace const_pools m (cur + 1)
        end else external_covers := m :: !external_covers)
      const_cov;
    let const_pool_list =
      Hashtbl.fold (fun m c acc -> (m, c) :: acc) const_pools []
      |> List.sort Stdlib.compare
    in
    let c_total = List.fold_left (fun acc (_, c) -> acc + c) 0 const_pool_list in
    let plain_size = d - c_total in
    (* Query groups: for each variable of q, the mask of its relations. *)
    let q_groups =
      match query with
      | None -> []
      | Some q ->
        List.map
          (fun v ->
            List.fold_left
              (fun m (a : Cq.atom) ->
                if Array.exists (String.equal v) a.Cq.vars then
                  m lor (1 lsl rel_index a.Cq.rel)
                else m)
              0 q)
          (Cq.variables q)
    in
    let full = (1 lsl l) - 1 in
    let all_classes_list = List.init full (fun i -> i + 1) in
    (* An atom bit is producible when some null class or some constant
       coverage contains it; targets needing unproducible bits (beyond the
       value's own base coverage) are dead. *)
    let producible_by_nulls r =
      List.exists (fun m -> m land (1 lsl r) <> 0) class_masks
    in
    (* Enumeration variables. *)
    let vars =
      let plain_vars =
        if plain_size <= 0 then []
        else
          List.filter_map
            (fun t ->
              let feas =
                List.for_all
                  (fun r -> t land (1 lsl r) = 0 || producible_by_nulls r)
                  (List.init l Fun.id)
              in
              if feas then Some { pool = Plain; target = t } else None)
            all_classes_list
      in
      let const_vars =
        List.concat_map
          (fun (base, _) ->
            List.filter_map
              (fun t ->
                if t land base = base && t <> base then begin
                  let feas =
                    List.for_all
                      (fun r ->
                        t land (1 lsl r) = 0
                        || base land (1 lsl r) <> 0
                        || producible_by_nulls r)
                      (List.init l Fun.id)
                  in
                  if feas then Some { pool = Const_pool base; target = t }
                  else None
                end
                else None)
              all_classes_list)
          const_pool_list
      in
      Array.of_list (plain_vars @ const_vars)
    in
    let nvars = Array.length vars in
    (* Checks at a leaf of the enumeration. *)
    let external_sat g =
      List.exists (fun m -> m land g = g) !external_covers
    in
    let check assignment =
      let m_of i = assignment.(i) in
      let rem base =
        let used = ref 0 in
        Array.iteri
          (fun i _ -> if vars.(i).pool = Const_pool base then used := !used + m_of i)
          vars;
        (match List.assoc_opt base const_pool_list with
        | Some c -> c
        | None -> 0)
        - !used
      in
      let value_with_class_superset g =
        (* Some value present with class containing g: counted value or
           remaining base constant. *)
        let counted =
          List.exists
            (fun i -> m_of i > 0 && vars.(i).target land g = g)
            (List.init nvars Fun.id)
        in
        counted
        || List.exists
             (fun (base, _) -> base land g = g && rem base > 0)
             const_pool_list
      in
      (* (a) the query must hold in the completion. *)
      let query_ok =
        List.for_all
          (fun g -> external_sat g || value_with_class_superset g)
          q_groups
      in
      query_ok
      && begin
           (* (b) every null class needs a home. *)
           List.for_all2
             (fun nc supply -> supply = 0 || value_with_class_superset nc)
             class_masks supplies0
         end
      && begin
           (* (c) coverage feasibility. *)
           let types =
             List.filter_map
               (fun i ->
                 if m_of i = 0 then None
                 else begin
                   let base =
                     match vars.(i).pool with Plain -> 0 | Const_pool b -> b
                   in
                   let missing = vars.(i).target land lnot base in
                   Some
                     {
                       count = m_of i;
                       covers =
                         minimal_covers ~classes:class_masks
                           ~target:vars.(i).target ~missing;
                     }
                 end)
               (List.init nvars Fun.id)
           in
           covers_feasible (Array.of_list types) supplies0_arr
         end
    in
    (* Enumerate assignments with pool-capacity and total-null bounds,
       accumulating the product of binomials (a multinomial per pool). *)
    let total = ref Nat.zero in
    let assignment = Array.make nvars 0 in
    let pool_remaining = Hashtbl.create 8 in
    let pool_key = function Plain -> -1 | Const_pool b -> b in
    Hashtbl.replace pool_remaining (-1) (max plain_size 0);
    List.iter (fun (b, c) -> Hashtbl.replace pool_remaining b c) const_pool_list;
    let rec enumerate i used_nulls ways =
      if i = nvars then begin
        if check assignment then total := Nat.add !total ways
      end else begin
        let key = pool_key vars.(i).pool in
        let available = Hashtbl.find pool_remaining key in
        let max_m = min available (total_nulls - used_nulls) in
        for m = 0 to max_m do
          assignment.(i) <- m;
          Hashtbl.replace pool_remaining key (available - m);
          enumerate (i + 1) (used_nulls + m)
            (Nat.mul ways (Combinat.binomial available m));
          Hashtbl.replace pool_remaining key available
        done;
        assignment.(i) <- 0
      end
    in
    enumerate 0 0 Nat.one;
    !total
  end

let uniform_unary ?query db =
  let dom =
    match Idb.domain_spec db with
    | Idb.Uniform dom -> dom
    | Idb.Nonuniform _ ->
      invalid_arg "Count_comp.uniform_unary: database is not uniform"
  in
  let dom_set = Sset.of_list dom in
  uniform_core ?query ~d:(List.length dom) ~in_dom:(fun c -> Sset.mem c dom_set)
    db

let uniform_symbolic ?query facts ~domain_size =
  if domain_size < 1 then
    invalid_arg "Count_comp.uniform_symbolic: domain_size must be positive";
  (* Placeholder domain; every table constant counts as external. *)
  let db = Idb.make facts (Idb.Uniform [ "\xc2\xa7sym" ]) in
  uniform_core ?query ~d:domain_size ~in_dom:(fun _ -> false) db

(* ------------------------------------------------------------------ *)
(* Dispatcher.                                                         *)
(* ------------------------------------------------------------------ *)

let applicable query db =
  Idb.is_uniform db
  && List.for_all
       (fun (f : Idb.fact) -> Array.length f.Idb.args = 1)
       (Idb.facts db)
  &&
  match query with
  | None -> true
  | Some q ->
    List.for_all (fun (a : Cq.atom) -> Array.length a.Cq.vars = 1) q

module Events = Incdb_obs.Events
module Log = Incdb_obs.Log

(* Dispatch routes carry the work the probe already did: the enumerator
   route keeps the materialized universe, the elimination route keeps
   the compiled sweep plan. *)
type route =
  | R_uniform
  | R_enum of Incdb_relational.Cdb.fact array
  | R_elim of Comp_kernel.plan
  | R_brute

(* Where the dispatcher goes without the kernel: the candidate
   enumerator for a Codd table whose universe fits the cap, else brute
   force.  The probe grounds at most [max_candidates + 1] facts (early
   exit) and keeps the universe, so counting does not ground it again. *)
let enum_or_brute ?(max_candidates = Comp_candidates.default_max_candidates)
    db =
  match
    if Idb.is_codd db then
      Comp_candidates.universe_within db ~limit:max_candidates
    else None
  with
  | Some u -> R_enum u
  | None -> R_brute

(* Policy: the Theorem 4.6 closed enumeration when it applies; then the
   elimination kernel whenever it can compile a plan; when the plan
   declines (on width, e.g. 17 or more nulls sharing one domain),
   [enum_or_brute].  The kernel goes before the enumerator because it
   is about as fast on small Codd universes and far faster on large
   ones (docs/TUTORIAL.md §11.2 has the measurements).  [Force]
   requires the kernel — it overrides every other arm, the closed form
   included, and makes plan failures loud instead of falling back;
   [Off] skips it. *)
let dispatch_route ?max_candidates ~comp_elim ?comp_width_bound query db =
  Events.with_span "count_comp.pattern_match" (fun () ->
      if comp_elim <> Comp_kernel.Force && applicable query db then R_uniform
      else
        match comp_elim with
        | Comp_kernel.Off -> enum_or_brute ?max_candidates db
        | Comp_kernel.Auto | Comp_kernel.Force -> (
          match
            Comp_kernel.plan
              ?query:(Option.map (fun q -> Query.Bcq q) query)
              ?width_bound:comp_width_bound db
          with
          | Ok p -> R_elim p
          | Error i when comp_elim = Comp_kernel.Force ->
            raise (Comp_kernel.Infeasible i)
          | Error _ -> enum_or_brute ?max_candidates db))

(* The one dispatcher body ([count] is its [Some q] case, [count_all] its
   [None] case): route, then run the routed engine, with the elimination
   arm falling back to [enum_or_brute] if the DP outgrows its state
   budget mid-run under [Auto] (mirrors the #Val kernel's conditioning
   fallback). *)
let dispatch query ?brute_limit ?max_candidates ?(jobs = 1)
    ?(comp_elim = Comp_kernel.Auto) ?comp_width_bound ?comp_max_cells
    ?comp_max_states ?(comp_cache = true) ?comp_memos ?comp_spill_dir db =
  let rec go = function
    | R_uniform ->
      ( Uniform_unary,
        Events.with_span "count_comp.uniform_unary" (fun () ->
            uniform_unary ?query db) )
    | R_enum universe ->
      ( Candidate_enumeration,
        Events.with_span "count_comp.candidate_enumeration" (fun () ->
            Comp_candidates.count
              ?query:(Option.map (fun q -> Query.Bcq q) query)
              ?max_candidates ~jobs ~universe db) )
    | R_elim plan -> (
      match
        Events.with_span "count_comp.lineage_elimination" (fun () ->
            Comp_kernel.run ?max_states:comp_max_states
              ?max_cells:comp_max_cells ~cache:comp_cache ?memos:comp_memos
              ?spill_dir:comp_spill_dir plan)
      with
      | n -> (Lineage_elimination, n)
      | exception Comp_kernel.Infeasible _ when comp_elim <> Comp_kernel.Force
        ->
        go (enum_or_brute ?max_candidates db))
    | R_brute ->
      ( Brute_force,
        Events.with_span "count_comp.completion_dedup" (fun () ->
            match query with
            | Some q ->
              Incdb_par.Brute_par.count_completions ?limit:brute_limit ~jobs
                (Query.Bcq q) db
            | None ->
              Incdb_par.Brute_par.count_all_completions ?limit:brute_limit
                ~jobs db) )
  in
  Events.with_span "count_comp.count" (fun () ->
      let algo, n =
        go
          (dispatch_route ?max_candidates ~comp_elim ?comp_width_bound query
             db)
      in
      Log.debugf "count_comp: %s -> %s"
        (Option.fold ~none:"<all completions>" ~some:Cq.to_string query)
        (algorithm_to_string algo);
      (algo, n))

let count ?brute_limit ?max_candidates ?jobs ?mask:_ ?comp_elim
    ?comp_width_bound ?comp_max_cells ?comp_max_states ?comp_cache
    ?comp_memos ?comp_spill_dir q db =
  dispatch (Some q) ?brute_limit ?max_candidates ?jobs ?comp_elim
    ?comp_width_bound ?comp_max_cells ?comp_max_states ?comp_cache
    ?comp_memos ?comp_spill_dir db

let count_all = dispatch None
