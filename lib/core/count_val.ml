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

let uniform_shape_ok q =
  not (Pattern.has_rxx q || Pattern.has_rx_sxy_ty q || Pattern.has_rxy_sxy q)

(* A projected unary atom: the set of terms in the shared-variable column
   of one relation.  [group] identifies the basic singleton (connected
   component) the atom belongs to. *)
type proj_atom = { group : int; terms : Term.t list }

let uniform_domain db =
  match Idb.domain_spec db with
  | Idb.Uniform dom -> dom
  | Idb.Nonuniform _ ->
    invalid_arg "Count_val.uniform_naive: database is not uniform"

(* Project the query onto its basic singletons (Lemmas A.11 and A.12).
   Returns the projected atoms and the set of nulls they constrain; all
   other nulls of the table are free.  Raises if the query shape is not
   the tractable one. *)
let project_basic_singletons q db =
  let comps = Conngraph.components q in
  let atoms = ref [] in
  let gid = ref 0 in
  List.iter
    (fun (c : Conngraph.component) ->
      match (c.Conngraph.atoms, c.Conngraph.shared_var) with
      | [ _a ], _ ->
        (* Single-occurrence variables only: the atom is satisfied by any
           valuation iff its relation is non-empty; represent it as a
           one-atom group whose terms are a fresh marker when non-empty.
           We model it exactly: group with one projected atom whose term
           set is the full column... any column works since any fact
           matches; use emptiness only. *)
        ()
      | many, Some v ->
        incr gid;
        List.iter
          (fun (a : Cq.atom) ->
            (* position of the shared variable in this atom (no repeats) *)
            let pos = ref (-1) in
            Array.iteri (fun i u -> if u = v then pos := i) a.Cq.vars;
            assert (!pos >= 0);
            let col =
              List.filter_map
                (fun (f : Idb.fact) ->
                  if Array.length f.Idb.args > !pos then Some f.Idb.args.(!pos)
                  else None)
                (Idb.facts_of db a.Cq.rel)
            in
            let col = List.sort_uniq Term.compare col in
            atoms := { group = !gid; terms = col } :: !atoms)
          many
      | _, None ->
        invalid_arg "Count_val.uniform_naive: query has a hard pattern")
    comps;
  (List.rev !atoms, comps)

(* Shared preprocessing of the three Theorem 3.9 engines: the projected
   atoms of the basic singletons, the per-group forbidden masks for the
   Lemma A.13 inclusion–exclusion, and the occurrence / base-coverage
   masks of the nulls and constants over the projected atoms. *)
type singleton_setup = {
  forbidden_all : int list;  (* per basic singleton, the mask of its atoms *)
  occ_of_null : (string, int) Hashtbl.t;
  cov_of_const : (string, int) Hashtbl.t;
  all_nulls : string list;
}

(* Empty-relation test for singleton components (footnote 2). *)
let singleton_relations_nonempty q db =
  List.for_all
    (fun (c : Conngraph.component) ->
      match c.Conngraph.atoms with
      | [ a ] -> Idb.facts_of db a.Cq.rel <> []
      | _ -> true)
    (Conngraph.components q)

let singleton_setup q db =
  let proj, _ = project_basic_singletons q db in
  let proj = Array.of_list proj in
  let kk = Array.length proj in
  let atom_ids = List.init kk Fun.id in
  let groups =
    List.sort_uniq Stdlib.compare
      (Array.to_list (Array.map (fun p -> p.group) proj))
  in
  let group_mask g =
    List.fold_left
      (fun m i -> if proj.(i).group = g then m lor (1 lsl i) else m)
      0 atom_ids
  in
  let occ_of_null = Hashtbl.create 16 in
  let cov_of_const = Hashtbl.create 16 in
  Array.iteri
    (fun i p ->
      List.iter
        (function
          | Term.Null n ->
            let cur = Option.value ~default:0 (Hashtbl.find_opt occ_of_null n) in
            Hashtbl.replace occ_of_null n (cur lor (1 lsl i))
          | Term.Const c ->
            let cur = Option.value ~default:0 (Hashtbl.find_opt cov_of_const c) in
            Hashtbl.replace cov_of_const c (cur lor (1 lsl i)))
        p.terms)
    proj;
  {
    forbidden_all = List.map group_mask groups;
    occ_of_null;
    cov_of_const;
    all_nulls = Idb.nulls db;
  }

let setup_occ s n = Option.value ~default:0 (Hashtbl.find_opt s.occ_of_null n)
let setup_cov s c = Option.value ~default:0 (Hashtbl.find_opt s.cov_of_const c)

(* Coverage masks of the constants outside [dom_set]: fixed under every
   valuation.  With [dom_set] empty every table constant is external
   (the symbolic-domain case). *)
let setup_external_covers s dom_set =
  Hashtbl.fold
    (fun c mask acc -> if Sset.mem c dom_set then acc else mask :: acc)
    s.cov_of_const []

let uniform_naive q db =
  if not (uniform_shape_ok q) then
    invalid_arg "Count_val.uniform_naive: query contains a hard pattern";
  let dom = uniform_domain db in
  let d = List.length dom in
  if not (singleton_relations_nonempty q db) then Nat.zero
  else begin
    let setup = singleton_setup q db in
    let forbidden_all = setup.forbidden_all in
    let all_nulls = setup.all_nulls in
    let constrained_occ = setup_occ setup in
    (* Out-of-domain constants have a fixed coverage. *)
    let external_covers = setup_external_covers setup (Sset.of_list dom) in
    (* N_S for a subset of groups, identified by the union mask of their
       atoms and the list of their individual forbidden masks. *)
    let n_s sub_forbidden =
      let atoms_mask = List.fold_left ( lor ) 0 sub_forbidden in
      (* A constant outside dom whose fixed coverage includes all atoms of
         some forbidden group satisfies that group under every valuation. *)
      let ext_unsafe =
        List.exists
          (fun m -> List.exists (fun f -> m land f = f) sub_forbidden)
          external_covers
      in
      if ext_unsafe then Nat.zero
      else begin
        (* Group constrained nulls by occurrence class within S. *)
        let class_counts = Hashtbl.create 8 in
        let free = ref 0 in
        List.iter
          (fun n ->
            let m = constrained_occ n land atoms_mask in
            if m = 0 then incr free
            else begin
              let cur = Option.value ~default:0 (Hashtbl.find_opt class_counts m) in
              Hashtbl.replace class_counts m (cur + 1)
            end)
          all_nulls;
        let classes =
          Hashtbl.fold (fun m c acc -> (m, c) :: acc) class_counts []
          |> List.sort Stdlib.compare
        in
        let nclasses = List.length classes in
        let class_masks = Array.of_list (List.map fst classes) in
        let class_sizes = Array.of_list (List.map snd classes) in
        let unsafe u = List.exists (fun f -> u land f = f) sub_forbidden in
        (* DP over domain values; state = remaining nulls per class. *)
        let tbl : (int list, Nat.t) Hashtbl.t = Hashtbl.create 64 in
        Hashtbl.replace tbl (Array.to_list class_sizes) Nat.one;
        let value_basecov a = setup_cov setup a land atoms_mask in
        let dead = ref false in
        List.iter
          (fun a ->
            if not !dead then begin
              let base = value_basecov a in
              if unsafe base then dead := true
              else begin
                let next : (int list, Nat.t) Hashtbl.t = Hashtbl.create 64 in
                let add st v =
                  let cur = Option.value ~default:Nat.zero (Hashtbl.find_opt next st) in
                  Hashtbl.replace next st (Nat.add cur v)
                in
                Hashtbl.iter
                  (fun state weight ->
                    let rem = Array.of_list state in
                    (* Enumerate allocations (k_0..k_{nclasses-1}). *)
                    let rec alloc i union ways acc_rem =
                      if i = nclasses then begin
                        if not (unsafe union) then
                          add (List.rev acc_rem) (Nat.mul weight ways)
                      end else
                        for k = 0 to rem.(i) do
                          let union' = if k > 0 then union lor class_masks.(i) else union in
                          (* Prune: an unsafe union can only grow. *)
                          if not (unsafe union') then
                            alloc (i + 1) union'
                              (Nat.mul ways (Combinat.binomial rem.(i) k))
                              ((rem.(i) - k) :: acc_rem)
                        done
                    in
                    alloc 0 base Nat.one [])
                  tbl;
                Hashtbl.reset tbl;
                Hashtbl.iter (Hashtbl.replace tbl) next
              end
            end)
          dom;
        if !dead then Nat.zero
        else begin
          let zero_state = List.map (fun _ -> 0) (Array.to_list class_sizes) in
          let core =
            Option.value ~default:Nat.zero (Hashtbl.find_opt tbl zero_state)
          in
          Nat.mul core (Combinat.power d !free)
        end
      end
    in
    (* Inclusion-exclusion over subsets of basic singletons (Lemma A.13). *)
    let result = ref Zint.zero in
    List.iter
      (fun subset ->
        let term = Zint.of_nat (n_s subset) in
        let signed =
          if List.length subset land 1 = 0 then term else Zint.neg term
        in
        result := Zint.add !result signed)
      (Combinat.subsets forbidden_all);
    Zint.to_nat !result
  end

(* ------------------------------------------------------------------ *)
(* Theorem 3.9, weighted: the probability version of the block DP.     *)
(* ------------------------------------------------------------------ *)

let uniform_weighted q db ~weight =
  if not (uniform_shape_ok q) then
    invalid_arg "Count_val.uniform_weighted: query contains a hard pattern";
  let dom = uniform_domain db in
  let total_mass =
    List.fold_left (fun acc a -> Qnum.add acc (weight a)) Qnum.zero dom
  in
  if not (Qnum.equal total_mass Qnum.one) then
    invalid_arg "Count_val.uniform_weighted: weights must sum to 1";
  if not (singleton_relations_nonempty q db) then Qnum.zero
  else begin
    let setup = singleton_setup q db in
    let forbidden_all = setup.forbidden_all in
    let all_nulls = setup.all_nulls in
    let constrained_occ = setup_occ setup in
    let external_covers = setup_external_covers setup (Sset.of_list dom) in
    (* P_S: probability that no basic singleton of S is satisfied; the
       counting DP with binomial allocation weights scaled by w(a)^k. *)
    let p_s sub_forbidden =
      let atoms_mask = List.fold_left ( lor ) 0 sub_forbidden in
      let ext_unsafe =
        List.exists
          (fun m -> List.exists (fun f -> m land f = f) sub_forbidden)
          (List.map (fun m -> m land atoms_mask) external_covers)
      in
      if ext_unsafe then Qnum.zero
      else begin
        let class_counts = Hashtbl.create 8 in
        List.iter
          (fun n ->
            let m = constrained_occ n land atoms_mask in
            if m <> 0 then begin
              let cur = Option.value ~default:0 (Hashtbl.find_opt class_counts m) in
              Hashtbl.replace class_counts m (cur + 1)
            end)
          all_nulls;
        let classes =
          Hashtbl.fold (fun m c acc -> (m, c) :: acc) class_counts []
          |> List.sort Stdlib.compare
        in
        let nclasses = List.length classes in
        let class_masks = Array.of_list (List.map fst classes) in
        let class_sizes = Array.of_list (List.map snd classes) in
        let unsafe u = List.exists (fun f -> u land f = f) sub_forbidden in
        let tbl : (int list, Qnum.t) Hashtbl.t = Hashtbl.create 64 in
        Hashtbl.replace tbl (Array.to_list class_sizes) Qnum.one;
        let value_basecov a = setup_cov setup a land atoms_mask in
        let dead = ref false in
        List.iter
          (fun a ->
            if not !dead then begin
              let base = value_basecov a in
              if unsafe base then dead := true
              else begin
                let wa = weight a in
                let next : (int list, Qnum.t) Hashtbl.t = Hashtbl.create 64 in
                let add st v =
                  let cur =
                    Option.value ~default:Qnum.zero (Hashtbl.find_opt next st)
                  in
                  Hashtbl.replace next st (Qnum.add cur v)
                in
                Hashtbl.iter
                  (fun state mass ->
                    let rem = Array.of_list state in
                    let rec alloc i union ways acc_rem =
                      if i = nclasses then begin
                        if not (unsafe union) then add (List.rev acc_rem) (Qnum.mul mass ways)
                      end else
                        for k = 0 to rem.(i) do
                          let union' =
                            if k > 0 then union lor class_masks.(i) else union
                          in
                          if not (unsafe union') then begin
                            let choose =
                              Qnum.of_nat (Combinat.binomial rem.(i) k)
                            in
                            let rec wpow acc j =
                              if j = 0 then acc else wpow (Qnum.mul acc wa) (j - 1)
                            in
                            alloc (i + 1) union'
                              (Qnum.mul ways (Qnum.mul choose (wpow Qnum.one k)))
                              ((rem.(i) - k) :: acc_rem)
                          end
                        done
                    in
                    alloc 0 base Qnum.one [])
                  tbl;
                Hashtbl.reset tbl;
                Hashtbl.iter (Hashtbl.replace tbl) next
              end
            end)
          dom;
        if !dead then Qnum.zero
        else begin
          let zero_state = List.init nclasses (fun _ -> 0) in
          (* Free nulls (not constrained by S) integrate to total mass 1. *)
          Option.value ~default:Qnum.zero (Hashtbl.find_opt tbl zero_state)
        end
      end
    in
    List.fold_left
      (fun acc subset ->
        let term = p_s subset in
        if List.length subset land 1 = 0 then Qnum.add acc term
        else Qnum.sub acc term)
      Qnum.zero
      (Combinat.subsets forbidden_all)
  end

(* ------------------------------------------------------------------ *)
(* Theorem 3.9 over a symbolic domain: matrix exponentiation.          *)
(* ------------------------------------------------------------------ *)

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

let uniform_symbolic q facts ~domain_size =
  if domain_size < 1 then
    invalid_arg "Count_val.uniform_symbolic: domain_size must be positive";
  if not (uniform_shape_ok q) then
    invalid_arg "Count_val.uniform_symbolic: query contains a hard pattern";
  (* The placeholder value never meets the table: constants are treated as
     external to the symbolic domain. *)
  let db = Idb.make facts (Idb.Uniform [ "Â§sym" ]) in
  let d = domain_size in
  if not (singleton_relations_nonempty q db) then Nat.zero
  else begin
    let setup = singleton_setup q db in
    let forbidden_all = setup.forbidden_all in
    let all_nulls = setup.all_nulls in
    let constrained_occ = setup_occ setup in
    (* Every table constant is external to the symbolic domain. *)
    let external_covers = setup_external_covers setup Sset.empty in
    let n_s sub_forbidden =
      let atoms_mask = List.fold_left ( lor ) 0 sub_forbidden in
      let ext_unsafe =
        List.exists
          (fun m -> List.exists (fun f -> m land f = f) sub_forbidden)
          (List.map (fun m -> m land atoms_mask) external_covers)
      in
      if ext_unsafe then Nat.zero
      else begin
        let class_counts = Hashtbl.create 8 in
        let free = ref 0 in
        List.iter
          (fun n ->
            let m = constrained_occ n land atoms_mask in
            if m = 0 then incr free
            else begin
              let cur = Option.value ~default:0 (Hashtbl.find_opt class_counts m) in
              Hashtbl.replace class_counts m (cur + 1)
            end)
          all_nulls;
        let classes =
          Hashtbl.fold (fun m c acc -> (m, c) :: acc) class_counts []
          |> List.sort Stdlib.compare
        in
        let nclasses = List.length classes in
        let class_masks = Array.of_list (List.map fst classes) in
        let class_sizes = List.map snd classes in
        let unsafe u = List.exists (fun f -> u land f = f) sub_forbidden in
        let core =
          if nclasses = 0 then Nat.one
          else begin
            (* State space: vectors of remaining nulls per class, encoded
               in mixed radix. *)
            let radix = Array.of_list (List.map (fun n -> n + 1) class_sizes) in
            let nstates = Array.fold_left ( * ) 1 radix in
            let decode ix =
              let v = Array.make nclasses 0 in
              let ix = ref ix in
              for i = 0 to nclasses - 1 do
                v.(i) <- !ix mod radix.(i);
                ix := !ix / radix.(i)
              done;
              v
            in
            let encode v =
              let ix = ref 0 in
              for i = nclasses - 1 downto 0 do
                ix := (!ix * radix.(i)) + v.(i)
              done;
              !ix
            in
            (* One plain value absorbs an allocation vector with a safe
               coverage union; the transition matrix is the same for all
               d values. *)
            let m = Array.make_matrix nstates nstates Nat.zero in
            for from = 0 to nstates - 1 do
              let rem = decode from in
              let rec alloc i union ways acc =
                if i = nclasses then begin
                  if not (unsafe union) then begin
                    let dest = encode (Array.of_list (List.rev acc)) in
                    m.(dest).(from) <- Nat.add m.(dest).(from) ways
                  end
                end else
                  for k = 0 to rem.(i) do
                    let union' =
                      if k > 0 then union lor class_masks.(i) else union
                    in
                    if not (unsafe union') then
                      alloc (i + 1) union'
                        (Nat.mul ways (Combinat.binomial rem.(i) k))
                        ((rem.(i) - k) :: acc)
                  done
              in
              alloc 0 0 Nat.one []
            done;
            let powered = nat_mat_pow m d in
            let full_state = encode (Array.of_list (List.map (fun n -> n) class_sizes)) in
            powered.(0).(full_state)
            (* state 0 encodes the all-zero remaining vector *)
          end
        in
        Nat.mul core (Combinat.power d !free)
      end
    in
    let result = ref Zint.zero in
    List.iter
      (fun subset ->
        let term = Zint.of_nat (n_s subset) in
        let signed =
          if List.length subset land 1 = 0 then term else Zint.neg term
        in
        result := Zint.add !result signed)
      (Combinat.subsets forbidden_all);
    Zint.to_nat !result
  end

(* ------------------------------------------------------------------ *)
(* Dispatcher.                                                         *)
(* ------------------------------------------------------------------ *)

module Events = Incdb_obs.Events
module Log = Incdb_obs.Log

(* Brute-force routed through the sharded engine; [jobs = 1] (the
   default) is exactly the sequential [Brute] code path. *)
let brute_force ?limit ?(jobs = 1) q db =
  Incdb_par.Brute_par.count_valuations ?limit ~jobs q db

(* Try the lineage variable-elimination kernel; [None] means it declined
   (opaque query, or more events than [max_events] would compile) and the
   caller should enumerate instead. *)
let try_kernel ?width_bound ?max_events ?max_cells ?order ?cache_entries
    ?cache ?spill ?spill_dir ?jobs q db =
  Events.with_span "count_val.lineage_elimination" (fun () ->
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

let count ?brute_limit ?val_width_bound ?val_max_events ?val_max_cells
    ?val_order ?val_cache_entries ?val_cache ?val_spill ?val_spill_dir ?jobs q
    db =
  Events.with_span "count_val.count" (fun () ->
      (* Phase 1: pattern matching -- decide which closed form applies. *)
      let algo =
        Events.with_span "count_val.pattern_match" (fun () ->
            if all_variables_single q then Product_of_domains
            else if atoms_share_no_variable q && Idb.is_codd db then
              Codd_per_atom
            else if uniform_shape_ok q && Idb.is_uniform db then
              Uniform_block_dp
            else Lineage_elimination)
      in
      Log.debugf "count_val: %s -> %s" (Cq.to_string q) (algorithm_to_string algo);
      (* Phase 2: closed-form dispatch, the compiled-lineage kernel, or
         brute-force enumeration when the event set is too large. *)
      match algo with
      | Product_of_domains ->
        ( algo,
          Events.with_span "count_val.product_of_domains" (fun () ->
              nonuniform_naive q db) )
      | Codd_per_atom ->
        ( algo,
          Events.with_span "count_val.codd_per_atom" (fun () ->
              codd_nonuniform q db) )
      | Uniform_block_dp ->
        ( algo,
          Events.with_span "count_val.uniform_block_dp" (fun () ->
              uniform_naive q db) )
      | Lineage_elimination | Brute_force -> (
        match
          try_kernel ?width_bound:val_width_bound ?max_events:val_max_events
            ?max_cells:val_max_cells ?order:val_order
            ?cache_entries:val_cache_entries ?cache:val_cache ?spill:val_spill
            ?spill_dir:val_spill_dir ?jobs (Query.Bcq q) db
        with
        | Some n -> (Lineage_elimination, n)
        | None ->
          ( Brute_force,
            Events.with_span "count_val.brute_force" (fun () ->
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
            Events.with_span "count_val.brute_force" (fun () ->
                brute_force ?limit:brute_limit ?jobs q db) ))
  | Query.Semantic _ ->
    Events.with_span "count_val.count" (fun () ->
        ( Brute_force,
          Events.with_span "count_val.brute_force" (fun () ->
              brute_force ?limit:brute_limit ?jobs q db) ))
