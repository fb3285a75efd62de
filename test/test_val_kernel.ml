(* Tests for the lineage variable-elimination #Val kernel: agreement with
   brute-force enumeration on random and hand-built hard-pattern
   instances (including negations and unions), jobs-invariance of the
   counts, the width-bound conditioning fallback, the typed event-limit
   error, and exact counts past 2^62 (int cells with a per-cell Nat
   fallback).  The brute-force enumerator stays in the suite as the
   kernel's independent oracle. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_core

let job_levels = [ 1; 2; 4 ]
let check_nat = Gen.check_nat

(* Unwrap the kernel's option: every query in this file is compilable. *)
let kernel ?width_bound ?max_events ?max_cells ?order ?cache_entries ?spill
    ?spill_dir ?spill_budget_bytes ?jobs q db =
  match
    Val_kernel.count ?width_bound ?max_events ?max_cells ?order ?cache_entries
      ?spill ?spill_dir ?spill_budget_bytes ?jobs q db
  with
  | Some n -> n
  | None -> Alcotest.fail "kernel declined a compilable query"

(* Run [f] with metric collection on and report the named counters'
   deltas next to its result. *)
let with_counters names f =
  let v name = Incdb_obs.Metrics.value (Incdb_obs.Metrics.counter name) in
  let before = List.map v names in
  Incdb_obs.Runtime.set_enabled true;
  let r =
    Fun.protect f ~finally:(fun () -> Incdb_obs.Runtime.set_enabled false)
  in
  (r, List.map2 (fun n b -> (n, v n - b)) names before)

let brute ?jobs q db = Incdb_par.Brute_par.count_valuations ?jobs q db

let with_temp_dir f =
  let dir = Filename.temp_file "incdb_test_spill" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    (fun () -> f dir)
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)

let check_empty_dir msg dir =
  Alcotest.(check (list string)) msg [] (Array.to_list (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  Idb.make
    [
      Idb.fact "S" [ Term.const "a"; Term.const "b" ];
      Idb.fact "S" [ Term.null "n1"; Term.const "a" ];
      Idb.fact "S" [ Term.const "a"; Term.null "n2" ];
    ]
    (Idb.Nonuniform [ ("n1", [ "a"; "b"; "c" ]); ("n2", [ "a"; "b" ]) ])

let test_figure1 () =
  let db = figure1 () in
  let q = Query.Bcq (Cq.of_string "S(x,x)") in
  check_nat "Figure 1: 4 of the 6 valuations satisfy S(x,x)"
    (Nat.of_int 4) (kernel q db);
  check_nat "complement via Not" (Nat.of_int 2) (kernel (Query.Not q) db);
  check_nat "double negation cancels" (Nat.of_int 4)
    (kernel (Query.Not (Query.Not q)) db)

(* ------------------------------------------------------------------ *)
(* The hard pattern: R(x), S(x,y), T(y) beyond the closed forms         *)
(* ------------------------------------------------------------------ *)

(* A path instance with one null per entry of [r_doms] in R and of
   [t_doms] in T, the null's domain being [v0 .. v(d-1)] for its entry
   [d], on each side of a fixed S edge set: the query has no closed form
   (shared variables, non-uniform domains), so the dispatcher must
   route it through the kernel. *)
let path_instance_doms ~r_doms ~t_doms ~edges =
  let side prefix rel doms =
    List.mapi
      (fun i _ -> Idb.fact rel [ Term.null (Printf.sprintf "%s%d" prefix i) ])
      doms
  in
  (* One value list per distinct size, shared by the nulls of that size. *)
  let lists = Hashtbl.create 4 in
  let values d =
    match Hashtbl.find_opt lists d with
    | Some l -> l
    | None ->
      let l = List.init d (fun v -> Printf.sprintf "v%d" v) in
      Hashtbl.add lists d l;
      l
  in
  let named prefix doms =
    List.mapi (fun i d -> (Printf.sprintf "%s%d" prefix i, values d)) doms
  in
  Idb.make
    (side "r" "R" r_doms
    @ List.map (fun (a, b) -> Idb.fact "S" [ Term.const a; Term.const b ]) edges
    @ side "t" "T" t_doms)
    (Idb.Nonuniform (named "r" r_doms @ named "t" t_doms))

(* [k] nulls a side, all over the same [d] values. *)
let path_instance ~k ~d ~edges =
  let doms = List.init k (fun _ -> d) in
  path_instance_doms ~r_doms:doms ~t_doms:doms ~edges

let path_query = Cq.of_string "R(x), S(x,y), T(y)"

let test_dispatcher_takes_kernel () =
  let db = path_instance ~k:3 ~d:3 ~edges:[ ("v0", "v1") ] in
  let algo, n = Count_val.count path_query db in
  Alcotest.(check string)
    "dispatcher picks the kernel"
    (Count_val.algorithm_to_string Count_val.Lineage_elimination)
    (Count_val.algorithm_to_string algo);
  check_nat "dispatcher count = brute force" (brute (Query.Bcq path_query) db) n

let test_path_agreement () =
  (* K_{k,k}-style clause structure: every (R-null = v0, T-null = v1)
     pair is an event, so the interaction graph is dense and the kernel
     must mix elimination with conditioning.  Every count here fits in
     an int, so no cell may take the Nat path. *)
  List.iter
    (fun (k, d, edges) ->
      let db = path_instance ~k ~d ~edges in
      let q = Query.Bcq path_query in
      let want = brute q db in
      List.iter
        (fun jobs ->
          let n, deltas =
            with_counters [ "val_kernel.nat_cells" ] (fun () ->
                kernel ~jobs q db)
          in
          check_nat
            (Printf.sprintf "path k=%d d=%d (jobs=%d)" k d jobs)
            want n;
          Alcotest.(check int)
            (Printf.sprintf "path k=%d d=%d: no Nat cells" k d)
            0
            (List.assoc "val_kernel.nat_cells" deltas))
        job_levels;
      check_nat
        (Printf.sprintf "path k=%d d=%d negated" k d)
        (Nat.sub (Idb.total_valuations db) want)
        (kernel (Query.Not q) db))
    [
      (2, 3, [ ("v0", "v1") ]);
      (4, 3, [ ("v0", "v1"); ("v2", "v0") ]);
      (5, 4, [ ("v0", "v1") ]);
    ]

(* ------------------------------------------------------------------ *)
(* Width bound: conditioning fallback returns the same counts           *)
(* ------------------------------------------------------------------ *)

let test_width_bound_fallback () =
  let db = path_instance ~k:4 ~d:4 ~edges:[ ("v0", "v1"); ("v2", "v3") ] in
  let q = Query.Bcq path_query in
  let reference = kernel q db in
  (* width_bound 0 forbids elimination outright: the kernel must solve
     the whole instance by conditioning alone, with identical counts. *)
  List.iter
    (fun wb ->
      check_nat
        (Printf.sprintf "width_bound=%d agrees with default" wb)
        reference
        (kernel ~width_bound:wb q db))
    [ 0; 1; 2 ];
  Alcotest.check_raises "negative width bound rejected"
    (Invalid_argument "Val_kernel.count: negative width bound") (fun () ->
      ignore (kernel ~width_bound:(-1) q db));
  Alcotest.check_raises "max_cells below 1 rejected"
    (Invalid_argument "Val_kernel.count: max_cells must be at least 1")
    (fun () -> ignore (kernel ~max_cells:0 q db));
  Alcotest.check_raises "negative spill budget rejected"
    (Invalid_argument "Val_kernel.count: negative spill budget") (fun () ->
      ignore (kernel ~spill_budget_bytes:(-1) q db));
  (* A 1-cell message cap forces every component through conditioning
     when spilling is off — same counts as unrestricted elimination. *)
  check_nat "max_cells=1, spill off agrees with default" reference
    (kernel ~max_cells:1 ~spill:Val_kernel.Off q db)

(* ------------------------------------------------------------------ *)
(* Counts past 2^62: int cells, Nat only where a cell overflows        *)
(* ------------------------------------------------------------------ *)

let test_checked_arith () =
  let open Factor_store in
  let p31 = 1 lsl 31 in
  Alcotest.(check int)
    "2^31 * (2^31 - 1) stays int" (p31 * (p31 - 1))
    (checked_mul p31 (p31 - 1));
  Alcotest.(check int) "max_int * 1 stays int" max_int (checked_mul max_int 1);
  Alcotest.(check int) "max_int + 0 stays int" max_int (checked_add max_int 0);
  Alcotest.(check int) "2^31 * 2^31 promotes" big (checked_mul p31 p31);
  Alcotest.(check int) "max_int + 1 promotes" big (checked_add max_int 1);
  Alcotest.(check int) "zero absorbs a big operand" 0 (checked_mul big 0);
  Alcotest.(check int) "big propagates through mul" big (checked_mul 1 big);
  Alcotest.(check int) "big propagates through add" big (checked_add big 0)

(* Both backends round-trip a table mixing int cells and Nat cells, the
   disk one across a block boundary with big cells on both sides. *)
let test_factor_store_cells () =
  let n = Factor_store.disk_block_cells + 3 in
  let huge i = Nat.add (Nat.pow Nat.two 70) (Nat.of_int i) in
  let is_big i = i = 1 || i = n - 2 in
  with_temp_dir (fun dir ->
      List.iter
        (fun spill ->
          let w =
            Factor_store.create ~spill ~dir
              (Factor_store.make_meta ~scope:[| 0 |] ~sizes:[| n |])
          in
          for i = 0 to n - 1 do
            if is_big i then Factor_store.append w (huge i)
            else if i = 2 then Factor_store.append w (Nat.of_int max_int)
            else Factor_store.append_int w i
          done;
          let f = Factor_store.finish w in
          let name = if spill then "disk" else "memory" in
          for i = n - 1 downto 0 do
            let want =
              if is_big i then huge i
              else if i = 2 then Nat.of_int max_int
              else Nat.of_int i
            in
            check_nat (Printf.sprintf "%s cell %d" name i) want
              (Factor_store.get f i);
            Alcotest.(check int)
              (Printf.sprintf "%s int view of cell %d" name i)
              (if is_big i then Factor_store.big else Nat.to_int want)
              (Factor_store.get_int f i)
          done;
          Factor_store.release f)
        [ false; true ];
      check_empty_dir "released factors leave no temp files" dir)

(* #Val of [R(x), S(a,b), T(y)] alone: some R-null takes [a] and some
   T-null takes [b], each side independently — with [v_i] naming value
   index [i], (Π d_r − Π(d_r − [a ∈ dom r])) · (Π d_t − Π(d_t − [b ∈ dom
   t])). *)
let one_edge_closed_form ~r_doms ~t_doms (a, b) =
  let side doms x =
    let prod f = Nat.product (List.map (fun d -> Nat.of_int (f d)) doms) in
    Nat.sub (prod Fun.id) (prod (fun d -> if x < d then d - 1 else d))
  in
  Nat.mul (side r_doms a) (side t_doms b)

let value_edges =
  List.map (fun (a, b) -> (Printf.sprintf "v%d" a, Printf.sprintf "v%d" b))

(* The overflow contract on one instance: the kernel's count equals
   pure conditioning ([width_bound 0], all in Nat, never the sweep) at
   every job level with the cache on and off, some cell took the Nat
   path, and one-edge instances also match the closed form. *)
let overflow_agrees (r_doms, t_doms, edges) =
  let db = path_instance_doms ~r_doms ~t_doms ~edges:(value_edges edges) in
  let q = Query.Bcq path_query in
  let want = kernel ~width_bound:0 q db in
  let n, deltas =
    with_counters [ "val_kernel.nat_cells" ] (fun () -> kernel q db)
  in
  Nat.equal want n
  && List.assoc "val_kernel.nat_cells" deltas > 0
  && (match edges with
     | [ e ] -> Nat.equal want (one_edge_closed_form ~r_doms ~t_doms e)
     | _ -> true)
  && List.for_all
       (fun jobs ->
         Nat.equal want (kernel ~jobs q db)
         && Nat.equal want (kernel ~cache_entries:0 ~jobs q db))
       job_levels

let test_overflow_closed_form () =
  let six d = List.init 6 (fun _ -> d) and four d = List.init 4 (fun _ -> d) in
  List.iter
    (fun ((r_doms, t_doms, _) as inst) ->
      Alcotest.(check bool)
        (Printf.sprintf "R doms %s, T doms %s"
           (String.concat "," (List.map string_of_int r_doms))
           (String.concat "," (List.map string_of_int t_doms)))
        true (overflow_agrees inst))
    [
      (* The 6+6 nulls of 40 values of testdata/overflow.idb. *)
      (six 40, six 40, [ (0, 1) ]);
      (* [v40] is outside r0's 30 values: r0 is unconstrained, and the
         indicator in the closed form is 0 for it. *)
      ([ 30; 45; 50; 60; 60; 60 ], six 60, [ (40, 0) ]);
      (* Mixed sizes whose root sum overflows from in-range cells: the
         carry into the Nat accumulator. *)
      ( [ 56; 47; 30; 31; 59; 53 ], [ 47; 56; 36; 43; 41; 38 ], [ (3, 5) ] );
      (* Every "other" bucket weighs 2^13, so the weights of five
         summed-out slots alone pass 2^62. *)
      (four 8193, four 8193, [ (0, 1) ]);
    ]

(* Sides of 5 or 6 nulls (11 or 12 in all) with per-null domain sizes
   drawn from 30..60, then raised smallest first until their product
   reaches 2^64 (60^11 > 2^64, so this ends); 1-3 edges between values
   below 30, inside every domain, so every null is constrained and the
   avoidance count — the root cell — is past 2^62. *)
let overflow_gen =
  QCheck.Gen.(
    int_range 5 6 >>= fun kr ->
    (if kr = 5 then return 6 else int_range 5 6) >>= fun kt ->
    list_repeat (kr + kt) (int_range 30 60) >>= fun doms ->
    int_range 1 3 >>= fun ne ->
    list_repeat ne (pair (int_range 0 29) (int_range 0 29)) >>= fun edges ->
    let doms = Array.of_list doms in
    let target = Nat.pow Nat.two 64 in
    while
      Nat.compare
        (Nat.product (Array.to_list (Array.map Nat.of_int doms)))
        target
      < 0
    do
      let i = ref 0 in
      Array.iteri (fun j d -> if d < doms.(!i) then i := j) doms;
      doms.(!i) <- doms.(!i) + 1
    done;
    return
      ( Array.to_list (Array.sub doms 0 kr),
        Array.to_list (Array.sub doms kr kt),
        List.sort_uniq compare edges ))

let prop_overflow_agrees =
  QCheck.Test.make ~count:15
    ~name:"counts past 2^62 = pure conditioning, jobs {1,2,4}, cache on/off"
    (QCheck.make
       ~print:(fun (r, t, e) ->
         let ints l = String.concat "," (List.map string_of_int l) in
         Printf.sprintf "R %s / T %s / edges %s" (ints r) (ints t)
           (String.concat " "
              (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) e)))
       overflow_gen)
    overflow_agrees

(* ------------------------------------------------------------------ *)
(* Product lineage: independent factors instead of conditioning        *)
(* ------------------------------------------------------------------ *)

(* #Val of [R(x), S(x,y), T(y)] when S holds every edge (a, b) with [a]
   in [rvals] and [b] in [tvals]: the lineage is an OR over the R-nulls
   times an OR over the T-nulls, so some R-null takes a value of [rvals]
   and some T-null one of [tvals], each side independently —
   (Π d_r − Π(d_r − |rvals ∩ dom r|)) · (the same for T).  Two edges
   sharing an endpoint and complete bicliques are its cases past
   {!one_edge_closed_form}. *)
let biclique_closed_form ~r_doms ~t_doms (rvals, tvals) =
  let side doms vals =
    let prod f = Nat.product (List.map (fun d -> Nat.of_int (f d)) doms) in
    Nat.sub (prod Fun.id)
      (prod (fun d -> d - List.length (List.filter (fun x -> x < d) vals)))
  in
  Nat.mul (side r_doms rvals) (side t_doms tvals)

let product_counters =
  [
    "val_kernel.product_splits";
    "val_kernel.conditioning_splits";
    "val_kernel.nat_cells";
    "val_kernel.bags";
  ]

(* Product-shaped path tables: every pair of [rvals] and [tvals] an S
   edge.  The kernel's count equals the closed form (and brute force on
   small tables) at jobs {1,2,4}, cache on and off, width bound 0 and
   default.  Past the width bound, and at width bound 0, the top
   component splits; at the default bound every factor is single-slot
   components the DP takes, so nothing conditions. *)
let product_agrees (r_doms, t_doms, (rvals, tvals)) =
  let edges =
    List.concat_map (fun a -> List.map (fun b -> (a, b)) tvals) rvals
  in
  let db = path_instance_doms ~r_doms ~t_doms ~edges:(value_edges edges) in
  let q = Query.Bcq path_query in
  let want = biclique_closed_form ~r_doms ~t_doms (rvals, tvals) in
  (* The nulls some edge value reaches form a K_{a,b} of width
     min(a, b) + 1. *)
  let reached doms vals =
    List.length (List.filter (fun d -> List.exists (fun x -> x < d) vals) doms)
  in
  let past_bound =
    min (reached r_doms rvals) (reached t_doms tvals)
    >= Val_kernel.default_width_bound
  in
  (match edges with
  | [ e ] -> Nat.equal want (one_edge_closed_form ~r_doms ~t_doms e)
  | _ -> true)
  && (Nat.compare (Idb.total_valuations db) (Nat.of_int 100_000) > 0
     || Nat.equal want (brute q db))
  && List.for_all
       (fun width_bound ->
         List.for_all
           (fun cache_entries ->
             List.for_all
               (fun jobs ->
                 let n, deltas =
                   with_counters product_counters (fun () ->
                       kernel ~width_bound ~cache_entries ~jobs q db)
                 in
                 let c name = List.assoc name deltas in
                 Nat.equal want n
                 && ((not (width_bound = 0 || past_bound))
                    || c "val_kernel.product_splits" > 0)
                 && (width_bound = 0 || c "val_kernel.conditioning_splits" = 0))
               job_levels)
           [ 0; Val_kernel.default_cache_entries ])
       [ 0; Val_kernel.default_width_bound ]

(* [k] nulls a side with domains of 3..5 values (the first null of each
   side holds 5, so every value below 4 is mentioned), and the edge
   values drawn below 4: one edge, two edges sharing an R or a T
   endpoint, or a complete biclique of 2-3 values a side.  Past the
   width bound k is 9..12; brute-checkable tables take k = 2..3. *)
let product_gen =
  QCheck.Gen.(
    bool >>= fun big ->
    let k = if big then int_range 9 12 else int_range 2 3 in
    pair k k >>= fun (kr, kt) ->
    let doms n = list_repeat n (int_range 3 5) >|= fun l -> 5 :: List.tl l in
    pair (doms kr) (doms kt) >>= fun (r_doms, t_doms) ->
    let vals n =
      shuffle_l [ 0; 1; 2; 3 ] >|= List.filteri (fun i _ -> i < n)
    in
    int_range 0 3 >>= fun shape ->
    (match shape with
    | 0 -> pair (vals 1) (vals 1)
    | 1 -> pair (vals 1) (vals 2)
    | 2 -> pair (vals 2) (vals 1)
    | _ -> pair (int_range 2 3) (int_range 2 3) >>= fun (a, b) ->
      pair (vals a) (vals b))
    >|= fun (rvals, tvals) ->
    (r_doms, t_doms, (List.sort compare rvals, List.sort compare tvals)))

let prop_product_agrees =
  QCheck.Test.make ~count:30
    ~name:
      "product path tables = closed form, jobs {1,2,4} x cache x width bound"
    (QCheck.make
       ~print:(fun (r, t, (rv, tv)) ->
         let ints l = String.concat "," (List.map string_of_int l) in
         Printf.sprintf "R %s / T %s / edges {%s} x {%s}" (ints r) (ints t)
           (ints rv) (ints tv))
       product_gen)
    product_agrees

let testdata name =
  match
    List.find_opt Sys.file_exists
      [ Filename.concat "../testdata" name; Filename.concat "testdata" name ]
  with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate testdata file " ^ name)

(* What the DP can take stays on the DP: overflow.idb's K_{6,6} one-edge
   lineage is a product, but its width 7 is in bounds, so it is
   eliminated (with Nat cells) and never split.  path_k14.idb's
   K_{14,14} is past the bound and splits, with no conditioning. *)
let test_product_testdata () =
  let q = Query.Bcq path_query in
  let run name =
    with_counters product_counters (fun () ->
        kernel q (Idb_parser.of_file (testdata name)))
  in
  let n, deltas = run "overflow.idb" in
  let c name = List.assoc name deltas in
  let side d k =
    Nat.sub (Nat.pow (Nat.of_int d) k) (Nat.pow (Nat.of_int (d - 1)) k)
  in
  check_nat "overflow.idb = (40^6 - 39^6)^2"
    (Nat.mul (side 40 6) (side 40 6))
    n;
  Alcotest.(check bool)
    "overflow.idb: Nat cells" true
    (c "val_kernel.nat_cells" >= 1);
  Alcotest.(check bool) "overflow.idb: bags" true (c "val_kernel.bags" >= 1);
  Alcotest.(check int)
    "overflow.idb: not split" 0
    (c "val_kernel.product_splits");
  let n, deltas = run "path_k14.idb" in
  let c name = List.assoc name deltas in
  check_nat "path_k14.idb = (4^14 - 3^14)^2"
    (Nat.mul (side 4 14) (side 4 14))
    n;
  Alcotest.(check bool)
    "path_k14.idb: split" true
    (c "val_kernel.product_splits" >= 1);
  Alcotest.(check int) "path_k14.idb: no conditioning" 0
    (c "val_kernel.conditioning_splits")

(* ------------------------------------------------------------------ *)
(* Cross-branch subproblem cache and the min-fill order                *)
(* ------------------------------------------------------------------ *)

let test_subproblem_cache () =
  (* Two S edges over a dense K_{k,k} clause structure: the conditioning
     branches leave value-isomorphic residual components, which is
     exactly what the canonical-form cache is meant to collapse. *)
  let db = path_instance ~k:4 ~d:3 ~edges:[ ("v0", "v1"); ("v2", "v0") ] in
  let q = Query.Bcq path_query in
  let reference = kernel ~cache_entries:0 q db in
  check_nat "cache on = cache off" reference (kernel q db);
  List.iter
    (fun jobs ->
      List.iter
        (fun order ->
          check_nat
            (Printf.sprintf "cache on, order=%s, jobs=%d"
               (Val_kernel.order_to_string order)
               jobs)
            reference
            (kernel ~order ~jobs q db);
          check_nat
            (Printf.sprintf "pure conditioning, order=%s, jobs=%d"
               (Val_kernel.order_to_string order)
               jobs)
            reference
            (kernel ~width_bound:0 ~order ~jobs q db))
        [ Val_kernel.Min_degree; Val_kernel.Min_fill ])
    job_levels;
  (* Pure conditioning maximizes branch count; the isomorphic residues
     must actually hit the cache, and a disabled cache must not. *)
  let (_ : Nat.t), deltas =
    with_counters
      [ "val_kernel.cache_hits"; "val_kernel.cache_misses" ]
      (fun () -> kernel ~width_bound:0 q db)
  in
  Alcotest.(check bool)
    "cache hits recorded" true
    (List.assoc "val_kernel.cache_hits" deltas > 0);
  Alcotest.(check bool)
    "cache misses recorded" true
    (List.assoc "val_kernel.cache_misses" deltas > 0);
  let (_ : Nat.t), deltas_off =
    with_counters
      [ "val_kernel.cache_hits"; "val_kernel.cache_misses" ]
      (fun () -> kernel ~width_bound:0 ~cache_entries:0 q db)
  in
  Alcotest.(check int) "disabled cache never hits" 0
    (List.assoc "val_kernel.cache_hits" deltas_off);
  Alcotest.(check int) "disabled cache never misses" 0
    (List.assoc "val_kernel.cache_misses" deltas_off);
  Alcotest.check_raises "negative cache size rejected"
    (Invalid_argument "Val_kernel.count: negative cache size") (fun () ->
      ignore (kernel ~cache_entries:(-1) q db))

let test_min_fill_order () =
  List.iter
    (fun (k, d, edges) ->
      let db = path_instance ~k ~d ~edges in
      let q = Query.Bcq path_query in
      let want = kernel q db in
      List.iter
        (fun jobs ->
          check_nat
            (Printf.sprintf "min-fill k=%d d=%d jobs=%d" k d jobs)
            want
            (kernel ~order:Val_kernel.Min_fill ~jobs q db))
        job_levels)
    [
      (2, 3, [ ("v0", "v1") ]);
      (4, 3, [ ("v0", "v1"); ("v2", "v0") ]);
      (5, 4, [ ("v0", "v1"); ("v2", "v3") ]);
    ]

let test_event_limit () =
  let db = figure1 () in
  let q = Query.Bcq (Cq.of_string "S(x,x)") in
  (match kernel q db with
  | _ -> ()
  | exception _ -> Alcotest.fail "default limit must admit Figure 1");
  match Val_kernel.count ~max_events:0 q db with
  | _ -> Alcotest.fail "expected Too_many_events"
  | exception Val_kernel.Too_many_events { events; limit } ->
    Alcotest.(check int) "limit payload" 0 limit;
    Alcotest.(check bool) "events payload positive" true (events > 0)

(* ------------------------------------------------------------------ *)
(* Spill-to-disk factor store                                          *)
(* ------------------------------------------------------------------ *)

let test_spill_agreement () =
  let db = path_instance ~k:4 ~d:3 ~edges:[ ("v0", "v1"); ("v2", "v0") ] in
  let q = Query.Bcq path_query in
  let reference = kernel ~spill:Val_kernel.Off q db in
  List.iter
    (fun jobs ->
      check_nat
        (Printf.sprintf "forced spill, jobs=%d" jobs)
        reference
        (kernel ~spill:Val_kernel.Force ~jobs q db);
      check_nat
        (Printf.sprintf "forced spill, cache off, jobs=%d" jobs)
        reference
        (kernel ~spill:Val_kernel.Force ~cache_entries:0 ~jobs q db);
      (* A 2-cell cap overflows every multi-slot message: Auto must
         rescue the component by spilling, Off must condition — both
         bit-identical to the unrestricted in-memory run. *)
      check_nat
        (Printf.sprintf "auto spill under a 2-cell cap, jobs=%d" jobs)
        reference
        (kernel ~spill:Val_kernel.Auto ~max_cells:2 ~jobs q db);
      check_nat
        (Printf.sprintf "conditioning under a 2-cell cap, jobs=%d" jobs)
        reference
        (kernel ~spill:Val_kernel.Off ~max_cells:2 ~jobs q db))
    job_levels;
  (* The forced run must actually touch the disk backend. *)
  let n, deltas =
    with_counters
      [
        "val_kernel.spilled_factors";
        "val_kernel.spill_bytes";
        "val_kernel.spill_read_bytes";
      ]
      (fun () -> kernel ~spill:Val_kernel.Force q db)
  in
  check_nat "forced spill count" reference n;
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " recorded") true
        (List.assoc name deltas > 0))
    [
      "val_kernel.spilled_factors";
      "val_kernel.spill_bytes";
      "val_kernel.spill_read_bytes";
    ];
  (* Counts past 2^62: the spilled blocks then mix int and Nat cells. *)
  let db = path_instance ~k:6 ~d:40 ~edges:[ ("v0", "v1"); ("v2", "v0") ] in
  let want = kernel ~spill:Val_kernel.Off q db in
  let n, deltas =
    with_counters
      [ "val_kernel.nat_cells"; "val_kernel.spilled_factors" ]
      (fun () -> kernel ~spill:Val_kernel.Force q db)
  in
  check_nat "overflowing instance, forced spill = spill off" want n;
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " recorded on the overflowing instance") true
        (List.assoc name deltas > 0))
    [ "val_kernel.nat_cells"; "val_kernel.spilled_factors" ]

let test_spill_cleanup () =
  let db = path_instance ~k:4 ~d:3 ~edges:[ ("v0", "v1") ] in
  let q = Query.Bcq path_query in
  let reference = kernel ~spill:Val_kernel.Off q db in
  with_temp_dir (fun dir ->
      let n, deltas =
        with_counters
          [ "val_kernel.spilled_factors" ]
          (fun () -> kernel ~spill:Val_kernel.Force ~spill_dir:dir q db)
      in
      check_nat "forced spill in a custom dir" reference n;
      Alcotest.(check bool)
        "factors spilled into the custom dir" true
        (List.assoc "val_kernel.spilled_factors" deltas > 0);
      check_empty_dir "no temp files survive a successful run" dir)

(* Mid-DP abort: a single-slot component whose only slot has reduced
   domain size 1 streams an estimated 16 bytes (one bag cell) but
   marshals to a 24-byte block (the 20-byte Marshal header, then the
   block record, its one-cell int array, the cell [0] and the empty
   side table of Nat cells at one byte each), so budgets 16..23 admit
   the component and the on_write hook then raises
   Spill_budget_exhausted from inside the DP — the injected exception
   of the cleanup contract.  Sweeping the budget covers all three
   regimes (admission refusal, mid-write abort, success) without
   hard-coding marshalling sizes; the abort regime is asserted to occur
   via its counter signature (bytes written, then conditioned). *)
let test_spill_budget_exhaustion () =
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "n1" ] ]
      (Idb.Nonuniform [ ("n1", [ "a" ]) ])
  in
  let q = Query.Bcq (Cq.of_string "R(x)") in
  let reference = kernel ~spill:Val_kernel.Off q db in
  with_temp_dir (fun dir ->
      let saw_mid_dp_abort = ref false in
      for budget = 1 to 64 do
        let n, deltas =
          with_counters
            [ "val_kernel.spill_bytes"; "val_kernel.conditioning_splits" ]
            (fun () ->
              kernel ~spill:Val_kernel.Force ~spill_dir:dir
                ~spill_budget_bytes:budget q db)
        in
        check_nat (Printf.sprintf "budget=%d count" budget) reference n;
        check_empty_dir
          (Printf.sprintf "budget=%d leaves no temp files" budget)
          dir;
        if
          List.assoc "val_kernel.spill_bytes" deltas > 0
          && List.assoc "val_kernel.conditioning_splits" deltas > 0
        then saw_mid_dp_abort := true
      done;
      Alcotest.(check bool)
        "some budget aborted mid-DP (bytes written, then conditioned)" true
        !saw_mid_dp_abort)

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let test_edge_cases () =
  let db = figure1 () in
  (* Satisfied by the constant fact alone: every valuation counts. *)
  check_nat "constant-satisfied query counts all valuations"
    (Idb.total_valuations db)
    (kernel (Query.Bcq (Cq.of_string "S(x,y)")) db);
  (* No matching relation: unsatisfiable, zero valuations. *)
  check_nat "unsatisfiable query counts none" Nat.zero
    (kernel (Query.Bcq (Cq.of_string "Z(x)")) db);
  check_nat "negated unsatisfiable counts all"
    (Idb.total_valuations db)
    (kernel (Query.Not (Query.Bcq (Cq.of_string "Z(x)"))) db);
  (* Semantic queries are opaque to lineage compilation. *)
  let opaque =
    Query.Semantic
      { Query.name = "always"; monotone = true; sem_eval = (fun _ -> true) }
  in
  Alcotest.(check bool) "semantic query declined" true
    (Val_kernel.count opaque db = None)

(* ------------------------------------------------------------------ *)
(* Randomized agreement with the brute-force oracle                    *)
(* ------------------------------------------------------------------ *)

let seeds_arb =
  QCheck.(
    make (Gen.pair (Gen.int_range 1 1_000_000) (Gen.int_range 1 1_000_000)))

let random_instance (qseed, dseed) =
  let q = Gen.random_sjfbcq ~seed:qseed in
  let db =
    Gen.random_idb ~seed:dseed ~schema:(Gen.schema_of_query q) ~rows:2
      ~codd:(dseed mod 2 = 0) ~uniform:(dseed mod 3 <> 0)
  in
  (q, db)

let prop_kernel_agrees =
  QCheck.Test.make ~count:80
    ~name:"kernel #Val = brute force for jobs in {1,2,4}" seeds_arb
    (fun seeds ->
      let q, db = random_instance seeds in
      QCheck.assume (Gen.manageable ~limit:20_000 db);
      let query = Query.Bcq q in
      let want = brute query db in
      List.for_all
        (fun jobs -> Nat.equal want (kernel ~jobs query db))
        job_levels)

let prop_kernel_not_agrees =
  QCheck.Test.make ~count:60
    ~name:"kernel #Val on Not q = brute force" seeds_arb
    (fun seeds ->
      let q, db = random_instance seeds in
      QCheck.assume (Gen.manageable ~limit:20_000 db);
      let query = Query.Not (Query.Bcq q) in
      Nat.equal (brute query db) (kernel query db))

let prop_kernel_union_agrees =
  QCheck.Test.make ~count:60
    ~name:"kernel #Val on unions = brute force" seeds_arb
    (fun (qseed, dseed) ->
      let q1 = Gen.random_sjfbcq ~seed:qseed in
      let q2 = Gen.random_sjfbcq ~seed:(qseed + 1) in
      let db =
        Gen.random_idb ~seed:dseed
          ~schema:(Gen.schema_of_query q1 @ Gen.schema_of_query q2)
          ~rows:2 ~codd:(dseed mod 2 = 0) ~uniform:(dseed mod 3 <> 0)
      in
      QCheck.assume (Gen.manageable ~limit:20_000 db);
      let query = Query.Union [ q1; q2 ] in
      Nat.equal (brute query db) (kernel query db))

let prop_kernel_tight_width =
  QCheck.Test.make ~count:40
    ~name:"width_bound 0 (pure conditioning) = default" seeds_arb
    (fun seeds ->
      let q, db = random_instance seeds in
      QCheck.assume (Gen.manageable ~limit:20_000 db);
      let query = Query.Bcq q in
      Nat.equal (kernel query db) (kernel ~width_bound:0 query db))

(* Directed at the conditioning "other" bucket: with only the (v0, v1)
   edge, every R-null mentions one value ([v0]) out of a domain of
   [d >= 3], so the aggregated rest-of-domain branch carries weight
   [d - 1 > 1] — precisely the weighted branch a plain mentioned-values
   split would miss.  width_bound 0 forces every component through it. *)
let prop_other_bucket_weight =
  QCheck.Test.make ~count:25
    ~name:"conditioning other-bucket weight (|dom| > |mentioned|)"
    QCheck.(make (Gen.pair (Gen.int_range 2 4) (Gen.int_range 3 5)))
    (fun (k, d) ->
      let db = path_instance ~k ~d ~edges:[ ("v0", "v1") ] in
      let q = Query.Bcq path_query in
      let want = brute q db in
      List.for_all
        (fun jobs ->
          Nat.equal want (kernel ~width_bound:0 ~jobs q db)
          && Nat.equal want
               (kernel ~width_bound:0 ~cache_entries:0 ~jobs q db))
        job_levels)

let prop_spill_agrees =
  QCheck.Test.make ~count:40
    ~name:"spill force/auto/off bit-identical for jobs in {1,2,4}" seeds_arb
    (fun seeds ->
      let q, db = random_instance seeds in
      QCheck.assume (Gen.manageable ~limit:20_000 db);
      let query = Query.Bcq q in
      let want = kernel ~spill:Val_kernel.Off query db in
      List.for_all
        (fun jobs ->
          Nat.equal want (kernel ~spill:Val_kernel.Force ~jobs query db)
          && Nat.equal want
               (kernel ~spill:Val_kernel.Auto ~max_cells:2 ~jobs query db)
          && Nat.equal want
               (kernel ~spill:Val_kernel.Off ~max_cells:1 ~jobs query db)
          && Nat.equal want
               (kernel ~spill:Val_kernel.Force ~cache_entries:0 ~jobs query db))
        job_levels)

let prop_cache_and_order_agree =
  QCheck.Test.make ~count:40
    ~name:"cache off = cache on = min-fill on random instances" seeds_arb
    (fun seeds ->
      let q, db = random_instance seeds in
      QCheck.assume (Gen.manageable ~limit:20_000 db);
      let query = Query.Bcq q in
      let want = kernel ~cache_entries:0 query db in
      Nat.equal want (kernel query db)
      && Nat.equal want (kernel ~order:Val_kernel.Min_fill query db)
      && Nat.equal want
           (kernel ~order:Val_kernel.Min_fill ~width_bound:1 query db))

let () =
  Alcotest.run "val_kernel"
    [
      ( "deterministic",
        [
          Alcotest.test_case "figure 1" `Quick test_figure1;
          Alcotest.test_case "dispatcher routes to kernel" `Quick
            test_dispatcher_takes_kernel;
          Alcotest.test_case "hard-pattern agreement" `Quick
            test_path_agreement;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "width-bound fallback" `Quick
            test_width_bound_fallback;
          Alcotest.test_case "typed event limit" `Quick test_event_limit;
        ] );
      ( "overflow",
        [
          Alcotest.test_case "checked int helpers" `Quick test_checked_arith;
          Alcotest.test_case "int and Nat cells in both backends" `Quick
            test_factor_store_cells;
          Alcotest.test_case "one edge past 2^62 = closed form" `Quick
            test_overflow_closed_form;
        ] );
      ( "product",
        [
          Alcotest.test_case "testdata: in bounds stays on the DP" `Quick
            test_product_testdata;
          QCheck_alcotest.to_alcotest prop_product_agrees;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cross-branch subproblem cache" `Quick
            test_subproblem_cache;
          Alcotest.test_case "min-fill order" `Quick test_min_fill_order;
        ] );
      ( "spill",
        [
          Alcotest.test_case "spill modes agree" `Quick test_spill_agreement;
          Alcotest.test_case "forced spill leaves no temp files" `Quick
            test_spill_cleanup;
          Alcotest.test_case "mid-DP budget exhaustion" `Quick
            test_spill_budget_exhaustion;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_kernel_agrees;
            prop_kernel_not_agrees;
            prop_kernel_union_agrees;
            prop_kernel_tight_width;
            prop_other_bucket_weight;
            prop_spill_agrees;
            prop_cache_and_order_agree;
            prop_overflow_agrees;
          ] );
    ]
