open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
module Metrics = Incdb_obs.Metrics
module Events = Incdb_obs.Events
module Log = Incdb_obs.Log
module Iset = Set.Make (Int)

(* Hoisted flight-recorder args for the per-lookup cache instants: the
   cache probe is the kernel's hottest event site, and a literal list
   there would allocate even with observability disabled. *)
let cache_hit_args = [ ("cache", Events.Str "hit") ]
let cache_miss_args = [ ("cache", Events.Str "miss") ]

exception Too_many_events of { events : int; limit : int }

let () =
  Printexc.register_printer (function
    | Too_many_events { events; limit } ->
      Some
        (Printf.sprintf
           "Val_kernel.Too_many_events { events = %d; limit = %d }" events
           limit)
    | _ -> None)

let default_width_bound = 8
let default_max_events = 4096
let default_cache_entries = 1 lsl 16

(* Largest factor table the DP materializes in memory; a separator
   message beyond this spills to disk (policy permitting) instead of
   forcing the component into conditioning. *)
let default_max_cells = 1 lsl 20

(* Ceiling on the bytes a DP may stream through spilled tables before
   the component falls back to conditioning. *)
let default_spill_budget_bytes = 1 lsl 30

type order = Min_degree | Min_fill

let order_to_string = function
  | Min_degree -> "min-degree"
  | Min_fill -> "min-fill"

type spill = Auto | Off | Force

let spill_to_string = function
  | Auto -> "auto"
  | Off -> "off"
  | Force -> "force"

(* Registered eagerly so the kernel's activity always shows up in metric
   exports, at zero when it never ran. *)
let events_compiled = Metrics.counter "val_kernel.events_compiled"
let width_counter = Metrics.counter "val_kernel.width"
let factors_merged = Metrics.counter "val_kernel.factors_merged"
let conditioning_splits = Metrics.counter "val_kernel.conditioning_splits"
let slots_eliminated = Metrics.counter "val_kernel.slots_eliminated"
let cache_hits = Metrics.counter "val_kernel.cache_hits"
let cache_misses = Metrics.counter "val_kernel.cache_misses"
let bags_processed = Metrics.counter "val_kernel.bags"
let treedec_width_gauge = Metrics.gauge "treedec.width"

(* ------------------------------------------------------------------ *)
(* Reduced domains                                                     *)
(* ------------------------------------------------------------------ *)

(* Within one connected component of clauses, a slot's values split into
   the values some clause mentions (each its own reduced value) and one
   aggregated "other" value of weight [|dom| - |mentioned|]: the clauses
   cannot tell the unmentioned values apart, so the factor tables shrink
   from the domain size to the mention count plus one. *)
type cctx = {
  dom : int array;  (* per slot, its full domain size *)
  vals : (int, int array) Hashtbl.t;  (* per slot, sorted mentioned values *)
}

let mentioned_values clauses =
  let sets = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      Array.iter
        (fun (s, v) ->
          let cur = Option.value ~default:Iset.empty (Hashtbl.find_opt sets s) in
          Hashtbl.replace sets s (Iset.add v cur))
        c)
    clauses;
  let out = Hashtbl.create 16 in
  Hashtbl.iter
    (fun s vs -> Hashtbl.replace out s (Array.of_list (Iset.elements vs)))
    sets;
  out

let red_size ctx j =
  let m = Array.length (Hashtbl.find ctx.vals j) in
  if ctx.dom.(j) > m then m + 1 else m

(* Weight of reduced value [r] of slot [j]: mentioned values come first
   (weight 1 each), the trailing "other" bucket aggregates the rest. *)
let red_weight ctx j r =
  let m = Array.length (Hashtbl.find ctx.vals j) in
  if r < m then Nat.one else Nat.of_int (ctx.dom.(j) - m)

let red_index ctx j v =
  let vals = Hashtbl.find ctx.vals j in
  let rec go lo hi =
    if lo >= hi then invalid_arg "Val_kernel.red_index: unmentioned value"
    else
      let mid = (lo + hi) / 2 in
      if vals.(mid) = v then mid
      else if vals.(mid) < v then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length vals)

(* ------------------------------------------------------------------ *)
(* Elimination order                                                   *)
(* ------------------------------------------------------------------ *)

(* Saturating cell-count product, so simulating a wide cluster cannot
   overflow the machine int (anything past the cap is "too big" anyway). *)
let cells_mul ~cap a b = if a > cap / b then cap + 1 else a * b

(* Slot-interaction adjacency (slots adjacent when co-fixed by a
   clause), shared by both heuristic simulations — values are immutable
   [Iset]s, so a [Hashtbl.copy] is a safe snapshot. *)
let build_adjacency slots clauses =
  let adj = Hashtbl.create 16 in
  Array.iter (fun j -> Hashtbl.replace adj j Iset.empty) slots;
  Array.iter
    (fun c ->
      Array.iter
        (fun (a, _) ->
          Array.iter
            (fun (b, _) ->
              if a <> b then
                Hashtbl.replace adj a (Iset.add b (Hashtbl.find adj a)))
            c)
        c)
    clauses;
  adj

(* Greedy elimination-order simulation: returns the order, the induced
   width (max cluster size) and the largest factor-table cell count the
   elimination would materialize.  [pick] chooses the next slot to
   eliminate; both heuristics break ties on the smallest slot index (the
   [Iset] fold visits slots ascending and [<=] keeps the first minimum),
   so each order — and with it every count and metric — is
   deterministic.  Consumes [adj]. *)
let simulate_order ~max_cells pick ctx adj slots =
  let remaining = ref (Iset.of_list (Array.to_list slots)) in
  let order = ref [] in
  let width = ref 0 in
  let cells = ref 1 in
  while not (Iset.is_empty !remaining) do
    let j = pick !remaining adj in
    let nbrs = Hashtbl.find adj j in
    let cluster = Iset.add j nbrs in
    width := max !width (Iset.cardinal cluster);
    cells :=
      max !cells
        (Iset.fold
           (fun s acc -> cells_mul ~cap:max_cells acc (red_size ctx s))
           cluster 1);
    Iset.iter
      (fun a ->
        Hashtbl.replace adj a
          (Iset.remove j
             (Iset.union (Hashtbl.find adj a) (Iset.remove a nbrs))))
      nbrs;
    Hashtbl.remove adj j;
    remaining := Iset.remove j !remaining;
    order := j :: !order
  done;
  (List.rev !order, !width, !cells)

let pick_min_degree remaining adj =
  Iset.fold
    (fun j acc ->
      let dj = Iset.cardinal (Hashtbl.find adj j) in
      match acc with
      | Some (_, d) when d <= dj -> acc
      | _ -> Some (j, dj))
    remaining None
  |> Option.get |> fst

(* Min-fill: eliminate the slot whose neighborhood needs the fewest new
   edges to become a clique (degree is the secondary criterion). *)
let pick_min_fill remaining adj =
  Iset.fold
    (fun j acc ->
      let nbrs = Hashtbl.find adj j in
      let deg = Iset.cardinal nbrs in
      let fill =
        Iset.fold
          (fun a acc ->
            let adj_a = Hashtbl.find adj a in
            Iset.fold
              (fun b acc ->
                if b > a && not (Iset.mem b adj_a) then acc + 1 else acc)
              nbrs acc)
          nbrs 0
      in
      match acc with
      | Some (_, cost) when cost <= (fill, deg) -> acc
      | _ -> Some (j, (fill, deg)))
    remaining None
  |> Option.get |> fst

(* [Min_fill] simulates both heuristics and keeps whichever induces the
   smaller (width, cells) — min-fill usually wins on dense interaction
   graphs but can lose on trees, and the point of the flag is a
   width-minimizing order, so the mode is never worse than min-degree.
   Ties keep min-degree, preserving the historical order.

   Components of at most two slots have a forced order (ascending, both
   heuristics agree), so they skip the simulations — and the larger
   components build the interaction adjacency once and snapshot it
   between the two runs instead of reconstructing it. *)
let elimination_order ?(heuristic = Min_degree) ~max_cells ctx slots clauses =
  let n = Array.length slots in
  if n <= 2 then begin
    let adjacent =
      n = 2
      && Array.exists
           (fun c ->
             Array.exists (fun (s, _) -> s = slots.(0)) c
             && Array.exists (fun (s, _) -> s = slots.(1)) c)
           clauses
    in
    let width = if n = 0 then 0 else if adjacent then 2 else 1 in
    let cells =
      if n = 0 then 1
      else if adjacent then
        cells_mul ~cap:max_cells (red_size ctx slots.(0))
          (red_size ctx slots.(1))
      else Array.fold_left (fun acc s -> max acc (red_size ctx s)) 1 slots
    in
    (Array.to_list slots, width, cells)
  end
  else begin
    let base = build_adjacency slots clauses in
    let run pick adj = simulate_order ~max_cells pick ctx adj slots in
    match heuristic with
    | Min_degree -> run pick_min_degree base
    | Min_fill ->
      let (_, wd, cd) as by_degree = run pick_min_degree (Hashtbl.copy base) in
      let (_, wf, cf) as by_fill = run pick_min_fill base in
      if (wf, cf) < (wd, cd) then by_fill else by_degree
  end

(* ------------------------------------------------------------------ *)
(* Tree-decomposition DP with a pluggable factor store                 *)
(* ------------------------------------------------------------------ *)

(* Raised by the spill-budget hook mid-write; the DP's cleanup deletes
   every temp file and the component falls back to conditioning. *)
exception Spill_budget_exhausted

(* Where the DP keeps its separator messages. *)
type store_mode = All_memory | Spill_large | Spill_all

let store_mode_to_string = function
  | All_memory -> "memory"
  | Spill_large -> "spill-large"
  | Spill_all -> "spill-all"

(* Rough serialized footprint of one table cell, for budget admission
   only (most cells are one-digit Nats). *)
let est_cell_bytes = 16

let sat_add a b =
  let cap = max_int / 2 in
  if a > cap - b then cap else a + b

(* Bytes the DP would stream through its bag joins (every bag cell is
   visited once), the admission-time proxy for both work and disk. *)
let estimate_stream_bytes ctx td =
  let cell_cap = max_int / (2 * est_cell_bytes) in
  Array.fold_left
    (fun acc bag ->
      let cells =
        Array.fold_left
          (fun c s -> cells_mul ~cap:cell_cap c (red_size ctx s))
          1 bag
      in
      sat_add acc (cells * est_cell_bytes))
    0 td.Treedec.bags

(* Does the assignment in [digits] (indexed by bag position) extend some
   clause of [cls]?  Clauses are (bag position, reduced digit) pairs.
   Plain recursive helpers so the per-cell hot path allocates nothing. *)
let clause_matches digits cl =
  let n = Array.length cl in
  let rec go t =
    t >= n
    ||
    let p, r = cl.(t) in
    digits.(p) = r && go (t + 1)
  in
  go 0

let any_clause digits cls =
  let n = Array.length cls in
  let rec go t = t < n && (clause_matches digits cls.(t) || go (t + 1)) in
  go 0

(* Index into a child message for the current bag assignment. *)
let kid_index digits poss strides =
  let idx = ref 0 in
  for t = 0 to Array.length poss - 1 do
    idx := !idx + (digits.(poss.(t)) * strides.(t))
  done;
  !idx

(* Advance the digits at bag positions [poss] (fastest first) one step,
   wrapping at the end. *)
let advance digits sizes poss =
  let n = Array.length poss in
  let rec go t =
    if t < n then begin
      let p = poss.(t) in
      if digits.(p) + 1 < sizes.(p) then digits.(p) <- digits.(p) + 1
      else begin
        digits.(p) <- 0;
        go (t + 1)
      end
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Connected components                                                *)
(* ------------------------------------------------------------------ *)

(* Split the clauses into connected components of the slot-interaction
   graph, each with its sorted slot set, ordered by smallest slot: the
   components share no slot, so their avoidance counts multiply. *)
let components clauses =
  let parent = Hashtbl.create 16 in
  let rec find x =
    let p = Hashtbl.find parent x in
    if p = x then x
    else begin
      let r = find p in
      Hashtbl.replace parent x r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent (max ra rb) (min ra rb)
  in
  Array.iter
    (fun c ->
      Array.iter
        (fun (s, _) ->
          if not (Hashtbl.mem parent s) then Hashtbl.replace parent s s)
        c;
      Array.iter (fun (s, _) -> union (fst c.(0)) s) c)
    clauses;
  let groups = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      let r = find (fst c.(0)) in
      let cls, old_slots =
        Option.value ~default:([], Iset.empty) (Hashtbl.find_opt groups r)
      in
      let slots =
        Array.fold_left (fun acc (s, _) -> Iset.add s acc) old_slots c
      in
      Hashtbl.replace groups r (c :: cls, slots))
    clauses;
  Hashtbl.fold (fun r (cls, slots) acc -> (r, cls, slots) :: acc) groups []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.map (fun (_, cls, slots) ->
         ( Array.of_list (List.rev cls),
           Array.of_list (Iset.elements slots) ))

(* ------------------------------------------------------------------ *)
(* Cross-branch subproblem cache                                       *)
(* ------------------------------------------------------------------ *)

(* Component avoidance counts keyed on {!Lineage.canonical_fixes} of the
   component's clauses (canonical clause array + per-canonical-slot
   domain sizes): the conditioning fallback re-solves structurally
   identical residual components once per branch — in K_{k,k} lineage
   every mentioned-value branch collapses to isomorphic singleton
   residues, and whole dense sub-biclique components recur across
   branches — so one shared table across the recursion (including the
   outermost parallel split) collapses that duplication.

   Sharing across pool domains is a mutex around the table only: lookups
   and insertions are brief, the solving between them runs unlocked.
   Two branches may race to solve the same key; both compute the same
   exact [Nat], so the last [replace] is harmless and counts stay
   bit-identical at every job count (only the hit/miss split can vary
   with the schedule).  The table stops absorbing new entries at
   [capacity] — no eviction, so memory is bounded and what was cached
   early (the widest-shared shallow subproblems) stays cached. *)
type cache = {
  table : ((int * int) array array * int array, Nat.t) Hashtbl.t;
  lock : Mutex.t;
  capacity : int;
}

let cache_create capacity =
  if capacity < 1 then
    invalid_arg "Val_kernel.cache_create: capacity must be at least 1";
  { table = Hashtbl.create 256; lock = Mutex.create (); capacity }

(* Entries key on canonical clause structure plus reduced-domain sizes —
   nothing ties them to one database — so a caller-owned cache can
   outlive a single [count] call and keep subproblem counts warm across
   requests (the incdbd reuse path).  Clearing keeps the capacity and
   the handle valid. *)
let cache_clear cache =
  Mutex.protect cache.lock (fun () -> Hashtbl.reset cache.table)

let cache_length cache =
  Mutex.protect cache.lock (fun () -> Hashtbl.length cache.table)

let cache_find cache key =
  Mutex.protect cache.lock (fun () -> Hashtbl.find_opt cache.table key)

let cache_add cache key n =
  Mutex.protect cache.lock (fun () ->
      if Hashtbl.length cache.table < cache.capacity then
        Hashtbl.replace cache.table key n)

(* Per-call solver configuration, threaded through the recursion.
   [spill_spent] is shared across every branch and pool domain, so the
   budget bounds the call's total spill traffic, not per-component. *)
type scfg = {
  width_bound : int;
  max_cells : int;
  heuristic : order;
  cache : cache option;
  spill : spill;
  spill_dir : string option;
  spill_budget : int;
  spill_spent : int Atomic.t;
}

(* ------------------------------------------------------------------ *)
(* Bag-local joins over the decomposition                              *)
(* ------------------------------------------------------------------ *)

(* DP over the rooted clique tree: per bag in postorder, stream the
   upward message over the parent separator — for each separator cell
   (outer loop, so writes are sequential) sum over the bag's remaining
   digits the product of the child messages, a zero indicator for any
   clause joined at this bag, and the reduced weights of the summed-out
   slots.  Each slot is marginalized exactly once (at its topmost bag,
   by the running intersection property), so the root's single cell is
   the component's avoidance count.

   Nothing but separator messages is ever materialized: the bag table
   itself exists one cell at a time, which is what lets an oversized
   message become a disk stream (see {!Factor_store}) instead of a
   conditioning fallback.  Every factor and any open writer is released
   by the [Fun.protect] below, so temp files never outlive the call,
   exceptional or not. *)
let eliminate_treedec cfg ctx mode td clauses =
  let m = Treedec.bag_count td in
  let children = Array.make m [] in
  Array.iteri
    (fun i p -> if p >= 0 then children.(p) <- i :: children.(p))
    td.Treedec.parent;
  Array.iteri (fun i l -> children.(i) <- List.rev l) children;
  (* Each clause joins at the first postorder bag covering its slots —
     any covering bag is sound, a fixed one keeps runs deterministic. *)
  let bag_clauses = Array.make m [] in
  Array.iter
    (fun c ->
      let rec find k =
        let b = td.Treedec.postorder.(k) in
        let bag = td.Treedec.bags.(b) in
        if Array.for_all (fun (s, _) -> Array.mem s bag) c then b
        else find (k + 1)
      in
      let b = find 0 in
      bag_clauses.(b) <- c :: bag_clauses.(b))
    clauses;
  Array.iteri (fun i l -> bag_clauses.(i) <- List.rev l) bag_clauses;
  let msgs : Factor_store.t option array = Array.make m None in
  let live = ref [] in
  let open_writer = ref None in
  let budget_hook delta =
    let before = Atomic.fetch_and_add cfg.spill_spent delta in
    if before + delta > cfg.spill_budget then raise Spill_budget_exhausted
  in
  let process i =
    let bag = td.Treedec.bags.(i) in
    let k = Array.length bag in
    let sizes = Array.map (red_size ctx) bag in
    let pos_of s =
      let rec go lo hi =
        let mid = (lo + hi) / 2 in
        if bag.(mid) = s then mid
        else if bag.(mid) < s then go (mid + 1) hi
        else go lo mid
      in
      go 0 k
    in
    let sep = Treedec.separator td i in
    let sep_pos = Array.map pos_of sep in
    let sep_sizes = Array.map (fun p -> sizes.(p)) sep_pos in
    let sep_cells = Array.fold_left ( * ) 1 sep_sizes in
    let in_sep = Array.make k false in
    Array.iter (fun p -> in_sep.(p) <- true) sep_pos;
    let kids =
      List.map
        (fun j -> match msgs.(j) with Some f -> f | None -> assert false)
        children.(i)
    in
    (* Per child: bag position and stride of each of its scope slots. *)
    let kid_access =
      Array.of_list
        (List.map
           (fun f ->
             let fm = Factor_store.meta f in
             let n = Array.length fm.Factor_store.scope in
             let poss = Array.make n 0 and strides = Array.make n 0 in
             let stride = ref 1 in
             Array.iteri
               (fun t s ->
                 poss.(t) <- pos_of s;
                 strides.(t) <- !stride;
                 stride := !stride * fm.Factor_store.sizes.(t))
               fm.Factor_store.scope;
             (f, poss, strides))
           kids)
    in
    (* Summed-out positions, fastest first.  When a spilled child is in
       play, the largest one's low-stride slots go fastest so its block
       reads stay near-sequential; otherwise ascending. *)
    let inner =
      let all = ref [] in
      for p = k - 1 downto 0 do
        if not in_sep.(p) then all := p :: !all
      done;
      let all = !all in
      let big =
        Array.fold_left
          (fun acc (f, poss, _) ->
            if not (Factor_store.spilled f) then acc
            else
              let b = Factor_store.byte_size f in
              match acc with
              | Some (_, b') when b' >= b -> acc
              | _ -> Some (poss, b))
          None kid_access
      in
      match big with
      | None -> Array.of_list all
      | Some (poss, _) ->
        let hot =
          List.filter (fun p -> not in_sep.(p)) (Array.to_list poss)
        in
        let cold = List.filter (fun p -> not (List.mem p hot)) all in
        Array.of_list (hot @ cold)
    in
    let inner_cells = Array.fold_left (fun c p -> c * sizes.(p)) 1 inner in
    (* A summed-out slot's weight differs from 1 only on its trailing
       "other" digit; precompute that one weight per slot. *)
    let other_w =
      Array.map
        (fun p ->
          let s = bag.(p) in
          let mv = Array.length (Hashtbl.find ctx.vals s) in
          if ctx.dom.(s) > mv then Some (red_weight ctx s mv) else None)
        inner
    in
    let cls =
      Array.of_list
        (List.map
           (fun c ->
             Array.map (fun (s, v) -> (pos_of s, red_index ctx s v)) c)
           bag_clauses.(i))
    in
    let spill_this =
      match mode with
      | All_memory -> false
      | Spill_all -> true
      | Spill_large -> sep_cells > cfg.max_cells
    in
    let run () =
      let w =
        Factor_store.create ~spill:spill_this ?dir:cfg.spill_dir
          ~on_write:budget_hook
          (Factor_store.make_meta ~scope:sep ~sizes:sep_sizes)
      in
      open_writer := Some w;
      let digits = Array.make k 0 in
      for _out = 0 to sep_cells - 1 do
        Array.iter (fun p -> digits.(p) <- 0) inner;
        let acc = ref Nat.zero in
        for _in = 0 to inner_cells - 1 do
          if not (any_clause digits cls) then begin
            let v = ref Nat.one in
            let t = ref 0 in
            let nk = Array.length kid_access in
            while (not (Nat.is_zero !v)) && !t < nk do
              let f, poss, strides = kid_access.(!t) in
              v := Nat.mul !v (Factor_store.get f (kid_index digits poss strides));
              incr t
            done;
            if not (Nat.is_zero !v) then begin
              for t = 0 to Array.length inner - 1 do
                match other_w.(t) with
                | Some ow when digits.(inner.(t)) = sizes.(inner.(t)) - 1 ->
                  v := Nat.mul !v ow
                | _ -> ()
              done;
              acc := Nat.add !acc !v
            end
          end;
          advance digits sizes inner
        done;
        Factor_store.append w !acc;
        advance digits sizes sep_pos
      done;
      let f = Factor_store.finish w in
      open_writer := None;
      live := f :: !live;
      msgs.(i) <- Some f;
      (* A consumed child's table is dead; reclaim its file now. *)
      List.iter Factor_store.release kids;
      Metrics.incr bags_processed;
      Metrics.incr factors_merged ~by:(List.length kids + Array.length cls);
      Metrics.incr slots_eliminated ~by:(k - Array.length sep)
    in
    Events.with_span "val_kernel.bag"
      ~args:
        [
          ("bag", Events.Int i);
          ("slots", Events.Int k);
          ("cells", Events.Int (sep_cells * inner_cells));
          ("sep_cells", Events.Int sep_cells);
          ("spilled", Events.Int (if spill_this then 1 else 0));
        ]
      run
  in
  Fun.protect
    ~finally:(fun () ->
      (match !open_writer with
      | Some w ->
        open_writer := None;
        Factor_store.abort w
      | None -> ());
      List.iter Factor_store.release !live)
    (fun () ->
      Array.iter process td.Treedec.postorder;
      match msgs.(td.Treedec.postorder.(m - 1)) with
      | Some f -> Factor_store.get f 0
      | None -> assert false)

(* ------------------------------------------------------------------ *)
(* The solver: #assignments avoiding every clause                      *)
(* ------------------------------------------------------------------ *)

(* [solve cfg dom clauses live] counts the assignments of the slots
   [live] that extend no clause ([clauses] is minimal and mentions only
   live slots).  Slots fixed by no clause contribute their full domain
   size; each connected component is either eliminated by the
   tree-decomposition DP (induced width within bounds, message tables in
   memory or spilled per policy) or split by conditioning on its
   highest-degree slot.  The conditioning branches of the outermost
   split run on the pool when [jobs <> 1]; branches and components are
   always combined in a fixed order, so totals are bit-identical at
   every job count. *)
let rec solve cfg ~jobs dom clauses live =
  if Array.exists (fun c -> Array.length c = 0) clauses then Nat.zero
  else begin
    let constrained = Iset.of_list (Array.to_list (Lineage.fixes_slots clauses)) in
    let free_w =
      Array.fold_left
        (fun acc j ->
          if Iset.mem j constrained then acc
          else Nat.mul acc (Nat.of_int dom.(j)))
        Nat.one live
    in
    if Array.length clauses = 0 then free_w
    else
      List.fold_left
        (fun acc (cls, slots) ->
          if Nat.is_zero acc then acc
          else Nat.mul acc (solve_component cfg ~jobs dom cls slots))
        free_w (components clauses)
  end

(* Cache wrapper: canonicalize the component, consult the shared table,
   only solve on a miss.  The canonical key is what makes branches
   share: residues that differ only in slot names or in which concrete
   values survived the split collapse to one entry. *)
and solve_component cfg ~jobs dom clauses slots =
  if Incdb_obs.Runtime.enabled () then
    Events.instant "val_kernel.component"
      ~args:
        [
          ("slots", Events.Int (Array.length slots));
          ("clauses", Events.Int (Array.length clauses));
        ];
  match cfg.cache with
  | None -> solve_component_uncached cfg ~jobs dom clauses slots
  | Some cache ->
    let key =
      Events.with_span "val_kernel.canonicalize" (fun () ->
          Lineage.canonical_fixes clauses ~dom:(fun j -> dom.(j)))
    in
    (match cache_find cache key with
    | Some n ->
      Metrics.incr cache_hits;
      Events.instant "val_kernel.cache" ~args:cache_hit_args;
      n
    | None ->
      Metrics.incr cache_misses;
      Events.instant "val_kernel.cache" ~args:cache_miss_args;
      let n = solve_component_uncached cfg ~jobs dom clauses slots in
      cache_add cache key n;
      n)

(* Mode decision per component.  [Off] preserves the seed behavior:
   in-bounds components run the DP with in-memory tables, the rest
   condition.  [Auto] additionally rescues components whose width is
   within bound but whose tables exceed [max_cells] — exactly the
   regime the seed kernel lost to conditioning — by spilling oversized
   messages, provided the estimated stream stays inside what is left of
   the spill budget.  [Force] spills every message (a test and
   measurement mode); the width bound is then advisory, only the budget
   gates admission.  An exhausted budget (estimated up front or hit
   mid-DP by the write hook) falls back to conditioning, so disk and
   time stay bounded whatever the instance. *)
and solve_component_uncached cfg ~jobs dom clauses slots =
  let ctx = { dom; vals = mentioned_values clauses } in
  let order, width, cells =
    elimination_order ~heuristic:cfg.heuristic ~max_cells:cfg.max_cells ctx
      slots clauses
  in
  let in_bounds = width <= cfg.width_bound && cells <= cfg.max_cells in
  let mode =
    match cfg.spill with
    | Off -> if in_bounds then Some All_memory else None
    | Auto ->
      if in_bounds then Some All_memory
      else if width <= cfg.width_bound then Some Spill_large
      else None
    | Force -> Some Spill_all
  in
  let dp =
    match mode with
    | None -> None
    | Some m ->
      let td =
        Events.with_span "val_kernel.treedec" (fun () ->
            Treedec.build ~order
              ~cliques:(Array.map (fun c -> Array.map fst c) clauses))
      in
      let admitted =
        match m with
        | All_memory -> true
        | Spill_large | Spill_all ->
          estimate_stream_bytes ctx td
          <= cfg.spill_budget - Atomic.get cfg.spill_spent
      in
      if admitted then Some (m, td) else None
  in
  match dp with
  | Some (m, td) -> (
    match
      Events.with_span "val_kernel.eliminate_component"
        ~args:
          [
            ("width", Events.Int width);
            ("cells", Events.Int cells);
            ("slots", Events.Int (Array.length slots));
            ("clauses", Events.Int (Array.length clauses));
            ("bags", Events.Int (Treedec.bag_count td));
            ("store", Events.Str (store_mode_to_string m));
          ]
        (fun () -> eliminate_treedec cfg ctx m td clauses)
    with
    | n ->
      Metrics.incr width_counter ~by:width;
      Metrics.set treedec_width_gauge (float_of_int td.Treedec.width);
      n
    | exception Spill_budget_exhausted ->
      Log.debugf
        "val_kernel: spill budget exhausted mid-DP (%d-slot component); \
         falling back to conditioning"
        (Array.length slots);
      Events.instant "val_kernel.spill_budget_exhausted";
      condition_component cfg ~jobs dom ctx clauses slots width)
  | None -> condition_component cfg ~jobs dom ctx clauses slots width

(* Condition on the highest-degree slot (ties: smallest index): one
   branch per mentioned value plus one aggregated "other" branch, each a
   strictly smaller subproblem re-minimized and re-split. *)
and condition_component cfg ~jobs dom ctx clauses slots width =
  Metrics.incr conditioning_splits;
  let degree j =
    let nbrs =
      Array.fold_left
        (fun acc c ->
          if Array.exists (fun (s, _) -> s = j) c then
            Array.fold_left (fun a (s, _) -> Iset.add s a) acc c
          else acc)
        Iset.empty clauses
    in
    Iset.cardinal (Iset.remove j nbrs)
  in
  let j =
    Array.fold_left
      (fun acc s ->
        match acc with
        | Some (_, d) when d >= degree s -> acc
        | _ -> Some (s, degree s))
      None slots
    |> Option.get |> fst
  in
  let mvals = Hashtbl.find ctx.vals j in
  let m = Array.length mvals in
  let dj = dom.(j) in
  let rest =
    Array.of_list (List.filter (fun s -> s <> j) (Array.to_list slots))
  in
  let branch v () =
    match Lineage.condition_fixes clauses ~slot:j ~value:v with
    | None -> Nat.zero
    | Some cls -> solve cfg ~jobs:1 dom (Lineage.minimal_fixes cls) rest
  in
  let other () =
    solve cfg ~jobs:1 dom (Lineage.drop_slot_fixes clauses ~slot:j) rest
  in
  let tasks =
    Array.to_list (Array.map branch mvals)
    @ (if dj > m then [ other ] else [])
  in
  let results =
    Events.with_span "val_kernel.condition"
      ~args:
        [
          ("slot", Events.Int j);
          ("branches", Events.Int (List.length tasks));
          ("width", Events.Int width);
        ]
      (fun () ->
        if jobs <> 1 then Incdb_par.Pool.run ~jobs tasks
        else List.map (fun t -> t ()) tasks)
  in
  let acc = ref Nat.zero in
  List.iteri
    (fun i r ->
      let w = if i < m then Nat.one else Nat.of_int (dj - m) in
      acc := Nat.add !acc (Nat.mul w r))
    results;
  !acc

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let rec strip_negations negated = function
  | Query.Not q -> strip_negations (not negated) q
  | q -> (negated, q)

let count ?(width_bound = default_width_bound)
    ?(max_events = default_max_events) ?(max_cells = default_max_cells)
    ?(order = Min_degree) ?(cache_entries = default_cache_entries) ?cache
    ?(spill = Auto) ?spill_dir
    ?(spill_budget_bytes = default_spill_budget_bytes) ?(jobs = 1) q db =
  if width_bound < 0 then
    invalid_arg "Val_kernel.count: negative width bound";
  if max_events < 0 then
    invalid_arg "Val_kernel.count: negative event limit";
  if max_cells < 1 then
    invalid_arg "Val_kernel.count: max_cells must be at least 1";
  if cache_entries < 0 then
    invalid_arg "Val_kernel.count: negative cache size";
  if spill_budget_bytes < 0 then
    invalid_arg "Val_kernel.count: negative spill budget";
  match strip_negations false q with
  | _, Query.Semantic _ -> None
  | negated, core ->
    Events.with_span "val_kernel.count" (fun () ->
        let evs =
          Events.with_span "val_kernel.compile_events" (fun () ->
              Array.of_list (Incdb_approx.Karp_luby.events core db))
        in
        let n = Array.length evs in
        if n > max_events then
          raise (Too_many_events { events = n; limit = max_events });
        Metrics.incr events_compiled ~by:n;
        Events.instant "val_kernel.compiled" ~args:[ ("events", Events.Int n) ];
        let clauses =
          Lineage.minimal_fixes (Incdb_approx.Karp_luby.encode_fixes evs db)
        in
        let dom =
          Array.of_list
            (List.map
               (fun nm -> List.length (Idb.domain_of db nm))
               (Idb.nulls db))
        in
        let live = Array.init (Array.length dom) Fun.id in
        Log.debugf
          "val_kernel: %d events, %d minimal clauses over %d nulls (%s order, \
           %s spill)"
          n (Array.length clauses) (Array.length dom) (order_to_string order)
          (spill_to_string spill);
        let cfg =
          {
            width_bound;
            max_cells;
            heuristic = order;
            (* A caller-owned [?cache] survives this call — entries key
               on canonical clause structure plus domain sizes, so
               nothing ties them to one database and cross-call reuse
               is sound (incdbd holds one per server).  Otherwise one
               fresh table per call: memory bounded by the query, no
               invalidation story needed. *)
            cache =
              (match cache with
              | Some c -> Some c
              | None ->
                if cache_entries = 0 then None
                else Some (cache_create cache_entries));
            spill;
            spill_dir;
            spill_budget = spill_budget_bytes;
            spill_spent = Atomic.make 0;
          }
        in
        let avoid =
          Events.with_span "val_kernel.eliminate" (fun () ->
              solve cfg ~jobs dom clauses live)
        in
        let total = Idb.total_valuations db in
        Some (if negated then avoid else Nat.sub total avoid))
