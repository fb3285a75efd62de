(* Lineage-driven elimination for #Comp.

   The enumerator (Comp_candidates) visits every surviving completion;
   this kernel counts them by DP instead, and extends past Codd tables.

   Correctness rests on the surjection characterization: fixing an
   assignment [a] of the shared nulls, S is a completion of the residual
   table iff every fact's ground image under [a] meets S (star) and S is
   saturated by a matching of candidates to distinct producing facts
   (the valuation is onto S).  The DP sweeps candidate bits in a
   window-closing order, deciding in/out per bit; per conditioning
   branch the state is the antichain of achievable free-fact sets over
   the currently open fact windows (matching feasibility is monotone in
   the free set, so maximal sets are exactly the information the future
   needs) plus a hit mask for the star condition.  Clause satisfaction
   of the compiled DNF is per-clause viability over clause windows.

   Non-Codd caveat: summing the per-branch counts would overcount —
   distinct shared assignments can yield the same completion (e.g.
   R(n), R(m), S(n), S(m) with (n,m) = (0,1) and (1,0)).  All branches
   therefore run jointly in one sweep; a subset is accepted when at
   least one branch is alive, so each completion counts once: the joint
   state is a function of the selected subset alone.  Branches whose
   producers agree on every remaining bit have the same future, and
   acceptance only asks for one live branch, so the state keeps, per
   such class, the set of its branches' sub-states.

   Determinism: the sweep is sequential, the frontier is an explicit
   array in first-reach order, families are interned behind canonical
   sorting, and Nat addition is exact — the count and every elim counter
   are invariant across the dispatcher's jobs, mask representation and
   cache on/off. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_relational
module Metrics = Incdb_obs.Metrics
module Events = Incdb_obs.Events
module WB = Bitset.Wide

type choice = Auto | Off | Force

let choice_to_string = function Auto -> "auto" | Off -> "off" | Force -> "force"

type infeasible =
  | Uncompilable_query
  | Universe_too_large of { universe : int; limit : int }
  | Too_many_branches of { branches : int; limit : int }
  | Width_exceeded of { width : int; bound : int }
  | Too_many_states of { states : int; limit : int }

exception Infeasible of infeasible

let infeasible_to_string = function
  | Uncompilable_query -> "query has no mask-DNF lineage"
  | Universe_too_large { universe; limit } ->
    Printf.sprintf "candidate universe exceeds %d ground facts (saw %d)" limit
      universe
  | Too_many_branches { branches; limit } ->
    Printf.sprintf "shared-null conditioning needs more than %d branches (at least %d)"
      limit branches
  | Width_exceeded { width; bound } ->
    Printf.sprintf "elimination width %d exceeds the bound %d" width bound
  | Too_many_states { states; limit } ->
    Printf.sprintf "DP frontier grew past %d states (%d)" limit states

let default_width_bound = 16
let default_max_branches = 64
let default_max_universe = 512
let default_max_states = 1 lsl 20
let default_max_cells = 1 lsl 16

(* Fact and clause window slots live in single-word masks. *)
let max_slots = 62

(* Registered eagerly so the kernel's activity always shows up in metric
   exports, at zero when it never ran. *)
let elim_dispatch = Metrics.counter "comp_kernel.elim_dispatch"
let elim_width_gauge = Metrics.gauge "comp_kernel.elim_width"
let clause_width_gauge = Metrics.gauge "comp_kernel.clause_width"
let cond_branches = Metrics.counter "comp_kernel.cond_branches"
let elim_states = Metrics.counter "comp_kernel.elim_states"
let elim_cache_hits = Metrics.counter "comp_kernel.elim_cache_hits"
let elim_cache_misses = Metrics.counter "comp_kernel.elim_cache_misses"
let elim_spilled = Metrics.counter "comp_kernel.elim_spilled_messages"
let elim_spill_bytes = Metrics.counter "comp_kernel.elim_spill_bytes"

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type step = {
  bag : int;  (* bags end after each step that closes a window *)
  enter_facts : int array;  (* fact windows opening before this bit *)
  enter_clauses : int array;
  producers : int array array;
      (* per branch class before this bit: the facts whose image in that
         class's branches contains it *)
  groups : int array array;
      (* per branch class after this bit: the classes before it that
         merge into it *)
  kill_clauses : int array;  (* clauses containing this bit *)
  exit_facts : int array;  (* windows closing after this bit *)
  exit_clauses : int array;
}

type plan = {
  m : int;  (* candidate bits *)
  nfacts : int;
  nclauses : int;
  nbranches : int;
  nshared : int;
  nclasses : int;  (* branch classes before the first bit *)
  steps : step array;
  width : int;  (* max simultaneously open fact windows *)
  cwidth : int;  (* max simultaneously open clause windows *)
  nbags : int;
  negated : bool;
  sat_all : bool;  (* no query: acceptance ignores clause state *)
  init_sat : bool;  (* an empty clause satisfies every completion *)
}

let plan_universe p = p.m
let plan_branches p = p.nbranches
let plan_width p = p.width
let plan_bags p = p.nbags

(* Window-closing sweep order.  The DP state lives on the open windows
   (fact images and clauses with some bits swept and some not), so the
   order keeps few of them open: finish the open window with the fewest
   unswept bits, taking first its bit that opens the fewest new windows
   net of those it closes (ties: the bit in more already-open windows,
   then the lowest bit).  With no window open, every unswept bit is a
   candidate under the same score. *)
let sweep_order m windows =
  let size w = Array.length windows.(w) in
  let of_bit = Array.make (max 1 m) [] in
  for w = Array.length windows - 1 downto 0 do
    Array.iter (fun b -> of_bit.(b) <- w :: of_bit.(b)) windows.(w)
  done;
  let left = Array.map Array.length windows in
  let swept = Array.make (max 1 m) false in
  let opened = ref [] in
  let best = ref (-1) and best_net = ref 0 and best_inside = ref 0 in
  let consider b =
    if not swept.(b) then begin
      let net = ref 0 and inside = ref 0 in
      List.iter
        (fun w ->
          if left.(w) = size w then (if size w > 1 then incr net)
          else begin
            incr inside;
            if left.(w) = 1 then decr net
          end)
        of_bit.(b);
      if
        !best < 0 || !net < !best_net
        || (!net = !best_net && !inside > !best_inside)
      then begin
        best := b;
        best_net := !net;
        best_inside := !inside
      end
    end
  in
  (* With no window open, every window of an unswept bit is unopened, so
     the score is the bit's number of multi-bit windows: a static order. *)
  let multi =
    Array.init m (fun b ->
        List.fold_left (fun n w -> if size w > 1 then n + 1 else n) 0 of_bit.(b))
  in
  let by_score = Array.init m Fun.id in
  Array.stable_sort (fun a b -> compare multi.(a) multi.(b)) by_score;
  let cursor = ref 0 in
  Array.init m (fun _ ->
      (match !opened with
      | [] ->
        while swept.(by_score.(!cursor)) do
          incr cursor
        done;
        best := by_score.(!cursor)
      | w0 :: ws ->
        let wmin =
          List.fold_left
            (fun a w -> if left.(w) < left.(a) || (left.(w) = left.(a) && w < a) then w else a)
            w0 ws
        in
        best := -1;
        Array.iter consider windows.(wmin));
      let b = !best in
      swept.(b) <- true;
      List.iter
        (fun w ->
          let l = left.(w) - 1 in
          left.(w) <- l;
          if l > 0 && l = size w - 1 then opened := w :: !opened
          else if l = 0 && size w > 1 then opened := List.filter (( <> ) w) !opened)
        of_bit.(b);
      b)

let build ?query ~width_bound ~max_branches ~max_universe db =
  let facts = Array.of_list (Idb.facts db) in
  let nf = Array.length facts in
  (* Shared nulls: more than one argument position across the table
     (two positions of the same fact count — R(n,n) must condition). *)
  let occ : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (f : Idb.fact) ->
      Array.iter
        (function
          | Term.Null n ->
            Hashtbl.replace occ n
              (1 + Option.value ~default:0 (Hashtbl.find_opt occ n))
          | Term.Const _ -> ())
        f.Idb.args)
    facts;
  let shared =
    List.filter
      (fun n -> Option.value ~default:0 (Hashtbl.find_opt occ n) >= 2)
      (Idb.nulls db)
  in
  let sdoms =
    Array.of_list
      (List.map (fun n -> (n, Array.of_list (Idb.domain_of db n))) shared)
  in
  let nshared = Array.length sdoms in
  let nbranches =
    Array.fold_left
      (fun acc (_, d) ->
        let acc = acc * Array.length d in
        if acc > max_branches then
          raise
            (Infeasible (Too_many_branches { branches = acc; limit = max_branches }));
        acc)
      1 sdoms
  in
  (* Branch b assigns shared null i the value asg.(b).(i): mixed-radix
     decode with the first shared null most significant. *)
  let asg = Array.make_matrix (max 1 nbranches) (max 1 nshared) "" in
  for b = 0 to nbranches - 1 do
    let x = ref b in
    for i = nshared - 1 downto 0 do
      let _, d = sdoms.(i) in
      asg.(b).(i) <- d.(!x mod Array.length d);
      x := !x / Array.length d
    done
  done;
  let shared_ix : (string, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri (fun i (n, _) -> Hashtbl.replace shared_ix n i) sdoms;
  (* Per-position grounding choices; a free null occurs in exactly one
     position, so the positional product never equates distinct vectors. *)
  let fact_choices =
    Array.map
      (fun (f : Idb.fact) ->
        Array.map
          (function
            | Term.Const c -> `Const c
            | Term.Null n -> (
              match Hashtbl.find_opt shared_ix n with
              | Some si -> `Shared si
              | None -> `Free (Array.of_list (Idb.domain_of db n))))
          f.Idb.args)
      facts
  in
  let bdep =
    Array.map
      (fun ch -> Array.exists (function `Shared _ -> true | _ -> false) ch)
      fact_choices
  in
  let iter_image f b yield =
    let ch = fact_choices.(f) in
    let k = Array.length ch in
    let out = Array.make k "" in
    let rec go i =
      if i = k then yield { Cdb.rel = facts.(f).Idb.rel; args = Array.copy out }
      else
        match ch.(i) with
        | `Const c ->
          out.(i) <- c;
          go (i + 1)
        | `Shared si ->
          out.(i) <- asg.(b).(si);
          go (i + 1)
        | `Free d ->
          Array.iter
            (fun v ->
              out.(i) <- v;
              go (i + 1))
            d
    in
    go 0
  in
  (* Candidate universe over all branches, with an early-exit cap: any
     single fact-branch image is duplicate-free, so the cap fires within
     max_universe + 1 yields of each sweep. *)
  let bit_of : (Cdb.fact, int) Hashtbl.t = Hashtbl.create 64 in
  let ulist = ref [] in
  let usize = ref 0 in
  let note g =
    if not (Hashtbl.mem bit_of g) then begin
      incr usize;
      if !usize > max_universe then
        raise
          (Infeasible (Universe_too_large { universe = !usize; limit = max_universe }));
      Hashtbl.replace bit_of g (-1);
      ulist := g :: !ulist
    end
  in
  for f = 0 to nf - 1 do
    if bdep.(f) then
      for b = 0 to nbranches - 1 do
        iter_image f b note
      done
    else iter_image f 0 note
  done;
  let universe = Array.of_list (List.sort Cdb.compare_fact !ulist) in
  let m = Array.length universe in
  Array.iteri (fun i g -> Hashtbl.replace bit_of g i) universe;
  (* Per-branch images as sorted bit arrays. *)
  let img_common = Array.make (max 1 nf) [||] in
  let img_branch = Array.make (max 1 nf) [||] in
  let bits_of f b =
    let l = ref [] in
    iter_image f b (fun g -> l := Hashtbl.find bit_of g :: !l);
    let a = Array.of_list !l in
    Array.sort compare a;
    a
  in
  for f = 0 to nf - 1 do
    if bdep.(f) then
      img_branch.(f) <- Array.init nbranches (fun b -> bits_of f b)
    else img_common.(f) <- bits_of f 0
  done;
  let unions =
    Array.init nf (fun f ->
        if not bdep.(f) then img_common.(f)
        else begin
          let seen = Array.make m false in
          Array.iter
            (Array.iter (fun i -> seen.(i) <- true))
            img_branch.(f);
          let l = ref [] in
          for i = m - 1 downto 0 do
            if seen.(i) then l := i :: !l
          done;
          Array.of_list !l
        end)
  in
  (* Compiled clause windows. *)
  let negated, clause_bits, sat_all =
    match query with
    | None -> (false, [||], true)
    | Some q -> (
      match Lineage.Wide.compile q universe with
      | None -> raise (Infeasible Uncompilable_query)
      | Some l ->
        let cl =
          Array.map
            (fun mask ->
              let bits = ref [] in
              WB.iter (fun i -> bits := i :: !bits) mask;
              Array.of_list (List.rev !bits))
            (Lineage.Wide.clauses l)
        in
        (Lineage.Wide.is_negated l, cl, false))
  in
  let init_sat =
    (not sat_all) && Array.exists (fun c -> Array.length c = 0) clause_bits
  in
  let clause_bits = if init_sat then [||] else clause_bits in
  let nclauses = Array.length clause_bits in
  let windows = Array.append unions clause_bits in
  let sweep = sweep_order m windows in
  let pos = Array.make (max 1 m) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) sweep;
  (* Window schedule. *)
  let window bits =
    Array.fold_left
      (fun (lo, hi) b -> (min lo pos.(b), max hi pos.(b)))
      (max_int, -1) bits
  in
  let enter_f = Array.make (max 1 m) []
  and exit_f = Array.make (max 1 m) []
  and enter_c = Array.make (max 1 m) []
  and exit_c = Array.make (max 1 m) [] in
  for f = nf - 1 downto 0 do
    let lo, hi = window unions.(f) in
    enter_f.(lo) <- f :: enter_f.(lo);
    exit_f.(hi) <- f :: exit_f.(hi)
  done;
  for c = nclauses - 1 downto 0 do
    let lo, hi = window clause_bits.(c) in
    enter_c.(lo) <- c :: enter_c.(lo);
    exit_c.(hi) <- c :: exit_c.(hi)
  done;
  let max_open enter exit =
    let active = ref 0 and w = ref 0 in
    for i = 0 to m - 1 do
      active := !active + List.length enter.(i);
      if !active > !w then w := !active;
      active := !active - List.length exit.(i)
    done;
    !w
  in
  let width = max_open enter_f exit_f in
  let width_cap = min width_bound max_slots in
  if width > width_cap then
    raise (Infeasible (Width_exceeded { width; bound = width_cap }));
  let cwidth = max_open enter_c exit_c in
  if cwidth > max_slots then
    raise (Infeasible (Width_exceeded { width = cwidth; bound = max_slots }));
  (* Producers per step: [common] for every branch, [extra] for the
     branches that the shared-null assignment makes produce the bit. *)
  let common = Array.make (max 1 m) [] in
  let extra = Array.make_matrix (max 1 m) nbranches [] in
  let nprod = Array.make (max 1 m) 0 in
  for f = nf - 1 downto 0 do
    if bdep.(f) then begin
      Array.iter (Array.iter (fun bit -> nprod.(bit) <- nprod.(bit) + 1)) img_branch.(f);
      Array.iteri
        (fun b img ->
          Array.iter
            (fun bit ->
              if nprod.(bit) < nbranches then
                extra.(pos.(bit)).(b) <- f :: extra.(pos.(bit)).(b))
            img)
        img_branch.(f);
      Array.iter
        (fun bit ->
          if nprod.(bit) = nbranches then common.(pos.(bit)) <- f :: common.(pos.(bit));
          nprod.(bit) <- 0)
        unions.(f)
    end
    else
      Array.iter
        (fun bit -> common.(pos.(bit)) <- f :: common.(pos.(bit)))
        img_common.(f)
  done;
  (* Branch classes: two branches whose producers agree on every step
     from bit i on have the same future, so the state before bit i keeps
     one pooled set of sub-states per class.  The backward pass interns
     (class after bit i, branch-specific producers at bit i); a class
     before bit i is therefore a subset of one class after it. *)
  let next = Array.make nbranches 0 and nnext = ref 1 in
  let producers = Array.make (max 1 m) [||] and groups = Array.make (max 1 m) [||] in
  for i = m - 1 downto 0 do
    let ids = Hashtbl.create 8 and reps = ref [] in
    let cls =
      Array.init nbranches (fun b ->
          let k = (next.(b), extra.(i).(b)) in
          match Hashtbl.find_opt ids k with
          | Some c -> c
          | None ->
            let c = Hashtbl.length ids in
            Hashtbl.add ids k c;
            reps := b :: !reps;
            c)
    in
    let reps = Array.of_list (List.rev !reps) in
    producers.(i) <-
      Array.map (fun b -> Array.of_list (List.merge compare common.(i) extra.(i).(b))) reps;
    let into = Array.make !nnext [] in
    for c = Array.length reps - 1 downto 0 do
      let t = next.(reps.(c)) in
      into.(t) <- c :: into.(t)
    done;
    groups.(i) <- Array.map Array.of_list into;
    Array.blit cls 0 next 0 nbranches;
    nnext := Array.length reps
  done;
  let kills = Array.make (max 1 m) [] in
  for c = nclauses - 1 downto 0 do
    Array.iter (fun bit -> kills.(pos.(bit)) <- c :: kills.(pos.(bit))) clause_bits.(c)
  done;
  let bag = ref 0 in
  let steps =
    Array.init m (fun i ->
        let s =
          {
            bag = !bag;
            enter_facts = Array.of_list enter_f.(i);
            enter_clauses = Array.of_list enter_c.(i);
            producers = producers.(i);
            groups = groups.(i);
            kill_clauses = Array.of_list kills.(i);
            exit_facts = Array.of_list exit_f.(i);
            exit_clauses = Array.of_list exit_c.(i);
          }
        in
        if exit_f.(i) <> [] || exit_c.(i) <> [] then incr bag;
        s)
  in
  {
    m;
    nfacts = nf;
    nclauses;
    nbranches;
    nshared;
    nclasses = !nnext;
    steps;
    width;
    cwidth;
    nbags = !bag;
    negated;
    sat_all;
    init_sat;
  }

let plan ?query ?(width_bound = default_width_bound)
    ?(max_branches = default_max_branches)
    ?(max_universe = default_max_universe) db =
  Events.with_span "comp_kernel.plan" (fun () ->
      try Ok (build ?query ~width_bound ~max_branches ~max_universe db)
      with Infeasible i -> Error i)

(* ------------------------------------------------------------------ *)
(* The sweep DP                                                        *)
(* ------------------------------------------------------------------ *)

(* Int-array keys hash by folding the whole array: the default
   polymorphic hash only examines a bounded prefix, which degenerates on
   long, similar state vectors. *)
module IntArrH = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) = a = b

  let hash (a : int array) =
    Array.fold_left (fun h x -> ((h * 1000003) + x) land max_int) (Array.length a) a
end)

type 'a vec = { mutable data : 'a array; mutable len : int }

let vec_create () = { data = [||]; len = 0 }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (max 64 (2 * v.len)) x in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

type counts = Mem of Nat.t array | Stored of Factor_store.t

(* Caller-owned transform memos: the family intern table and the three
   transform tables bundled together, so a long-lived process can keep
   them warm across runs of the same plan (the incdbd reuse hook).
   Every key is plan-relative (fact/clause window slots, family ids),
   so the bundle is only meaningful for one plan: [run] binds the memos
   to its plan on first use and silently clears them when handed a
   structurally different plan — stale reuse is impossible, and
   [build] is deterministic, so a repeat of the same (query, db) pair
   rebinds to an equal plan and keeps everything. *)
type memos = {
  mutable bound : plan option;
  mfam_tbl : int IntArrH.t;
  mfams : int array vec;
  mentry : (int, int) Hashtbl.t;
  minclude : (int * int, int) Hashtbl.t;
  mproject : (int, int) Hashtbl.t;
}

let memos_create () =
  {
    bound = None;
    mfam_tbl = IntArrH.create 256;
    mfams = vec_create ();
    mentry = Hashtbl.create 256;
    minclude = Hashtbl.create 1024;
    mproject = Hashtbl.create 256;
  }

let memos_clear ms =
  ms.bound <- None;
  IntArrH.reset ms.mfam_tbl;
  ms.mfams.len <- 0;
  Hashtbl.reset ms.mentry;
  Hashtbl.reset ms.minclude;
  Hashtbl.reset ms.mproject

let memos_length ms =
  Hashtbl.length ms.mentry + Hashtbl.length ms.minclude
  + Hashtbl.length ms.mproject

(* Sort the (family id, hit mask) pairs of a.(lo .. hi - 1) and drop
   duplicates in place; returns the number of distinct pairs.  A segment
   holds at most one pair per branch of its class, so insertion sort. *)
let sort_pairs a lo hi =
  let n = (hi - lo) / 2 in
  if n <= 1 then n
  else begin
    for i = 1 to n - 1 do
      let f = a.(lo + (2 * i)) and h = a.(lo + (2 * i) + 1) in
      let j = ref (lo + (2 * (i - 1))) in
      while !j >= lo && (a.(!j) > f || (a.(!j) = f && a.(!j + 1) > h)) do
        a.(!j + 2) <- a.(!j);
        a.(!j + 3) <- a.(!j + 1);
        j := !j - 2
      done;
      a.(!j + 2) <- f;
      a.(!j + 3) <- h
    done;
    let k = ref 1 in
    for i = 1 to n - 1 do
      let f = a.(lo + (2 * i)) and h = a.(lo + (2 * i) + 1) in
      let last = lo + (2 * (!k - 1)) in
      if f <> a.(last) || h <> a.(last + 1) then begin
        a.(last + 2) <- f;
        a.(last + 3) <- h;
        incr k
      end
    done;
    !k
  end

let run ?(max_states = default_max_states) ?(max_cells = default_max_cells)
    ?(cache = true) ?memos ?spill_dir p =
  Events.with_span "comp_kernel.run" (fun () ->
      Metrics.incr elim_dispatch;
      Metrics.set elim_width_gauge (float_of_int p.width);
      Metrics.set clause_width_gauge (float_of_int p.cwidth);
      if p.nshared > 0 then Metrics.incr cond_branches ~by:p.nbranches;
      let nb = p.nbranches in
      (* Family store: canonical antichains of free-fact-slot masks,
         interned to dense ids.  The transforms below are pure mask
         operations, so the memo tables are shared across branches and
         states — the canonical-form subproblem cache of the #Val
         kernel, at the mask level.  With caller-owned [memos] the
         tables also survive the run: they are rebound to this plan
         (clearing any state from a structurally different one), so a
         warm repeat replays every transform as a hit. *)
      let ms =
        match memos with
        | None -> memos_create ()
        | Some ms ->
          (match ms.bound with
          | Some p' when p' = p -> ()
          | Some _ -> memos_clear ms
          | None -> ());
          ms
      in
      ms.bound <- Some p;
      let fam_tbl = ms.mfam_tbl in
      let fams : int array vec = ms.mfams in
      let intern_fam a =
        match IntArrH.find_opt fam_tbl a with
        | Some id -> id
        | None ->
          let id = fams.len in
          vec_push fams a;
          IntArrH.replace fam_tbl a id;
          id
      in
      let fam0 = intern_fam [| 0 |] in
      (* Canonical form: maximal masks only (feasibility is monotone in
         the free set), sorted ascending. *)
      let canon l =
        let a = Array.of_list l in
        Array.sort
          (fun x y ->
            let c = compare (Lineage.popcount y) (Lineage.popcount x) in
            if c <> 0 then c else compare x y)
          a;
        let kept = vec_create () in
        Array.iter
          (fun mask ->
            let dominated = ref false in
            for i = 0 to kept.len - 1 do
              if (not !dominated) && mask land kept.data.(i) = mask then
                dominated := true
            done;
            if not !dominated then vec_push kept mask)
          a;
        let r = Array.sub kept.data 0 kept.len in
        Array.sort compare r;
        r
      in
      let memo tbl key compute =
        if not cache then compute ()
        else
          match Hashtbl.find_opt tbl key with
          | Some r ->
            Metrics.incr elim_cache_hits;
            r
          | None ->
            Metrics.incr elim_cache_misses;
            let r = compute () in
            Hashtbl.replace tbl key r;
            r
      in
      let entry_memo = ms.mentry in
      (* A fresh slot joins every achievable free set; the slot bit is
         set in no mask, so order and maximality are preserved as-is. *)
      let fam_entry fid slot =
        memo entry_memo ((fid * 64) + slot) (fun () ->
            intern_fam
              (Array.map (fun mask -> mask lor (1 lsl slot)) fams.data.(fid)))
      in
      let include_memo = ms.minclude in
      (* Match the included bit to one free producer: children are
         F \ {p} for p in pmask ∩ F; -1 when no family member can pay. *)
      let fam_include fid pmask =
        memo include_memo (fid, pmask) (fun () ->
            let l = ref [] in
            Array.iter
              (fun mask ->
                let avail = ref (mask land pmask) in
                while !avail <> 0 do
                  let pbit = !avail land - !avail in
                  avail := !avail land lnot pbit;
                  l := (mask land lnot pbit) :: !l
                done)
              fams.data.(fid);
            if !l = [] then -1 else intern_fam (canon !l))
      in
      let project_memo = ms.mproject in
      (* A closing window's slot no longer constrains the future: drop
         the coordinate (unmatched facts are allowed). *)
      let fam_project fid slot =
        memo project_memo ((fid * 64) + slot) (fun () ->
            intern_fam
              (canon
                 (Array.fold_left
                    (fun acc mask -> (mask land lnot (1 lsl slot)) :: acc)
                    [] fams.data.(fid))))
      in
      (* Window slot allocation: lowest free index, freed after the
         step that closes the window — deterministic and reusable. *)
      let fact_slot = Array.make (max 1 p.nfacts) (-1) in
      let fact_used = Array.make max_slots false in
      let clause_slot = Array.make (max 1 p.nclauses) (-1) in
      let clause_used = Array.make max_slots false in
      let alloc used =
        let rec go i = if used.(i) then go (i + 1) else (used.(i) <- true; i) in
        go 0
      in
      (* State key layout: [0] viable clause-slot mask, [1] sat flag,
         then per branch class of the step's partition the live
         sub-states of its branches as sorted, duplicate-free (family id,
         hit mask) pairs.  Each class's list is preceded by its pair
         count, except the last, whose length the key's gives — so a
         one-branch (Codd) plan keys [viable; sat; family; hit].  A dead
         branch drops out; a state with no live branch is not kept.  Once
         sat is set, viable is canonicalized to 0 so states that differ
         only in doomed clause bookkeeping merge. *)
      let init_key =
        Array.concat
          ([| 0; (if p.init_sat then 1 else 0) |]
          :: List.init p.nclasses (fun c ->
                 if c < p.nclasses - 1 then [| 1; fam0; 0 |] else [| fam0; 0 |]))
      in
      let keys = ref [| init_key |] in
      let counts = ref (Mem [| Nat.one |]) in
      let release_counts () =
        match !counts with Mem _ -> () | Stored f -> Factor_store.release f
      in
      let get_count i =
        match !counts with Mem a -> a.(i) | Stored f -> Factor_store.get f i
      in
      (* Scratch: [base] is the current state after window entries,
         [out] a child under construction (at most one pair and one count
         per branch, so 2 + 3·nb ints), and the base's class segments. *)
      let base = Array.make (2 + (3 * nb)) 0 and out = Array.make (2 + (3 * nb)) 0 in
      let seg_off = Array.make nb 0 and seg_len = Array.make nb 0 in
      let step i =
        let s = p.steps.(i) in
        let entry_slots =
          Array.map
            (fun f ->
              let sl = alloc fact_used in
              fact_slot.(f) <- sl;
              sl)
            s.enter_facts
        in
        let cl_entry =
          Array.fold_left
            (fun acc c ->
              let sl = alloc clause_used in
              clause_slot.(c) <- sl;
              acc lor (1 lsl sl))
            0 s.enter_clauses
        in
        let kill =
          Array.fold_left
            (fun acc c -> acc lor (1 lsl clause_slot.(c)))
            0 s.kill_clauses
        in
        let pm =
          Array.map
            (Array.fold_left (fun acc f -> acc lor (1 lsl fact_slot.(f))) 0)
            s.producers
        in
        let exit_slots = Array.map (fun f -> fact_slot.(f)) s.exit_facts in
        let cexit_slots = Array.map (fun c -> clause_slot.(c)) s.exit_clauses in
        let ncls = Array.length s.producers and nout = Array.length s.groups in
        let next_tbl = IntArrH.create (max 16 (2 * Array.length !keys)) in
        let next_keys : int array vec = vec_create () in
        let next_counts : Nat.t vec = vec_create () in
        let emit key cnt =
          match IntArrH.find_opt next_tbl key with
          | Some ix -> next_counts.data.(ix) <- Nat.add next_counts.data.(ix) cnt
          | None ->
            IntArrH.replace next_tbl key next_keys.len;
            vec_push next_keys key;
            vec_push next_counts cnt
        in
        (* One child of [base]: the bit included (each class matches it
           to a free producer) or excluded, then the window exits, with
           the surviving sub-states regrouped by the classes after this
           bit; emitted unless every branch died. *)
        let child inc viable cnt =
          out.(0) <- viable;
          out.(1) <- base.(1);
          let w = ref 2 and alive = ref false in
          for t = 0 to nout - 1 do
            let lenpos = !w in
            if t < nout - 1 then incr w;
            let start = !w in
            let srcs = s.groups.(t) in
            for g = 0 to Array.length srcs - 1 do
              let c = srcs.(g) in
              let pmc = pm.(c) in
              if (not inc) || pmc <> 0 then
                for j = 0 to seg_len.(c) - 1 do
                  let fi = seg_off.(c) + (2 * j) in
                  let fam = ref (if inc then fam_include base.(fi) pmc else base.(fi)) in
                  let hit = ref (base.(fi + 1) lor if inc then pmc else 0) in
                  let e = ref 0 in
                  while !fam >= 0 && !e < Array.length exit_slots do
                    let sl = exit_slots.(!e) in
                    let bit = 1 lsl sl in
                    if !hit land bit = 0 then
                      (* star violated: the fact's image misses the subset *)
                      fam := -1
                    else begin
                      hit := !hit land lnot bit;
                      fam := fam_project !fam sl
                    end;
                    incr e
                  done;
                  if !fam >= 0 then begin
                    out.(!w) <- !fam;
                    out.(!w + 1) <- !hit;
                    w := !w + 2
                  end
                done
            done;
            let n = sort_pairs out start !w in
            w := start + (2 * n);
            if t < nout - 1 then out.(lenpos) <- n;
            if n > 0 then alive := true
          done;
          if !alive then begin
            Array.iter
              (fun sl ->
                let bit = 1 lsl sl in
                if out.(0) land bit <> 0 then out.(1) <- 1;
                out.(0) <- out.(0) land lnot bit)
              cexit_slots;
            if out.(1) = 1 then out.(0) <- 0;
            emit (Array.sub out 0 !w) cnt
          end
        in
        let cur = !keys in
        for si = 0 to Array.length cur - 1 do
          let k = cur.(si) in
          let kl = Array.length k in
          Array.blit k 0 base 0 kl;
          (* Locate the class segments; an entering window joins every
             sub-state's free sets. *)
          let q = ref 2 in
          for c = 0 to ncls - 1 do
            let n =
              if c = ncls - 1 then (kl - !q) / 2
              else begin
                incr q;
                base.(!q - 1)
              end
            in
            seg_off.(c) <- !q;
            seg_len.(c) <- n;
            for j = 0 to n - 1 do
              let fi = !q + (2 * j) in
              for e = 0 to Array.length entry_slots - 1 do
                base.(fi) <- fam_entry base.(fi) entry_slots.(e)
              done
            done;
            q := !q + (2 * n)
          done;
          if base.(1) = 0 then base.(0) <- base.(0) lor cl_entry;
          let cnt = get_count si in
          (* exclude the bit: clauses containing it die *)
          child false (base.(0) land lnot kill) cnt;
          child true base.(0) cnt
        done;
        Array.iter
          (fun f ->
            fact_used.(fact_slot.(f)) <- false;
            fact_slot.(f) <- -1)
          s.exit_facts;
        Array.iter
          (fun c ->
            clause_used.(clause_slot.(c)) <- false;
            clause_slot.(c) <- -1)
          s.exit_clauses;
        release_counts ();
        let n = next_keys.len in
        if n > max_states then begin
          keys := [||];
          counts := Mem [||];
          raise (Infeasible (Too_many_states { states = n; limit = max_states }))
        end;
        keys := Array.sub next_keys.data 0 n;
        counts := Mem (Array.sub next_counts.data 0 n);
        Metrics.incr elim_states ~by:n
      in
      let nsteps = Array.length p.steps in
      Fun.protect ~finally:release_counts (fun () ->
          let i = ref 0 in
          while !i < nsteps do
            let bag = p.steps.(!i).bag in
            let states_in = Array.length !keys in
            Events.with_span "comp_kernel.bag"
              ~args:
                [
                  ("bag", Events.Int bag);
                  ("states", Events.Int states_in);
                ]
              (fun () ->
                while !i < nsteps && p.steps.(!i).bag = bag do
                  step !i;
                  incr i
                done);
            (* Bag boundary: the frontier is the separator message; past
               the cell budget its counts go through the factor store
               (disk-backed), read back streamily by the next bag. *)
            if !i < nsteps && Array.length !keys > max_cells then begin
              match !counts with
              | Stored _ -> ()
              | Mem arr ->
                let w =
                  Factor_store.create ~spill:true ?dir:spill_dir
                    ~on_write:(fun bytes ->
                      Metrics.incr elim_spill_bytes ~by:bytes)
                    (Factor_store.make_meta ~scope:[| 0 |]
                       ~sizes:[| Array.length arr |])
                in
                (try Array.iter (Factor_store.append w) arr
                 with e ->
                   Factor_store.abort w;
                   raise e);
                counts := Stored (Factor_store.finish w);
                Metrics.incr elim_spilled
            end
          done;
          (* Accept: every kept state has a live branch (the subset is
             a completion of at least one shared assignment — counted
             once); the clause verdict must match the query's polarity. *)
          let total = ref Nat.zero in
          Array.iteri
            (fun si key ->
              if p.sat_all || (key.(1) = 1) <> p.negated then
                total := Nat.add !total (get_count si))
            !keys;
          !total))

let count ?query ?width_bound ?max_branches ?max_universe ?max_states
    ?max_cells ?cache ?memos ?spill_dir db =
  match plan ?query ?width_bound ?max_branches ?max_universe db with
  | Error i -> raise (Infeasible i)
  | Ok p -> run ?max_states ?max_cells ?cache ?memos ?spill_dir p
