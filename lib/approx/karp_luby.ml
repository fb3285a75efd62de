open Incdb_bignum
open Incdb_cq
open Incdb_incomplete

type event = { partial : (string * string) list; size : Nat.t }

module Sset = Set.Make (String)

(* Candidate constants for a term under a homomorphism target. *)
let term_candidates db = function
  | Term.Const c -> [ c ]
  | Term.Null n -> Idb.domain_of db n

(* Match candidates of one BCQ disjunct: for every choice of one fact per
   atom and every consistent homomorphism, the induced partial valuation
   of the nulls involved. *)
let cq_events ?(neqs = []) cq db =
  let atoms = Array.of_list cq in
  let m = Array.length atoms in
  let facts_per_atom =
    Array.map
      (fun (a : Cq.atom) ->
        List.filter
          (fun (f : Idb.fact) -> Array.length f.Idb.args = Array.length a.Cq.vars)
          (Idb.facts_of db a.Cq.rel))
      atoms
  in
  let results = ref [] in
  (* Choose facts for atoms one by one, narrowing per-variable candidate
     sets; then assign variables and induce the partial valuation. *)
  let rec choose_facts i chosen =
    if i = m then assign_vars (List.rev chosen)
    else
      List.iter (fun f -> choose_facts (i + 1) (f :: chosen)) facts_per_atom.(i)
  and assign_vars chosen =
    (* Collect (variable, term) constraints across all atoms. *)
    let constraints = ref [] in
    List.iteri
      (fun i (f : Idb.fact) ->
        Array.iteri
          (fun j v -> constraints := (v, f.Idb.args.(j)) :: !constraints)
          atoms.(i).Cq.vars)
      chosen;
    let vars =
      List.sort_uniq String.compare (List.map fst !constraints)
    in
    let candidates_of v =
      List.filter_map (fun (v', t) -> if v = v' then Some t else None) !constraints
      |> List.map (fun t -> Sset.of_list (term_candidates db t))
      |> function
      | [] -> Sset.empty
      | s :: rest -> List.fold_left Sset.inter s rest
    in
    (* Enumerate h variable by variable, building the induced partial
       valuation and checking null consistency; [hvals] records h itself so
       that inequality atoms can be checked at the leaves. *)
    let rec go vars hvals sigma =
      match vars with
      | [] ->
        let neq_ok =
          List.for_all
            (fun (x, y) -> List.assoc_opt x hvals <> List.assoc_opt y hvals)
            neqs
        in
        if neq_ok then results := List.sort Stdlib.compare sigma :: !results
      | v :: rest ->
        let terms_of_v =
          List.filter_map (fun (v', t) -> if v = v' then Some t else None)
            !constraints
        in
        Sset.iter
          (fun c ->
            (* Extend sigma with null := c for every null position of v. *)
            let rec extend sigma = function
              | [] -> Some sigma
              | Term.Const c' :: rest ->
                if c' = c then extend sigma rest else None
              | Term.Null n :: rest ->
                (match List.assoc_opt n sigma with
                | Some c' -> if c' = c then extend sigma rest else None
                | None -> extend ((n, c) :: sigma) rest)
            in
            match extend sigma terms_of_v with
            | Some sigma' -> go rest ((v, c) :: hvals) sigma'
            | None -> ())
          (candidates_of v)
    in
    go vars [] []
  in
  if Array.exists (fun fs -> fs = []) facts_per_atom then []
  else begin
    choose_facts 0 [];
    !results
  end

let event_size db partial =
  let fixed = List.map fst partial in
  Nat.product
    (List.filter_map
       (fun n ->
         if List.mem n fixed then None
         else Some (Nat.of_int (List.length (Idb.domain_of db n))))
       (Idb.nulls db))

module Metrics = Incdb_obs.Metrics
module Obs_events = Incdb_obs.Events
module Log = Incdb_obs.Log

let events_built = Metrics.counter "karp_luby.events_built"
let samples_drawn = Metrics.counter "karp_luby.samples_drawn"
let coverage_hits = Metrics.counter "karp_luby.coverage_hits"
let estimate_latency = Metrics.histogram "karp_luby.estimate_ns"
let running_estimate = Metrics.gauge "karp_luby.running_estimate"

let events q db =
  Obs_events.with_span "karp_luby.build_events" (fun () ->
      let collect = function
        | Query.Bcq cq -> cq_events cq db
        | Query.Union cqs -> List.concat_map (fun cq -> cq_events cq db) cqs
        | Query.Bcq_neq (cq, neqs) -> cq_events ~neqs cq db
        | Query.Not _ | Query.Semantic _ ->
          invalid_arg "Karp_luby.events: only monotone (unions of) BCQs"
      in
      let sigmas = List.sort_uniq Stdlib.compare (collect q) in
      Metrics.incr events_built ~by:(List.length sigmas);
      List.map (fun partial -> { partial; size = event_size db partial }) sigmas)

(* ------------------------------------------------------------------ *)
(* Compiled events: the sampler's inner loop on ints                   *)
(* ------------------------------------------------------------------ *)

(* Nulls become slots (indices into [Idb.nulls] order), values become
   indices into the slot's domain array (domains are duplicate-free, so
   the encoding is bijective), and an event becomes a slot-sorted
   [(slot, value)] array — the {!Lineage} slot-assignment clause form.
   The per-sample first-cover scan then compares machine ints on arrays
   instead of walking string association lists. *)
type compiled = {
  cevents : event array;
  cweights : float array;
  ctotal : float;
  cdomains : string array array; (* per slot, in [Idb.nulls] order *)
  cfixes : (int * int) array array; (* per event: sorted (slot, value) *)
}

(* Per-event encodings over the nulls of [db]. *)
let encode_fixes evs db =
  let nulls = Array.of_list (Idb.nulls db) in
  let slot_of = Hashtbl.create 16 in
  Array.iteri (fun j n -> Hashtbl.replace slot_of n j) nulls;
  let index_of =
    Array.map
      (fun n ->
        let h = Hashtbl.create 8 in
        List.iteri (fun k c -> Hashtbl.replace h c k) (Idb.domain_of db n);
        h)
      nulls
  in
  Array.map
    (fun e ->
      List.map
        (fun (n, c) ->
          let s = Hashtbl.find slot_of n in
          (s, Hashtbl.find index_of.(s) c))
        e.partial
      |> List.sort Stdlib.compare |> Array.of_list)
    evs

let compile q db =
  let cevents = Array.of_list (events q db) in
  let cdomains =
    Array.of_list
      (List.map (fun n -> Array.of_list (Idb.domain_of db n)) (Idb.nulls db))
  in
  let cfixes = encode_fixes cevents db in
  let cweights = Array.map (fun e -> Nat.to_float e.size) cevents in
  let ctotal = Array.fold_left ( +. ) 0. cweights in
  { cevents; cweights; ctotal; cdomains; cfixes }

let compiled_size c = Array.length c.cevents
let compiled_total_weight c = c.ctotal
let compiled_events c = c.cevents

(* One estimator step.  The RNG is consumed exactly as the uncompiled
   loop did — [Sampling.weighted_index] on the same weight array, then one
   [Random.State.int] per free null in [Idb.nulls] order — so estimates
   are bit-identical to the pre-compilation sampler for any seed. *)
let sample_hit c st =
  let i = Sampling.weighted_index st c.cweights in
  let n = Array.length c.cdomains in
  let vals = Array.make n (-1) in
  Array.iter (fun (s, v) -> vals.(s) <- v) c.cfixes.(i);
  for j = 0 to n - 1 do
    if Array.unsafe_get vals j < 0 then
      vals.(j) <- Random.State.int st (Array.length c.cdomains.(j))
  done;
  let covers f = Array.for_all (fun (s, v) -> Array.unsafe_get vals s = v) f in
  let rec first j = if covers c.cfixes.(j) then j else first (j + 1) in
  first 0 = i

let run_estimator ~seed ~samples q db =
  if samples <= 0 then invalid_arg "Karp_luby.estimate: need positive samples";
  let c = compile q db in
  if compiled_size c = 0 then None
  else begin
    let total_weight = c.ctotal in
    let st = Random.State.make [| seed |] in
    let hits = ref 0 in
    (* Snapshot the running estimate ~16 times over the run so a trace
       shows how (badly) the estimator is converging. *)
    let snap_every = max 1 (samples / 16) in
    Obs_events.with_span "karp_luby.sample" (fun () ->
        for s = 1 to samples do
          Metrics.incr samples_drawn;
          if sample_hit c st then begin
            Metrics.incr coverage_hits;
            incr hits
          end;
          if s mod snap_every = 0 then begin
            Metrics.set running_estimate
              (total_weight *. float_of_int !hits /. float_of_int s);
            (* One timeline event per batch of [snap_every] samples, so
               a trace shows the estimator's cadence and convergence
               without an event per draw. *)
            Obs_events.instant "karp_luby.sample_batch"
              ~args:
                [
                  ("samples", Obs_events.Int s);
                  ("hits", Obs_events.Int !hits);
                ]
          end
        done);
    let rate = float_of_int !hits /. float_of_int samples in
    Log.debugf "karp_luby: %d events, %d/%d canonical hits, estimate %.6g"
      (compiled_size c) !hits samples (total_weight *. rate);
    Some (total_weight, rate)
  end

let estimate ~seed ~samples q db =
  if samples <= 0 then invalid_arg "Karp_luby.estimate: need positive samples";
  Metrics.time estimate_latency (fun () ->
      Obs_events.with_span "karp_luby.estimate" (fun () ->
          match run_estimator ~seed ~samples q db with
          | None -> 0.
          | Some (total_weight, rate) -> total_weight *. rate))

(* 95% Wilson score half-width for a Bernoulli rate estimated from
   [samples] draws.  The naive normal-approximation standard error
   [sqrt (p (1-p) / n)] collapses to a zero-width interval at p ∈ {0, 1}
   — exactly where a coverage estimator most needs honest uncertainty
   (every sample hit, or none did).  The Wilson interval keeps width
   ~ z²/(n + z²) at the endpoints, so the half-width is strictly
   positive for any finite sample count.  Returned relative to the point
   estimate [rate]: [rate ± half-width] covers the Wilson interval. *)
let wilson_half_width ~samples rate =
  let z = 1.96 in
  let n = float_of_int samples in
  let z2 = z *. z in
  let denom = n +. z2 in
  let center = ((rate *. n) +. (z2 /. 2.)) /. denom in
  let spread =
    z *. sqrt ((rate *. (1. -. rate) *. n) +. (z2 /. 4.)) /. denom
  in
  let lo = Float.max 0. (center -. spread) in
  let hi = Float.min 1. (center +. spread) in
  Float.max (rate -. lo) (hi -. rate)

let estimate_with_ci ~seed ~samples q db =
  if samples <= 0 then invalid_arg "Karp_luby.estimate: need positive samples";
  Obs_events.with_span "karp_luby.estimate" (fun () ->
      match run_estimator ~seed ~samples q db with
      | None -> (0., 0.)
      | Some (total_weight, rate) ->
        (total_weight *. rate, total_weight *. wilson_half_width ~samples rate))

exception Sample_budget_overflow of { epsilon : float; events : int }

let () =
  Printexc.register_printer (function
    | Sample_budget_overflow { epsilon; events } ->
      Some
        (Printf.sprintf
           "Karp_luby.Sample_budget_overflow: 4 * %d / %g^2 samples do not \
            fit a machine int"
           events epsilon)
    | _ -> None)

let samples_for ~epsilon ~events =
  if epsilon <= 0. then invalid_arg "Karp_luby.samples_for: epsilon <= 0";
  if events < 0 then invalid_arg "Karp_luby.samples_for: negative events";
  let budget = ceil (4. *. float_of_int events /. (epsilon *. epsilon)) in
  (* [float_of_int max_int] rounds up to 2^62, one past max_int, and
     [int_of_float] is unspecified from there on — a tiny epsilon must
     fail loudly, not wrap into a garbage (even negative) budget. *)
  if not (Float.is_finite budget) || budget >= float_of_int max_int then
    raise (Sample_budget_overflow { epsilon; events });
  int_of_float budget

(* Extend [sigma] with one event's bindings, or [None] on conflict. *)
let rec add_partial sigma = function
  | [] -> Some sigma
  | (n, c) :: rest -> (
    match List.assoc_opt n sigma with
    | Some c' -> if c = c' then add_partial sigma rest else None
    | None -> add_partial ((n, c) :: sigma) rest)

let popcount mask =
  let rec pop m acc = if m = 0 then acc else pop (m land (m - 1)) (acc + 1) in
  pop mask 0

let signed_term acc mask size =
  Zint.add acc (if popcount mask land 1 = 1 then size else Zint.neg size)

(* Inclusion–exclusion over the 2^m event subsets: every subset's merged
   valuation is rebuilt from scratch. *)
let exact_via_events q db =
  let evs = Array.of_list (events q db) in
  let m = Array.length evs in
  if m > 20 then
    invalid_arg "Karp_luby.exact_via_events: too many events for inclusion-exclusion";
  let acc = ref Zint.zero in
  for mask = 1 to (1 lsl m) - 1 do
    (* Merge the partial valuations of the chosen events. *)
    let rec merge i sigma =
      if i = m then Some sigma
      else if mask land (1 lsl i) = 0 then merge (i + 1) sigma
      else
        match add_partial sigma evs.(i).partial with
        | Some sigma' -> merge (i + 1) sigma'
        | None -> None
    in
    match merge 0 [] with
    | None -> ()
    | Some sigma ->
      acc := signed_term !acc mask (Zint.of_nat (event_size db sigma))
  done;
  Zint.to_nat !acc
