open Incdb_cq

type verdict = Tractable of string | Hard of Cq.t | Open_case of string

let verdict_to_string = function
  | Tractable reason -> "FP (" ^ reason ^ ")"
  | Hard p -> "#P-hard (pattern " ^ Cq.to_string p ^ ")"
  | Open_case why -> "open (" ^ why ^ ")"

let check_sjf q =
  if not (Cq.is_self_join_free q) then
    invalid_arg "Classify: the dichotomies are stated for self-join-free BCQs"

(* Hard patterns of each Table 1 cell.  For completions in the non-uniform
   setting every sjfBCQ is hard (Theorem 4.3) because R(x) is a pattern of
   every query. *)
let hard_patterns (s : Setting.t) =
  match (s.problem, s.domain, s.table) with
  | Setting.Valuations, Setting.Non_uniform, Setting.Naive ->
    [ Cq.q_rxx; Cq.q_rx_sx ]
  | Setting.Valuations, Setting.Non_uniform, Setting.Codd -> [ Cq.q_rx_sx ]
  | Setting.Valuations, Setting.Uniform, Setting.Naive ->
    [ Cq.q_rxx; Cq.q_rx_sxy_ty; Cq.q_rxy_sxy ]
  | Setting.Valuations, Setting.Uniform, Setting.Codd -> [ Cq.q_rx_sxy_ty ]
  | Setting.Completions, Setting.Non_uniform, _ -> [ Cq.q_rx ]
  | Setting.Completions, Setting.Uniform, _ -> [ Cq.q_rxx; Cq.q_rxy ]

module Events = Incdb_obs.Events
module Metrics = Incdb_obs.Metrics

(* Classification is pure in (setting, query), and the pattern search it
   performs is the single hottest part of classifying a corpus (Table 1
   runs it 8x per query), so verdicts are memoized.  The hit/miss
   counters expose the cache's effectiveness.

   The table is module-global — that is what lets a persistent incdbd
   serve repeat classifications without re-running the pattern search —
   so unlike a one-shot CLI it needs a lifecycle: a size cap (the table
   stops absorbing new entries at capacity, like the Val_kernel
   subproblem cache — no eviction, so memory stays bounded and verdicts
   never change), and a generation-safe [reset_cache], registered with
   {!Incdb_obs.Export.register_cache_reset} so the server's lifecycle
   hook can drop warm state without lib/obs depending on this module. *)
let cache_hits = Metrics.counter "classify.cache_hits"
let cache_misses = Metrics.counter "classify.cache_misses"
let default_cache_capacity = 1 lsl 12
let verdict_cache : (string, verdict) Hashtbl.t = Hashtbl.create 64
let cache_capacity = ref default_cache_capacity
let cache_lock = Mutex.create ()

let reset_cache () =
  Mutex.protect cache_lock (fun () -> Hashtbl.reset verdict_cache)

let set_cache_capacity n =
  if n < 0 then invalid_arg "Classify.set_cache_capacity: negative capacity";
  Mutex.protect cache_lock (fun () ->
      cache_capacity := n;
      if Hashtbl.length verdict_cache > n then Hashtbl.reset verdict_cache)

let cache_length () =
  Mutex.protect cache_lock (fun () -> Hashtbl.length verdict_cache)

let () =
  Incdb_obs.Export.register_cache_reset "classify.verdict_cache" reset_cache

let exact_uncached (s : Setting.t) q =
  let witness = Pattern.first_hard_pattern (hard_patterns s) q in
  match (s.problem, s.domain, s.table, witness) with
  | _, _, _, Some p -> Hard p
  | Setting.Valuations, Setting.Non_uniform, Setting.Naive, None ->
    Tractable "Thm 3.6: every variable occurs once; multiply domain sizes"
  | Setting.Valuations, Setting.Non_uniform, Setting.Codd, None ->
    Tractable "Thm 3.7: atoms share no variable; per-atom product"
  | Setting.Valuations, Setting.Uniform, Setting.Naive, None ->
    Tractable "Thm 3.9: basic-singleton decomposition + block sums"
  | Setting.Valuations, Setting.Uniform, Setting.Codd, None ->
    (* No dichotomy is known here (the paper's open case); but both
       tractability arguments transfer, since uniform instances are special
       non-uniform instances and Codd tables are special naïve tables. *)
    if not (Pattern.has_rx_sx q) then
      Tractable "Thm 3.7 applies (uniform inputs are non-uniform inputs)"
    else if
      not (Pattern.has_rxx q || Pattern.has_rx_sxy_ty q || Pattern.has_rxy_sxy q)
    then Tractable "Thm 3.9 applies (Codd tables are naive tables)"
    else Open_case "#Val^u_Cd dichotomy left open by the paper (Sec. 3.2)"
  | Setting.Completions, Setting.Non_uniform, _, None ->
    (* Unreachable: R(x) is a pattern of every well-formed sjfBCQ. *)
    assert false
  | Setting.Completions, Setting.Uniform, _, None ->
    Tractable "Thm 4.6: unary schema; completion-shape enumeration"

let exact (s : Setting.t) q =
  check_sjf q;
  Events.with_span "classify.exact" (fun () ->
      let key = Setting.to_string s ^ "|" ^ Cq.to_string q in
      match
        Mutex.protect cache_lock (fun () -> Hashtbl.find_opt verdict_cache key)
      with
      | Some v ->
        Metrics.incr cache_hits;
        v
      | None ->
        Metrics.incr cache_misses;
        let v = exact_uncached s q in
        Mutex.protect cache_lock (fun () ->
            if Hashtbl.length verdict_cache < !cache_capacity then
              Hashtbl.replace verdict_cache key v);
        v)

type approx_verdict =
  | Fpras of string
  | Fp of string
  | No_fpras of string
  | Approx_open of string

let approx_verdict_to_string = function
  | Fpras reason -> "FPRAS (" ^ reason ^ ")"
  | Fp reason -> "FP (" ^ reason ^ ")"
  | No_fpras reason -> "no FPRAS unless NP = RP (" ^ reason ^ ")"
  | Approx_open why -> "open (" ^ why ^ ")"

let approximate (s : Setting.t) q =
  check_sjf q;
  match s.problem with
  | Setting.Valuations ->
    (match exact s q with
    | Tractable r -> Fp r
    | Hard _ | Open_case _ ->
      Fpras "Cor 5.3: unions of BCQs are monotone with bounded minimal models")
  | Setting.Completions ->
    (match s.domain with
    | Setting.Non_uniform -> No_fpras "Thm 5.5, via #IS through #VC"
    | Setting.Uniform ->
      (match exact s q with
      | Tractable r -> Fp r
      | Open_case _ -> assert false
      | Hard p ->
        (match s.table with
        | Setting.Naive ->
          No_fpras
            ("Thm 5.7, 3-colorability gadget; pattern " ^ Cq.to_string p)
        | Setting.Codd -> Approx_open "FPRAS for #Comp^u_Cd open (Sec. 5.2)")))

let membership (s : Setting.t) =
  match (s.problem, s.table) with
  | Setting.Valuations, _ -> "in #P (guess a valuation, model-check)"
  | Setting.Completions, Setting.Codd ->
    "in #P (Thm 4.4 via the Lemma B.2 matching test)"
  | Setting.Completions, Setting.Naive ->
    "in SpanP (Obs 6.2); not in #P for some q unless NP \xe2\x8a\x86 SPP (Prop 6.1)"

let table1 queries =
  let buf = Buffer.create 1024 in
  let settings = Setting.all in
  let qcol = 28 and col = 12 in
  (* Pad by display width: count UTF-8 code points, not bytes, so the
     wedge symbol does not break the column alignment. *)
  let display_length s =
    let n = ref 0 in
    String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
    !n
  in
  let pad width s =
    let len = display_length s in
    if len >= width then s ^ " "
    else s ^ String.make (width - len) ' '
  in
  Buffer.add_string buf (pad qcol "query");
  List.iter (fun s -> Buffer.add_string buf (pad col (Setting.to_string s))) settings;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (qcol + (col * List.length settings)) '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun q ->
      Buffer.add_string buf (pad qcol (Cq.to_string q));
      List.iter
        (fun s ->
          let cell =
            match exact s q with
            | Tractable _ -> "FP"
            | Hard _ -> "#P-hard"
            | Open_case _ -> "open"
          in
          Buffer.add_string buf (pad col cell))
        settings;
      Buffer.add_char buf '\n')
    queries;
  Buffer.contents buf
