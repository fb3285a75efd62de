(* Request execution: one function from a parsed request to a response
   object, shared by the socket server, the stdio mode, idbcount's
   count/approx/bounds/classify and the tests.

   Engine failures are admission control: the typed resource limits
   (Too_many_valuations, Too_many_candidates, Too_many_events,
   Infeasible) map to structured error responses with a machine-readable
   [kind], the request is refused, and the server keeps serving.  Nothing
   in this module exits or lets an exception escape past [handle]. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_core
module Json = Incdb_obs.Json
module Metrics = Incdb_obs.Metrics

let requests_total = Metrics.counter "serve.requests"
let errors_total = Metrics.counter "serve.errors"
let refusals_total = Metrics.counter "serve.refusals"
let spill_orphans = Metrics.counter "serve.spill_orphans"
let spill_dirs_active = Metrics.gauge "serve.spill_dirs_active"
let active_dirs = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* Per-request spill isolation                                         *)
(* ------------------------------------------------------------------ *)

(* Each request that can touch disk gets a private spill directory,
   removed when the request finishes — on success, on refusal, and when
   the client has gone away mid-request (the computation still unwinds
   through the same Fun.protect).  The kernels already delete their own
   temp files; files found at removal time are counted as
   [serve.spill_orphans] (a regression signal, asserted 0 in tests). *)

let dir_seq = Atomic.make 0

let with_spill_dir f =
  let rec make tries =
    let name =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "incdbd-spill-%d-%d" (Unix.getpid ())
           (Atomic.fetch_and_add dir_seq 1))
    in
    match Unix.mkdir name 0o700 with
    | () -> name
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when tries < 100 ->
      make (tries + 1)
  in
  let dir = make 0 in
  Metrics.set spill_dirs_active
    (float_of_int (Atomic.fetch_and_add active_dirs 1 + 1));
  Fun.protect
    (fun () -> f dir)
    ~finally:(fun () ->
      Metrics.set spill_dirs_active
        (float_of_int (Atomic.fetch_and_add active_dirs (-1) - 1));
      match Sys.readdir dir with
      | entries ->
        Array.iter
          (fun e ->
            Metrics.incr spill_orphans;
            try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
          entries;
        (try Unix.rmdir dir with Unix.Unix_error _ -> ())
      | exception Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Error mapping (also idbcount's, for its CLI-only subcommands)       *)
(* ------------------------------------------------------------------ *)

let error_response ~id exn =
  let refusal kind ?(data = []) msg =
    Metrics.incr refusals_total;
    Protocol.err ~id ~kind ~data msg
  in
  match exn with
  | Protocol.Bad msg ->
    Metrics.incr errors_total;
    Protocol.err ~id ~kind:"bad_request" msg
  | Invalid_argument msg -> refusal "invalid_argument" msg
  | Idb.Too_many_valuations { total; limit } ->
    refusal "too_many_valuations"
      ~data:
        [ ("total", Json.String (Nat.to_string total));
          ("limit", Json.Int limit) ]
      (Printf.sprintf
         "exhaustive enumeration would visit %s valuations (limit %d); raise \
          brute_limit or use approx/bounds"
         (Nat.to_string total) limit)
  | Comp_candidates.Too_many_candidates { universe; limit } ->
    refusal "too_many_candidates"
      ~data:[ ("universe", Json.Int universe); ("limit", Json.Int limit) ]
      (Printf.sprintf
         "the candidate universe has more than %d ground facts; raise \
          max_candidates or use bounds"
         limit)
  | Val_kernel.Too_many_events { events; limit } ->
    refusal "too_many_events"
      ~data:[ ("events", Json.Int events); ("limit", Json.Int limit) ]
      (Printf.sprintf
         "the #Val kernel would compile %d Karp-Luby events (limit %d); \
          raise val_max_events or brute_limit"
         events limit)
  | Comp_kernel.Infeasible reason ->
    refusal "comp_infeasible"
      ~data:
        [ ("reason", Json.String (Comp_kernel.infeasible_to_string reason)) ]
      (Printf.sprintf
         "the #Comp elimination kernel declined the instance: %s"
         (Comp_kernel.infeasible_to_string reason))
  | exn ->
    Metrics.incr errors_total;
    Protocol.err ~id ~kind:"internal_error" (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Request plumbing                                                    *)
(* ------------------------------------------------------------------ *)

exception Db_error of string

let require_db state (r : Protocol.t) =
  match r.source with
  | None -> raise (Protocol.Bad "this op needs \"db\" or \"db_text\"")
  | Some src -> (
    match State.load_db state src with
    | Ok pair -> pair
    | Error msg -> raise (Db_error msg))

let require_query state (r : Protocol.t) =
  match r.query with
  | None -> raise (Protocol.Bad "this op needs a \"query\"")
  | Some s -> (
    match State.parse_query state s with
    | Ok q -> q
    | Error msg -> raise (Protocol.Bad ("bad query: " ^ msg)))

(* ------------------------------------------------------------------ *)
(* Op bodies (result payloads only)                                    *)
(* ------------------------------------------------------------------ *)

(* The warm #Val subproblem cache, unless the request turns caching off:
   a caller-owned cache overrides the kernel's [cache_entries]. *)
let val_cache state (r : Protocol.t) =
  if r.val_cache_entries > 0 then Some (State.val_cache state) else None

let run_count state (r : Protocol.t) ~db_key db q =
  let setting_problem =
    match r.problem with
    | Protocol.Val -> Setting.Valuations
    | Protocol.Comp -> Setting.Completions
  in
  let setting = Setting.of_idb setting_problem db in
  let classification = Classify.verdict_to_string (Classify.exact setting q) in
  with_spill_dir @@ fun spill_dir ->
  let algo_name, result =
    match r.problem with
    | Protocol.Val ->
      let a, n =
        Count_val.count ~brute_limit:r.brute_limit
          ~val_width_bound:r.val_width_bound ~val_max_events:r.val_max_events
          ~val_max_cells:r.val_max_cells ~val_order:r.val_order
          ~val_cache_entries:r.val_cache_entries ?val_cache:(val_cache state r)
          ~val_spill:r.val_spill ~val_spill_dir:spill_dir ~jobs:r.jobs q db
      in
      (Count_val.algorithm_to_string a, n)
    | Protocol.Comp ->
      let memos, memo_lock =
        State.comp_memos state (db_key ^ "|" ^ Cq.to_string q)
      in
      let a, n =
        Mutex.protect memo_lock (fun () ->
            Count_comp.count ~brute_limit:r.brute_limit
              ~max_candidates:r.max_candidates ~jobs:r.jobs
              ~comp_elim:r.comp_elim ~comp_width_bound:r.comp_width_bound
              ~comp_max_cells:r.comp_max_cells ~comp_memos:memos
              ~comp_spill_dir:spill_dir q db)
      in
      (Count_comp.algorithm_to_string a, n)
  in
  Json.Assoc
    [
      ("setting", Json.String (Setting.to_string setting));
      ("classification", Json.String classification);
      ("algorithm", Json.String algo_name);
      ( "total_valuations",
        Json.String (Nat.to_string (Idb.total_valuations db)) );
      ("count", Json.String (Nat.to_string result));
    ]

let run_approx state (r : Protocol.t) db q =
  let samples = Protocol.samples r in
  let query = Query.Bcq q in
  with_spill_dir @@ fun spill_dir ->
  let head, est =
    match r.meth with
    | Protocol.Karp_luby ->
      let events = List.length (Incdb_approx.Karp_luby.events query db) in
      ( [ ("method", Json.String "karp-luby"); ("events", Json.Int events) ],
        Incdb_approx.Karp_luby.estimate ~seed:r.seed ~samples query db )
    | Protocol.Monte_carlo ->
      ( [ ("method", Json.String "monte-carlo") ],
        Incdb_approx.Montecarlo.estimate ~seed:r.seed ~samples query db )
  in
  let exact_fields =
    if not r.exact_check then []
    else
      match
        Val_kernel.count ~width_bound:r.val_width_bound
          ~max_cells:r.val_max_cells ~order:r.val_order
          ~cache_entries:r.val_cache_entries ?cache:(val_cache state r)
          ~spill:r.val_spill ~spill_dir ~jobs:r.jobs query db
      with
      | Some n -> [ ("exact", Json.String (Nat.to_string n)) ]
      | None -> []
      | exception Val_kernel.Too_many_events { events; limit } ->
        (* Best-effort cross-check: the estimate stands. *)
        [
          ( "exact_skipped",
            Json.String
              (Printf.sprintf "%d events exceed limit %d" events limit) );
        ]
  in
  Json.Assoc
    (head
    @ [
        ("samples", Json.Int samples);
        ("seed", Json.Int r.seed);
        ("estimate", Json.Float est);
        ("estimate_text", Json.String (Printf.sprintf "%.6g" est));
      ]
    @ exact_fields
    @ [
        ( "total_valuations",
          Json.String (Nat.to_string (Idb.total_valuations db)) );
      ])

let run_classify q =
  Json.Assoc
    [
      ("query", Json.String (Cq.to_string q));
      ( "settings",
        Json.List
          (List.map
             (fun s ->
               Json.Assoc
                 [
                   ("setting", Json.String (Setting.to_string s));
                   ( "exact",
                     Json.String
                       (Classify.verdict_to_string (Classify.exact s q)) );
                   ( "approx",
                     Json.String
                       (Classify.approx_verdict_to_string
                          (Classify.approximate s q)) );
                   ("class", Json.String (Classify.membership s));
                 ])
             Setting.all) );
    ]

let run_bounds (r : Protocol.t) db q =
  let b = Comp_bounds.bounds ~seed:r.seed ~samples:(Protocol.samples r) q db in
  let exact =
    if Nat.equal b.Comp_bounds.lower b.Comp_bounds.upper then
      Json.String (Nat.to_string b.Comp_bounds.lower)
    else Json.Null
  in
  Json.Assoc
    [
      ("lower", Json.String (Nat.to_string b.Comp_bounds.lower));
      ("upper", Json.String (Nat.to_string b.Comp_bounds.upper));
      ("exact", exact);
    ]

let run_metrics state =
  Json.Assoc
    [
      ("prometheus", Json.String (Incdb_obs.Prom.to_string ()));
      ( "counters",
        Json.Assoc
          (List.map
             (fun (k, v) -> (k, Json.Int v))
             (Metrics.counters_snapshot ())) );
      ( "caches",
        Json.Assoc
          (List.map (fun (k, v) -> (k, Json.Int v)) (State.cache_sizes state))
      );
    ]

let run_reset (r : Protocol.t) =
  (* Metrics, spans and events always roll (generation-safe: spans
     still open finish without recording); warm caches only
     go when asked, because dropping them is the opposite of what a
     persistent server is for. *)
  Incdb_obs.Export.reset ();
  let dropped =
    if r.caches then begin
      Incdb_obs.Export.reset_caches ();
      Incdb_obs.Export.registered_caches ()
    end
    else []
  in
  Json.Assoc
    [
      ("metrics", Json.Bool true);
      ("caches", Json.List (List.map (fun c -> Json.String c) dropped));
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* Ops whose result payload is a pure function of the request and the
   database contents — the cacheable ones. *)
let cacheable (r : Protocol.t) =
  match r.op with
  | "count" | "approx" | "classify" | "bounds" -> true
  | _ -> false

let rec handle state (r : Protocol.t) : Json.t =
  Metrics.incr requests_total;
  let id = r.id in
  match
    match r.op with
    | "ping" -> Protocol.ok ~id (Json.Assoc [ ("pong", Json.Bool true) ])
    | "metrics" -> Protocol.ok ~id (run_metrics state)
    | "reset" -> Protocol.ok ~id (run_reset r)
    | "shutdown" ->
      Protocol.ok ~id (Json.Assoc [ ("stopping", Json.Bool true) ])
    | "batch" -> handle_batch state r
    | "classify" ->
      let q = require_query state r in
      cached_ok state r ~db_key:"" (fun () -> run_classify q)
    | "count" ->
      let db_key, db = require_db state r in
      let q = require_query state r in
      cached_ok state r ~db_key (fun () -> run_count state r ~db_key db q)
    | "approx" ->
      let db_key, db = require_db state r in
      let q = require_query state r in
      cached_ok state r ~db_key (fun () -> run_approx state r db q)
    | "bounds" ->
      let db_key, db = require_db state r in
      let q = require_query state r in
      cached_ok state r ~db_key (fun () -> run_bounds r db q)
    | op -> raise (Protocol.Bad ("op not implemented: " ^ op))
  with
  | resp -> resp
  | exception Db_error msg ->
    Metrics.incr errors_total;
    Protocol.err ~id ~kind:"db_error" msg
  | exception exn -> error_response ~id exn

(* Result-cache wrapper: replay a warm payload byte-identically, or run
   the body and absorb its payload.  [fresh] skips the lookup but still
   overwrites, so a forced re-run refreshes the cache. *)
and cached_ok state (r : Protocol.t) ~db_key body =
  if not (cacheable r) then Protocol.ok ~id:r.id (body ())
  else begin
    let key = Protocol.cache_key r ~db_key in
    match if r.fresh then None else State.find_result state key with
    | Some payload -> Protocol.ok ~id:r.id ~cached:true payload
    | None ->
      let payload = body () in
      State.store_result state key payload;
      Protocol.ok ~id:r.id payload
  end

(* Batches fan the sub-requests over the domain pool; each sub-request
   is individually admission-controlled, so one refused entry never
   poisons its neighbors and the pool never sees an exception.  Nested
   batches and lifecycle ops are rejected up front. *)
and handle_batch state (r : Protocol.t) =
  let subs =
    List.map
      (fun j ->
        match Protocol.of_json j with
        | sub ->
          if sub.Protocol.op = "batch" then
            Error (sub.Protocol.id, "nested batch is not allowed")
          else if sub.Protocol.op = "shutdown" || sub.Protocol.op = "reset"
          then
            Error
              ( sub.Protocol.id,
                "lifecycle op " ^ sub.Protocol.op ^ " is not allowed in a batch"
              )
          else Ok sub
        | exception Protocol.Bad msg -> Error (Json.Null, msg))
      r.subs
  in
  let tasks =
    List.map
      (fun sub () ->
        match sub with
        | Ok sub -> handle state sub
        | Error (id, msg) ->
          Metrics.incr errors_total;
          Protocol.err ~id ~kind:"bad_request" msg)
      subs
  in
  let results = Incdb_par.Pool.run ~jobs:r.jobs tasks in
  Protocol.ok ~id:r.id (Json.Assoc [ ("results", Json.List results) ])
