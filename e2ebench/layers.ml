(* The traced run's in-process replay.  Each request is handled twice,
   in alternating order, on two warm states with the same history:

   - untraced, through Engine.handle exactly as the server calls it;
   - staged, through the same public calls Engine.handle makes, in the
     same order (Protocol.of_line, State.load_db, State.parse_query,
     State.find_result, Classify.exact, Count_val.count or
     Count_comp.count, Protocol.ok and Protocol.to_line), each wrapped
     in an Events span with the request index and workload as args.

   A probe pass then calls the kernel entry point of the arm that
   answered as a standalone call on the same input (Karp_luby.compile
   and Val_kernel.count, Comp_kernel.plan and Comp_kernel.run,
   Comp_candidates.count, or the closed form), so the dispatcher's own
   cost is the staged Count_*.count time minus the probe time.  The
   probe keeps its own warm Val_kernel cache across requests, as the
   server does, so the two are timed under the same reuse.  Both answers
   and the probe's count are checked against the expected answer. *)

open Incdb_cq
open Incdb_core
open Incdb_serve
module Json = Incdb_obs.Json
module Events = Incdb_obs.Events

let now_ns = Incdb_obs.Runtime.now_ns

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type acc = {
  (* µs per call of each staged public call *)
  decode : Stats.buf;
  load_db : Stats.buf;
  parse_query : Stats.buf;
  find_result : Stats.buf;
  classify : Stats.buf;
  dispatch_us : Stats.buf;
  encode : Stats.buf;
  batch : Stats.buf;
  layer_ns : (string, float ref) Hashtbl.t;  (* probe time per layer *)
  handle_us : Stats.buf;  (* untraced, per request *)
  dispatch_alloc : Stats.buf;
  arm_us : Stats.buf;
  arm_alloc : Stats.buf;
  dispatch_gap_us : Stats.buf;
  parse_us : Stats.buf;
  batch_speedup : Stats.buf;
  probe_cache : Val_kernel.cache;  (* the probe's own warm kernel cache *)
  staged_ns : Stats.buf;  (* per request, paired with handle_us *)
  mutable staged_alloc : float;
  mutable width_max : float;
  mutable replayed : int;
  tally : Wire.tally;
}

let acc () =
  let b = Stats.buf in
  {
    decode = b ();
    load_db = b ();
    parse_query = b ();
    find_result = b ();
    classify = b ();
    dispatch_us = b ();
    encode = b ();
    batch = b ();
    layer_ns = Hashtbl.create 16;
    handle_us = b ();
    dispatch_alloc = b ();
    arm_us = b ();
    arm_alloc = b ();
    dispatch_gap_us = b ();
    parse_us = b ();
    batch_speedup = b ();
    probe_cache = Val_kernel.cache_create Val_kernel.default_cache_entries;
    staged_ns = b ();
    staged_alloc = 0.;
    width_max = 0.;
    replayed = 0;
    tally = Wire.tally ();
  }

let add_layer acc name ns =
  match Hashtbl.find_opt acc.layer_ns name with
  | Some r -> r := !r +. ns
  | None -> Hashtbl.replace acc.layer_ns name (ref ns)

(* A private spill directory per count, as the engine makes one. *)
let spill_seq = ref 0

let with_spill_dir f =
  incr spill_seq;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "e2e-spill-%d-%d" (Unix.getpid ()) !spill_seq)
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let get_ok = function Ok x -> x | Error msg -> failwith ("e2e replay: " ^ msg)

(* Count_val.count / Count_comp.count with the request's settings and
   the state's warm caches, exactly as Engine runs them. *)
let dispatch state (r : Protocol.t) ~db_key ~spill_dir q db =
  match r.problem with
  | Protocol.Val ->
    let a, n =
      Count_val.count ~brute_limit:r.brute_limit ~val_width_bound:r.val_width_bound
        ~val_max_events:r.val_max_events ~val_max_cells:r.val_max_cells
        ~val_order:r.val_order ~val_cache_entries:r.val_cache_entries
        ~val_cache:(State.val_cache state) ~val_spill:r.val_spill
        ~val_spill_dir:spill_dir ~jobs:r.jobs q db
    in
    (Count_val.algorithm_to_string a, n)
  | Protocol.Comp ->
    let memos, lock = State.comp_memos state (db_key ^ "|" ^ Cq.to_string q) in
    let a, n =
      Mutex.protect lock (fun () ->
          Count_comp.count ~brute_limit:r.brute_limit ~max_candidates:r.max_candidates
            ~jobs:r.jobs ~mask:r.comp_mask ~comp_elim:r.comp_elim
            ~comp_width_bound:r.comp_width_bound ~comp_max_cells:r.comp_max_cells
            ~comp_memos:memos ~comp_spill_dir:spill_dir q db)
    in
    (Count_comp.algorithm_to_string a, n)

let classify_payload q =
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
                   ("exact", Json.String (Classify.verdict_to_string (Classify.exact s q)));
                   ( "approx",
                     Json.String
                       (Classify.approx_verdict_to_string (Classify.approximate s q)) );
                   ("class", Json.String (Classify.membership s));
                 ])
             Setting.all) );
    ]

(* What the probe pass needs about a request that reached a
   dispatcher. *)
type dispatched = {
  req : Protocol.t;
  query : Cq.t;
  algo : string;
  dispatch_ns : float;
}

let untraced state line =
  Protocol.to_line
    (match Protocol.of_line line with
    | Ok r -> Engine.handle state r
    | Error msg -> Protocol.err ~id:Json.Null ~kind:"bad_request" msg)

let staged acc ~workload ~i state line =
  let args = [ ("req", Events.Int i); ("workload", Events.Str workload) ] in
  let stage buf name f =
    let t0 = now_ns () in
    let y = Events.with_span ~args name f in
    let dt = float_of_int (now_ns () - t0) in
    Stats.push buf (dt /. 1e3);
    (y, dt)
  in
  let stage_ buf name f = fst (stage buf name f) in
  let r = get_ok (stage_ acc.decode "protocol.decode" (fun () -> Protocol.of_line line)) in
  let respond ?(cached = false) payload =
    stage_ acc.encode "protocol.encode" (fun () -> Protocol.to_line (Protocol.ok ~id:r.id ~cached payload))
  in
  let lookup key =
    if r.fresh then None else stage_ acc.find_result "state.find_result" (fun () -> State.find_result state key)
  in
  match r.op with
  | "count" -> (
    let src = Option.get r.source and query = Option.get r.query in
    let db_key, db = get_ok (stage_ acc.load_db "state.load_db" (fun () -> State.load_db state src)) in
    let q = get_ok (stage_ acc.parse_query "state.parse_query" (fun () -> State.parse_query state query)) in
    let key = Protocol.cache_key r ~db_key in
    match lookup key with
    | Some payload -> (respond ~cached:true payload, None)
    | None ->
      let problem =
        match r.problem with Protocol.Val -> Setting.Valuations | Protocol.Comp -> Setting.Completions
      in
      let setting = Setting.of_idb problem db in
      let verdict =
        stage_ acc.classify "classify.exact" (fun () -> Classify.verdict_to_string (Classify.exact setting q))
      in
      let a0 = alloc_words () in
      let (algo, n), dispatch_ns =
        with_spill_dir (fun spill_dir ->
            stage acc.dispatch_us "dispatch.count" (fun () -> dispatch state r ~db_key ~spill_dir q db))
      in
      Stats.push acc.dispatch_alloc (alloc_words () -. a0);
      let payload =
        Json.Assoc
          [
            ("setting", Json.String (Setting.to_string setting));
            ("classification", Json.String verdict);
            ("algorithm", Json.String algo);
            ( "total_valuations",
              Json.String (Incdb_bignum.Nat.to_string (Incdb_incomplete.Idb.total_valuations db)) );
            ("count", Json.String (Incdb_bignum.Nat.to_string n));
          ]
      in
      State.store_result state key payload;
      (respond payload, Some { req = r; query = q; algo; dispatch_ns }))
  | "classify" -> (
    let q = get_ok (stage_ acc.parse_query "state.parse_query" (fun () -> State.parse_query state (Option.get r.query))) in
    let key = Protocol.cache_key r ~db_key:"" in
    match lookup key with
    | Some payload -> (respond ~cached:true payload, None)
    | None ->
      let payload = stage_ acc.classify "classify.exact" (fun () -> classify_payload q) in
      State.store_result state key payload;
      (respond payload, None))
  | "batch" ->
    let resp = stage_ acc.batch "par.batch" (fun () -> Engine.handle state r) in
    (stage_ acc.encode "protocol.encode" (fun () -> Protocol.to_line resp), None)
  | _ -> (untraced state line, None)

(* Time the answering arm as a standalone call; returns its count. *)
let probe acc (d : dispatched) db =
  let r = d.req in
  let bcq = Query.Bcq d.query in
  let time layer f =
    let a0 = alloc_words () in
    let t0 = now_ns () in
    let y = f () in
    let dt = float_of_int (now_ns () - t0) in
    add_layer acc layer dt;
    (y, dt, alloc_words () -. a0)
  in
  let v = Count_val.algorithm_to_string and c = Count_comp.algorithm_to_string in
  let n, ns, words =
    match r.problem with
    | Protocol.Val when d.algo = v Count_val.Product_of_domains ->
      time "closed_forms" (fun () -> Count_val.nonuniform_naive d.query db)
    | Protocol.Val when d.algo = v Count_val.Codd_per_atom ->
      time "closed_forms" (fun () -> Count_val.codd_nonuniform d.query db)
    | Protocol.Val when d.algo = v Count_val.Uniform_block_dp ->
      time "closed_forms" (fun () -> Count_val.uniform_naive d.query db)
    | Protocol.Val when d.algo = v Count_val.Lineage_elimination ->
      ignore (time "lineage" (fun () -> Incdb_approx.Karp_luby.compile bcq db));
      let res =
        with_spill_dir (fun spill_dir ->
            time "val_kernel" (fun () ->
                Option.get
                  (Val_kernel.count ~width_bound:r.val_width_bound ~max_events:r.val_max_events
                     ~max_cells:r.val_max_cells ~order:r.val_order ~cache:acc.probe_cache
                     ~spill:r.val_spill ~spill_dir ~jobs:1 bcq db)))
      in
      Option.iter
        (fun w -> acc.width_max <- Float.max acc.width_max w)
        (Incdb_obs.Metrics.gauge_value "treedec.width");
      res
    | Protocol.Comp when d.algo = c Count_comp.Uniform_unary ->
      time "closed_forms" (fun () -> Count_comp.uniform_unary ~query:d.query db)
    | Protocol.Comp when d.algo = c Count_comp.Candidate_enumeration ->
      time "comp_candidates" (fun () ->
          Comp_candidates.count ~query:bcq ~max_candidates:r.max_candidates ~mask:r.comp_mask db)
    | Protocol.Comp when d.algo = c Count_comp.Lineage_elimination ->
      let plan, plan_ns, plan_words =
        time "comp_kernel.plan" (fun () ->
            match Comp_kernel.plan ~query:bcq ~width_bound:r.comp_width_bound db with
            | Ok p -> p
            | Error e -> raise (Comp_kernel.Infeasible e))
      in
      let n, run_ns, run_words =
        with_spill_dir (fun spill_dir ->
            time "comp_kernel.run" (fun () ->
                Comp_kernel.run ~max_cells:r.comp_max_cells ~spill_dir plan))
      in
      (n, plan_ns +. run_ns, plan_words +. run_words)
    | Protocol.Val ->
      time "brute" (fun () ->
          Incdb_par.Brute_par.count_valuations ~limit:r.brute_limit ~jobs:1 bcq db)
    | Protocol.Comp ->
      time "brute" (fun () ->
          Incdb_par.Brute_par.count_completions ~limit:r.brute_limit ~jobs:1 bcq db)
  in
  Stats.push acc.arm_us (ns /. 1e3);
  Stats.push acc.arm_alloc words;
  Stats.push acc.dispatch_gap_us ((d.dispatch_ns -. ns) /. 1e3);
  n

(* Sub-requests of a batch run one after another on their own state:
   the batch's speed-up is their summed time over the pooled batch's. *)
let batch_speedup acc probe_state ~batch_us (r : Protocol.t) =
  let t0 = now_ns () in
  List.iter (fun j -> ignore (Engine.handle probe_state (Protocol.of_json j))) r.subs;
  let seq_us = float_of_int (now_ns () - t0) /. 1e3 in
  if batch_us > 0. then Stats.push acc.batch_speedup (seq_us /. batch_us)

(* Replay the timed stream from its start, at least [min_requests] and
   at most [max_requests] of them, until [budget_s] seconds have passed.
   Each round starts as the server's does: fresh states, empty caches,
   zeroed metrics and events, and the warm-up sent to both states.  The
   Chrome trace of the first [trace_requests], at most a round, is
   written to [trace_file]; the flight recorder is then emptied, so its
   ring never overflows into the exported part. *)
let replay (w : Gen.workload) ~min_requests ~max_requests ~trace_requests ~budget_s
    ~trace_file =
  Incdb_obs.Runtime.set_enabled true;
  Events.set_capacity (1 lsl 18);
  let acc = acc () in
  let s_untraced = ref (State.create ()) and s_staged = ref (State.create ()) in
  let s_probe = State.create () in
  let start_round () =
    s_untraced := State.create ();
    s_staged := State.create ();
    Incdb_obs.Export.reset_all ();
    Val_kernel.cache_clear acc.probe_cache;
    Array.iter
      (fun (r : Gen.req) ->
        ignore (untraced !s_untraced r.line);
        ignore (untraced !s_staged r.line))
      w.warmup;
    Events.reset ()
  in
  let write_trace () =
    Incdb_obs.Chrome.write_file trace_file;
    if Events.dropped () > 0 then
      Printf.eprintf "e2e: %d trace events dropped\n%!" (Events.dropped ());
    Events.reset ()
  in
  let deadline = now_ns () + int_of_float (budget_s *. 1e9) in
  let i = ref 0 in
  while !i < max_requests && (!i < min_requests || now_ns () < deadline) do
    if !i mod w.round = 0 then start_round ();
    let req = w.request !i in
    let untraced_ns = ref 0. and staged_ns = ref 0. in
    let run_untraced () =
      let t0 = now_ns () in
      let out = untraced !s_untraced req.line in
      untraced_ns := float_of_int (now_ns () - t0);
      Stats.push acc.handle_us (!untraced_ns /. 1e3);
      out
    in
    let run_staged () =
      let a0 = alloc_words () in
      let t0 = now_ns () in
      let out =
        (* Engine.handle turns engine exceptions into error responses;
           the staged copy does the same so a refusal is counted, not
           fatal. *)
        try staged acc ~workload:w.name ~i:!i !s_staged req.line
        with e ->
          ( Protocol.to_line
              (Protocol.err ~id:Json.Null ~kind:"internal_error" (Printexc.to_string e)),
            None )
      in
      staged_ns := float_of_int (now_ns () - t0);
      acc.staged_alloc <- acc.staged_alloc +. (alloc_words () -. a0);
      out
    in
    (* Alternate which copy runs first: process-wide caches (the
       classify verdict cache) favour whichever runs second. *)
    let out_u, (out_s, dispatched) =
      if !i land 1 = 0 then
        let u = run_untraced () in
        (u, run_staged ())
      else
        let s = run_staged () in
        (run_untraced (), s)
    in
    Stats.push acc.staged_ns !staged_ns;
    let what = Printf.sprintf "%s replay #%d" w.name !i in
    Wire.record acc.tally ~what (Wire.check_line req.expect out_u);
    Wire.record acc.tally ~what (Wire.check_line req.expect out_s);
    (match Protocol.of_line req.line with
    | Ok { op = "count"; source = Some (Protocol.Inline text); _ } -> (
      let t0 = now_ns () in
      let db = Incdb_incomplete.Idb_parser.of_string text in
      Stats.push acc.parse_us (float_of_int (now_ns () - t0) /. 1e3);
      match dispatched with
      | Some d ->
        Wire.record acc.tally ~what:(what ^ " probe")
          (match (Incdb_bignum.Nat.to_string (probe acc d db), req.expect) with
          | got, Gen.Count want when want = got -> Wire.Answer d.algo
          | got, _ -> Wire.Wrong ("probe count " ^ got)
          | exception e -> Wire.Refused (Printexc.to_string e))
      | None -> ())
    | Ok ({ op = "batch"; _ } as r) ->
      batch_speedup acc s_probe ~batch_us:(Stats.last acc.batch) r
    | _ -> ());
    incr i;
    if !i = trace_requests then write_trace ()
  done;
  acc.replayed <- !i;
  if !i < trace_requests then write_trace ();
  acc

(* Traced over untraced replay time, minus one.  Request pairs whose
   time ratio falls in the outer 1% on either side are left out: there a
   GC slice landed on one copy of the request, not the tracing. *)
let trace_overhead acc =
  let staged = Stats.to_array acc.staged_ns in
  let untraced = Array.map (fun us -> us *. 1e3) (Stats.to_array acc.handle_us) in
  let ratios = Array.mapi (fun i s -> s /. untraced.(i)) staged in
  let lo = Stats.percentile ratios 0.01 and hi = Stats.percentile ratios 0.99 in
  let s = ref 0. and u = ref 0. in
  Array.iteri
    (fun i r ->
      if r >= lo && r <= hi then begin
        s := !s +. staged.(i);
        u := !u +. untraced.(i)
      end)
    ratios;
  if !u = 0. then 0. else (!s /. !u) -. 1.
