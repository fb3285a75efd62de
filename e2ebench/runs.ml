(* One benchmark run of one workload: either the end-to-end measurement
   (tracing off; the server as deployed) or the traced run that yields
   the per-layer numbers.  Prints every metric with its unit, appends
   the result to the results log, and ends stdout with the one-line JSON
   report. *)

open Incdb_core
module Json = Incdb_obs.Json

let now_ns = Incdb_obs.Runtime.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

type opts = {
  incdbd : string;
  out : string;  (* directory for results, traces and the socket *)
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  requests : int option;  (* one round of this many requests (smoke) *)
  setups : int;  (* set-ups measured for setup_s *)
}

(* The metrics each kind of run reports, with their units: the same
   names and units as BENCHMARK.json. *)
let end_to_end =
  [
    ("answers_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let routes =
  [
    (Count_val.algorithm_to_string Count_val.Product_of_domains, "product_of_domains");
    (Count_val.algorithm_to_string Count_val.Codd_per_atom, "codd_per_atom");
    (Count_val.algorithm_to_string Count_val.Uniform_block_dp, "uniform_block_dp");
    (Count_val.algorithm_to_string Count_val.Lineage_elimination, "val_elimination");
    (Count_comp.algorithm_to_string Count_comp.Uniform_unary, "uniform_unary");
    (Count_comp.algorithm_to_string Count_comp.Candidate_enumeration, "candidate_enumeration");
    (Count_comp.algorithm_to_string Count_comp.Lineage_elimination, "comp_elimination");
    (Count_comp.algorithm_to_string Count_comp.Brute_force, "brute_force");
    ("cached", "cached");
    ("classify", "classify");
    ("batch", "batch");
  ]

let share_layers =
  [
    ("closed_forms", "closed_forms.share");
    ("lineage", "lineage.compile_share");
    ("val_kernel", "val_kernel.share");
    ("comp_kernel.plan", "comp_kernel.plan_share");
    ("comp_kernel.run", "comp_kernel.run_share");
    ("comp_candidates", "comp_candidates.share");
  ]

let per_layer =
  [
    ("protocol.decode_us", "us");
    ("protocol.encode_us", "us");
    ("protocol.response_bytes", "bytes");
    ("state.load_db_us", "us");
    ("state.parse_query_us", "us");
    ("idb_parser.parse_us", "us");
    ("classify.exact_us", "us");
    ("dispatch.count_us", "us");
    ("dispatch.alloc_words", "words");
    ("dispatch.probe_us", "us");
    ("arm.us", "us");
    ("arm.alloc_words", "words");
    ("engine.handle_us", "us");
    ("engine.alloc_words_per_answer", "words");
    ("server.transport_us", "us");
  ]
  @ List.map (fun (_, m) -> (m, "ratio")) share_layers
  @ List.map (fun (_, r) -> ("route.share." ^ r, "ratio")) routes
  @ [
      ("state.result_hit_ratio", "ratio");
      ("state.db_hit_ratio", "ratio");
      ("state.db_entries", "count");
      ("state.result_entries", "count");
      ("classify.hit_ratio", "ratio");
      ("bignum.result_digits", "digits");
      ("val_kernel.cache_hit_ratio", "ratio");
      ("val_kernel.events_per_answer", "count");
      ("val_kernel.bags_per_answer", "count");
      ("val_kernel.conditioning_splits_per_answer", "count");
      ("treedec.width_max", "count");
      ("factor_store.spill_bytes_per_answer", "bytes");
      ("factor_store.read_amplification", "ratio");
      ("comp_kernel.elim_states_per_answer", "count");
      ("comp_kernel.memo_hit_ratio", "ratio");
      ("comp_candidates.subsets_checked_per_answer", "count");
      ("par.batch_speedup", "ratio");
      ("par.domains_spawned_per_answer", "count");
      ("obs.trace_overhead", "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

let socket_path o = Filename.concat o.out (Printf.sprintf "incdbd-%d.sock" (Unix.getpid ()))

(* Send the workload's warm-up requests, checking every answer. *)
let warm_up (s : Wire.server) (w : Gen.workload) tally =
  let next = ref 0 in
  Wire.drive s
    ~next:(fun () ->
      if !next >= Array.length w.warmup then None
      else begin
        incr next;
        Some (!next - 1, w.warmup.(!next - 1).line)
      end)
    ~on_response:(fun i _ line ->
      Wire.record tally ~what:"warm-up" (Wire.check_line w.warmup.(i).expect line))

(* Spawn a server, wait for a ping reply on every connection, then warm
   it up.  Returns the server and the seconds that took. *)
let set_up o (w : Gen.workload) tally =
  let t0 = now_ns () in
  let s = Wire.spawn ~exe:o.incdbd ~clients:w.clients ~socket:(socket_path o) in
  Array.iter
    (fun c ->
      match Wire.member "ok" (Wire.call_json c {|{"op":"ping"}|}) with
      | Json.Bool true -> ()
      | _ -> Wire.transport "ping was not answered")
    s.Wire.conns;
  warm_up s w tally;
  (s, seconds_since t0)

(* Bring a warm server back to the state set-up leaves: drop its caches
   and metrics, then warm it up again. *)
let restart (s : Wire.server) (w : Gen.workload) tally =
  (match Wire.member "ok" (Wire.call_json s.conns.(0) {|{"op":"reset","caches":true}|}) with
  | Json.Bool true -> ()
  | _ -> Wire.transport "reset was refused");
  warm_up s w tally

type phase = {
  latency_ms : float array;  (* every answered request *)
  rounds : int;
  timed_s : float;  (* the rounds' clocks, summed *)
  rss_mib : float;
  bytes : Stats.buf;
  digits : Stats.buf;
}

(* Peak RSS is read after the first round: a point every run reaches,
   so a faster server is not charged for more rounds.  Later rounds add
   a varying amount in serve-mix (its peak after four rounds spread by
   12% over ten seeds, after one by 1%), and the others repeat the
   first. *)
let rss_rounds = 1

(* Closed-loop timed phase in whole rounds: a round's requests are made
   and [before_round ()] is called before its clock starts, and another
   round starts while it is expected to end within [seconds], judging by
   the median round so far, [before_round] included.  At most [limit]
   requests are sent. *)
let timed_phase (s : Wire.server) (w : Gen.workload) ~seconds ~limit ~before_round tally =
  let latency_ms = Stats.buf () and durations = Stats.buf () in
  let timed_s = ref 0. in
  let bytes = Stats.buf () and digits = Stats.buf () in
  let rss = ref nan in
  let t_start = now_ns () in
  let sent = ref 0 in
  let another () =
    !sent < limit
    && (Stats.length durations = 0
       || seconds_since t_start +. Stats.median (Stats.to_array durations) <= seconds)
  in
  (try
     while another () do
       let first = !sent in
       let reqs = Array.init (min w.round (limit - first)) (fun k -> w.request (first + k)) in
       let c0 = now_ns () in
       before_round ();
       let next = ref 0 in
       let t0 = now_ns () in
       Wire.drive s
         ~next:(fun () ->
           if !next >= Array.length reqs then None
           else begin
             incr next;
             Some (!next - 1, reqs.(!next - 1).line)
           end)
         ~on_response:(fun k ns line ->
           Stats.push latency_ms (float_of_int ns /. 1e6);
           let expect = reqs.(k).Gen.expect in
           let outcome = Wire.check_line expect line in
           Wire.record tally ~what:(Printf.sprintf "%s #%d" w.name (first + k)) outcome;
           Stats.push bytes (float_of_int (String.length line));
           match (expect, outcome) with
           | Gen.Count n, Wire.Answer _ -> Stats.push digits (float_of_int (String.length n))
           | _ -> ());
       timed_s := !timed_s +. seconds_since t0;
       sent := first + Array.length reqs;
       Stats.push durations (seconds_since c0);
       if Stats.length durations = rss_rounds then rss := Wire.peak_rss_mib s.pid
     done
   with Wire.Transport msg ->
     Printf.eprintf "e2e: transport failure: %s\n%!" msg;
     tally.lost <- tally.lost + 1;
     tally.attempted <- tally.attempted + 1);
  if Float.is_nan !rss && s.alive then rss := Wire.peak_rss_mib s.pid;
  {
    latency_ms = Stats.to_array latency_ms;
    rounds = Stats.length durations;
    timed_s = !timed_s;
    rss_mib = !rss;
    bytes;
    digits;
  }

(* Median round trip of [n] pings on the first connection, in µs: the
   transport's own cost (framing, pipe or socket, protocol decode and
   encode of a trivial request), measured directly rather than as a
   difference of two large medians taken at different times. *)
let ping_rtt_us (s : Wire.server) n =
  let b = Stats.buf () in
  for _ = 1 to n do
    let t0 = now_ns () in
    ignore (Wire.call s.conns.(0) {|{"op":"ping"}|});
    Stats.push b (float_of_int (now_ns () - t0) /. 1e3)
  done;
  Stats.median (Stats.to_array b)

(* Counter values and cache sizes from the server's metrics op. *)
let server_metrics (s : Wire.server) =
  let result = Wire.member "result" (Wire.call_json s.conns.(0) {|{"op":"metrics"}|}) in
  let ints field =
    match Wire.member field result with
    | Json.Assoc kvs ->
      List.filter_map (fun (k, v) -> match v with Json.Int i -> Some (k, i) | _ -> None) kvs
    | _ -> []
  in
  (ints "counters", ints "caches")

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let limit_of o = Option.value ~default:max_int o.requests

(* The median of [a], 0 when empty (a run whose transport failed). *)
let median0 a = if Array.length a = 0 then 0. else Stats.median a

(* Each run returns the tally of its timed requests, the tally of
   everything else it checked (warm-up, replay), its metrics and a few
   sample counts for the results log. *)
let run_e2e o (w : Gen.workload) =
  let tally = Wire.tally () and other = Wire.tally () in
  let setups = Stats.buf () in
  let rec bring_up k =
    let s, dt = set_up o w other in
    Stats.push setups dt;
    if k < o.setups then begin
      Wire.stop s;
      bring_up (k + 1)
    end
    else s
  in
  let s = bring_up 1 in
  let p =
    Fun.protect
      ~finally:(fun () -> Wire.stop s)
      (fun () ->
        timed_phase s w ~seconds:(float_of_int o.seconds) ~limit:(limit_of o)
          ~before_round:(fun () -> restart s w other)
          tally)
  in
  let lat = p.latency_ms in
  Printf.eprintf "e2e: %s: %d timed requests in %d rounds (%.2f s), %d answered\n%!" w.name
    tally.attempted p.rounds p.timed_s tally.answered;
  let metrics =
    [
      ("answers_per_s", if p.timed_s = 0. then 0. else float_of_int tally.answered /. p.timed_s);
      ("latency_p50_ms", median0 lat);
      ("latency_p99_ms", if lat = [||] then 0. else Stats.percentile lat 0.99);
      ("setup_s", Stats.median (Stats.to_array setups));
      ("peak_rss_mb", p.rss_mib);
    ]
  in
  ( tally,
    other,
    metrics,
    [ ("latency_samples", Array.length lat); ("rounds", p.rounds); ("setups", Stats.length setups) ]
  )

let ratio a b = if b = 0. then 0. else a /. b

let run_trace o (w : Gen.workload) =
  let tally = Wire.tally () and other = Wire.tally () in
  let s, _ = set_up o w other in
  (* Counter deltas summed over the timed rounds, since the reset before
     each round rolls the server's metrics. *)
  let counts = Hashtbl.create 64 in
  let p, caches, transport_us =
    Fun.protect
      ~finally:(fun () -> Wire.stop s)
      (fun () ->
        let base = ref (fst (server_metrics s)) in
        let close_stretch () =
          let now, caches = server_metrics s in
          List.iter
            (fun (k, v) ->
              let before = Option.value ~default:0 (List.assoc_opt k !base) in
              Hashtbl.replace counts k
                (v - before + Option.value ~default:0 (Hashtbl.find_opt counts k)))
            now;
          caches
        in
        let before_round () =
          ignore (close_stretch ());
          restart s w other;
          base := fst (server_metrics s)
        in
        let p =
          timed_phase s w ~seconds:(0.4 *. float_of_int o.seconds) ~limit:(limit_of o)
            ~before_round tally
        in
        let caches = close_stretch () in
        (p, caches, ping_rtt_us s 200))
  in
  let sent = Array.length p.latency_ms in
  let trace_file =
    Filename.concat o.out (Printf.sprintf "trace-%s-s%d.json" w.name o.seed)
  in
  let acc =
    Layers.replay w ~min_requests:(min 20 sent) ~max_requests:sent
      ~trace_requests:(min w.round (if w.clients > 1 then 5000 else 300))
      ~budget_s:(0.6 *. float_of_int o.seconds) ~trace_file
  in
  Wire.merge ~into:other acc.Layers.tally;
  let delta name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name)) in
  let hit_ratio prefix hits misses = ratio (delta (prefix ^ hits)) (delta (prefix ^ hits) +. delta (prefix ^ misses)) in
  let answers = float_of_int sent in
  let per_answer name = ratio (delta name) answers in
  let med b = if Stats.length b = 0 then 0. else Stats.median (Stats.to_array b) in
  (* A layer's share of the request time the untraced replay measured. *)
  let layer_share name =
    ratio
      (Option.fold ~none:0. ~some:( ! ) (Hashtbl.find_opt acc.layer_ns name))
      (1e3 *. Array.fold_left ( +. ) 0. (Stats.to_array acc.handle_us))
  in
  let route_share r =
    ratio
      (float_of_int
         (Hashtbl.fold
            (fun route n sum -> if List.assoc_opt route routes = Some r then sum + n else sum)
            tally.routes 0))
      (float_of_int (Hashtbl.fold (fun _ n sum -> sum + n) tally.routes 0))
  in
  let cache name = float_of_int (Option.value ~default:0 (List.assoc_opt name caches)) in
  let metrics =
    [
      ("protocol.decode_us", med acc.decode);
      ("protocol.encode_us", med acc.encode);
      ("protocol.response_bytes", med p.bytes);
      ("state.load_db_us", med acc.load_db);
      ("state.parse_query_us", med acc.parse_query);
      ("idb_parser.parse_us", med acc.parse_us);
      ("classify.exact_us", med acc.classify);
      ("dispatch.count_us", med acc.dispatch_us);
      ("dispatch.alloc_words", med acc.dispatch_alloc);
      ("dispatch.probe_us", med acc.dispatch_gap_us);
      ("arm.us", med acc.arm_us);
      ("arm.alloc_words", med acc.arm_alloc);
      ("engine.handle_us", med acc.handle_us);
      ("engine.alloc_words_per_answer", ratio acc.staged_alloc (float_of_int acc.replayed));
      ("server.transport_us", transport_us);
    ]
    @ List.map (fun (layer, m) -> (m, layer_share layer)) share_layers
    @ List.map (fun (_, r) -> ("route.share." ^ r, route_share r)) routes
    @ [
        ("state.result_hit_ratio", hit_ratio "serve.result_cache_" "hits" "misses");
        ("state.db_hit_ratio", hit_ratio "serve.db_cache_" "hits" "misses");
        ("state.db_entries", cache "serve.db_cache");
        ("state.result_entries", cache "serve.result_cache");
        ("classify.hit_ratio", hit_ratio "classify.cache_" "hits" "misses");
        ("bignum.result_digits", med p.digits);
        ("val_kernel.cache_hit_ratio", hit_ratio "val_kernel.cache_" "hits" "misses");
        ("val_kernel.events_per_answer", per_answer "val_kernel.events_compiled");
        ("val_kernel.bags_per_answer", per_answer "val_kernel.bags");
        ("val_kernel.conditioning_splits_per_answer", per_answer "val_kernel.conditioning_splits");
        ("treedec.width_max", acc.width_max);
        ("factor_store.spill_bytes_per_answer", per_answer "val_kernel.spill_bytes");
        ( "factor_store.read_amplification",
          ratio (delta "val_kernel.spill_read_bytes") (delta "val_kernel.spill_bytes") );
        ("comp_kernel.elim_states_per_answer", per_answer "comp_kernel.elim_states");
        ( "comp_kernel.memo_hit_ratio",
          hit_ratio "comp_kernel.elim_cache_" "hits" "misses" );
        ("comp_candidates.subsets_checked_per_answer", per_answer "comp_kernel.subsets_checked");
        ("par.batch_speedup", med acc.batch_speedup);
        ("par.domains_spawned_per_answer", per_answer "par.domains_spawned");
        ("obs.trace_overhead", Layers.trace_overhead acc);
      ]
  in
  Printf.eprintf "e2e: %s: traced replay of %d requests written to %s\n%!" w.name acc.replayed
    trace_file;
  (tally, other, metrics, [ ("replayed", acc.replayed); ("e2e_requests", sent) ])

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(* HEAD of the checkout, read from .git without running git; "unknown"
   outside a git checkout. *)
let commit () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" ref_) with
    | Some h -> h
    | None -> (
      try
        let ic = open_in ".git/packed-refs" in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec find () =
              let line = input_line ic in
              match String.split_on_char ' ' line with
              | [ h; r ] when r = ref_ -> h
              | _ -> find ()
            in
            find ())
      with Sys_error _ | End_of_file -> "unknown"))
  | Some h -> h
  | None -> "unknown"

let metric_json units metrics =
  Json.Assoc
    (List.map
       (fun (name, value) ->
         (name, Json.Assoc [ ("value", Json.Float value); ("unit", Json.String (List.assoc name units)) ]))
       metrics)

let run o =
  let t0 = now_ns () in
  let w = Gen.make ?round:o.requests o.workload ~seed:o.seed in
  let digest = Gen.digest w in
  Printf.eprintf
    "e2e: %s seed %d: %d warm-up requests, rounds of %d, generated in %.2f s (stream %s)\n%!"
    w.name o.seed (Array.length w.warmup) w.round (seconds_since t0) digest;
  let tally, other, metrics, counts = if o.trace then run_trace o w else run_e2e o w in
  Wire.merge ~into:tally other;
  let units = if o.trace then per_layer else end_to_end in
  let correct = tally.Wire.wrong = 0 && tally.lost = 0 in
  List.iter
    (fun (name, v) -> Printf.printf "%-44s %16.6f %s\n" name v (List.assoc name units))
    metrics;
  Printf.printf "attempted %d, answered %d, wrong %d, refused %d, transport failures %d\n"
    tally.attempted tally.answered tally.wrong tally.refused tally.lost;
  let result =
    Json.Assoc
      [
        ("workload", Json.String w.name);
        ("seed", Json.Int o.seed);
        ("seconds", Json.Int o.seconds);
        ("trace", Json.Bool o.trace);
        ("stream_digest", Json.String digest);
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("commit", Json.String (commit ()));
        ("counts", Json.Assoc (List.map (fun (k, v) -> (k, Json.Int v)) counts));
        ("attempted", Json.Int tally.attempted);
        ("failed", Json.Int (Wire.failed tally));
        ("correct", Json.Bool correct);
        ("metrics", metric_json units metrics);
      ]
  in
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat o.out "results.jsonl")
  in
  output_string oc (Json.to_string result ^ "\n");
  close_out oc;
  print_endline
    (Json.to_string
       (Json.Assoc
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int tally.attempted);
            ("failed", Json.Int (Wire.failed tally));
            ("metrics", metric_json units metrics);
          ]));
  (correct, tally, metrics)
