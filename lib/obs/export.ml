(* Exporters: a human-readable summary table (stderr) and a
   schema-stable JSON document (consumed by bench/ and the obs-smoke
   validator).

   JSON schema (version 2):

     { "schema_version": 2,
       "spans":    [ { "name": str, "path": str, "calls": int,
                       "wall_ns": int, "children": [span...] } ... ],
       "counters": { name: int, ... },
       "gauges":   { name: float, ... },
       "histograms": {
         name: { "count": int, "sum": float,
                 "p50": float, "p90": float, "p99": float,
                 "buckets": [ { "le": float|null, "count": int } ... ] } } }

   Adding fields is allowed; renaming or removing them is a schema
   version bump.  Version 1 -> 2: histograms gained the "p50"/"p90"/
   "p99" percentile estimates (Metrics.percentile over the exponential
   buckets; 0.0 when the histogram is empty) — additive in spirit, but
   consumers that *require* the percentiles need the version gate, so
   the number moved. *)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let rec span_to_json (s : Events.span) =
  Json.Assoc
    [
      ("name", Json.String s.span_name);
      ("path", Json.String s.span_path);
      ("calls", Json.Int s.span_calls);
      ("wall_ns", Json.Int s.span_wall_ns);
      ("children", Json.List (List.map span_to_json s.span_children));
    ]

let histogram_to_json (h : Metrics.histogram_snapshot) =
  Json.Assoc
    [
      ("count", Json.Int h.Metrics.count);
      ("sum", Json.Float h.Metrics.sum);
      ("p50", Json.Float (Metrics.percentile h 0.50));
      ("p90", Json.Float (Metrics.percentile h 0.90));
      ("p99", Json.Float (Metrics.percentile h 0.99));
      ( "buckets",
        Json.List
          (List.map
             (fun (le, c) ->
               Json.Assoc
                 [
                   ("le", if Float.is_finite le then Json.Float le else Json.Null);
                   ("count", Json.Int c);
                 ])
             h.Metrics.bucket_counts) );
    ]

let to_json () =
  Json.Assoc
    [
      ("schema_version", Json.Int 2);
      ("spans", Json.List (List.map span_to_json (Events.spans ())));
      ( "counters",
        Json.Assoc
          (List.map (fun (n, v) -> (n, Json.Int v)) (Metrics.counters_snapshot ()))
      );
      ( "gauges",
        Json.Assoc
          (List.map (fun (n, v) -> (n, Json.Float v)) (Metrics.gauges_snapshot ()))
      );
      ( "histograms",
        Json.Assoc
          (List.map
             (fun (n, h) -> (n, histogram_to_json h))
             (Metrics.histograms_snapshot ())) );
    ]

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~indent:2 (to_json ()));
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Human-readable table                                                *)
(* ------------------------------------------------------------------ *)

let pp_duration ns =
  let f = float_of_int ns in
  if ns < 1_000 then Printf.sprintf "%d ns" ns
  else if ns < 1_000_000 then Printf.sprintf "%.1f us" (f /. 1e3)
  else if ns < 1_000_000_000 then Printf.sprintf "%.2f ms" (f /. 1e6)
  else Printf.sprintf "%.3f s" (f /. 1e9)

let pp_summary oc =
  let forest = Events.spans () in
  if forest <> [] then begin
    Printf.fprintf oc "== span tree (wall clock) ==\n";
    Printf.fprintf oc "  %-44s %8s %12s %12s\n" "span" "calls" "total" "mean";
    let rec print depth (s : Events.span) =
      let label = String.make (2 * depth) ' ' ^ s.span_name in
      Printf.fprintf oc "  %-44s %8d %12s %12s\n" label s.span_calls
        (pp_duration s.span_wall_ns)
        (pp_duration
           (if s.span_calls = 0 then 0 else s.span_wall_ns / s.span_calls));
      List.iter (print (depth + 1)) s.span_children
    in
    List.iter (print 0) forest
  end;
  let counters = Metrics.counters_snapshot () in
  if counters <> [] then begin
    Printf.fprintf oc "== counters ==\n";
    List.iter (fun (n, v) -> Printf.fprintf oc "  %-44s %12d\n" n v) counters
  end;
  let gauges = Metrics.gauges_snapshot () in
  if gauges <> [] then begin
    Printf.fprintf oc "== gauges ==\n";
    List.iter (fun (n, v) -> Printf.fprintf oc "  %-44s %12g\n" n v) gauges
  end;
  let histograms = Metrics.histograms_snapshot () in
  if List.exists (fun (_, h) -> h.Metrics.count > 0) histograms then begin
    Printf.fprintf oc "== histograms ==\n";
    List.iter
      (fun (n, h) ->
        if h.Metrics.count > 0 then begin
          Printf.fprintf oc
            "  %-44s count %d, mean %s, p50 %s, p90 %s, p99 %s\n" n
            h.Metrics.count
            (pp_duration
               (int_of_float (h.Metrics.sum /. float_of_int h.Metrics.count)))
            (pp_duration (int_of_float (Metrics.percentile h 0.50)))
            (pp_duration (int_of_float (Metrics.percentile h 0.90)))
            (pp_duration (int_of_float (Metrics.percentile h 0.99)));
          List.iter
            (fun (le, c) ->
              if c > 0 then
                if Float.is_finite le then
                  Printf.fprintf oc "    <= %-10s %8d\n"
                    (pp_duration (int_of_float le))
                    c
                else Printf.fprintf oc "    overflow      %8d\n" c)
            h.Metrics.bucket_counts
        end)
      histograms
  end;
  flush oc

(* Zero every span, metric and recorded event; registrations survive.
   Safe while spans are open on any domain (see Events.reset) — incdbd
   calls this between requests. *)
let reset () =
  Metrics.reset ();
  Events.reset ()

(* ------------------------------------------------------------------ *)
(* Cache lifecycle                                                     *)
(* ------------------------------------------------------------------ *)

(* Long-lived engine caches (the Classify verdict cache, and any other
   module-global memo a library layer grows) register a reset thunk
   here, so a persistent process can drop warm state without the obs
   layer depending on the engine modules above it.  Deliberately
   separate from {!reset}: metrics are zeroed per request in incdbd,
   caches only on an explicit lifecycle request — warm reuse across
   requests is the whole point of the server. *)

let cache_resets : (string * (unit -> unit)) list ref = ref []
let cache_resets_lock = Mutex.create ()

let register_cache_reset name thunk =
  Mutex.protect cache_resets_lock (fun () ->
      cache_resets := (name, thunk) :: List.remove_assoc name !cache_resets)

let registered_caches () =
  Mutex.protect cache_resets_lock (fun () -> List.map fst !cache_resets)

let reset_caches () =
  let thunks =
    Mutex.protect cache_resets_lock (fun () -> List.map snd !cache_resets)
  in
  List.iter (fun thunk -> thunk ()) thunks

(* Everything: metrics, spans, events and every registered cache. *)
let reset_all () =
  reset ();
  reset_caches ()
