(* Prometheus text-exposition formatter over the {!Metrics} and
   {!Events} span snapshots (exposition format version 0.0.4).

   Counters become `incdb_<name>_total`, gauges `incdb_<name>`, and
   histograms the standard `_bucket{le=...}` / `_sum` / `_count`
   triple with *cumulative* bucket counts (our snapshots store
   per-bucket counts).  Span aggregates are exposed as two metric
   families labelled by path: `incdb_span_calls_total{path="a/b"}` and
   `incdb_span_wall_ns_total{path="a/b"}`.  Metric names are sanitized
   to the Prometheus alphabet (dots become underscores).

   This is the payload a persistent `incdbd` serves from /metrics —
   writing it to a socket instead of a file is the only missing step. *)

let sanitize name =
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name
  in
  "incdb_" ^ mapped

(* Label values escape backslash, double quote and newline. *)
let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let float_literal f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" f

let to_string () =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun (name, v) ->
      let n = sanitize name ^ "_total" in
      line "# TYPE %s counter" n;
      line "%s %d" n v)
    (Metrics.counters_snapshot ());
  List.iter
    (fun (name, v) ->
      let n = sanitize name in
      line "# TYPE %s gauge" n;
      line "%s %s" n (float_literal v))
    (Metrics.gauges_snapshot ());
  List.iter
    (fun (name, (h : Metrics.histogram_snapshot)) ->
      let n = sanitize name in
      line "# TYPE %s histogram" n;
      let cum = ref 0 in
      List.iter
        (fun (le, c) ->
          cum := !cum + c;
          line "%s_bucket{le=\"%s\"} %d" n (float_literal le) !cum)
        h.Metrics.bucket_counts;
      line "%s_sum %s" n (float_literal h.Metrics.sum);
      line "%s_count %d" n h.Metrics.count)
    (Metrics.histograms_snapshot ());
  let rec flatten (s : Events.span) = s :: List.concat_map flatten s.span_children in
  (match List.concat_map flatten (Events.spans ()) with
  | [] -> ()
  | spans ->
    line "# TYPE incdb_span_calls_total counter";
    List.iter
      (fun (s : Events.span) ->
        line "incdb_span_calls_total{path=\"%s\"} %d" (escape_label s.span_path)
          s.span_calls)
      spans;
    line "# TYPE incdb_span_wall_ns_total counter";
    List.iter
      (fun (s : Events.span) ->
        line "incdb_span_wall_ns_total{path=\"%s\"} %d" (escape_label s.span_path)
          s.span_wall_ns)
      spans);
  Buffer.contents buf

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ()))
