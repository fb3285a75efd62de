(* [e2e.exe compare A.jsonl B.jsonl]: judge two sets of run results,
   A the parent and B the change, against the bounds BENCHMARK.json
   fixes for the end-to-end metrics.  Each side needs at least five
   untraced results per workload, run alternately with the other side.

   Per (workload, metric): each side's median and quartiles, the share
   of index-matched pairs B wins (ties count for neither), and a
   verdict:

   - improved: B wins at least 9 pairs in 10, and the medians differ by
     more than A's own spread (its interquartile distance);
   - regressed: B's median is worse than A's by more than the bound,
     and A's spread is within the bound (or every B run is worse than
     every A run);
   - unresolved: A's spread is wider than the bound, and not every B run
     is better than every A run;
   - unchanged: otherwise.

   Traced results, if present, are summarised per layer metric without
   a verdict.  The exit code is 1 when any pair regressed. *)

module Json = Incdb_obs.Json

let min_runs = 5

type bound = { metric : string; higher_better : bool; bound : float }
type result = { workload : string; trace : bool; metrics : (string * float) list }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse what text =
  match Json.of_string text with Ok j -> j | Error msg -> failwith (what ^ ": " ^ msg)

let member = Wire.member

let number = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> failwith "expected a number"

let load_results path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let j = parse path line in
         {
           workload = (match member "workload" j with Json.String w -> w | _ -> "?");
           trace = member "trace" j = Json.Bool true;
           metrics =
             (match member "metrics" j with
             | Json.Assoc kvs -> List.map (fun (k, v) -> (k, number (member "value" v))) kvs
             | _ -> []);
         })

let load_bounds path =
  match member "end_to_end" (parse path (read_file path)) with
  | Json.List ms ->
    List.map
      (fun m ->
        {
          metric = (match member "name" m with Json.String s -> s | _ -> "?");
          higher_better = member "better" m = Json.String "higher";
          bound = number (member "bound" m);
        })
      ms
  | _ -> failwith (path ^ ": no end_to_end list")

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

(* Judge one metric: [a] the parent's values, [b] the change's, in run
   order. *)
let judge b_ a b =
  let better x y = if b_.higher_better then x > y else x < y in
  let qa1, ma, qa3 = Stats.quartiles a and _, mb, _ = Stats.quartiles b in
  let pairs = min (Array.length a) (Array.length b) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better b.(i) a.(i) then incr wins
  done;
  let won = float_of_int !wins /. float_of_int pairs in
  let worse = (if b_.higher_better then ma -. mb else mb -. ma) /. ma in
  let spread = (qa3 -. qa1) /. ma in
  let every cmp = Array.for_all (fun y -> Array.for_all (fun x -> cmp y x) a) b in
  let all_better = every better and all_worse = every (fun y x -> better x y) in
  let v =
    if won >= 0.9 && Float.abs (mb -. ma) > qa3 -. qa1 && better mb ma then Improved
    else if worse > b_.bound && (spread <= b_.bound || all_worse) then Regressed
    else if spread > b_.bound && not all_better then Unresolved
    else Unchanged
  in
  (won, v)

let values results ~workload ~trace metric =
  Array.of_list
    (List.filter_map
       (fun r ->
         if r.workload = workload && r.trace = trace then List.assoc_opt metric r.metrics
         else None)
       results)

let print_side label a =
  let q1, m, q3 = Stats.quartiles a in
  Printf.sprintf "%s %12.5g [%.5g, %.5g]" label m q1 q3

(* Returns whether any (workload, metric) regressed; raises Failure when
   a side has too few runs. *)
let compare_logs ~bounds a_path b_path =
  let bounds = load_bounds bounds in
  let a = load_results a_path and b = load_results b_path in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b))
  in
  let regressed = ref false in
  List.iter
    (fun workload ->
      Printf.printf "== %s ==\n" workload;
      List.iter
        (fun bd ->
          let va = values a ~workload ~trace:false bd.metric
          and vb = values b ~workload ~trace:false bd.metric in
          if Array.length va < min_runs || Array.length vb < min_runs then
            failwith
              (Printf.sprintf "%s %s: %d and %d runs; need %d per side" workload bd.metric
                 (Array.length va) (Array.length vb) min_runs);
          let won, v = judge bd va vb in
          if v = Regressed then regressed := true;
          Printf.printf "  %-22s %s  %s  won %3.0f%%  bound %.0f%%  %s\n" bd.metric
            (print_side "A" va) (print_side "B" vb) (100. *. won) (100. *. bd.bound)
            (verdict_to_string v))
        bounds;
      let traced side = List.filter (fun r -> r.workload = workload && r.trace) side in
      match (traced a, traced b) with
      | (ra :: _ as ta), (_ :: _ as tb) ->
        Printf.printf "  per layer (medians, %d and %d traced runs):\n" (List.length ta)
          (List.length tb);
        List.iter
          (fun (metric, _) ->
            let med side = Stats.median (values side ~workload ~trace:true metric) in
            Printf.printf "    %-44s %12.5g  %12.5g\n" metric (med a) (med b))
          ra.metrics
      | _ -> ())
    workloads;
  !regressed
