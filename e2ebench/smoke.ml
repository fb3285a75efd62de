(* The @bench-e2e-smoke check, run by the default runtest:

   - every closed form in Oracle agrees with Brute_par on small random
     instances, and the answer checker rejects wrong, refused and
     mismatched answers — so no oracle error can make a run pass or
     fail;
   - every workload runs end to end at 20 timed requests against the
     real incdbd, untraced and traced, with every answer correct;
   - each Chrome trace passes validate_metrics --chrome;
   - the comparison tool flags a planted regression, and only that;
   - BENCHMARK.json names exactly the workloads and metrics (with units)
     a run prints. *)

module Json = Incdb_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e smoke: " ^ s); exit 1) fmt

let check_eq what expected got =
  if not (Incdb_bignum.Nat.equal expected got) then
    fail "%s: formula %s, brute force %s" what
      (Incdb_bignum.Nat.to_string expected)
      (Incdb_bignum.Nat.to_string got)

let bcq (inst : Gen.inst) = Incdb_cq.Query.Bcq (Incdb_cq.Cq.of_string inst.query)

let brute_val inst = Incdb_par.Brute_par.count_valuations ~jobs:1 (bcq inst) (Gen.parse inst.db)
let brute_comp inst = Incdb_par.Brute_par.count_completions ~jobs:1 (bcq inst) (Gen.parse inst.db)

let oracles () =
  let rng = Random.State.make [| 2024 |] in
  let between = Gen.between rng in
  for case = 1 to 40 do
    let what name = Printf.sprintf "%s case %d" name case in
    (* Path query with per-null domain sizes, edges anywhere in 0..d-1. *)
    let d = between 1 3 in
    let sizes () = List.init (between 1 3) (fun _ -> d + between 0 2) in
    let r_sizes = sizes () and t_sizes = sizes () in
    let edges = Gen.random_edges rng ~d (between 1 3) in
    let inst =
      Gen.path ~r_doms:(List.map Gen.range r_sizes) ~t_doms:(List.map Gen.range t_sizes)
        ~edges ~problem:Gen.Val_count
    in
    check_eq (what "path") (Oracle.path_val ~r_sizes ~t_sizes ~d ~edges) (brute_val inst);
    let n = between 1 3 and d = between 1 4 in
    check_eq (what "diagonal") (Oracle.diagonal_val ~n ~d) (brute_val (Gen.diagonal ~n ~d));
    let d = between 1 5 in
    let cr = between 0 (min 2 d) in
    let cs = between 0 (min 2 (d - cr)) in
    let nr = between 0 3 and ns = between 0 3 in
    check_eq (what "two-unary")
      (Oracle.two_unary_val ~d ~nr ~cr ~ns ~cs)
      (brute_val (Gen.two_unary ~d ~nr ~cr ~ns ~cs));
    let r_sizes = List.init (between 1 2) (fun _ -> between 1 4) in
    let s_sizes = List.init (between 1 2) (fun _ -> between 1 4) in
    check_eq (what "product")
      (Oracle.product_val ~domain_sizes:(r_sizes @ s_sizes))
      (brute_val (Gen.product rng ~pool:5 ~r_sizes ~s_sizes ~cr:(between 0 1) ~cs:(between 0 1)));
    let d = between 1 6 in
    let c = between 0 (min 2 d) in
    let n = between (if c = 0 then 1 else 0) 3 in
    check_eq (what "unary-comp") (Oracle.unary_comp ~d ~n ~c)
      (brute_comp (Gen.unary_comp ~d ~n ~c))
  done;
  (* The checker accepts the right answer and nothing else. *)
  let resp fields = Json.to_string (Json.Assoc fields) in
  let count c =
    resp
      [
        ("ok", Json.Bool true);
        ("result", Json.Assoc [ ("algorithm", Json.String "a"); ("count", Json.String c) ]);
      ]
  in
  let expect_outcome what want got =
    match (want, got) with
    | `Answer, Wire.Answer _ | `Wrong, Wire.Wrong _ | `Refused, Wire.Refused _ -> ()
    | _ -> fail "checker: %s judged wrongly" what
  in
  expect_outcome "right count" `Answer (Wire.check_line (Gen.Count "42") (count "42"));
  expect_outcome "wrong count" `Wrong (Wire.check_line (Gen.Count "42") (count "43"));
  expect_outcome "refusal" `Refused
    (Wire.check_line (Gen.Count "42")
       (resp [ ("ok", Json.Bool false); ("error", Json.Assoc [ ("kind", Json.String "x") ]) ]));
  expect_outcome "wrong batch entry" `Wrong
    (Wire.check_line
       (Gen.Batch [ Gen.Count "1"; Gen.Count "2" ])
       (Printf.sprintf {|{"ok":true,"result":{"results":[%s,%s]}}|} (count "1") (count "3")));
  expect_outcome "wrong verdicts" `Wrong
    (Wire.check_line (Gen.Verdicts [ "a" ])
       (resp
          [
            ("ok", Json.Bool true);
            ( "result",
              Json.Assoc
                [ ("settings", Json.List [ Json.Assoc [ ("exact", Json.String "b") ] ]) ] );
          ]));
  print_endline "oracles agree with brute force; checker rejects wrong answers"

let run_validator validator trace =
  let pid =
    Unix.create_process validator
      [| validator; "--chrome"; trace; "protocol.decode"; "state.load_db"; "protocol.encode" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "%s does not validate" trace

let workloads ~incdbd ~validator ~out =
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let o =
            {
              Runs.incdbd;
              out;
              workload;
              seed = 7;
              seconds = 600;
              trace;
              requests = Some 20;
              setups = 1;
            }
          in
          let correct, tally, metrics = Runs.run o in
          if (not correct) || Wire.failed tally > 0 then
            fail "%s (trace %b): %d wrong, %d failed" workload trace tally.wrong
              (Wire.failed tally);
          List.iter
            (fun (name, v) -> if not (Float.is_finite v) then fail "%s: %s is %f" workload name v)
            metrics;
          if List.map fst metrics <> List.map fst (if trace then Runs.per_layer else Runs.end_to_end)
          then fail "%s (trace %b): the metrics printed are not the ones declared" workload trace;
          if trace then
            run_validator validator
              (Filename.concat out (Printf.sprintf "trace-%s-s%d.json" workload o.seed)))
        [ false; true ])
    Gen.names

(* Synthetic results: the parent at 100 answers/s, and changes that are
   the same, 20% slower and 30% faster.  Only the slower one may
   regress. *)
let compare_self_test ~out =
  let write name rows =
    let path = Filename.concat out name in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) rows;
    close_out oc;
    path
  in
  let bounds =
    write "bounds.json"
      [
        {|{"end_to_end": [{"name": "answers_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},|};
        {| {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}|};
      ]
  in
  let runs name scale =
    write name
      (List.init 6 (fun i ->
           let jitter = float_of_int (i mod 3) in
           Printf.sprintf
             {|{"workload":"w","trace":false,"metrics":{"answers_per_s":{"value":%f,"unit":"1/s"},"latency_p50_ms":{"value":%f,"unit":"ms"}}}|}
             ((100. +. jitter) *. scale)
             ((10. +. (0.1 *. jitter)) /. scale)))
  in
  let parent = runs "parent.jsonl" 1. in
  let judge name scale = Verdict.compare_logs ~bounds parent (runs name scale) in
  if judge "same.jsonl" 1. then fail "compare: identical runs judged a regression";
  if not (judge "slower.jsonl" 0.8) then fail "compare: a planted 20%% regression passed";
  if judge "faster.jsonl" 1.3 then fail "compare: an improvement judged a regression";
  (match Verdict.compare_logs ~bounds parent (write "few.jsonl" [ "{\"workload\":\"w\"}" ]) with
  | _ -> fail "compare: accepted a side with too few runs"
  | exception Failure _ -> ());
  print_endline "compare flags the planted regression only"

(* BENCHMARK.json must list what a run prints. *)
let benchmark_json path =
  let j =
    match Json.of_string (Verdict.read_file path) with
    | Ok j -> j
    | Error msg -> fail "%s: %s" path msg
  in
  let list key =
    match Json.member key j with Some (Json.List l) -> l | _ -> fail "%s: no %s" path key
  in
  let str k m = match Json.member k m with Some (Json.String s) -> s | _ -> "" in
  let named key = List.map (fun m -> (str "name" m, str "unit" m)) (list key) in
  if List.map (fun m -> str "name" m) (list "workloads") <> Gen.names then
    fail "%s: workloads differ from the generator's" path;
  if named "end_to_end" <> Runs.end_to_end then fail "%s: end_to_end differs from a run's" path;
  if named "per_layer" <> Runs.per_layer then fail "%s: per_layer differs from a traced run's" path;
  print_endline "BENCHMARK.json matches the metrics a run prints"

let run ~incdbd ~validator ~bounds =
  let out = "e2e-smoke" in
  if not (Sys.file_exists out) then Unix.mkdir out 0o755;
  oracles ();
  benchmark_json bounds;
  compare_self_test ~out;
  workloads ~incdbd ~validator ~out;
  print_endline "e2e smoke ok"
