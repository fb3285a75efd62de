(* The incdbd serve layer: protocol round-trips, warm-cache reuse across
   requests, admission control that refuses without wedging the server,
   and socket answers bit-identical to the in-process engine (which the
   engine tests in turn pin to the counting library, i.e. to what a
   one-shot idbcount computes). *)

open Incdb_bignum
open Incdb_core
open Incdb_serve
module Json = Incdb_obs.Json
module Metrics = Incdb_obs.Metrics

let testdata name =
  let candidates =
    [
      Filename.concat "testdata" name;
      Filename.concat "../testdata" name;
      Filename.concat "../../../testdata" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate testdata file " ^ name)

(* Counters only tick when collection is on; the server always enables
   it, so the tests do too. *)
let () = Incdb_obs.Runtime.set_enabled true

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Metrics.counters_snapshot ()))

(* ------------------------------------------------------------------ *)
(* JSON plumbing                                                       *)
(* ------------------------------------------------------------------ *)

let get name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.fail ("missing field " ^ name ^ " in " ^ Json.to_string j)

let get_str name j =
  match get name j with
  | Json.String s -> s
  | _ -> Alcotest.fail (name ^ " is not a string")

let get_bool name j =
  match get name j with
  | Json.Bool b -> b
  | _ -> Alcotest.fail (name ^ " is not a bool")

let handle state line =
  match Protocol.of_line line with
  | Ok r -> Engine.handle state r
  | Error msg -> Alcotest.fail ("request refused to parse: " ^ msg)

let result_of resp =
  Alcotest.(check bool)
    ("response ok: " ^ Json.to_string resp)
    true (get_bool "ok" resp);
  get "result" resp

let error_kind resp =
  Alcotest.(check bool) "response is an error" false (get_bool "ok" resp);
  get_str "kind" (get "error" resp)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse () =
  (match Protocol.of_line {|{"op":"count","db":"x.idb","query":"R(x)"}|} with
  | Ok r ->
    Alcotest.(check string) "op" "count" r.Protocol.op;
    Alcotest.(check int) "default brute_limit" 4_000_000 r.Protocol.brute_limit;
    Alcotest.(check int) "default jobs" 1 r.Protocol.jobs;
    Alcotest.(check bool) "default fresh" false r.Protocol.fresh;
    Alcotest.(check bool) "source is the path" true
      (r.Protocol.source = Some (Protocol.Path "x.idb"))
  | Error msg -> Alcotest.fail msg);
  let bad line =
    match Protocol.of_line line with
    | Ok _ -> Alcotest.fail ("accepted bad request: " ^ line)
    | Error _ -> ()
  in
  bad "not json at all";
  bad {|[1,2,3]|};
  bad {|{"op":"frobnicate"}|};
  bad {|{"op":"count","jobs":"two"}|};
  bad {|{"op":"count","db":"a","db_text":"b"}|};
  bad {|{"op":"count","val_order":"max-degree"}|};
  (* A misspelled knob is refused by name, never answered with the
     default it failed to override. *)
  List.iter
    (fun field ->
      match
        Protocol.of_line
          (Printf.sprintf {|{"op":"count","db":"x.idb","query":"R(x)","%s":1}|}
             field)
      with
      | Ok _ -> Alcotest.fail ("accepted unknown field " ^ field)
      | Error msg ->
        Alcotest.(check string) "refusal names the field"
          (Printf.sprintf "unknown field %S" field)
          msg)
    [ "brute_limt"; "val_max_event" ];
  (* Unknown ids are echoed verbatim, whatever their type. *)
  match Protocol.of_line {|{"op":"ping","id":{"k":[1,2]}}|} with
  | Ok r ->
    Alcotest.(check string) "structured id survives" {|{"k":[1,2]}|}
      (Json.to_string r.Protocol.id)
  | Error msg -> Alcotest.fail msg

(* Every knob of the table, at a value other than its default, must
   change the key of every op that reads it — unless it decodes to the
   same request (an alias such as "valuations" for "val"); [id], [fresh]
   and [jobs] never may. *)
let test_cache_key () =
  let parse members =
    match Protocol.of_json (Json.Assoc members) with
    | r -> r
    | exception Protocol.Bad m -> Alcotest.fail m
  in
  let base op =
    [ ("op", Json.String op); ("db", Json.String "x.idb");
      ("query", Json.String "R(x)") ]
  in
  let key r = Protocol.cache_key r ~db_key:"K" in
  let values (k : Protocol.knob) =
    match k.values with
    | Protocol.Ints -> [ Json.Int 0; Json.Int 1; Json.Int 7 ]
    | Protocol.Choices names -> List.map (fun c -> Json.String c) names
    | Protocol.Flag -> [ Json.Bool false; Json.Bool true ]
  in
  List.iter
    (fun (k : Protocol.knob) ->
      List.iter
        (fun op ->
          let r0 = parse (base op) in
          let keyed =
            List.filter
              (fun v ->
                let r = parse (base op @ [ (k.name, v) ]) in
                let what =
                  Printf.sprintf "%s=%s on %s" k.name (Json.to_string v) op
                in
                if r = r0 || k.name = "jobs" then begin
                  Alcotest.(check string) (what ^ " does not key") (key r0)
                    (key r);
                  false
                end
                else begin
                  Alcotest.(check bool) (what ^ " keys") true (key r <> key r0);
                  true
                end)
              (values k)
          in
          if k.name <> "jobs" && keyed = [] then
            Alcotest.failf "%s on %s: no non-default value tried" k.name op)
        k.ops)
    Protocol.knobs;
  List.iter
    (fun op ->
      let delivery =
        [ ("id", Json.Int 7); ("fresh", Json.Bool true); ("jobs", Json.Int 4) ]
      in
      Alcotest.(check string)
        (op ^ ": id, fresh and jobs do not key")
        (key (parse (base op)))
        (key (parse (base op @ delivery))))
    [ "count"; "approx"; "bounds"; "classify" ];
  Alcotest.(check bool) "the database keys" true
    (key (parse (base "count"))
    <> Protocol.cache_key (parse (base "count")) ~db_key:"K2")

(* ------------------------------------------------------------------ *)
(* Engine: answers pinned to the counting library                      *)
(* ------------------------------------------------------------------ *)

let census_query = "Office(x,y), Skill(x,z)"

let count_req ?(extra = "") ?(fresh = false) ~db ~query () =
  Printf.sprintf {|{"op":"count","db":"%s","query":"%s","fresh":%b%s}|} db query
    fresh extra

let test_count_val_identical () =
  let state = State.create () in
  let db_path = testdata "census.idb" in
  let resp = handle state (count_req ~db:db_path ~query:census_query ()) in
  let r = result_of resp in
  let q = Incdb_cq.Cq.of_string census_query in
  let db = Incdb_incomplete.Idb_parser.of_file db_path in
  let algo, expected = Count_val.count q db in
  Alcotest.(check string) "count" (Nat.to_string expected) (get_str "count" r);
  Alcotest.(check string) "algorithm"
    (Count_val.algorithm_to_string algo)
    (get_str "algorithm" r);
  Alcotest.(check string) "total valuations"
    (Nat.to_string (Incdb_incomplete.Idb.total_valuations db))
    (get_str "total_valuations" r);
  (* The same request at jobs 2 and 4 must answer bit-identically. *)
  List.iter
    (fun jobs ->
      let line =
        count_req ~db:db_path ~query:census_query ~fresh:true
          ~extra:(Printf.sprintf {|,"jobs":%d|} jobs)
          ()
      in
      let r' = result_of (handle state line) in
      Alcotest.(check string)
        (Printf.sprintf "bit-identical at jobs %d" jobs)
        (Json.to_string r) (Json.to_string r'))
    [ 2; 4 ]

let test_count_comp_identical () =
  let state = State.create () in
  let db_path = testdata "noncodd.idb" in
  let line =
    count_req ~db:db_path ~query:"R(x), S(x)" ~extra:{|,"problem":"comp"|} ()
  in
  let r = result_of (handle state line) in
  let q = Incdb_cq.Cq.of_string "R(x), S(x)" in
  let db = Incdb_incomplete.Idb_parser.of_file db_path in
  let algo, expected = Count_comp.count q db in
  Alcotest.(check string) "count" (Nat.to_string expected) (get_str "count" r);
  Alcotest.(check string) "algorithm"
    (Count_comp.algorithm_to_string algo)
    (get_str "algorithm" r)

(* ------------------------------------------------------------------ *)
(* Warm reuse                                                          *)
(* ------------------------------------------------------------------ *)

let test_warm_val_cache () =
  let state = State.create () in
  let db_path = testdata "census.idb" in
  let line = count_req ~db:db_path ~query:census_query ~fresh:true () in
  let cold = result_of (handle state line) in
  let hits0 = counter "val_kernel.cache_hits" in
  let warm = result_of (handle state line) in
  let hits1 = counter "val_kernel.cache_hits" in
  Alcotest.(check bool) "kernel subproblem cache reused across requests" true
    (hits1 > hits0);
  Alcotest.(check string) "warm answer identical" (Json.to_string cold)
    (Json.to_string warm)

(* "val_cache_entries": 0 turns the kernel's cache off in the server
   too: no lookups at all, and the same count. *)
let test_val_cache_off () =
  let state = State.create () in
  let db_path = testdata "census.idb" in
  let cached =
    result_of (handle state (count_req ~db:db_path ~query:census_query ()))
  in
  let hits0 = counter "val_kernel.cache_hits" in
  let misses0 = counter "val_kernel.cache_misses" in
  let off =
    result_of
      (handle state
         (count_req ~db:db_path ~query:census_query ~fresh:true
            ~extra:{|,"val_cache_entries":0|} ()))
  in
  Alcotest.(check int) "no cache hits" 0
    (counter "val_kernel.cache_hits" - hits0);
  Alcotest.(check int) "no cache misses" 0
    (counter "val_kernel.cache_misses" - misses0);
  Alcotest.(check string) "count unchanged" (get_str "count" cached)
    (get_str "count" off)

let test_warm_comp_memos () =
  let state = State.create () in
  let db_path = testdata "noncodd.idb" in
  let line =
    count_req ~db:db_path ~query:"R(x), S(x)" ~fresh:true
      ~extra:{|,"problem":"comp"|} ()
  in
  let cold = result_of (handle state line) in
  Alcotest.(check string) "elimination arm"
    (Count_comp.algorithm_to_string Count_comp.Lineage_elimination)
    (get_str "algorithm" cold);
  let hits0 = counter "comp_kernel.elim_cache_hits" in
  let misses0 = counter "comp_kernel.elim_cache_misses" in
  let warm = result_of (handle state line) in
  let hits1 = counter "comp_kernel.elim_cache_hits" in
  let misses1 = counter "comp_kernel.elim_cache_misses" in
  Alcotest.(check string) "warm answer identical" (Json.to_string cold)
    (Json.to_string warm);
  Alcotest.(check bool) "transform memos replay as hits" true (hits1 > hits0);
  Alcotest.(check int) "no transform recomputed on the warm run" 0
    (misses1 - misses0)

let test_warm_classify () =
  let state = State.create () in
  Classify.reset_cache ();
  let line = {|{"op":"classify","query":"R(x), S(x,y), T(y)"}|} in
  let cold = result_of (handle state line) in
  let hits0 = counter "classify.cache_hits" in
  let warm = result_of (handle state {|{"op":"classify","query":"R(x), S(x,y), T(y)","fresh":true}|}) in
  let hits1 = counter "classify.cache_hits" in
  Alcotest.(check bool) "verdict cache reused" true (hits1 > hits0);
  Alcotest.(check string) "verdicts identical" (Json.to_string cold)
    (Json.to_string warm)

let test_result_cache () =
  let state = State.create () in
  let db_path = testdata "figure1.idb" in
  let line = count_req ~db:db_path ~query:"S(x,x)" () in
  let first = handle state line in
  Alcotest.(check bool) "first answer is computed" true
    (Json.member "cached" first = None);
  let hits0 = counter "serve.result_cache_hits" in
  let second = handle state line in
  Alcotest.(check bool) "second answer is replayed" true
    (get_bool "cached" second);
  Alcotest.(check int) "one result-cache hit" (hits0 + 1)
    (counter "serve.result_cache_hits");
  Alcotest.(check string) "payload byte-identical"
    (Json.to_string (result_of first))
    (Json.to_string (result_of second));
  (* fresh recomputes but stays cached for the next caller. *)
  let third = handle state (count_req ~db:db_path ~query:"S(x,x)" ~fresh:true ()) in
  Alcotest.(check bool) "fresh bypasses the cache" true
    (Json.member "cached" third = None)

(* An approx estimate is a function of the request minus [jobs]: the
   result cache keys it that way, so every job count must draw the same
   samples, and a replay must equal a fresh answer at any job count. *)
let test_approx_jobs_invariant () =
  let state = State.create () in
  let approx ?(fresh = false) jobs =
    let line =
      Printf.sprintf
        {|{"op":"approx","db":"%s","query":"R(x), S(x,y), T(y)","samples":2000,"jobs":%d,"fresh":%b}|}
        (testdata "kkk.idb") jobs fresh
    in
    handle state line
  in
  let want = Json.to_string (result_of (approx 1)) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "fresh answer at jobs %d" jobs)
        want
        (Json.to_string (result_of (approx ~fresh:true jobs)));
      let replay = approx 1 in
      Alcotest.(check bool) "jobs 1 replays the cache" true
        (get_bool "cached" replay);
      Alcotest.(check string)
        (Printf.sprintf "replay after a fresh answer at jobs %d" jobs)
        want
        (Json.to_string (result_of replay)))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let test_admission_control () =
  let state = State.create () in
  let db_path = testdata "census.idb" in
  let refusals0 = counter "serve.refusals" in
  let refused =
    handle state
      (count_req ~db:db_path ~query:census_query ~fresh:true
         ~extra:{|,"val_max_events":0,"brute_limit":1|} ())
  in
  Alcotest.(check string) "typed refusal" "too_many_valuations"
    (error_kind refused);
  Alcotest.(check int) "refusal counted" (refusals0 + 1)
    (counter "serve.refusals");
  (* The server keeps serving after a refusal, warm state intact. *)
  let ok = result_of (handle state (count_req ~db:db_path ~query:census_query ())) in
  let q = Incdb_cq.Cq.of_string census_query in
  let db = Incdb_incomplete.Idb_parser.of_file db_path in
  Alcotest.(check string) "subsequent request served"
    (Nat.to_string (snd (Count_val.count q db)))
    (get_str "count" ok);
  (* Protocol-level failures answer structurally too. *)
  Alcotest.(check string) "missing query" "bad_request"
    (error_kind (handle state (Printf.sprintf {|{"op":"count","db":"%s"}|} db_path)));
  Alcotest.(check string) "unreadable database" "db_error"
    (error_kind
       (handle state {|{"op":"count","db":"/nonexistent.idb","query":"R(x)"}|}));
  Alcotest.(check string) "unparsable query" "bad_request"
    (error_kind
       (handle state
          (Printf.sprintf {|{"op":"count","db":"%s","query":"R(x"}|} db_path)))

let test_batch () =
  let state = State.create () in
  let db_path = testdata "figure1.idb" in
  let census = testdata "census.idb" in
  let line =
    Printf.sprintf
      {|{"op":"batch","jobs":2,"requests":[
          {"id":"a","op":"count","db":"%s","query":"S(x,x)"},
          {"id":"b","op":"count","db":"%s","query":"S(a,x)"},
          {"id":"c","op":"count","db":"%s","query":"Office(x,y), Skill(x,z)","val_max_events":0,"brute_limit":1},
          {"id":"d","op":"shutdown"}]}|}
      db_path db_path census
    |> String.split_on_char '\n' |> List.map String.trim |> String.concat ""
  in
  let results =
    match get "results" (result_of (handle state line)) with
    | Json.List l -> l
    | _ -> Alcotest.fail "results is not an array"
  in
  Alcotest.(check int) "all sub-requests answered" 4 (List.length results);
  let nth n = List.nth results n in
  Alcotest.(check string) "order preserved" "a" (get_str "id" (nth 0));
  let q = Incdb_cq.Cq.of_string "S(x,x)" in
  let db = Incdb_incomplete.Idb_parser.of_file db_path in
  Alcotest.(check string) "sub-request answer pinned"
    (Nat.to_string (snd (Count_val.count q db)))
    (get_str "count" (result_of (nth 0)));
  Alcotest.(check bool) "refused entry refused alone" false
    (get_bool "ok" (nth 2));
  Alcotest.(check string) "lifecycle op rejected in batch" "bad_request"
    (error_kind (nth 3))

let test_metrics_and_reset () =
  let state = State.create () in
  let m = result_of (handle state {|{"op":"metrics"}|}) in
  let prom = get_str "prometheus" m in
  Alcotest.(check bool) "prometheus text rendered" true
    (String.length prom > 0);
  ignore (get "counters" m);
  ignore (get "caches" m);
  (* A caches reset must empty the warm layers. *)
  let db_path = testdata "figure1.idb" in
  ignore (handle state (count_req ~db:db_path ~query:"S(x,x)" ()));
  Alcotest.(check bool) "result cache populated" true
    (State.result_count state > 0);
  let r = result_of (handle state {|{"op":"reset","caches":true}|}) in
  (match get "caches" r with
  | Json.List (_ :: _) -> ()
  | _ -> Alcotest.fail "reset did not report dropped caches");
  Alcotest.(check int) "result cache emptied" 0 (State.result_count state)

(* ------------------------------------------------------------------ *)
(* Socket transport                                                    *)
(* ------------------------------------------------------------------ *)

let socket_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "incdbd-%d-%d.sock" (Unix.getpid ()) (Random.int 10000))

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec retry n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      Thread.delay 0.05;
      retry (n - 1)
  in
  retry 100;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let roundtrip oc ic line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let test_socket_roundtrip () =
  let path = socket_path () in
  let state = State.create () in
  let server = Thread.create (fun () -> Server.run_socket state ~socket_path:path) () in
  let db_path = testdata "census.idb" in
  let expected =
    Json.to_string
      (result_of (Engine.handle state (match Protocol.of_line (count_req ~db:db_path ~query:census_query ()) with Ok r -> r | Error m -> Alcotest.fail m)))
  in
  (* Three concurrent clients at different job counts: every response
     must be byte-identical to the sequential in-process answer. *)
  let answers = Array.make 3 "" in
  let clients =
    List.mapi
      (fun i jobs ->
        Thread.create
          (fun () ->
            let _fd, ic, oc = connect path in
            let line =
              count_req ~db:db_path ~query:census_query ~fresh:true
                ~extra:(Printf.sprintf {|,"jobs":%d|} jobs)
                ()
            in
            let resp = roundtrip oc ic line in
            (match Json.of_string resp with
            | Ok j -> answers.(i) <- Json.to_string (get "result" j)
            | Error m -> answers.(i) <- "parse error: " ^ m);
            close_out_noerr oc)
          ())
      [ 1; 2; 4 ]
  in
  List.iter Thread.join clients;
  Array.iteri
    (fun i got ->
      Alcotest.(check string)
        (Printf.sprintf "client %d bit-identical" i)
        expected got)
    answers;
  (* Disconnect mid-conversation must not wedge the server... *)
  let fd, _, _ = connect path in
  Unix.close fd;
  (* ...and a clean shutdown stops it and removes the socket. *)
  let _fd, ic, oc = connect path in
  let resp = roundtrip oc ic {|{"op":"shutdown"}|} in
  (match Json.of_string resp with
  | Ok j -> Alcotest.(check bool) "shutdown acknowledged" true (get_bool "ok" j)
  | Error m -> Alcotest.fail m);
  close_out_noerr oc;
  Thread.join server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "cache key" `Quick test_cache_key;
        ] );
      ( "engine",
        [
          Alcotest.test_case "count val = library" `Quick test_count_val_identical;
          Alcotest.test_case "count comp = library" `Quick test_count_comp_identical;
          Alcotest.test_case "batch" `Quick test_batch;
          Alcotest.test_case "metrics and reset" `Quick test_metrics_and_reset;
        ] );
      ( "warm",
        [
          Alcotest.test_case "val kernel cache" `Quick test_warm_val_cache;
          Alcotest.test_case "val kernel cache off" `Quick test_val_cache_off;
          Alcotest.test_case "comp transform memos" `Quick test_warm_comp_memos;
          Alcotest.test_case "classify verdicts" `Quick test_warm_classify;
          Alcotest.test_case "result cache" `Quick test_result_cache;
          Alcotest.test_case "approx at every jobs" `Quick
            test_approx_jobs_invariant;
        ] );
      ( "admission",
        [ Alcotest.test_case "typed refusals" `Quick test_admission_control ] );
      ( "socket",
        [ Alcotest.test_case "round-trip" `Quick test_socket_roundtrip ] );
    ]
