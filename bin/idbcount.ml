(* idbcount: command-line front end for the incomplete-database counting
   library.

     idbcount classify  "R(x), S(x,y), T(y)"
     idbcount count     --db census.idb --query "R(x), S(x)" --problem val
     idbcount approx    --db big.idb --query "R(x,x)" --samples 50000
     idbcount enumerate --db example.idb --query "S(x,x)"
     idbcount table1    "R(x,x)" "R(x), S(x)" ...

   count, approx, bounds and classify are one-shot incdbd requests: their
   flags are the request knobs of Incdb_serve.Protocol, the request is
   answered by Engine.handle on a fresh State, and the payload is printed
   as text.  The other subcommands call the library directly and refuse
   with the Engine's messages. *)

open Cmdliner
open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_core
open Incdb_serve
module Json = Incdb_obs.Json

let query_conv =
  let parse s =
    match Cq.of_string s with
    | q -> Ok q
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Cq.pp)

let db_arg =
  let doc = "Incomplete database file (see Idb_parser for the format)." in
  Arg.(required & opt (some file) None & info [ "db" ] ~docv:"FILE" ~doc)

(* ------------------------------------------------------------------ *)
(* Observability flags, shared by every subcommand                     *)
(* ------------------------------------------------------------------ *)

type obs_opts = {
  trace : bool;
  verbose : bool;
  metrics_out : string option;
  trace_out : string option;
}

let obs_term =
  let trace =
    let doc =
      "Record per-phase spans and engine counters; print the span tree and \
       metric tables to stderr when the command finishes."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let verbose =
    let doc =
      "Enable debug logging to stderr (equivalent to INCDB_LOG=debug)."
    in
    Arg.(value & flag & info [ "verbose" ] ~doc)
  in
  let metrics_out =
    let doc =
      "Write span and metric data as JSON (schema version 2) to $(docv) when \
       the command finishes.  Implies metric collection."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let trace_out =
    let doc =
      "Write the flight recorder's per-domain event timeline as Chrome \
       trace_event JSON to $(docv) when the command finishes (open it in \
       Perfetto or chrome://tracing).  Implies event collection."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  Cmdliner.Term.(
    const (fun trace verbose metrics_out trace_out ->
        { trace; verbose; metrics_out; trace_out })
    $ trace $ verbose $ metrics_out $ trace_out)

(* A fatal CLI error whose message is already on stderr.  The bodies
   under with_obs raise this instead of calling exit: Stdlib.exit does
   not unwind Fun.protect, so an exit inside the protected body would
   silently skip the export flush — a refused run with --metrics-out
   must still write its metrics file. *)
exception Cli_error

(* Enable collection before the body runs; flush the requested exports
   afterwards, also when the body raises or is refused.  Both exports
   are always attempted — a failed metrics write must not eat the trace
   write — and every failure is reported before the single exit. *)
let with_obs (o : obs_opts) f =
  if o.trace || o.metrics_out <> None || o.trace_out <> None then
    Incdb_obs.Runtime.set_enabled true;
  if o.verbose then Incdb_obs.Log.set_level (Some Incdb_obs.Log.Debug);
  let export_failed = ref false in
  let flush_exports () =
    if o.trace then Incdb_obs.Export.pp_summary stderr;
    let write what writer = function
      | None -> ()
      | Some path -> (
        try writer path
        with Sys_error msg ->
          prerr_endline ("idbcount: cannot write " ^ what ^ ": " ^ msg);
          export_failed := true)
    in
    write "metrics" Incdb_obs.Export.write_file o.metrics_out;
    write "trace" Incdb_obs.Chrome.write_file o.trace_out
  in
  (match Fun.protect f ~finally:flush_exports with
  | () -> ()
  | exception Cli_error -> exit 1);
  if !export_failed then exit 1

(* Print an [ok: false] response as one error: line and fail. *)
let refuse resp =
  let message =
    match Option.bind (Json.member "error" resp) (Json.member "message") with
    | Some (Json.String m) -> m
    | _ -> Json.to_string resp
  in
  prerr_endline ("error: " ^ message);
  raise Cli_error

(* The body of a subcommand that calls the library itself: whatever it
   raises is refused exactly as the Engine refuses it, so the typed
   resource limits and bad input surface as one error: line and exit 1,
   whichever engine the query happens to route through. *)
let run_refusing obs f =
  with_obs obs (fun () ->
      try f () with exn -> refuse (Engine.error_response ~id:Json.Null exn))

(* --query, parsed by [parser]. *)
let query_opt parser =
  let doc = "Boolean conjunctive query, e.g. \"R(x), S(x,y)\"." in
  Arg.(
    required
    & opt (some parser) None
    & info [ "query"; "q" ] ~docv:"QUERY" ~doc)

(* ------------------------------------------------------------------ *)
(* One-shot requests: count, approx, bounds, classify                  *)
(* ------------------------------------------------------------------ *)

(* The flag of one request knob, --name with the table's doc, default
   and accepted values.  An absent flag leaves the knob out of the
   request, which then takes the table's default. *)
let knob_arg (k : Protocol.knob) =
  let names =
    String.map (function '_' -> '-' | c -> c) k.name :: Option.to_list k.short
  in
  let absent =
    match k.default with
    | Json.Null -> None
    | Json.String s -> Some s
    | j -> Some (Json.to_string j)
  in
  let valued parser docv wrap =
    Cmdliner.Term.(
      const (Option.map wrap)
      $ Arg.(
          value & opt (some parser) None & info names ?absent ~docv ~doc:k.doc))
  in
  match k.values with
  | Protocol.Ints -> valued Arg.int "N" (fun n -> Json.Int n)
  | Protocol.Choices names ->
    valued
      (Arg.enum (List.map (fun c -> (c, c)) names))
      (String.concat "|" names)
      (fun c -> Json.String c)
  | Protocol.Flag ->
    Cmdliner.Term.(
      const (fun b -> if b then Some (Json.Bool true) else None)
      $ Arg.(value & flag & info names ~doc:k.doc))

(* The flags of every knob [op] reads; the term's value is the request
   members the user set. *)
let knobs_term op =
  List.fold_right
    (fun (k : Protocol.knob) rest ->
      if not (List.mem op k.ops) then rest
      else
        Cmdliner.Term.(
          const (fun v rest ->
              match v with Some v -> (k.name, v) :: rest | None -> rest)
          $ knob_arg k $ rest))
    Protocol.knobs (Cmdliner.Term.const [])

(* Answer one request exactly as incdbd does: decode the object, run
   Engine.handle on a fresh State (its #Val cache sized by the request),
   and print the payload — or refuse. *)
let answer obs op members print =
  with_obs obs (fun () ->
      let members = ("op", Json.String op) :: members in
      match Protocol.of_json (Json.Assoc members) with
      | exception exn -> refuse (Engine.error_response ~id:Json.Null exn)
      | r -> (
        let state =
          State.create ~result_cap:0 ~val_cache_entries:r.val_cache_entries ()
        in
        let resp =
          Incdb_obs.Events.with_span ("idbcount." ^ op) (fun () ->
              Engine.handle state r)
        in
        match Json.member "result" resp with
        | Some payload -> print payload
        | None -> refuse resp))

let text name payload =
  match Json.member name payload with
  | Some (Json.String s) -> s
  | Some j -> Json.to_string j
  | None -> ""

(* A subcommand answered through the Engine: --db and --query, then the
   flags of the knobs it reads. *)
let request_cmd op ~doc print =
  let run obs db query knobs =
    answer obs op
      (("db", Json.String db) :: ("query", Json.String query) :: knobs)
      print
  in
  Cmd.v (Cmd.info op ~doc)
    Cmdliner.Term.(
      const run $ obs_term $ db_arg $ query_opt Arg.string $ knobs_term op)

let classify_cmd =
  let query =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY")
  in
  let print payload =
    Printf.printf "query: %s\n\n" (text "query" payload);
    let settings =
      match Json.member "settings" payload with
      | Some (Json.List l) -> l
      | _ -> []
    in
    (* Pad the continuation lines to the widest setting name so the
       exact/approx/class lines stay aligned whatever the labels are. *)
    let width =
      List.fold_left
        (fun w s -> max w (String.length (text "setting" s)))
        0 settings
    in
    List.iter
      (fun s ->
        Printf.printf "%-*s exact: %s\n%*s approx: %s\n%*s class: %s\n\n" width
          (text "setting" s) (text "exact" s) width "" (text "approx" s) width
          "" (text "class" s))
      settings
  in
  let run obs query =
    answer obs "classify" [ ("query", Json.String query) ] print
  in
  let doc = "Classify a query in all eight Table 1 settings." in
  Cmd.v (Cmd.info "classify" ~doc) Cmdliner.Term.(const run $ obs_term $ query)

let count_cmd =
  request_cmd "count" ~doc:"Count satisfying valuations or completions exactly."
    (fun p ->
      List.iter
        (fun (label, name) -> Printf.printf "%s: %s\n" label (text name p))
        [
          ("setting", "setting");
          ("classification", "classification");
          ("algorithm", "algorithm");
          ("total valuations", "total_valuations");
          ("count", "count");
        ])

let approx_cmd =
  request_cmd "approx"
    ~doc:"Estimate #Val with randomized approximation (Section 5)."
    (fun p ->
      if Json.member "events" p <> None then
        Printf.printf "events: %s\n" (text "events" p);
      Printf.printf "estimate (#Val): %s\n" (text "estimate_text" p);
      (* The exact cross-check is best-effort: over the kernel's event
         limit it is skipped and the estimate stands. *)
      if Json.member "exact" p <> None then
        Printf.printf "exact (#Val kernel): %s\n" (text "exact" p)
      else if Json.member "exact_skipped" p <> None then
        Printf.printf "exact (#Val kernel): skipped (%s)\n"
          (text "exact_skipped" p);
      Printf.printf "total valuations: %s\n" (text "total_valuations" p))

let bounds_cmd =
  request_cmd "bounds"
    ~doc:"Sound lower/upper bounds for #Comp (Section 8 heuristics)."
    (fun p ->
      Printf.printf "#Comp(q) is within [%s, %s]\n" (text "lower" p)
        (text "upper" p);
      match Json.member "exact" p with
      | Some (Json.String n) -> Printf.printf "bounds meet: #Comp = %s\n" n
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* enumerate                                                           *)
(* ------------------------------------------------------------------ *)

let enumerate_cmd =
  let query =
    let doc = "Optional query; marks satisfying valuations." in
    Arg.(value & opt (some query_conv) None & info [ "query"; "q" ] ~doc)
  in
  let limit =
    Arg.(value & opt int 64 & info [ "limit" ] ~doc:"Maximum rows printed.")
  in
  let run obs db_path query limit =
    run_refusing obs @@ fun () ->
    let db = Idb_parser.of_file db_path in
    let shown = ref 0 in
    Idb.iter_valuations db (fun v ->
        if !shown < limit then begin
          incr shown;
          let completion = Idb.apply db v in
          let mark =
            match query with
            | None -> ""
            | Some q -> if Cq.eval q completion then "  |= q" else "  not |= q"
          in
          let binding =
            String.concat ", " (List.map (fun (n, c) -> "?" ^ n ^ "=" ^ c) v)
          in
          Format.printf "%-40s %a%s@." binding Incdb_relational.Cdb.pp
            completion mark
        end);
    let total = Idb.total_valuations db in
    Printf.printf "(%d of %s valuations shown)\n" !shown (Nat.to_string total)
  in
  let doc = "Enumerate valuations and their completions (Figure 1 style)." in
  Cmd.v (Cmd.info "enumerate" ~doc)
    Cmdliner.Term.(const run $ obs_term $ db_arg $ query $ limit)

(* ------------------------------------------------------------------ *)
(* certainty                                                           *)
(* ------------------------------------------------------------------ *)

let certainty_cmd =
  let run obs db_path q =
    run_refusing obs @@ fun () ->
    let db = Idb_parser.of_file db_path in
    let query = Query.Bcq q in
    Printf.printf "possible: %b\n" (Certainty.possible query db);
    Printf.printf "certain:  %b\n" (Certainty.certain query db);
    Printf.printf "support:  %s\n"
      (Qnum.to_string (Certainty.support_ratio query db))
  in
  let doc = "Decide possibility/certainty and compute the support ratio." in
  Cmd.v (Cmd.info "certainty" ~doc)
    Cmdliner.Term.(const run $ obs_term $ db_arg $ query_opt query_conv)

(* ------------------------------------------------------------------ *)
(* sample                                                              *)
(* ------------------------------------------------------------------ *)

let sample_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let count =
    Arg.(value & opt int 1 & info [ "count"; "n" ] ~doc:"Number of samples.")
  in
  let run obs db_path q seed count =
    run_refusing obs @@ fun () ->
    let db = Idb_parser.of_file db_path in
    let query = Query.Bcq q in
    for i = 0 to count - 1 do
      match Incdb_approx.Enumerate.sample_uniform ~seed:(seed + i) query db with
      | None -> print_endline "(unsatisfiable)"
      | Some v ->
        print_endline
          (String.concat ", " (List.map (fun (n, c) -> "?" ^ n ^ "=" ^ c) v))
    done
  in
  let doc = "Sample satisfying valuations uniformly at random." in
  Cmd.v (Cmd.info "sample" ~doc)
    Cmdliner.Term.(const run $ obs_term $ db_arg $ query_opt query_conv $ seed $ count)

(* ------------------------------------------------------------------ *)
(* mu (zero-one law scan)                                              *)
(* ------------------------------------------------------------------ *)

let mu_cmd =
  let kmax = Arg.(value & opt int 8 & info [ "kmax" ] ~doc:"Largest domain size.") in
  let run obs db_path q kmax =
    run_refusing obs @@ fun () ->
    let db = Idb_parser.of_file db_path in
    (* Only the naive table matters: mu_k replaces the domains with the
       uniform {1..k}. *)
    List.iter
      (fun (k, v) -> Printf.printf "k=%-3d mu_k = %s\n" k (Qnum.to_string v))
      (Zero_one.scan q (Idb.facts db) ~kmax)
  in
  let doc = "Scan Libkin's mu_k relative frequency over growing domains." in
  Cmd.v (Cmd.info "mu" ~doc)
    Cmdliner.Term.(const run $ obs_term $ db_arg $ query_opt query_conv $ kmax)

(* ------------------------------------------------------------------ *)
(* reach (datalog reachability counting)                               *)
(* ------------------------------------------------------------------ *)

let reach_cmd =
  let from_ =
    Arg.(required & opt (some string) None & info [ "from" ] ~doc:"Source node.")
  in
  let to_ =
    Arg.(required & opt (some string) None & info [ "to" ] ~doc:"Target node.")
  in
  (* The request knob's flag, doc and default. *)
  let jobs =
    let k = List.find (fun k -> k.Protocol.name = "jobs") Protocol.knobs in
    Cmdliner.Term.(
      const (fun v ->
          Option.get (Json.to_int (Option.value v ~default:k.default)))
      $ knob_arg k)
  in
  let run obs db_path from_ to_ jobs =
    run_refusing obs @@ fun () ->
    let db = Idb_parser.of_file db_path in
    let q = Incdb_datalog.Datalog.reachability ~from:from_ ~to_ in
    let sat = Incdb_par.Brute_par.count_valuations ~jobs q db in
    let total = Idb.total_valuations db in
    Printf.printf "worlds where %s reaches %s (over relation E): %s of %s\n"
      from_ to_ (Nat.to_string sat) (Nat.to_string total)
  in
  let doc = "Count worlds where one node reaches another (Datalog over E)." in
  Cmd.v (Cmd.info "reach" ~doc)
    Cmdliner.Term.(const run $ obs_term $ db_arg $ from_ $ to_ $ jobs)

(* ------------------------------------------------------------------ *)
(* repairs                                                             *)
(* ------------------------------------------------------------------ *)

let repairs_cmd =
  let keys =
    let doc =
      "Primary keys as Rel:pos,pos pairs, repeatable, e.g. --key Emp:0."
    in
    Arg.(value & opt_all string [] & info [ "key" ] ~docv:"REL:POS,..." ~doc)
  in
  let query =
    Arg.(value & opt (some query_conv) None & info [ "query"; "q" ]
           ~doc:"Optional query to filter repairs.")
  in
  let run obs db_path keys query =
    run_refusing obs @@ fun () ->
    let db = Idb_parser.of_file db_path in
    if Idb.nulls db <> [] then
      invalid_arg "repairs: the database must be complete (no nulls)";
    let parse_key spec =
      match String.split_on_char ':' spec with
      | [ rel; positions ] ->
        ( rel,
          String.split_on_char ',' positions
          |> List.map (fun p -> int_of_string (String.trim p)) )
      | _ -> invalid_arg ("bad --key " ^ spec)
    in
    let keys = List.map parse_key keys in
    let facts =
      List.map
        (fun (f : Idb.fact) ->
          Incdb_relational.Cdb.fact f.Idb.rel
            (List.map
               (function Term.Const c -> c | Term.Null _ -> assert false)
               (Array.to_list f.Idb.args)))
        (Idb.facts db)
    in
    let r = Incdb_probdb.Repairs.make ~keys facts in
    Printf.printf "key groups: %d\n"
      (List.length (Incdb_probdb.Repairs.groups r));
    Printf.printf "total repairs: %s\n"
      (Nat.to_string (Incdb_probdb.Repairs.total_repairs r));
    match query with
    | None -> ()
    | Some q ->
      Printf.printf "#Repairs(q): %s\n"
        (Nat.to_string
           (Incdb_probdb.Repairs.count_repairs ~query:(Query.Bcq q) r))
  in
  let doc = "Count repairs of an inconsistent database under primary keys." in
  Cmd.v (Cmd.info "repairs" ~doc)
    Cmdliner.Term.(const run $ obs_term $ db_arg $ keys $ query)

(* ------------------------------------------------------------------ *)
(* table1                                                              *)
(* ------------------------------------------------------------------ *)

let table1_cmd =
  let queries = Arg.(value & pos_all query_conv [] & info [] ~docv:"QUERY...") in
  let run obs queries =
    run_refusing obs @@ fun () ->
    let queries =
      if queries <> [] then queries
      else
        [ Cq.q_rx; Cq.q_rxy; Cq.q_rxx; Cq.q_rx_sx; Cq.q_rx_sxy_ty; Cq.q_rxy_sxy ]
    in
    print_string (Classify.table1 queries)
  in
  let doc = "Print a Table 1 style dichotomy table for a query corpus." in
  Cmd.v (Cmd.info "table1" ~doc) Cmdliner.Term.(const run $ obs_term $ queries)

let () =
  let doc = "Counting valuations and completions of incomplete databases" in
  let info = Cmd.info "idbcount" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            classify_cmd;
            count_cmd;
            approx_cmd;
            enumerate_cmd;
            certainty_cmd;
            sample_cmd;
            mu_cmd;
            bounds_cmd;
            reach_cmd;
            repairs_cmd;
            table1_cmd;
          ]))
