(* idbcount: command-line front end for the incomplete-database counting
   library.

     idbcount classify  "R(x), S(x,y), T(y)"
     idbcount count     --db census.idb --query "R(x), S(x)" --problem val
     idbcount approx    --db big.idb --query "R(x,x)" --samples 50000
     idbcount enumerate --db example.idb --query "S(x,x)"
     idbcount table1    "R(x,x)" "R(x), S(x)" ...
*)

open Cmdliner
open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_core
module Count_bounds_alias = Comp_bounds

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

let load_db path =
  Incdb_obs.Events.with_span "idbcount.load_db" (fun () ->
      try Ok (Idb_parser.of_file path)
      with Invalid_argument msg -> Error msg)

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

let query_opt =
  let doc = "Boolean conjunctive query, e.g. \"R(x), S(x,y)\"." in
  Arg.(required & opt (some query_conv) None & info [ "query"; "q" ] ~docv:"QUERY" ~doc)

(* ------------------------------------------------------------------ *)
(* Parallelism                                                         *)
(* ------------------------------------------------------------------ *)

let jobs_term =
  let doc =
    "Worker domains for the parallelizable engines (sharded brute force, \
     parallel Karp-Luby).  1 (the default) is the sequential path; 0 \
     auto-detects the machine's recommended domain count."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* A clean, actionable message for the one anticipated failure of the
   exhaustive engines, instead of an exception backtrace. *)
let too_many_msg what (total : Nat.t) limit =
  Printf.sprintf
    "error: %s needs exhaustive enumeration, but the instance has %s \
     valuations (limit %d).\n\
     Raise --brute-limit, or use `idbcount approx` / `idbcount bounds` for \
     an estimate."
    what (Nat.to_string total) limit

(* Every subcommand funnels its body through this handler, so the three
   typed resource-limit errors — and bad arguments — surface as one-line
   messages with a non-zero exit instead of a backtrace, whichever engine
   the query happens to route through. *)
let handle_limits ?(what = "this query/database pair") f =
  try f () with
  | Invalid_argument msg ->
    prerr_endline ("error: " ^ msg);
    raise Cli_error
  | Idb.Too_many_valuations { total; limit } ->
    prerr_endline (too_many_msg what total limit);
    raise Cli_error
  | Comp_candidates.Too_many_candidates { universe; limit } ->
    Printf.eprintf
      "error: the candidate universe has %d ground facts (limit %d).\n\
       Raise --max-candidates (with --comp-mask auto past 62 facts), or \
       use `idbcount bounds` for an estimate.\n"
      universe limit;
    raise Cli_error
  | Val_kernel.Too_many_events { events; limit } ->
    Printf.eprintf
      "error: the #Val kernel would compile %d Karp-Luby events (limit \
       %d).\n\
       Raise --val-max-events, or raise --brute-limit to let enumeration \
       run.\n"
      events limit;
    raise Cli_error
  | Comp_kernel.Infeasible reason ->
    Printf.eprintf
      "error: the #Comp elimination kernel declined the instance: %s.\n\
       Drop --comp-elim force to let the dispatcher fall back, or raise \
       the offending limit (--comp-width-bound, --max-candidates, \
       --brute-limit).\n"
      (Comp_kernel.infeasible_to_string reason);
    raise Cli_error

(* The #Val lineage-elimination kernel knobs, shared by count/approx. *)
let val_width_bound_term =
  let doc =
    "Induced-width bound of the #Val variable-elimination kernel: a \
     clause component whose elimination would exceed this width is split \
     by conditioning instead (0 forces pure conditioning)."
  in
  Arg.(value
      & opt int Val_kernel.default_width_bound
      & info [ "val-width-bound" ] ~docv:"W" ~doc)

let val_max_events_term =
  let doc =
    "Largest Karp-Luby event set the #Val kernel compiles; above it (or \
     with 0 on any satisfiable instance) the dispatcher falls back to \
     brute-force enumeration."
  in
  Arg.(value
      & opt int Val_kernel.default_max_events
      & info [ "val-max-events" ] ~docv:"N" ~doc)

let val_order_term =
  let doc =
    "Elimination-order heuristic of the #Val kernel: min-degree (the \
     default), or min-fill, which simulates both heuristics per clause \
     component and keeps whichever order induces the smaller width."
  in
  Arg.(value
      & opt
          (enum
             [
               ("min-degree", Val_kernel.Min_degree);
               ("min-fill", Val_kernel.Min_fill);
             ])
          Val_kernel.Min_degree
      & info [ "val-order" ] ~docv:"HEURISTIC" ~doc)

let val_cache_entries_term =
  let doc =
    "Size bound of the #Val kernel's cross-branch subproblem cache \
     (memoized component counts keyed on the canonicalized residual \
     lineage).  0 disables the cache; counts are identical either way."
  in
  Arg.(value
      & opt int Val_kernel.default_cache_entries
      & info [ "val-cache-entries" ] ~docv:"N" ~doc)

let val_max_cells_term =
  let doc =
    "Largest factor table (in cells) the #Val kernel keeps in memory; a \
     separator message beyond it spills to disk or forces conditioning, \
     per --val-spill.  Must be at least 1."
  in
  Arg.(value
      & opt int Val_kernel.default_max_cells
      & info [ "val-max-cells" ] ~docv:"CELLS" ~doc)

let val_spill_term =
  let doc =
    "Spill policy of the #Val kernel for factor tables over \
     --val-max-cells: auto (spill oversized separator messages to disk \
     within the spill budget), off (the pre-spill behavior: condition \
     instead), or force (spill every message — a testing mode).  Counts \
     are identical in all three modes."
  in
  Arg.(value
      & opt
          (enum
             [
               ("auto", Val_kernel.Auto);
               ("off", Val_kernel.Off);
               ("force", Val_kernel.Force);
             ])
          Val_kernel.Auto
      & info [ "val-spill" ] ~docv:"POLICY" ~doc)

let val_spill_dir_term =
  let doc =
    "Directory for the #Val kernel's spilled factor tables (default: the \
     system temp directory).  Temp files are always deleted before the \
     command exits."
  in
  Arg.(value
      & opt (some string) None
      & info [ "val-spill-dir" ] ~docv:"DIR" ~doc)

(* ------------------------------------------------------------------ *)
(* classify                                                            *)
(* ------------------------------------------------------------------ *)

let classify_cmd =
  let query =
    Arg.(required & pos 0 (some query_conv) None & info [] ~docv:"QUERY")
  in
  let run obs q =
    with_obs obs (fun () ->
        handle_limits @@ fun () ->
        Printf.printf "query: %s\n\n" (Cq.to_string q);
        (* Pad the continuation lines to the widest setting name so the
           exact/approx/class lines stay aligned whatever the labels are. *)
        let width =
          List.fold_left
            (fun w s -> max w (String.length (Setting.to_string s)))
            0 Setting.all
        in
        List.iter
          (fun s ->
            let label = Setting.to_string s in
            let padded =
              label ^ String.make (width - String.length label) ' '
            in
            let indent = String.make width ' ' in
            Printf.printf "%s exact: %s\n%s approx: %s\n%s class: %s\n\n"
              padded
              (Classify.verdict_to_string (Classify.exact s q))
              indent
              (Classify.approx_verdict_to_string (Classify.approximate s q))
              indent (Classify.membership s))
          Setting.all)
  in
  let doc = "Classify a query in all eight Table 1 settings." in
  Cmd.v (Cmd.info "classify" ~doc) Cmdliner.Term.(const run $ obs_term $ query)

(* ------------------------------------------------------------------ *)
(* count                                                               *)
(* ------------------------------------------------------------------ *)

let problem_conv =
  Arg.enum [ ("val", `Val); ("valuations", `Val); ("comp", `Comp); ("completions", `Comp) ]

let count_cmd =
  let problem =
    let doc = "What to count: satisfying valuations (val) or completions (comp)." in
    Arg.(value & opt problem_conv `Val & info [ "problem"; "p" ] ~doc)
  in
  let brute_limit =
    let doc = "Maximum number of valuations brute force may enumerate." in
    Arg.(value & opt int 4_000_000 & info [ "brute-limit" ] ~doc)
  in
  let max_candidates =
    let doc =
      "Largest ground-fact universe the completion-counting bitset kernel \
       may enumerate (the mask space is 2^N subsets, sharded over --jobs)."
    in
    Arg.(value
        & opt int Comp_candidates.default_max_candidates
        & info [ "max-candidates" ] ~docv:"N" ~doc)
  in
  let comp_mask =
    let doc =
      "Mask representation of the completion-counting kernel: auto (the \
       default; single-word int masks up to the word ceiling, multi-word \
       bitsets beyond), or force int / wide for A/B measurement."
    in
    Arg.(value
        & opt
            (enum
               [
                 ("auto", Comp_candidates.Auto);
                 ("int", Comp_candidates.Int_masks);
                 ("wide", Comp_candidates.Wide_masks);
               ])
            Comp_candidates.Auto
        & info [ "comp-mask" ] ~docv:"REPR" ~doc)
  in
  let comp_elim =
    let doc =
      "The #Comp lineage-elimination arm: auto (the default; used \
       whenever a sweep plan compiles, before the candidate enumerator), \
       off (skip it: candidate enumerator, then brute force), or force \
       (require the kernel; a declined instance is a hard error instead \
       of a fallback)."
    in
    Arg.(value
        & opt
            (enum
               [
                 ("auto", Comp_kernel.Auto);
                 ("off", Comp_kernel.Off);
                 ("force", Comp_kernel.Force);
               ])
            Comp_kernel.Auto
        & info [ "comp-elim" ] ~docv:"POLICY" ~doc)
  in
  let comp_width_bound =
    let doc =
      "Width bound of the #Comp elimination sweep: the largest number of \
       fact windows open at once before the kernel declines the instance \
       (plan-time, so under --comp-elim auto the dispatcher falls back \
       without wasted work).  Capped at 62 regardless."
    in
    Arg.(value
        & opt int Comp_kernel.default_width_bound
        & info [ "comp-width-bound" ] ~docv:"W" ~doc)
  in
  let comp_max_cells =
    let doc =
      "Largest in-memory DP frontier (in states) the #Comp elimination \
       kernel carries across a tree-decomposition bag boundary; a larger \
       message spills its counts to disk.  Counts are identical either \
       way."
    in
    Arg.(value
        & opt int Comp_kernel.default_max_cells
        & info [ "comp-max-cells" ] ~docv:"CELLS" ~doc)
  in
  let run obs db_path q problem brute_limit val_width_bound val_max_events
      val_max_cells val_order val_cache_entries val_spill val_spill_dir
      max_candidates comp_mask comp_elim comp_width_bound comp_max_cells jobs =
    with_obs obs (fun () ->
        match load_db db_path with
        | Error msg ->
          prerr_endline msg;
          raise Cli_error
        | Ok db ->
          let setting_problem =
            match problem with
            | `Val -> Setting.Valuations
            | `Comp -> Setting.Completions
          in
          let setting = Setting.of_idb setting_problem db in
          Printf.printf "setting: %s\n" (Setting.to_string setting);
          Printf.printf "classification: %s\n"
            (Classify.verdict_to_string (Classify.exact setting q));
          handle_limits (fun () ->
              let algo_name, result =
                match problem with
                | `Val ->
                  let a, n =
                    Count_val.count ~brute_limit ~val_width_bound
                      ~val_max_events ~val_max_cells ~val_order
                      ~val_cache_entries ~val_spill ?val_spill_dir ~jobs q db
                  in
                  (Count_val.algorithm_to_string a, n)
                | `Comp ->
                  let a, n =
                    Count_comp.count ~brute_limit ~max_candidates ~jobs
                      ~mask:comp_mask ~comp_elim ~comp_width_bound
                      ~comp_max_cells ?comp_spill_dir:val_spill_dir q db
                  in
                  (Count_comp.algorithm_to_string a, n)
              in
              Printf.printf "algorithm: %s\n" algo_name;
              Printf.printf "total valuations: %s\n"
                (Nat.to_string (Idb.total_valuations db));
              Printf.printf "count: %s\n" (Nat.to_string result)))
  in
  let doc = "Count satisfying valuations or completions exactly." in
  Cmd.v (Cmd.info "count" ~doc)
    Cmdliner.Term.(
      const run $ obs_term $ db_arg $ query_opt $ problem $ brute_limit
      $ val_width_bound_term $ val_max_events_term $ val_max_cells_term
      $ val_order_term $ val_cache_entries_term $ val_spill_term
      $ val_spill_dir_term $ max_candidates $ comp_mask $ comp_elim
      $ comp_width_bound $ comp_max_cells $ jobs_term)

(* ------------------------------------------------------------------ *)
(* approx                                                              *)
(* ------------------------------------------------------------------ *)

let approx_cmd =
  let samples =
    Arg.(value & opt int 50_000 & info [ "samples"; "n" ] ~doc:"Sample count.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let meth =
    let doc = "Estimator: karp-luby (FPRAS, Corollary 5.3) or monte-carlo." in
    Arg.(value
        & opt (enum [ ("karp-luby", `Kl); ("monte-carlo", `Mc) ]) `Kl
        & info [ "method"; "m" ] ~doc)
  in
  let exact_check =
    let doc =
      "Also compute the exact #Val through the variable-elimination \
       kernel (honoring --val-width-bound) and print it next to the \
       estimate, when the event set fits the kernel's limit."
    in
    Arg.(value & flag & info [ "exact-check" ] ~doc)
  in
  let run obs db_path q samples seed meth val_width_bound val_max_cells
      val_order val_cache_entries val_spill val_spill_dir exact_check jobs =
    with_obs obs (fun () ->
        match load_db db_path with
        | Error msg ->
          prerr_endline msg;
          raise Cli_error
        | Ok db ->
          let query = Query.Bcq q in
          handle_limits (fun () ->
              (match meth with
              | `Kl ->
                let events =
                  List.length (Incdb_approx.Karp_luby.events query db)
                in
                Printf.printf "events: %d\n" events;
                let est =
                  if jobs = 1 then
                    Incdb_approx.Karp_luby.estimate ~seed ~samples query db
                  else
                    Incdb_par.Karp_luby_par.estimate ~jobs ~seed ~samples
                      query db
                in
                Printf.printf "estimate (#Val): %.6g\n" est
              | `Mc ->
                Printf.printf "estimate (#Val): %.6g\n"
                  (Incdb_approx.Montecarlo.estimate ~seed ~samples query db));
              if exact_check then
                (match
                   Val_kernel.count ~width_bound:val_width_bound
                     ~max_cells:val_max_cells ~order:val_order
                     ~cache_entries:val_cache_entries ~spill:val_spill
                     ?spill_dir:val_spill_dir ~jobs query db
                 with
                | Some n ->
                  Printf.printf "exact (#Val kernel): %s\n" (Nat.to_string n)
                | None -> ()
                | exception Val_kernel.Too_many_events { events; limit } ->
                  (* Soft skip: the estimate above already printed; the
                     exact cross-check is best-effort by design. *)
                  Printf.printf
                    "exact (#Val kernel): skipped (%d events exceed limit \
                     %d)\n"
                    events limit);
              Printf.printf "total valuations: %s\n"
                (Nat.to_string (Idb.total_valuations db))))
  in
  let doc = "Estimate #Val with randomized approximation (Section 5)." in
  Cmd.v (Cmd.info "approx" ~doc)
    Cmdliner.Term.(
      const run $ obs_term $ db_arg $ query_opt $ samples $ seed $ meth
      $ val_width_bound_term $ val_max_cells_term $ val_order_term
      $ val_cache_entries_term $ val_spill_term $ val_spill_dir_term
      $ exact_check $ jobs_term)

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
    with_obs obs (fun () ->
        match load_db db_path with
        | Error msg ->
          prerr_endline msg;
          raise Cli_error
        | Ok db ->
          let shown = ref 0 in
          handle_limits ~what:"enumeration" (fun () ->
            Idb.iter_valuations db (fun v ->
              if !shown < limit then begin
                incr shown;
                let completion = Idb.apply db v in
                let mark =
                  match query with
                  | None -> ""
                  | Some q ->
                    if Cq.eval q completion then "  |= q" else "  not |= q"
                in
                let binding =
                  String.concat ", "
                    (List.map (fun (n, c) -> "?" ^ n ^ "=" ^ c) v)
                in
                Format.printf "%-40s %a%s@." binding Incdb_relational.Cdb.pp
                  completion mark
              end);
            let total = Idb.total_valuations db in
            Printf.printf "(%d of %s valuations shown)\n" !shown
              (Nat.to_string total)))
  in
  let doc = "Enumerate valuations and their completions (Figure 1 style)." in
  Cmd.v (Cmd.info "enumerate" ~doc)
    Cmdliner.Term.(const run $ obs_term $ db_arg $ query $ limit)

(* ------------------------------------------------------------------ *)
(* certainty                                                           *)
(* ------------------------------------------------------------------ *)

let certainty_cmd =
  let run obs db_path q =
    with_obs obs (fun () ->
        match load_db db_path with
        | Error msg ->
          prerr_endline msg;
          raise Cli_error
        | Ok db ->
          let query = Query.Bcq q in
          handle_limits @@ fun () ->
          Printf.printf "possible: %b\n" (Certainty.possible query db);
          Printf.printf "certain:  %b\n" (Certainty.certain query db);
          Printf.printf "support:  %s\n"
            (Qnum.to_string (Certainty.support_ratio query db)))
  in
  let doc = "Decide possibility/certainty and compute the support ratio." in
  Cmd.v (Cmd.info "certainty" ~doc)
    Cmdliner.Term.(const run $ obs_term $ db_arg $ query_opt)

(* ------------------------------------------------------------------ *)
(* sample                                                              *)
(* ------------------------------------------------------------------ *)

let sample_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let count =
    Arg.(value & opt int 1 & info [ "count"; "n" ] ~doc:"Number of samples.")
  in
  let run obs db_path q seed count =
    with_obs obs (fun () ->
        match load_db db_path with
        | Error msg ->
          prerr_endline msg;
          raise Cli_error
        | Ok db ->
          let query = Query.Bcq q in
          handle_limits @@ fun () ->
          for i = 0 to count - 1 do
            match
              Incdb_approx.Enumerate.sample_uniform ~seed:(seed + i) query db
            with
            | None -> print_endline "(unsatisfiable)"
            | Some v ->
              print_endline
                (String.concat ", "
                   (List.map (fun (n, c) -> "?" ^ n ^ "=" ^ c) v))
          done)
  in
  let doc = "Sample satisfying valuations uniformly at random." in
  Cmd.v (Cmd.info "sample" ~doc)
    Cmdliner.Term.(const run $ obs_term $ db_arg $ query_opt $ seed $ count)

(* ------------------------------------------------------------------ *)
(* mu (zero-one law scan)                                              *)
(* ------------------------------------------------------------------ *)

let mu_cmd =
  let kmax = Arg.(value & opt int 8 & info [ "kmax" ] ~doc:"Largest domain size.") in
  let run obs db_path q kmax =
    with_obs obs (fun () ->
        match load_db db_path with
        | Error msg ->
          prerr_endline msg;
          raise Cli_error
        | Ok db ->
          (* Only the naive table matters: mu_k replaces the domains with
             the uniform {1..k}. *)
          handle_limits @@ fun () ->
          List.iter
            (fun (k, v) ->
              Printf.printf "k=%-3d mu_k = %s\n" k (Qnum.to_string v))
            (Zero_one.scan q (Idb.facts db) ~kmax))
  in
  let doc = "Scan Libkin's mu_k relative frequency over growing domains." in
  Cmd.v (Cmd.info "mu" ~doc)
    Cmdliner.Term.(const run $ obs_term $ db_arg $ query_opt $ kmax)

(* ------------------------------------------------------------------ *)
(* bounds                                                              *)
(* ------------------------------------------------------------------ *)

let bounds_cmd =
  let samples =
    Arg.(value & opt int 5000 & info [ "samples"; "n" ] ~doc:"Sampling budget.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let run obs db_path q samples seed =
    with_obs obs (fun () ->
        match load_db db_path with
        | Error msg ->
          prerr_endline msg;
          raise Cli_error
        | Ok db ->
          handle_limits @@ fun () ->
          let b = Count_bounds_alias.bounds ~seed ~samples q db in
          Printf.printf "#Comp(q) is within [%s, %s]\n"
            (Nat.to_string b.Count_bounds_alias.lower)
            (Nat.to_string b.Count_bounds_alias.upper);
          (match Count_bounds_alias.exact_within ~seed ~samples q db with
          | Some n ->
            Printf.printf "bounds meet: #Comp = %s\n" (Nat.to_string n)
          | None -> ()))
  in
  let doc = "Sound lower/upper bounds for #Comp (Section 8 heuristics)." in
  Cmd.v (Cmd.info "bounds" ~doc)
    Cmdliner.Term.(const run $ obs_term $ db_arg $ query_opt $ samples $ seed)

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
  let run obs db_path from_ to_ jobs =
    with_obs obs (fun () ->
        match load_db db_path with
        | Error msg ->
          prerr_endline msg;
          raise Cli_error
        | Ok db ->
          let q = Incdb_datalog.Datalog.reachability ~from:from_ ~to_ in
          handle_limits ~what:"reachability counting" (fun () ->
              let sat = Incdb_par.Brute_par.count_valuations ~jobs q db in
              let total = Idb.total_valuations db in
              Printf.printf
                "worlds where %s reaches %s (over relation E): %s of %s\n"
                from_ to_ (Nat.to_string sat) (Nat.to_string total)))
  in
  let doc = "Count worlds where one node reaches another (Datalog over E)." in
  Cmd.v (Cmd.info "reach" ~doc)
    Cmdliner.Term.(const run $ obs_term $ db_arg $ from_ $ to_ $ jobs_term)

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
    with_obs obs (fun () ->
        match load_db db_path with
        | Error msg ->
          prerr_endline msg;
          raise Cli_error
        | Ok db ->
          if Idb.nulls db <> [] then begin
            prerr_endline "repairs: the database must be complete (no nulls)";
            raise Cli_error
          end;
          handle_limits @@ fun () ->
          let parse_key spec =
            match String.split_on_char ':' spec with
            | [ rel; positions ] ->
              ( rel,
                String.split_on_char ',' positions
                |> List.map (fun p -> int_of_string (String.trim p)) )
            | _ -> failwith ("bad --key " ^ spec)
          in
          let keys = List.map parse_key keys in
          let facts =
            List.map
              (fun (f : Idb.fact) ->
                Incdb_relational.Cdb.fact f.Idb.rel
                  (List.map
                     (function
                       | Term.Const c -> c
                       | Term.Null _ -> assert false)
                     (Array.to_list f.Idb.args)))
              (Idb.facts db)
          in
          let r = Incdb_probdb.Repairs.make ~keys facts in
          Printf.printf "key groups: %d\n"
            (List.length (Incdb_probdb.Repairs.groups r));
          Printf.printf "total repairs: %s\n"
            (Nat.to_string (Incdb_probdb.Repairs.total_repairs r));
          (match query with
          | None -> ()
          | Some q ->
            Printf.printf "#Repairs(q): %s\n"
              (Nat.to_string
                 (Incdb_probdb.Repairs.count_repairs ~query:(Query.Bcq q) r))))
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
    with_obs obs (fun () ->
        handle_limits @@ fun () ->
        let queries =
          if queries <> [] then queries
          else
            [
              Cq.q_rx;
              Cq.q_rxy;
              Cq.q_rxx;
              Cq.q_rx_sx;
              Cq.q_rx_sxy_ty;
              Cq.q_rxy_sxy;
            ]
        in
        print_string (Classify.table1 queries))
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
