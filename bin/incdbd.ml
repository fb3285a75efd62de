(* incdbd: the persistent counting service.

     incdbd --socket /tmp/incdbd.sock
     incdbd --stdio < requests.ndjson

   One JSON request per line in, one JSON response per line out; the
   request vocabulary is the idbcount flag set in object form (see
   Incdb_serve.Protocol).  Compiled lineage, kernel subproblem caches,
   transform memos and classification verdicts stay warm across
   requests, so a repeated question is answered from memory — and
   always bit-identically to a one-shot idbcount run. *)

open Cmdliner
open Incdb_serve

let socket_term =
  let doc =
    "Serve a Unix-domain socket at $(docv) (newline-delimited JSON, one \
     concurrent connection per client thread).  Keep the path short: the \
     kernel caps sun_path at about 100 bytes."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let stdio_term =
  let doc =
    "Serve exactly one conversation on stdin/stdout instead of a socket \
     (for pipelines and tests)."
  in
  Arg.(value & flag & info [ "stdio" ] ~doc)

let val_cache_entries_term =
  let doc =
    "Capacity of the shared #Val subproblem cache kept warm across \
     requests."
  in
  Arg.(value
      & opt int Incdb_core.Val_kernel.default_cache_entries
      & info [ "val-cache-entries" ] ~docv:"N" ~doc)

let result_cap_term =
  let doc =
    "Capacity of the result cache (finished payloads replayed for \
     repeated requests); 0 disables it."
  in
  Arg.(value
      & opt int State.default_result_cap
      & info [ "result-cache" ] ~docv:"N" ~doc)

let classify_cache_term =
  let doc = "Capacity of the classification verdict cache; 0 disables it." in
  Arg.(value
      & opt int Incdb_core.Classify.default_cache_capacity
      & info [ "classify-cache" ] ~docv:"N" ~doc)

let verbose_term =
  let doc = "Enable debug logging to stderr." in
  Arg.(value & flag & info [ "verbose" ] ~doc)

let run socket stdio val_cache_entries result_cap classify_cache verbose =
  if verbose then Incdb_obs.Log.set_level (Some Incdb_obs.Log.Debug);
  (* The metrics op serves live counters, so collection is always on. *)
  Incdb_obs.Runtime.set_enabled true;
  Incdb_core.Classify.set_cache_capacity classify_cache;
  let state = State.create ~result_cap ~val_cache_entries () in
  match (socket, stdio) with
  | None, true -> Ok (Server.run_stdio state)
  | Some path, false -> Ok (Server.run_socket state ~socket_path:path)
  | None, false | Some _, true ->
    Error "incdbd: give exactly one of --socket PATH or --stdio"

let main socket stdio val_cache_entries result_cap classify_cache verbose =
  match run socket stdio val_cache_entries result_cap classify_cache verbose with
  | Ok () -> 0
  | Error msg ->
    prerr_endline msg;
    124
  | exception Invalid_argument msg ->
    prerr_endline ("incdbd: " ^ msg);
    124
  | exception Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "incdbd: %s(%s): %s\n" fn arg (Unix.error_message e);
    124

let () =
  let doc = "Persistent counting service over incomplete databases" in
  let info = Cmd.info "incdbd" ~version:"1.0" ~doc in
  let term =
    Cmdliner.Term.(
      const main $ socket_term $ stdio_term $ val_cache_entries_term
      $ result_cap_term $ classify_cache_term $ verbose_term)
  in
  exit (Cmd.eval' (Cmd.v info term))
