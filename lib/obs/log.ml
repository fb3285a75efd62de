(* One-line leveled logging to stderr.

   Disabled unless a level is set -- via [set_level] (the CLI --verbose
   flag does this) or the INCDB_LOG environment variable
   (error|warn|info|debug).  Messages carry the innermost open span
   path so log lines correlate with the trace tree. *)

type level = Error | Warn | Info | Debug

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3
let label = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let current : level option ref = ref None
let set_level l = current := l

let init_from_env () =
  match Sys.getenv_opt "INCDB_LOG" with
  | Some s -> (
    match level_of_string s with Some _ as l -> current := l | None -> ())
  | None -> ()

let () = init_from_env ()

let visible lvl =
  match !current with None -> false | Some l -> severity lvl <= severity l

let emit lvl msg =
  let where = match Events.current_path () with None -> "" | Some p -> " " ^ p in
  Printf.eprintf "incdb[%s]%s: %s\n%!" (label lvl) where msg

let logf lvl fmt =
  if visible lvl then Printf.ksprintf (emit lvl) fmt
  else Printf.ikfprintf (fun () -> ()) () fmt

let errorf fmt = logf Error fmt
let warnf fmt = logf Warn fmt
let infof fmt = logf Info fmt
let debugf fmt = logf Debug fmt
