(* The incdbd transport: a Unix-domain-socket accept loop with one
   thread per connection, and a stdio mode (one connection on
   stdin/stdout) for tests and pipelines.

   Responses are written as one line per request, in request order per
   connection.  A client that disappears mid-conversation (EPIPE /
   ECONNRESET on write, or EOF on read) just ends its connection thread;
   whatever request was in flight unwinds through the engine's spill
   protection, so no temp state outlives the connection. *)

module Json = Incdb_obs.Json
module Metrics = Incdb_obs.Metrics
module Log = Incdb_obs.Log

let connections_total = Metrics.counter "serve.connections"
let disconnects_total = Metrics.counter "serve.disconnects"

(* Serve one NDJSON conversation.  Returns [`Shutdown] when the peer
   asked the whole server to stop, [`Eof] when it just went away. *)
let serve_channel state ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> `Eof
    | exception Sys_error _ -> `Eof
    | line ->
      if String.trim line = "" then loop ()
      else begin
        let resp, stop =
          match Protocol.of_line line with
          | Error msg ->
            ( Protocol.err ~id:Json.Null ~kind:"bad_request" msg,
              false )
          | Ok req -> (Engine.handle state req, req.Protocol.op = "shutdown")
        in
        match
          output_string oc (Protocol.to_line resp);
          output_char oc '\n';
          flush oc
        with
        | () -> if stop then `Shutdown else loop ()
        | exception Sys_error _ ->
          Metrics.incr disconnects_total;
          `Eof
      end
  in
  loop ()

let run_stdio state = ignore (serve_channel state stdin stdout)

(* ------------------------------------------------------------------ *)
(* Socket server                                                       *)
(* ------------------------------------------------------------------ *)

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

(* Wake the accept loop after [stop] flips: a throwaway connection makes
   [accept] return without platform-specific tricks. *)
let poke socket_path =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let run_socket state ~socket_path =
  (* A dead write must surface as Sys_error on the channel, not kill
     the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  unlink_quiet socket_path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX socket_path);
  Unix.listen sock 16;
  let stop = Atomic.make false in
  let threads_lock = Mutex.create () in
  let threads = ref [] in
  let handle_conn fd =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    Fun.protect
      (fun () ->
        match serve_channel state ic oc with
        | `Shutdown ->
          Atomic.set stop true;
          poke socket_path
        | `Eof -> ())
      ~finally:(fun () ->
        (* One close for both channels: they share the descriptor, and
           closing the out channel closes it. *)
        close_out_noerr oc)
  in
  Log.debugf "incdbd: listening on %s" socket_path;
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      match Unix.accept sock with
      | fd, _ ->
        if Atomic.get stop then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          Metrics.incr connections_total;
          let t = Thread.create handle_conn fd in
          Mutex.protect threads_lock (fun () -> threads := t :: !threads);
          accept_loop ()
        end
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        accept_loop ()
      | exception Unix.Unix_error _ when Atomic.get stop -> ()
    end
  in
  Fun.protect accept_loop
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      List.iter Thread.join
        (Mutex.protect threads_lock (fun () -> !threads));
      unlink_quiet socket_path)
