(* Talking to a real incdbd process: spawn it (stdio or socket), drive
   closed-loop clients over its NDJSON protocol, check every response
   against the expected answer, and stop it again.  Every process this
   module starts is waited for, on the error paths too. *)

module Json = Incdb_obs.Json

exception Transport of string

let transport fmt = Printf.ksprintf (fun s -> raise (Transport s)) fmt
let now_ns = Incdb_obs.Runtime.now_ns

(* A response must arrive within this long, or the server counts as
   gone: no request of any workload comes near it. *)
let response_timeout_s = 60.

type conn = {
  rfd : Unix.file_descr;
  wfd : Unix.file_descr;
  inbuf : Buffer.t;
  chunk : Bytes.t;
}

let conn rfd wfd = { rfd; wfd; inbuf = Buffer.create 4096; chunk = Bytes.create 65536 }

type server = { pid : int; mutable conns : conn array; mutable alive : bool }

(* Servers not yet waited for, killed at exit whatever the exit path. *)
let live : server list ref = ref []

let close_conn c =
  (try Unix.close c.wfd with Unix.Unix_error _ -> ());
  if c.rfd <> c.wfd then try Unix.close c.rfd with Unix.Unix_error _ -> ()

let reap s =
  if s.alive then begin
    s.alive <- false;
    live := List.filter (fun x -> x != s) !live;
    Array.iter close_conn s.conns;
    (* Give a clean shutdown a few seconds, then kill. *)
    let deadline = Unix.gettimeofday () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

let kill_all () =
  List.iter
    (fun s -> try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ())
    !live;
  List.iter reap !live

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  at_exit kill_all

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* Spawn [exe] serving one stdio conversation, or a socket at [socket]
   with [clients] connections.  The server's stdout goes to our stderr
   in socket mode, so this process's stdout carries only the report. *)
let spawn ~exe ~clients ~socket =
  if clients = 1 then begin
    let in_r, in_w = Unix.pipe ~cloexec:true () in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process exe [| exe; "--stdio" |] in_r out_w Unix.stderr in
    Unix.close in_r;
    Unix.close out_w;
    let s = { pid; conns = [| conn out_r in_w |]; alive = true } in
    live := s :: !live;
    s
  end
  else begin
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    let pid =
      Unix.create_process exe [| exe; "--socket"; socket |] devnull Unix.stderr Unix.stderr
    in
    Unix.close devnull;
    let s = { pid; conns = [||]; alive = true } in
    live := s :: !live;
    let deadline = Unix.gettimeofday () +. 30. in
    let rec connect () =
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> fd
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if exited pid then begin
          s.alive <- false;
          live := List.filter (fun x -> x != s) !live;
          transport "incdbd exited before listening on %s" socket
        end;
        if Unix.gettimeofday () > deadline then
          transport "incdbd did not listen on %s" socket;
        Unix.sleepf 0.001;
        connect ()
    in
    for _ = 1 to clients do
      s.conns <- Array.append s.conns [| (let fd = connect () in conn fd fd) |]
    done;
    s
  end

let send c line =
  let s = line ^ "\n" in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write c.wfd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> transport "write: %s" (Unix.error_message e)
  in
  go 0

(* A complete line already buffered on [c], if any. *)
let take_line c =
  let all = Buffer.contents c.inbuf in
  match String.index_opt all '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.inbuf;
    Buffer.add_substring c.inbuf all (i + 1) (String.length all - i - 1);
    Some (String.sub all 0 i)

let fill c =
  match Unix.read c.rfd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> transport "incdbd closed the connection"
  | n -> Buffer.add_subbytes c.inbuf c.chunk 0 n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> transport "read: %s" (Unix.error_message e)

let rec recv c =
  match take_line c with
  | Some l -> l
  | None ->
    (match Unix.select [ c.rfd ] [] [] response_timeout_s with
    | [], _, _ -> transport "no response within %.0f s" response_timeout_s
    | _ -> fill c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    recv c

let call c line =
  send c line;
  recv c

let call_json c line =
  match Json.of_string (call c line) with
  | Ok j -> j
  | Error msg -> transport "unparsable response: %s" msg

(* Closed loop: every connection has at most one request in flight and
   sends its next one as soon as the answer is read.  [next ()] hands
   out the next request (index, line) or None to stop; [on_response i
   latency_ns line] sees every answer. *)
let drive s ~next ~on_response =
  let n = Array.length s.conns in
  let inflight = Array.make n None in
  let start c =
    match next () with
    | None -> ()
    | Some (i, line) ->
      inflight.(c) <- Some (i, now_ns ());
      send s.conns.(c) line
  in
  let rec deliver c =
    match (inflight.(c), take_line s.conns.(c)) with
    | Some (i, t0), Some line ->
      let t1 = now_ns () in
      inflight.(c) <- None;
      on_response i (t1 - t0) line;
      start c;
      deliver c
    | None, Some _ -> transport "unrequested response"
    | _, None -> ()
  in
  for c = 0 to n - 1 do
    start c
  done;
  let busy () = Array.exists Option.is_some inflight in
  while busy () do
    let fds =
      List.filter_map
        (fun c -> if Option.is_some inflight.(c) then Some s.conns.(c).rfd else None)
        (List.init n Fun.id)
    in
    match Unix.select fds [] [] response_timeout_s with
    | [], _, _ -> transport "no response within %.0f s" response_timeout_s
    | ready, _, _ ->
      Array.iteri
        (fun c conn ->
          if List.mem conn.rfd ready then begin
            fill conn;
            deliver c
          end)
        s.conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Ask the server to stop and wait for it.  Connections other than the
   first are closed first: the socket server joins every connection
   thread before it exits. *)
let stop s =
  if s.alive then begin
    Array.iteri (fun i c -> if i > 0 then close_conn c) s.conns;
    s.conns <- [| s.conns.(0) |];
    (try ignore (call s.conns.(0) {|{"op":"shutdown"}|}) with Transport _ -> ());
    reap s
  end

(* VmHWM of [pid] in MiB. *)
let peak_rss_mib pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

(* ------------------------------------------------------------------ *)
(* Checking answers                                                    *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Answer of string  (* the route: the algorithm, "cached", "classify" or "batch" *)
  | Wrong of string
  | Refused of string

let member k j = Option.value ~default:Json.Null (Json.member k j)

let rec check (expect : Gen.expect) resp =
  match member "ok" resp with
  | Json.Bool true -> (
    let result = member "result" resp in
    match expect with
    | Gen.Count n -> (
      match member "count" result with
      | Json.String got when got = n ->
        if member "cached" resp = Json.Bool true then Answer "cached"
        else (
          match member "algorithm" result with
          | Json.String a -> Answer a
          | _ -> Wrong "count answer without an algorithm")
      | Json.String got -> Wrong (Printf.sprintf "count %s, expected %s" got n)
      | _ -> Wrong "count answer without a count")
    | Gen.Verdicts vs -> (
      match member "settings" result with
      | Json.List settings ->
        let got =
          List.map
            (fun s -> match member "exact" s with Json.String v -> v | _ -> "")
            settings
        in
        if got = vs then Answer "classify" else Wrong "classification differs"
      | _ -> Wrong "classify answer without settings")
    | Gen.Batch es -> (
      match member "results" result with
      | Json.List rs when List.length rs = List.length es ->
        let outcomes = List.map2 check es rs in
        let first_bad =
          List.find_opt (function Answer _ -> false | _ -> true) outcomes
        in
        Option.value ~default:(Answer "batch") first_bad
      | _ -> Wrong "batch answer with the wrong number of results"))
  | _ -> (
    match member "error" resp with
    | Json.Assoc _ as e -> (
      match member "kind" e with Json.String k -> Refused k | _ -> Refused "error")
    | _ -> Refused "malformed response")

let check_line expect line =
  match Json.of_string line with
  | Ok resp -> check expect resp
  | Error msg -> Refused ("unparsable response: " ^ msg)

(* Tallies of one phase. *)
type tally = {
  mutable attempted : int;
  mutable answered : int;
  mutable wrong : int;
  mutable refused : int;
  mutable lost : int;  (* transport failures *)
  routes : (string, int) Hashtbl.t;
}

let tally () =
  { attempted = 0; answered = 0; wrong = 0; refused = 0; lost = 0; routes = Hashtbl.create 16 }

let failed t = t.wrong + t.refused + t.lost

(* [into] absorbs every count of [t]. *)
let merge ~into t =
  into.attempted <- into.attempted + t.attempted;
  into.answered <- into.answered + t.answered;
  into.wrong <- into.wrong + t.wrong;
  into.refused <- into.refused + t.refused;
  into.lost <- into.lost + t.lost;
  Hashtbl.iter
    (fun r n ->
      Hashtbl.replace into.routes r (n + Option.value ~default:0 (Hashtbl.find_opt into.routes r)))
    t.routes

let record t ~what outcome =
  t.attempted <- t.attempted + 1;
  match outcome with
  | Answer route ->
    t.answered <- t.answered + 1;
    Hashtbl.replace t.routes route (1 + Option.value ~default:0 (Hashtbl.find_opt t.routes route))
  | Wrong msg ->
    t.wrong <- t.wrong + 1;
    if t.wrong <= 5 then Printf.eprintf "e2e: WRONG answer (%s): %s\n%!" what msg
  | Refused kind ->
    t.refused <- t.refused + 1;
    if t.refused <= 5 then Printf.eprintf "e2e: refused (%s): %s\n%!" what kind
