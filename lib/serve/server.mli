(** incdbd transports: a Unix-domain-socket accept loop (one thread per
    connection) and a stdio mode serving exactly one conversation on
    stdin/stdout.

    Both speak the {!Protocol} NDJSON framing and execute through
    {!Engine.handle} over one shared warm {!State}.  The [shutdown] op
    stops the socket server after its response is written; remaining
    connection threads are joined and the socket file is removed.
    Client disconnects (EOF on read, EPIPE on write) end only their own
    connection and tick [serve.disconnects]. *)

(** Serve one conversation on the given channels; returns on EOF or
    after answering a [shutdown]. *)
val serve_channel :
  State.t -> in_channel -> out_channel -> [ `Eof | `Shutdown ]

(** {!serve_channel} on stdin/stdout. *)
val run_stdio : State.t -> unit

(** Bind, listen and serve [socket_path] until a [shutdown] request;
    an existing socket file is replaced.  Keep the path short: Unix
    limits [sun_path] to roughly 100 bytes. *)
val run_socket : State.t -> socket_path:string -> unit
