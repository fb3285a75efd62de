(** Request execution for incdbd, and for idbcount's one-shot
    [count]/[approx]/[bounds]/[classify].

    {!handle} maps one parsed request to one response object and never
    raises and never exits: engine failures — the typed resource limits,
    bad queries, unreadable databases — come back as [ok: false]
    responses (which idbcount prints as one [error:] line and exit 1)
    whose [error.kind]
    is one of [bad_request], [db_error], [invalid_argument],
    [too_many_valuations], [too_many_candidates], [too_many_events],
    [comp_infeasible] or [internal_error].  Refused
    requests tick [serve.refusals] and leave the server (and its warm
    caches) fully operational — admission control, not failure.

    [count]/[approx]/[classify]/[bounds] payloads go through the warm
    result cache unless the request says [fresh]; [batch] fans its
    sub-requests over {!Incdb_par.Pool} with per-entry error capture;
    [metrics] returns the Prometheus rendering plus counter and
    cache-population snapshots; [reset] rolls the metrics generation
    and, with [caches: true], drops every registered warm cache.

    Requests that may touch disk run inside a private spill directory,
    removed on every exit path (including a client disconnect
    mid-request); files found at removal tick [serve.spill_orphans]. *)

val handle : State.t -> Protocol.t -> Incdb_obs.Json.t

(** The response {!handle} gives when an op body raises [exn]: the typed
    resource limits and [Invalid_argument] become refusals (ticking
    [serve.refusals]), {!Protocol.Bad} a [bad_request], anything else an
    [internal_error].  idbcount's subcommands that do not go through
    {!handle} refuse with it, so every front end words a refusal alike. *)
val error_response : id:Incdb_obs.Json.t -> exn -> Incdb_obs.Json.t
