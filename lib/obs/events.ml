(* Spans and the flight recorder: per-domain, lock-free.

   [with_span name f] is the one span primitive.  Every domain keeps one
   record in domain-local storage, created lazily on its first event,
   which a span updates in two ways:

   - a bounded ring of individual events — span begin/end and
     instants, each with its timestamp (monotonic clock) and small
     key/value args — replayed as one timeline lane per domain in
     Perfetto or chrome://tracing via {!Chrome};
   - a call tree of span totals: one node per path of span names from
     the domain's outermost open span down, holding the calls and wall
     time charged to it (also when [f] raises).  {!spans} merges the
     trees of all domains by path for {!Export} and {!Prom}; {!Log}
     reads [current_path].

   Recording is lock-free: no atomics beyond the {!Runtime.enabled} gate
   and the generation check, no contention between pool workers, and no
   path strings (paths are built when a reader asks).  The global
   registry of records (read by the exporters, written once per domain
   per generation) is the only mutex, and it is never taken on the
   recording path after a domain's first event.  On overflow the ring
   overwrites its oldest entry — newest events are kept, because the end
   of a run is where a post-mortem looks first — and every overwrite
   increments the exact [obs.events_dropped] counter (also available,
   reset-proof within a generation, as [dropped ()]).

   When observability is disabled every probe is one atomic load and a
   branch, like the rest of Incdb_obs. *)

type arg = Int of int | Str of string
type phase = Begin | End | Instant

type event = {
  ts : int; (* monotonic nanoseconds, Runtime.now_ns *)
  name : string;
  phase : phase;
  args : (string * arg) list;
}

let dummy = { ts = 0; name = ""; phase = Instant; args = [] }

(* A call-tree node: the totals of every span opened with this name
   under the same parent. *)
type node = {
  nname : string;
  up : node option; (* [None] only at the root *)
  mutable ncalls : int;
  mutable nwall : int; (* nanoseconds *)
  mutable kids : node list; (* newest first *)
}

type ring = {
  rdom : int; (* owning domain id: the timeline lane *)
  rgen : int; (* generation at creation; stale rings are dead *)
  cap : int; (* capacity at creation *)
  mutable buf : event array; (* doubles up to [cap] before it wraps *)
  mutable wrote : int; (* total events ever written to this ring *)
  root : node; (* this domain's call tree *)
  mutable inner : node; (* innermost open span, [root] when none *)
}

let dropped_counter = Metrics.counter "obs.events_dropped"

(* Bumped by [reset]: domain-local records from before a reset identify
   themselves as stale and are re-created on the next event, so a reset
   never needs to reach into other domains' storage. *)
let generation = Atomic.make 0

let registry_lock = Mutex.create ()
let rings : ring list ref = ref []

let default_capacity = 65_536
let capacity = ref default_capacity

(* Rings start this small and double on demand: a pool domain that
   records a handful of events keeps a few KiB until the next reset, not
   a full-capacity buffer. *)
let initial_slots = 1024

(* Applies to rings created afterwards; call [reset] to retire the
   current ones.  Tiny capacities are allowed (tests exercise the
   overflow policy with single-digit rings). *)
let set_capacity n =
  if n < 1 then invalid_arg "Events.set_capacity: capacity must be positive";
  capacity := n

let () =
  match Sys.getenv_opt "INCDB_EVENTS_CAP" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> capacity := n
    | _ -> ())
  | None -> ()

let ring_key : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let my_ring () =
  let cell = Domain.DLS.get ring_key in
  let gen = Atomic.get generation in
  match !cell with
  | Some r when r.rgen = gen -> r
  | _ ->
    let root = { nname = ""; up = None; ncalls = 0; nwall = 0; kids = [] } in
    let r =
      {
        rdom = (Domain.self () :> int);
        rgen = gen;
        cap = !capacity;
        buf = Array.make (min !capacity initial_slots) dummy;
        wrote = 0;
        root;
        inner = root;
      }
    in
    Mutex.protect registry_lock (fun () -> rings := r :: !rings);
    cell := Some r;
    r

(* The buffer only grows while it has not wrapped, so slot [i mod len]
   keeps meaning event [i] for every reader. *)
let push r e =
  let len = Array.length r.buf in
  if r.wrote = len && len < r.cap then begin
    let bigger = Array.make (min r.cap (2 * len)) dummy in
    Array.blit r.buf 0 bigger 0 len;
    r.buf <- bigger
  end;
  let len = Array.length r.buf in
  if r.wrote >= len then Metrics.incr dropped_counter;
  r.buf.(r.wrote mod len) <- e;
  r.wrote <- r.wrote + 1

let instant ?(args = []) name =
  if Runtime.enabled () then
    push (my_ring ()) { ts = Runtime.now_ns (); name; phase = Instant; args }

(* The child of [parent] for span [name], created on first use.  Span
   names are almost always literals, so [String.equal]'s physical
   equality test settles most lookups without comparing bytes. *)
let child parent name =
  let rec find = function
    | k :: rest -> if String.equal k.nname name then k else find rest
    | [] ->
      let k = { nname = name; up = Some parent; ncalls = 0; nwall = 0; kids = [] } in
      parent.kids <- k :: parent.kids;
      k
  in
  find parent.kids

(* On exit the span restores the innermost-span pointer saved at entry
   rather than popping one level, so threads interleaving spans on one
   domain (incdbd connections) cannot unbalance the tree.  A span that
   straddled a reset belongs to a retired generation: it records neither
   its totals nor its End, whose Begin went to the retired lane. *)
let finish r saved node name t0 =
  let t1 = Runtime.now_ns () in
  r.inner <- saved;
  if r.rgen = Atomic.get generation then begin
    node.ncalls <- node.ncalls + 1;
    node.nwall <- node.nwall + (t1 - t0);
    push r { ts = t1; name; phase = End; args = [] }
  end

let with_span ?(args = []) name f =
  if not (Runtime.enabled ()) then f ()
  else begin
    let r = my_ring () in
    let saved = r.inner in
    let node = child saved name in
    r.inner <- node;
    let t0 = Runtime.now_ns () in
    push r { ts = t0; name; phase = Begin; args };
    match f () with
    | y ->
      finish r saved node name t0;
      y
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish r saved node name t0;
      Printexc.raise_with_backtrace e bt
  end

(* ------------------------------------------------------------------ *)
(* Reading the recorder                                                *)
(* ------------------------------------------------------------------ *)

(* Sorted by domain id, so merged exports list the calling domain's
   spans first and are stable run to run. *)
let live_rings () =
  let gen = Atomic.get generation in
  Mutex.protect registry_lock (fun () ->
      List.filter (fun r -> r.rgen = gen) !rings)
  |> List.sort (fun a b -> compare a.rdom b.rdom)

(* The path of the innermost open span, for log correlation. *)
let current_path () =
  match !(Domain.DLS.get ring_key) with
  | Some r when r.rgen = Atomic.get generation && r.inner != r.root ->
    let rec names n acc =
      match n.up with None -> acc | Some p -> names p (n.nname :: acc)
    in
    Some (String.concat "/" (names r.inner []))
  | _ -> None

type span = {
  span_path : string; (* "outer/inner", '/'-joined *)
  span_name : string;
  span_calls : int;
  span_wall_ns : int;
  span_children : span list;
}

let rec freeze prefix n =
  List.rev_map
    (fun k ->
      let path =
        match n.up with None -> k.nname | Some _ -> prefix ^ "/" ^ k.nname
      in
      {
        span_path = path;
        span_name = k.nname;
        span_calls = k.ncalls;
        span_wall_ns = k.nwall;
        span_children = freeze path k;
      })
    n.kids

(* Sibling lists merged by name, totals added: [xs]'s order first, then
   the names only [ys] has. *)
let rec merge xs ys =
  let same x y = String.equal x.span_name y.span_name in
  List.map
    (fun x ->
      match List.find_opt (same x) ys with
      | None -> x
      | Some y ->
        {
          x with
          span_calls = x.span_calls + y.span_calls;
          span_wall_ns = x.span_wall_ns + y.span_wall_ns;
          span_children = merge x.span_children y.span_children;
        })
    xs
  @ List.filter (fun y -> not (List.exists (fun x -> same x y) xs)) ys

(* Every domain's call tree since the last reset, merged by path into
   one forest; siblings in first-opened order. *)
let spans () =
  List.fold_left (fun acc r -> merge acc (freeze "" r.root)) [] (live_rings ())

(* Exact number of events lost to ring overflow since the last reset:
   each overwrite dropped exactly one event, so per ring it is
   [wrote - capacity] clamped at zero. *)
let dropped () =
  List.fold_left
    (fun acc r -> acc + max 0 (r.wrote - r.cap))
    0 (live_rings ())

(* One (domain id, events oldest-kept-first) lane per domain, sorted by
   domain id.  Reading a ring another domain is still writing is a
   benign race (slots are whole records, replaced atomically by the
   write barrier-free store); in practice exports run after the pool
   has joined its workers.  The call trees are read the same way. *)
let snapshot () =
  live_rings ()
  |> List.map (fun r ->
         let buf = r.buf in
         let len = Array.length buf in
         let n = min r.wrote len in
         let start = r.wrote - n in
         (r.rdom, List.init n (fun i -> buf.((start + i) mod len))))

(* Retire every record — rings and call trees.  Safe while spans are
   open on any domain: they finish without recording (see
   [with_span]), and spans opened after the reset start the fresh
   generation's trees at their roots. *)
let reset () =
  Atomic.incr generation;
  Mutex.protect registry_lock (fun () -> rings := [])
