(* Wire protocol of incdbd: one JSON object per line in, one per line
   out.  The request knobs live in one table ([rows] below).  Decoding
   and validation, idbcount's flags and their help, and the result-cache
   key all derive from that table and the decoded record, so each knob's
   name, accepted values, default and doc are written once, and the one
   answer path (Engine.handle) serves the socket, stdio and the CLI. *)

open Incdb_core
module Json = Incdb_obs.Json

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type problem = Val | Comp
type meth = Karp_luby | Monte_carlo
type source = Path of string | Inline of string

type t = {
  id : Json.t;  (* echoed verbatim; [Null] when the client sent none *)
  op : string;
  source : source option;
  query : string option;
  fresh : bool;  (* bypass (and overwrite) the server's result cache *)
  problem : problem;
  jobs : int;
  brute_limit : int;
  val_width_bound : int;
  val_max_events : int;
  val_max_cells : int;
  val_order : Val_kernel.order;
  val_cache_entries : int;
  val_spill : Val_kernel.spill;
  max_candidates : int;
  comp_mask : Comp_candidates.mask_choice;  (* see protocol.mli *)
  comp_elim : Comp_kernel.choice;
  comp_width_bound : int;
  comp_max_cells : int;
  samples : int option;  (* op-dependent default: see [samples] *)
  seed : int;
  meth : meth;
  exact_check : bool;
  caches : bool;  (* reset: also drop warm caches, not just metrics *)
  subs : Json.t list;  (* batch: raw sub-request objects *)
}

let ops =
  [
    "count"; "approx"; "classify"; "bounds"; "batch"; "metrics"; "reset";
    "ping"; "shutdown";
  ]

let approx_samples = 50_000
let bounds_samples = 5_000

let samples r =
  match r.samples with
  | Some n -> n
  | None -> if r.op = "bounds" then bounds_samples else approx_samples

(* ------------------------------------------------------------------ *)
(* The knob table                                                      *)
(* ------------------------------------------------------------------ *)

type values = Ints | Choices of string list | Flag

type knob = {
  name : string;
  short : string option;
  values : values;
  default : Json.t;
  ops : string list;
  doc : string;
}

(* A knob plus the setter that stores one wire value in the request.
   Rows are built only by [int], [enum] and [flag], whose setters check
   the value's type and name the field when they refuse it. *)
type row = { knob : knob; set : t -> Json.t -> t }

let row ?short ~name ~values ~default ~ops ~doc set =
  { knob = { name; short; values; default; ops; doc }; set }

let int ?short ?default name ~ops ~doc set =
  let default =
    Option.fold ~none:Json.Null ~some:(fun d -> Json.Int d) default
  in
  row ?short ~name ~values:Ints ~default ~ops ~doc (fun r -> function
    | Json.Int i -> set r i
    | _ -> bad "field %S must be an integer" name)

let enum ?short name table ~default ~ops ~doc set =
  let names = List.map fst table in
  let default =
    Json.String (fst (List.find (fun (_, v) -> v = default) table))
  in
  row ?short ~name ~values:(Choices names) ~default ~ops ~doc (fun r -> function
    | Json.String s when List.mem_assoc s table -> set r (List.assoc s table)
    | _ -> bad "field %S must be one of %s" name (String.concat ", " names))

let flag name ~ops ~doc set =
  row ~name ~values:Flag ~default:(Json.Bool false) ~ops ~doc (fun r -> function
    | Json.Bool b -> set r b
    | _ -> bad "field %S must be a boolean" name)

let count = [ "count" ]

(* The #Val kernel runs for count and for approx's exact check. *)
let val_kernel = [ "count"; "approx" ]
let sampled = [ "approx"; "bounds" ]

let rows =
  [
    int "jobs" ~short:"j" ~default:1 ~ops:[ "count"; "approx"; "batch" ]
      ~doc:
        "Worker domains for the parallel engines (the #Val kernel's \
         conditioning branches, sharded brute force and candidate \
         enumeration, a batch's sub-requests): 1 is the sequential path, 0 \
         the machine's recommended domain count.  Answers are identical at \
         every value; approx always samples one sequential stream."
      (fun r jobs -> { r with jobs });
    enum "problem" ~short:"p"
      [ ("val", Val); ("valuations", Val); ("comp", Comp);
        ("completions", Comp) ]
      ~default:Val ~ops:count
      ~doc:"What to count: satisfying valuations (val) or completions (comp)."
      (fun r problem -> { r with problem });
    int "brute_limit" ~default:4_000_000 ~ops:count
      ~doc:"Maximum number of valuations brute force may enumerate."
      (fun r brute_limit -> { r with brute_limit });
    int "val_width_bound" ~default:Val_kernel.default_width_bound
      ~ops:val_kernel
      ~doc:
        "Induced-width bound of the #Val variable-elimination kernel: a \
         clause component whose elimination would exceed this width is \
         split by conditioning instead (0 forces pure conditioning)."
      (fun r val_width_bound -> { r with val_width_bound });
    int "val_max_events" ~default:Val_kernel.default_max_events ~ops:count
      ~doc:
        "Largest Karp-Luby event set the #Val kernel compiles; above it (or \
         with 0 on any satisfiable instance) the dispatcher falls back to \
         brute-force enumeration."
      (fun r val_max_events -> { r with val_max_events });
    int "val_max_cells" ~default:Val_kernel.default_max_cells ~ops:val_kernel
      ~doc:
        "Largest factor table (in cells) the #Val kernel keeps in memory; a \
         separator message beyond it spills to disk or forces conditioning, \
         per the spill policy.  Must be at least 1."
      (fun r val_max_cells -> { r with val_max_cells });
    enum "val_order"
      [ ("min-degree", Val_kernel.Min_degree);
        ("min-fill", Val_kernel.Min_fill) ]
      ~default:Val_kernel.Min_degree ~ops:val_kernel
      ~doc:
        "Elimination-order heuristic of the #Val kernel: min-degree, or \
         min-fill, which simulates both heuristics per clause component and \
         keeps whichever order induces the smaller width."
      (fun r val_order -> { r with val_order });
    int "val_cache_entries" ~default:Val_kernel.default_cache_entries
      ~ops:val_kernel
      ~doc:
        "Size bound of the #Val kernel's subproblem cache (memoized \
         component counts keyed on the canonicalized residual lineage).  0 \
         disables the cache; counts are identical either way."
      (fun r val_cache_entries -> { r with val_cache_entries });
    enum "val_spill"
      [ ("auto", Val_kernel.Auto); ("off", Val_kernel.Off);
        ("force", Val_kernel.Force) ]
      ~default:Val_kernel.Auto ~ops:val_kernel
      ~doc:
        "Spill policy of the #Val kernel for factor tables over the cell \
         limit: auto (spill oversized separator messages to a private \
         directory under TMPDIR, within the spill budget), off (condition \
         instead), or force (spill every message; a testing mode).  Counts \
         are identical in all three modes."
      (fun r val_spill -> { r with val_spill });
    int "max_candidates" ~default:Comp_candidates.default_max_candidates
      ~ops:count
      ~doc:
        "Largest ground-fact universe the #Comp candidate enumerator may \
         enumerate (the mask space is 2^N subsets, sharded over the worker \
         domains)."
      (fun r max_candidates -> { r with max_candidates });
    enum "comp_elim"
      [ ("auto", Comp_kernel.Auto); ("off", Comp_kernel.Off);
        ("force", Comp_kernel.Force) ]
      ~default:Comp_kernel.Auto ~ops:count
      ~doc:
        "The #Comp lineage-elimination arm: auto (used whenever a sweep plan \
         compiles, before the candidate enumerator), off (skip it: candidate \
         enumerator, then brute force), or force (require the kernel; a \
         declined instance is refused instead of falling back)."
      (fun r comp_elim -> { r with comp_elim });
    int "comp_width_bound" ~default:Comp_kernel.default_width_bound ~ops:count
      ~doc:
        "Width bound of the #Comp elimination sweep: the largest number of \
         fact windows open at once before the kernel declines the instance \
         (at plan time, so under comp_elim auto the dispatcher falls back \
         without wasted work).  Capped at 62 regardless."
      (fun r comp_width_bound -> { r with comp_width_bound });
    int "comp_max_cells" ~default:Comp_kernel.default_max_cells ~ops:count
      ~doc:
        "Largest in-memory DP frontier (in states) the #Comp elimination \
         kernel carries across a tree-decomposition bag boundary; a larger \
         message spills its counts to disk.  Counts are identical either \
         way."
      (fun r comp_max_cells -> { r with comp_max_cells });
    int "samples" ~short:"n" ~ops:sampled
      ~doc:
        (Printf.sprintf
           "Sample count: the estimator's samples for approx (default %d), \
            the sampling budget for bounds (default %d)."
           approx_samples bounds_samples)
      (fun r n -> { r with samples = Some n });
    int "seed" ~default:42 ~ops:sampled ~doc:"Random seed."
      (fun r seed -> { r with seed });
    enum "method" ~short:"m"
      [ ("karp-luby", Karp_luby); ("monte-carlo", Monte_carlo) ]
      ~default:Karp_luby ~ops:[ "approx" ]
      ~doc:"Estimator: karp-luby (FPRAS, Corollary 5.3) or monte-carlo."
      (fun r meth -> { r with meth });
    flag "exact_check" ~ops:[ "approx" ]
      ~doc:
        "Also compute the exact #Val through the variable-elimination kernel \
         (honoring the val_* knobs) and report it next to the estimate, when \
         the event set fits the kernel's limit."
      (fun r exact_check -> { r with exact_check });
  ]

let knobs = List.map (fun row -> row.knob) rows

(* A null member is an absent one: the knob keeps its default. *)
let decode row r = function Json.Null -> r | v -> row.set r v

(* The request nothing has been said about.  The knob fields here are
   placeholders, each replaced by its row's default just below. *)
let defaults =
  List.fold_left
    (fun r row -> decode row r row.knob.default)
    {
      id = Json.Null; op = ""; source = None; query = None; fresh = false;
      caches = false; subs = []; problem = Val; jobs = 0; brute_limit = 0;
      val_width_bound = 0; val_max_events = 0; val_max_cells = 0;
      val_order = Val_kernel.Min_degree; val_cache_entries = 0;
      val_spill = Val_kernel.Auto; max_candidates = 0;
      comp_mask = Comp_candidates.Auto; comp_elim = Comp_kernel.Auto;
      comp_width_bound = 0; comp_max_cells = 0; samples = None; seed = 0;
      meth = Karp_luby; exact_check = false;
    }
    rows

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let str name = function
  | Json.Null -> None
  | Json.String s -> Some s
  | _ -> bad "field %S must be a string" name

let bool name = function
  | Json.Null -> false
  | Json.Bool b -> b
  | _ -> bad "field %S must be a boolean" name

(* One member of the request object: the fields that are not knobs
   first, then the table; anything else is refused by name. *)
let member r (name, v) =
  match name with
  | "id" -> { r with id = v }
  | "op" -> (
    match str name v with
    | Some op when List.mem op ops -> { r with op }
    | Some op -> bad "unknown op %S" op
    | None -> r)
  | "db" | "db_text" -> (
    match (str name v, r.source) with
    | None, _ -> r
    | Some _, Some _ -> bad "give either \"db\" or \"db_text\", not both"
    | Some s, None ->
      { r with source = Some (if name = "db" then Path s else Inline s) })
  | "query" -> { r with query = str name v }
  | "fresh" -> { r with fresh = bool name v }
  | "caches" -> { r with caches = bool name v }
  | "requests" -> (
    match v with
    | Json.Null -> r
    | Json.List subs -> { r with subs }
    | _ -> bad "field \"requests\" must be an array")
  | _ -> (
    match List.find_opt (fun row -> row.knob.name = name) rows with
    | Some row -> decode row r v
    | None -> bad "unknown field %S" name)

let of_json = function
  | Json.Assoc members ->
    let r = List.fold_left member defaults members in
    if r.op = "" then bad "missing field \"op\"";
    r
  | _ -> bad "request must be a JSON object"

let of_line line =
  match Json.of_string line with
  | Error msg -> Error ("request is not valid JSON: " ^ msg)
  | Ok j -> ( match of_json j with r -> Ok r | exception Bad msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Result-cache key                                                    *)
(* ------------------------------------------------------------------ *)

(* The decoded request itself, minus what does not shape the answer:
   [id] and [fresh] are delivery concerns, every engine answers
   bit-identically at any [jobs], [subs] only batches carry (never
   cached), and the database is named by its content key rather than
   its source.  A field added to [t] is keyed with no code here, so the
   worst an oversight can cost is a missed hit, never a stale answer.
   No_sharing keeps the bytes a function of the value alone. *)
let cache_key r ~db_key =
  Marshal.to_string
    ( db_key,
      { r with
        id = Json.Null; fresh = false; jobs = 0; subs = []; source = None } )
    [ Marshal.No_sharing ]

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let ok ~id ?(cached = false) result =
  Json.Assoc
    (("id", id) :: ("ok", Json.Bool true)
    :: (if cached then [ ("cached", Json.Bool true) ] else [])
    @ [ ("result", result) ])

let err ~id ~kind ?(data = []) msg =
  Json.Assoc
    [
      ("id", id);
      ("ok", Json.Bool false);
      ( "error",
        Json.Assoc
          (("kind", Json.String kind) :: ("message", Json.String msg) :: data)
      );
    ]

let to_line j = Json.to_string j
