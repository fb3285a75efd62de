(** The incdbd wire protocol: newline-delimited JSON, one request object
    per line in, one response object per line out.

    A request names an [op] (one of {!ops}), its database by [db] (a file
    path, cached by content stamp) or [db_text] (the Idb_parser source
    inline), and its [query].  The settings of the engines are the
    request {e knobs} of {!knobs}: one table whose rows hold each knob's
    name, accepted values, default, the ops that read it, and doc.
    {!of_json} decodes and validates through that table, idbcount derives
    its flags and [--help] from it (the flag of [val_width_bound] is
    [--val-width-bound]), and {!cache_key} keys the decoded record, so no
    knob is written twice.  Besides the knobs a request may carry [id]
    (echoed verbatim in the response), [fresh] (bypass the result cache),
    [caches] (for [reset]) and [requests] (the sub-requests of a
    [batch]); any other member is refused by name.

    Responses are [{"id": …, "ok": true, "result": {…}}] or
    [{"id": …, "ok": false, "error": {"kind": …, "message": …}}];
    the [kind] vocabulary is fixed by {!Engine}. *)

open Incdb_core
module Json = Incdb_obs.Json

(** Raised by {!of_json} on a malformed request. *)
exception Bad of string

type problem = Val | Comp
type meth = Karp_luby | Monte_carlo
type source = Path of string | Inline of string

type t = {
  id : Json.t;
  op : string;
  source : source option;
  query : string option;
  fresh : bool;
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
  comp_mask : Comp_candidates.mask_choice;
  comp_elim : Comp_kernel.choice;
  comp_width_bound : int;
  comp_max_cells : int;
  samples : int option;
  seed : int;
  meth : meth;
  exact_check : bool;
  caches : bool;
  subs : Json.t list;
}

(** The accepted values of the [op] field. *)
val ops : string list

(** The values a knob accepts: any integer, one of the listed names, or
    a boolean. *)
type values = Ints | Choices of string list | Flag

(** One row of the knob table.  [name] is the request field; [short] a
    one-letter alias of its idbcount flag; [default] the wire value an
    absent knob takes ([Null] for [samples], whose default depends on
    the op — see {!samples}); [ops] the ops whose answer reads it. *)
type knob = {
  name : string;
  short : string option;
  values : values;
  default : Json.t;
  ops : string list;
  doc : string;
}

(** The knob table, in [--help] order. *)
val knobs : knob list

(** The request's sample count, or its op's default (named in the doc of
    the [samples] knob). *)
val samples : t -> int

(** @raise Bad on a non-object, a missing or unknown [op], an unknown
    member, or an ill-typed or out-of-table value. *)
val of_json : Json.t -> t

(** Parse one request line; never raises. *)
val of_line : string -> (t, string) result

(** The server's result-cache key of a request given its database's
    content key: the decoded record with [id], [fresh], [jobs] and the
    batch's [requests] cleared (results are bit-identical at every job
    count) and the source replaced by [db_key]. *)
val cache_key : t -> db_key:string -> string

(** [ok ~id result] / [err ~id ~kind msg] build response objects;
    [cached] marks a result served from the warm result cache (the
    [result] payload itself is byte-identical either way). *)
val ok : id:Json.t -> ?cached:bool -> Json.t -> Json.t

val err :
  id:Json.t -> kind:string -> ?data:(string * Json.t) list -> string -> Json.t

(** One-line serialization (no embedded newlines). *)
val to_line : Json.t -> string
