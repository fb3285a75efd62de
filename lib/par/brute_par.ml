open Incdb_bignum
open Incdb_cq
open Incdb_incomplete

module Cdb_set = Set.Make (struct
  type t = Incdb_relational.Cdb.t

  let compare = Incdb_relational.Cdb.compare
end)

module Events = Incdb_obs.Events
module Metrics = Incdb_obs.Metrics

(* The same engine counters the sequential oracles update ([Metrics.counter]
   returns the registered handle), so metric totals are engine-agnostic. *)
let valuations_visited = Metrics.counter "valuations_visited"
let completions_checked = Metrics.counter "completions_checked"
let shards_run = Metrics.counter "par.brute_shards"

let default_limit = 4_000_000

(* One shard per value of the first null; a no-null table is a single
   empty-prefix shard.  The global limit is checked up front so that the
   parallel engines accept and reject exactly the instances the
   sequential ones do. *)
let shards ~limit db =
  (match Nat.to_int_opt (Idb.total_valuations db) with
  | Some t when t <= limit -> ()
  | _ ->
    raise (Idb.Too_many_valuations { total = Idb.total_valuations db; limit }));
  match Idb.nulls db with
  | [] -> [ [] ]
  | first :: _ -> List.map (fun c -> [ (first, c) ]) (Idb.domain_of db first)

let shard_map ~limit ~jobs db shard_job =
  let tasks =
    List.map
      (fun prefix () ->
        Metrics.incr shards_run;
        shard_job prefix)
      (shards ~limit db)
  in
  Pool.run ~jobs tasks

let count_valuations ?(limit = default_limit) ?(jobs = 1) q db =
  let jobs = Pool.resolve jobs in
  if jobs <= 1 then Brute.count_valuations ~limit q db
  else
    Events.with_span "brute_par.count_valuations" (fun () ->
        shard_map ~limit ~jobs db (fun prefix ->
            let count = ref Nat.zero in
            Idb.iter_valuations_prefix ~limit db ~prefix (fun v ->
                Metrics.incr valuations_visited;
                if Query.eval q (Idb.apply db v) then count := Nat.succ !count);
            !count)
        |> List.fold_left Nat.add Nat.zero)

let sat_completion_sets ~limit ~jobs q db =
  shard_map ~limit ~jobs db (fun prefix ->
      let acc = ref Cdb_set.empty in
      Idb.iter_valuations_prefix ~limit db ~prefix (fun v ->
          Metrics.incr valuations_visited;
          let c = Idb.apply db v in
          Metrics.incr completions_checked;
          match q with
          | Some q -> if Query.eval q c then acc := Cdb_set.add c !acc
          | None -> acc := Cdb_set.add c !acc);
      !acc)

let merged_completions ~limit ~jobs q db =
  List.fold_left Cdb_set.union Cdb_set.empty
    (sat_completion_sets ~limit ~jobs q db)

let count_completions ?(limit = default_limit) ?(jobs = 1) q db =
  let jobs = Pool.resolve jobs in
  if jobs <= 1 then Brute.count_completions ~limit q db
  else
    Events.with_span "brute_par.count_completions" (fun () ->
        Nat.of_int (Cdb_set.cardinal (merged_completions ~limit ~jobs (Some q) db)))

let completions ?(limit = default_limit) ?(jobs = 1) db =
  let jobs = Pool.resolve jobs in
  if jobs <= 1 then Brute.completions ~limit db
  else
    Events.with_span "brute_par.completions" (fun () ->
        Cdb_set.elements (merged_completions ~limit ~jobs None db))

let count_all_completions ?(limit = default_limit) ?(jobs = 1) db =
  let jobs = Pool.resolve jobs in
  if jobs <= 1 then Brute.count_all_completions ~limit db
  else
    Events.with_span "brute_par.count_all_completions" (fun () ->
        Nat.of_int (Cdb_set.cardinal (merged_completions ~limit ~jobs None db)))
