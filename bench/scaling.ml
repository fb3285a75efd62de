(* Multicore scaling measurements for the lib/par execution layer.

   Times the sequential engines against their sharded/parallel
   counterparts at several job counts and writes everything to
   BENCH_PAR.json (override with INCDB_BENCH_PAR_OUT).  The host core
   count is recorded alongside the wall times: on a single-core machine
   the parallel runs measure scheduling overhead, not speedup, and the
   JSON says so rather than hiding it. *)

open Incdb_bignum
open Incdb_cq
open Incdb_par

let job_levels = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* JSON rendering (tiny, local: the obs Json module is a parser)       *)
(* ------------------------------------------------------------------ *)

let buf = Buffer.create 4096

let row_of_times section count times =
  let cells =
    List.map
      (fun (jobs, seconds) ->
        Printf.sprintf "{ \"jobs\": %d, \"seconds\": %.6f }" jobs seconds)
      times
  in
  let seq = List.assoc 1 times in
  let best_jobs, best =
    List.fold_left
      (fun (bj, b) (j, s) -> if s < b then (j, s) else (bj, b))
      (1, seq) times
  in
  Printf.sprintf
    "    { \"section\": %S, \"result\": %S,\n\
    \      \"times\": [ %s ],\n\
    \      \"best_jobs\": %d, \"speedup_vs_sequential\": %.3f }"
    section count
    (String.concat ", " cells)
    best_jobs (seq /. best)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let brute_val_row ?(n = 4) ?(d = 6) () =
  let db = Instances.diagonal_codd n d in
  let q = Query.Bcq (Cq.of_string "R(x,x)") in
  let count = ref Nat.zero in
  let times =
    List.map
      (fun jobs ->
        let nv, t =
          Instances.time (fun () -> Brute_par.count_valuations ~jobs q db)
        in
        count := nv;
        (jobs, t))
      job_levels
  in
  Printf.printf "  sharded #Val   (%d nulls, domain %d): %s\n%!" (2 * n) d
    (String.concat "  "
       (List.map (fun (j, t) -> Printf.sprintf "jobs=%d %.3fs" j t) times));
  row_of_times
    (Printf.sprintf "brute_val:diagonal-codd-%d-nulls-dom-%d" (2 * n) d)
    (Nat.to_string !count) times

let brute_comp_row ?(n = 3) ?(d = 4) () =
  let db = Instances.diagonal_codd n d in
  let count = ref Nat.zero in
  let times =
    List.map
      (fun jobs ->
        let nv, t =
          Instances.time (fun () -> Brute_par.count_all_completions ~jobs db)
        in
        count := nv;
        (jobs, t))
      job_levels
  in
  Printf.printf "  sharded #Comp  (%d nulls, domain %d): %s\n%!" (2 * n) d
    (String.concat "  "
       (List.map (fun (j, t) -> Printf.sprintf "jobs=%d %.3fs" j t) times));
  row_of_times
    (Printf.sprintf "brute_comp:diagonal-codd-%d-nulls-dom-%d" (2 * n) d)
    (Nat.to_string !count) times

(* ------------------------------------------------------------------ *)

let run () =
  Printf.printf "\n=== Multicore scaling (wall time, lib/par engines) ===\n";
  Printf.printf "  host cores (recommended domain count): %d\n%!"
    (Pool.recommended ());
  (* Explicit sequencing: list elements evaluate right-to-left, which
     would reverse the progress lines. *)
  let r1 = brute_val_row () in
  let r2 = brute_comp_row () in
  let rows = [ r1; r2 ] in
  Buffer.clear buf;
  Buffer.add_string buf "{\n  \"schema_version\": 1,\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"cores\": %d,\n  \"job_levels\": [ %s ],\n"
       (Pool.recommended ())
       (String.concat ", " (List.map string_of_int job_levels)));
  Buffer.add_string buf "  \"sections\": [\n";
  Buffer.add_string buf (String.concat ",\n" rows);
  Buffer.add_string buf "\n  ]\n}\n";
  let path =
    match Sys.getenv_opt "INCDB_BENCH_PAR_OUT" with
    | Some p -> p
    | None -> "BENCH_PAR.json"
  in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  scaling data written to %s\n%!" path

let smoke () =
  Printf.printf "\n=== Multicore scaling (smoke) ===\n%!";
  let (_ : string) = brute_val_row ~n:2 ~d:3 () in
  let (_ : string) = brute_comp_row ~n:2 ~d:3 () in
  ()
