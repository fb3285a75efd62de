(* #Val valuation-kernel measurements (PR 4, extended in PR 5 with the
   cross-branch subproblem cache).

   Five claims, each measured and written to BENCH_VAL.json (override
   with INCDB_BENCH_VAL_OUT):

   - on a hard-pattern instance both engines can finish, the
     lineage-elimination kernel beats sharded brute force by orders of
     magnitude with bit-identical counts;

   - the kernel completes instances whose valuation space is beyond the
     brute-force enumerator's default 4,000,000-valuation limit
     (4^32 valuations here), with bit-identical totals at every job
     level — the conditioning branches run on the pool, but branch and
     component order is fixed;

   - on a K_{k,k}-style instance whose conditioning branches leave
     value-isomorphic residues, the canonical subproblem cache turns the
     exponential branch tree into shared work: measured hit rate and
     wall-time improvement over a cache-off run of the same instance,
     with counts bit-identical at every job level under both
     elimination orders;

   - the kernel counters (events compiled, elimination width,
     conditioning splits, cache hits/misses) quantify where the work
     went;

   - a one-edge path table past the width bound is split as a product
     of two independent ORs, with no conditioning.

   Two more rows time the closed-form side: Theorem 3.9's block
   convolution on R(x), S(x) with 60 nulls a side at d = 50 (checked
   against Example 3.10's closed form), and over a symbolic domain of
   10^6 values.

   As with BENCH_COMP.json, the host core count is recorded: on a
   single-core machine the jobs > 1 rows measure domain-scheduling
   overhead, not speedup.

   [smoke] runs every row at tiny sizes (same assertions, no JSON) for
   the @bench-smoke alias. *)

open Incdb_bignum
open Incdb_core
open Incdb_cq

let job_levels = [ 1; 2; 4 ]
let path_query = Query.Bcq (Cq.of_string "R(x), S(x,y), T(y)")

let counter_delta names f =
  let v name = Incdb_obs.Metrics.value (Incdb_obs.Metrics.counter name) in
  let before = List.map v names in
  Incdb_obs.Runtime.set_enabled true;
  let y = f () in
  Incdb_obs.Runtime.set_enabled false;
  (y, List.map2 (fun name b -> (name, v name - b)) names before)

let kernel ?width_bound ?max_cells ?order ?cache_entries ?spill ?jobs q db =
  match
    Val_kernel.count ?width_bound ?max_cells ?order ?cache_entries ?spill ?jobs
      q db
  with
  | Some n -> n
  | None -> failwith "val_scaling: kernel declined a compilable query"

(* Kernel vs brute force where both finish: k nulls per side over
   d-value domains is d^2k valuations, inside the brute-force limit. *)
let agreement_row ~k ~d () =
  let db = Instances.path_chain ~k ~d ~edges:[ ("v0", "v1") ] in
  let n_kernel, t_kernel = Instances.time (fun () -> kernel path_query db) in
  let n_brute, t_brute =
    Instances.time (fun () ->
        Incdb_par.Brute_par.count_valuations ~jobs:1 path_query db)
  in
  assert (Nat.equal n_kernel n_brute);
  let (_ : Nat.t), counters =
    counter_delta
      [
        "val_kernel.events_compiled";
        "val_kernel.width";
        "val_kernel.conditioning_splits";
      ]
      (fun () -> kernel path_query db)
  in
  let speedup = t_brute /. t_kernel in
  Printf.printf
    "  kernel vs brute (k=%d, d=%d, %d^%d valuations): kernel %.4fs  brute \
     %.3fs  (%.0fx; counts identical)\n\
     %!"
    k d d (2 * k) t_kernel t_brute speedup;
  ( speedup,
    Printf.sprintf
      "    { \"section\": \"val_kernel:agreement-k%d-d%d\", \"result\": %S,\n\
      \      \"kernel_seconds\": %.6f, \"brute_seconds\": %.6f,\n\
      \      \"speedup_vs_brute\": %.3f,\n\
      \      \"events_compiled\": %d, \"width_sum\": %d, \
       \"conditioning_splits\": %d }"
      k d (Nat.to_string n_kernel) t_kernel t_brute speedup
      (List.assoc "val_kernel.events_compiled" counters)
      (List.assoc "val_kernel.width" counters)
      (List.assoc "val_kernel.conditioning_splits" counters) )

(* Beyond brute force: d^2k valuations past the enumerator's limit — it
   raises its typed error, the kernel answers, identically at every job
   level. *)
let beyond_row ~k ~d () =
  let db =
    Instances.path_chain ~k ~d ~edges:[ ("v0", "v1"); ("v2", "v3") ]
  in
  let brute_refuses =
    match Incdb_par.Brute_par.count_valuations ~jobs:1 path_query db with
    | (_ : Nat.t) -> false
    | exception Incdb_incomplete.Idb.Too_many_valuations _ -> true
  in
  let counts_and_times =
    List.map
      (fun jobs ->
        let n, t = Instances.time (fun () -> kernel ~jobs path_query db) in
        (jobs, n, t))
      job_levels
  in
  let _, n1, _ = List.hd counts_and_times in
  let identical =
    List.for_all (fun (_, n, _) -> Nat.equal n n1) counts_and_times
  in
  assert identical;
  assert brute_refuses;
  Printf.printf
    "  kernel beyond brute limit (k=%d, d=%d, %d^%d valuations): %s  count %s\n\
    \    (brute force refuses; totals identical at all job levels)\n\
     %!"
    k d d (2 * k)
    (String.concat "  "
       (List.map
          (fun (j, _, t) -> Printf.sprintf "jobs=%d %.3fs" j t)
          counts_and_times))
    (Nat.to_string n1);
  let cells =
    List.map
      (fun (jobs, _, t) ->
        Printf.sprintf "{ \"jobs\": %d, \"seconds\": %.6f }" jobs t)
      counts_and_times
  in
  Printf.sprintf
    "    { \"section\": \"val_kernel:beyond-brute-k%d-d%d\", \"result\": %S,\n\
    \      \"brute_refuses\": %b, \"totals_bit_identical\": %b,\n\
    \      \"times\": [ %s ] }"
    k d (Nat.to_string n1) brute_refuses identical
    (String.concat ", " cells)

(* The cross-branch subproblem cache on a K_{k,k}-style instance: two
   disjoint S edges make every clause pair a biclique, [width_bound]
   keeps the kernel in the conditioning regime, and the branches leave
   value-isomorphic residual components — exactly the sharing the
   canonical-form cache collapses.  Measures cache-off vs cache-on wall
   time and the hit/miss counters, and asserts bit-identical counts at
   every job level under both elimination orders. *)
let cache_row ~k ~d ~width_bound () =
  let db =
    Instances.path_chain ~k ~d ~edges:[ ("v0", "v1"); ("v2", "v3") ]
  in
  let n_off, t_off =
    Instances.time (fun () ->
        kernel ~width_bound ~cache_entries:0 path_query db)
  in
  let n_on, t_on =
    Instances.time (fun () -> kernel ~width_bound path_query db)
  in
  assert (Nat.equal n_off n_on);
  let (_ : Nat.t), counters =
    counter_delta
      [ "val_kernel.cache_hits"; "val_kernel.cache_misses" ]
      (fun () -> kernel ~width_bound path_query db)
  in
  let hits = List.assoc "val_kernel.cache_hits" counters in
  let misses = List.assoc "val_kernel.cache_misses" counters in
  assert (hits > 0);
  let identical =
    List.for_all
      (fun jobs ->
        List.for_all
          (fun order ->
            Nat.equal n_on (kernel ~width_bound ~order ~jobs path_query db))
          [ Val_kernel.Min_degree; Val_kernel.Min_fill ])
      job_levels
  in
  assert identical;
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  let speedup = t_off /. t_on in
  Printf.printf
    "  subproblem cache (K_{%d,%d}, d=%d, width_bound=%d): off %.3fs  on \
     %.3fs  (%.1fx; %d hits / %d misses, %.1f%% hit rate;\n\
    \    counts identical at all job levels under both orders)\n\
     %!"
    k k d width_bound t_off t_on speedup hits misses (100. *. hit_rate);
  Printf.sprintf
    "    { \"section\": \"val_kernel:cache-kkk-k%d-d%d-wb%d\", \"result\": \
     %S,\n\
    \      \"cache_off_seconds\": %.6f, \"cache_on_seconds\": %.6f,\n\
    \      \"speedup_vs_cache_off\": %.3f,\n\
    \      \"cache_hits\": %d, \"cache_misses\": %d, \"hit_rate\": %.4f,\n\
    \      \"orders\": [ \"min-degree\", \"min-fill\" ], \
     \"totals_bit_identical\": %b }"
    k d width_bound (Nat.to_string n_on) t_off t_on speedup hits misses
    hit_rate identical

(* Out-of-core DP on a dense K_{k,k} biclique (Instances.dense_biclique):
   reduced slot domains are e+1 values, the elimination width is k+1,
   so one bag table is (e+1)^(k+1) cells.  [max_cells] pins the
   in-memory ceiling at [mem_width] = the largest w with
   (e+1)^w <= max_cells: above it the seed policy (spill off) must fall
   back to conditioning, while the spill kernel streams the oversized
   separator messages through the disk factor store and finishes by
   pure DP — zero conditioning splits, spill counters live, and counts
   bit-identical across spill on/off, cache on/off and every job level
   (plus brute force where the valuation space permits). *)
let dense_row ~k ~d ~e ~max_cells () =
  let db = Instances.dense_biclique ~k ~d ~e in
  let red = e + 1 in
  let width = k + 1 in
  let mem_width =
    let rec go w cells =
      if cells * red > max_cells then w else go (w + 1) (cells * red)
    in
    go 0 1
  in
  (* Bag tables outgrow the cap one notch above the ceiling (the seed
     policy must then condition); the upward messages — one slot
     narrower — only outgrow it one notch later, which is when the disk
     backend actually engages. *)
  let over_cap = width > mem_width in
  let expect_spill = width > mem_width + 1 in
  let width_bound = width in
  let run ?(spill = Val_kernel.Auto) ?cache_entries ?jobs () =
    kernel ~width_bound ~max_cells ~spill ?cache_entries ?jobs path_query db
  in
  let n_spill, t_spill = Instances.time (fun () -> run ()) in
  let n_off, t_off =
    Instances.time (fun () -> run ~spill:Val_kernel.Off ())
  in
  assert (Nat.equal n_spill n_off);
  if Instances.brute_feasible db then
    assert (
      Nat.equal n_spill
        (Incdb_par.Brute_par.count_valuations ~jobs:1 path_query db));
  let (_ : Nat.t), spill_counters =
    counter_delta
      [
        "val_kernel.bags";
        "val_kernel.spilled_factors";
        "val_kernel.spill_bytes";
        "val_kernel.spill_read_bytes";
        "val_kernel.conditioning_splits";
      ]
      (fun () -> run ())
  in
  let sc name = List.assoc name spill_counters in
  (* The spill run must be pure DP; the seed policy must have needed
     conditioning exactly when the tables outgrow the cap. *)
  assert (sc "val_kernel.conditioning_splits" = 0);
  assert ((sc "val_kernel.spilled_factors" > 0) = expect_spill);
  assert ((sc "val_kernel.spill_bytes" > 0) = expect_spill);
  let (_ : Nat.t), off_counters =
    counter_delta
      [ "val_kernel.conditioning_splits" ]
      (fun () -> run ~spill:Val_kernel.Off ())
  in
  assert
    ((List.assoc "val_kernel.conditioning_splits" off_counters > 0)
    = over_cap);
  let identical =
    List.for_all
      (fun jobs ->
        List.for_all
          (fun spill ->
            List.for_all
              (fun cache_entries ->
                Nat.equal n_spill (run ~spill ~cache_entries ~jobs ()))
              [ 0; Val_kernel.default_cache_entries ])
          [ Val_kernel.Auto; Val_kernel.Off ])
      job_levels
  in
  assert identical;
  Printf.printf
    "  out-of-core DP (K_{%d,%d}, e=%d edges, red=%d, width %d vs in-memory \
     ceiling %d):\n\
    \    spill %.3fs  conditioning %.3fs  (%d bags, %d spilled factors, %d \
     bytes out, %d bytes back;\n\
    \    counts identical across spill/cache/jobs%s)\n\
     %!"
    k k e red width mem_width t_spill t_off (sc "val_kernel.bags")
    (sc "val_kernel.spilled_factors")
    (sc "val_kernel.spill_bytes")
    (sc "val_kernel.spill_read_bytes")
    (if Instances.brute_feasible db then " and vs brute force" else "");
  Printf.sprintf
    "    { \"section\": \"val_kernel:dense-k%d-e%d-cells%d\", \"result\": %S,\n\
    \      \"spill_seconds\": %.6f, \"conditioning_seconds\": %.6f,\n\
    \      \"width\": %d, \"mem_width\": %d, \"bags\": %d,\n\
    \      \"spilled_factors\": %d, \"spill_bytes\": %d, \
     \"spill_read_bytes\": %d,\n\
    \      \"totals_bit_identical\": %b }"
    k e max_cells (Nat.to_string n_spill) t_spill t_off width mem_width
    (sc "val_kernel.bags")
    (sc "val_kernel.spilled_factors")
    (sc "val_kernel.spill_bytes")
    (sc "val_kernel.spill_read_bytes")
    identical

(* One S edge over [k] nulls a side of [d] values (testdata/path_k14.idb
   at k = 14, d = 4): past the width bound for k >= 8, and its K_{k,k}
   lineage is the product of an OR over the R-nulls and an OR over the
   T-nulls, which the kernel splits instead of conditioning on.  Checked
   against the closed form (d^k - (d-1)^k)^2. *)
let product_row ~k ~d () =
  let db = Instances.path_chain ~k ~d ~edges:[ ("v0", "v1") ] in
  let n, t = Instances.time (fun () -> kernel path_query db) in
  let side =
    Nat.sub (Nat.pow (Nat.of_int d) k) (Nat.pow (Nat.of_int (d - 1)) k)
  in
  assert (Nat.equal n (Nat.mul side side));
  let (_ : Nat.t), counters =
    counter_delta
      [ "val_kernel.product_splits"; "val_kernel.conditioning_splits" ]
      (fun () -> kernel path_query db)
  in
  let products = List.assoc "val_kernel.product_splits" counters in
  let conditionings = List.assoc "val_kernel.conditioning_splits" counters in
  assert (products >= 1 && conditionings = 0);
  Printf.printf
    "  product split (one edge, K_{%d,%d}, d=%d): %.4fs  (%d product split, \
     %d conditioning; = closed form)\n\
     %!"
    k k d t products conditionings;
  Printf.sprintf
    "    { \"section\": \"val_kernel:product-k%d-e1\", \"result\": %S,\n\
    \      \"kernel_seconds\": %.6f, \"product_splits\": %d, \
     \"conditioning_splits\": %d,\n\
    \      \"closed_form_agrees\": true }"
    k (Nat.to_string n) t products conditionings

(* Theorem 3.9's block convolution on R(x), S(x) with [n] nulls and one
   constant a side over a uniform domain of [d] values, checked against
   Example 3.10's closed form. *)
let thm39_uniform_row ~n ~d () =
  let db = Instances.two_unary ~d ~nr:n ~cr:1 ~ns:n ~cs:1 in
  let q = Cq.of_string "R(x), S(x)" in
  let count, t = Instances.time (fun () -> Count_val.uniform_naive q db) in
  assert (
    Nat.equal count (Closed_forms.example_3_10 ~d ~nr:n ~cr:1 ~ns:n ~cs:1));
  Printf.printf
    "  Thm 3.9 (R(x), S(x), %d nulls a side, d=%d): %.3fs  (= Example 3.10 \
     closed form)\n\
     %!"
    n d t;
  Printf.sprintf
    "    { \"section\": \"thm3.9:uniform-n%d-d%d\", \"result\": %S,\n\
    \      \"seconds\": %.6f, \"closed_form_agrees\": true }"
    n d (Nat.to_string count) t

(* The same shape without constants over a symbolic domain of 10^[e]
   values: one group of plain values, d entering only through C(d, j). *)
let thm39_symbolic_row ~n ~e () =
  let facts =
    Incdb_incomplete.Idb.facts
      (Instances.two_unary ~d:1 ~nr:n ~cr:0 ~ns:n ~cs:0)
  in
  let q = Cq.of_string "R(x), S(x)" and d = Nat.to_int (Combinat.power 10 e) in
  let count, t =
    Instances.time (fun () -> Count_val.uniform_symbolic q facts ~domain_size:d)
  in
  Printf.printf
    "  Thm 3.9 symbolic domain (R(x), S(x), %d nulls a side, d=10^%d): \
     %.3fs\n\
     %!"
    n e t;
  Printf.sprintf
    "    { \"section\": \"thm3.9:symbolic-n%d-d1e%d\", \"result\": %S,\n\
    \      \"seconds\": %.6f }"
    n e (Nat.to_string count) t

let run () =
  Printf.printf "\n=== #Val kernel (lineage variable elimination) ===\n";
  Printf.printf "  host cores (recommended domain count): %d\n%!"
    (Incdb_par.Pool.recommended ());
  let speedup, r1 = agreement_row ~k:5 ~d:4 () in
  let r2 = beyond_row ~k:16 ~d:4 () in
  let r3 = cache_row ~k:14 ~d:4 ~width_bound:4 () in
  (* Out-of-core ladder: a brute-checkable spill row, the in-memory
     ceiling (width = mem_width, nothing spills), then one and two
     width notches past the ceiling — the seed policy must condition,
     the spill kernel must finish by pure DP. *)
  let r4 = dense_row ~k:2 ~d:6 ~e:3 ~max_cells:4 () in
  let r5 = dense_row ~k:6 ~d:8 ~e:3 ~max_cells:16384 () in
  let r6 = dense_row ~k:7 ~d:8 ~e:3 ~max_cells:16384 () in
  let r7 = dense_row ~k:8 ~d:8 ~e:3 ~max_cells:16384 () in
  let r8 = product_row ~k:14 ~d:4 () in
  let r9 = thm39_uniform_row ~n:60 ~d:50 () in
  let r10 = thm39_symbolic_row ~n:60 ~e:6 () in
  if speedup < 10. then
    Printf.printf
      "  WARNING: kernel speedup %.1fx below the 10x acceptance bar\n%!"
      speedup;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema_version\": 1,\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"cores\": %d,\n  \"job_levels\": [ %s ],\n"
       (Incdb_par.Pool.recommended ())
       (String.concat ", " (List.map string_of_int job_levels)));
  Buffer.add_string buf "  \"sections\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" [ r1; r2; r3; r4; r5; r6; r7; r8; r9; r10 ]);
  Buffer.add_string buf "\n  ]\n}\n";
  let path =
    match Sys.getenv_opt "INCDB_BENCH_VAL_OUT" with
    | Some p -> p
    | None -> "BENCH_VAL.json"
  in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  valuation-kernel data written to %s\n%!" path

let smoke () =
  Printf.printf "\n=== #Val kernel (smoke) ===\n%!";
  let (_ : float), (_ : string) = agreement_row ~k:3 ~d:3 () in
  let (_ : string) = beyond_row ~k:11 ~d:4 () in
  let (_ : string) = cache_row ~k:6 ~d:4 ~width_bound:2 () in
  let (_ : string) = dense_row ~k:2 ~d:5 ~e:2 ~max_cells:3 () in
  let (_ : string) = product_row ~k:9 ~d:3 () in
  let (_ : string) = thm39_uniform_row ~n:6 ~d:8 () in
  let (_ : string) = thm39_symbolic_row ~n:6 ~e:6 () in
  ()
