(* Workload generation: every request line the benchmark sends, with the
   answer it expects.  Inputs are a function of (workload, seed, request
   index) only, so the same seed gives the same bytes, and a longer run
   sends a longer prefix of the same stream.

   Sizes are frozen here; README.md explains why each workload looks the
   way it does. *)

open Incdb_bignum
open Incdb_incomplete
module Json = Incdb_obs.Json

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)
(* ------------------------------------------------------------------ *)

type term = Val of int | Null of string

type db = {
  uniform : int option;  (* Some d: one domain v0..v(d-1) for every null *)
  doms : (string * int list) list;  (* per-null domains otherwise *)
  facts : (string * term list) list;
}

type problem = Val_count | Comp_count

type inst = {
  db : db;
  query : string;
  problem : problem;
  spill : bool;  (* send val_spill "force" *)
}

let value i = "v" ^ string_of_int i
let range n = List.init n Fun.id

(* The idb text of [db]; [suffix] renames every null, which gives a
   distinct text (so no parse, memo or result cache can serve it) with
   the same answer. *)
let render ?(suffix = "") db =
  let b = Buffer.create 512 in
  let add_values vs =
    List.iter
      (fun v ->
        Buffer.add_char b ' ';
        Buffer.add_string b (value v))
      vs
  in
  (match db.uniform with
  | Some d ->
    Buffer.add_string b "dom";
    add_values (range d);
    Buffer.add_char b '\n'
  | None ->
    List.iter
      (fun (n, vs) ->
        Buffer.add_string b ("dom ?" ^ n ^ suffix);
        add_values vs;
        Buffer.add_char b '\n')
      db.doms);
  List.iter
    (fun (rel, args) ->
      Buffer.add_string b rel;
      Buffer.add_char b '(';
      List.iteri
        (fun i t ->
          if i > 0 then Buffer.add_string b ", ";
          match t with
          | Val v -> Buffer.add_string b (value v)
          | Null n -> Buffer.add_string b ("?" ^ n ^ suffix))
        args;
      Buffer.add_string b ")\n")
    db.facts;
  Buffer.contents b

let parse db = Idb_parser.of_string (render db)
let nulls prefix k = List.init k (Printf.sprintf "%s%d" prefix)

let unary rel names = List.map (fun n -> (rel, [ Null n ])) names
let constants rel vs = List.map (fun v -> (rel, [ Val v ])) vs

(* [k] distinct values out of 0..n-1, sorted. *)
let sample rng ~n k =
  let a = Array.init n Fun.id in
  for i = 0 to min k n - 1 do
    let j = i + Random.State.int rng (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  List.sort compare (Array.to_list (Array.sub a 0 (min k n)))

let between rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* R(x), S(x,y), T(y): one R-null per entry of [r_doms] and one T-null
   per entry of [t_doms] with that domain, constant S edges.  Shared
   variables and per-null domains keep it outside every closed form:
   the #Val kernel's hard pattern. *)
let path ~r_doms ~t_doms ~edges ~problem =
  let rs = nulls "r" (List.length r_doms) and ts = nulls "t" (List.length t_doms) in
  {
    db =
      {
        uniform = None;
        doms = List.combine rs r_doms @ List.combine ts t_doms;
        facts =
          unary "R" rs
          @ List.map (fun (a, b) -> ("S", [ Val a; Val b ])) edges
          @ unary "T" ts;
      };
    query = "R(x), S(x,y), T(y)";
    problem;
    spill = false;
  }

let random_edges rng ~d n =
  List.sort_uniq compare
    (List.init n (fun _ -> (Random.State.int rng d, Random.State.int rng d)))

(* e disjoint edges (v2i, v2i+1): a complete K_{k,k} interaction graph
   per edge, the out-of-core DP's workload. *)
let biclique_edges e = List.init e (fun i -> (2 * i, (2 * i) + 1))

(* A #Val path request of a fixed shape: k nulls a side over the values
   0..d-1 and [edges], every R-null also holding [r_extra] values no
   edge mentions and every T-null [t_extra].  The kernel folds those
   into one weighted bucket, so the extras change the answer and the
   kernel's cache keys (which include domain sizes) but not the work.
   Nulls on one side share a size: unequal sizes would change how many
   isomorphic subproblems the kernel shares inside one request. *)
let sized_path ~k ~d ~r_extra ~t_extra ~edges =
  let side extra = (List.init k (fun _ -> range (d + extra)), List.init k (fun _ -> d + extra)) in
  let r_doms, r_sizes = side r_extra and t_doms, t_sizes = side t_extra in
  ( path ~r_doms ~t_doms ~edges ~problem:Val_count,
    Oracle.path_val ~r_sizes ~t_sizes ~d ~edges )

(* R(x,x) on n binary all-null tuples, uniform domain of size d
   (Theorem 3.7). *)
let diagonal ~n ~d =
  {
    db =
      {
        uniform = Some d;
        doms = [];
        facts =
          List.init n (fun i ->
              ("R", [ Null (Printf.sprintf "a%d" i); Null (Printf.sprintf "b%d" i) ]));
      };
    query = "R(x,x)";
    problem = Val_count;
    spill = false;
  }

(* R(x), S(x) on a uniform table: R holds constants 0..cr-1 and nr
   nulls, S holds constants cr..cr+cs-1 and ns nulls (Theorem 3.9). *)
let two_unary ~d ~nr ~cr ~ns ~cs =
  {
    db =
      {
        uniform = Some d;
        doms = [];
        facts =
          constants "R" (range cr)
          @ unary "R" (nulls "r" nr)
          @ constants "S" (List.init cs (fun i -> cr + i))
          @ unary "S" (nulls "s" ns);
      };
    query = "R(x), S(x)";
    problem = Val_count;
    spill = false;
  }

(* R(x), S(y): every variable occurs once (Theorem 3.6); per-null
   domains of the given sizes drawn from 0..pool-1. *)
let product rng ~pool ~r_sizes ~s_sizes ~cr ~cs =
  let rs = nulls "r" (List.length r_sizes) and ss = nulls "s" (List.length s_sizes) in
  {
    db =
      {
        uniform = None;
        doms =
          List.map2 (fun n k -> (n, sample rng ~n:pool k)) rs r_sizes
          @ List.map2 (fun n k -> (n, sample rng ~n:pool k)) ss s_sizes;
        facts =
          constants "R" (sample rng ~n:pool cr)
          @ unary "R" rs
          @ constants "S" (sample rng ~n:pool cs)
          @ unary "S" ss;
      };
    query = "R(x), S(y)";
    problem = Val_count;
    spill = false;
  }

(* #Comp of R(x) on a uniform unary table: constants 0..c-1 and n nulls
   over a domain of size d (Theorem 4.6). *)
let unary_comp ~d ~n ~c =
  {
    db =
      {
        uniform = Some d;
        doms = [];
        facts = constants "R" (range c) @ unary "R" (nulls "n" n);
      };
    query = "R(x)";
    problem = Comp_count;
    spill = false;
  }

(* #Comp of R(x), S(x) on a non-uniform unary table: constants [cr] in
   R and [cs] in S, and one null per entry of [r_doms]/[s_doms] with
   that domain.  Codd unless [shared] adds a null ?p occurring in both
   relations. *)
let unary_pair ?shared ~cr ~cs ~r_doms ~s_doms () =
  let rs = nulls "r" (List.length r_doms) and ss = nulls "s" (List.length s_doms) in
  let p = match shared with Some dom -> [ ("p", dom) ] | None -> [] in
  {
    db =
      {
        uniform = None;
        doms = p @ List.combine rs r_doms @ List.combine ss s_doms;
        facts =
          constants "R" cr
          @ (if p = [] then [] else [ ("R", [ Null "p" ]) ])
          @ unary "R" rs
          @ constants "S" cs
          @ (if p = [] then [] else [ ("S", [ Null "p" ]) ])
          @ unary "S" ss;
      };
    query = "R(x), S(x)";
    problem = Comp_count;
    spill = false;
  }

(* Candidate facts of a Codd unary-pair table: the R values plus the S
   values any fact can take. *)
let universe db =
  let values rel =
    List.sort_uniq compare
      (List.concat_map
         (fun (r, args) ->
           if r <> rel then []
           else
             match args with
             | [ Val v ] -> [ v ]
             | [ Null n ] -> List.assoc n db.doms
             | _ -> [])
         db.facts)
  in
  List.length (values "R") + List.length (values "S")

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type expect =
  | Count of string  (* decimal answer *)
  | Verdicts of string list  (* exact verdict per Setting.all *)
  | Batch of expect list

type req = { line : string; expect : expect }

let count_json ?(suffix = "") ~fresh inst =
  Json.Assoc
    ([
       ("op", Json.String "count");
       ("db_text", Json.String (render ~suffix inst.db));
       ("query", Json.String inst.query);
       ( "problem",
         Json.String (match inst.problem with Val_count -> "val" | Comp_count -> "comp") );
       ("fresh", Json.Bool fresh);
     ]
    @ if inst.spill then [ ("val_spill", Json.String "force") ] else [])

let count_req ?suffix ~fresh inst answer =
  {
    line = Json.to_string (count_json ?suffix ~fresh inst);
    expect = Count (Nat.to_string answer);
  }

(* A random self-join-free CQ of 1-4 atoms of arity 1-2 over x, y, z,
   w, and its exact verdict in every setting.  The classifier is the
   only implementation of Table 1, so classify answers are checked
   against it run in this process: a check of the server path, not of
   the dichotomy. *)
let rec classify_req rng =
  let vars = [| "x"; "y"; "z"; "w" |] in
  let rels = [| "R"; "S"; "T"; "U" |] in
  let atoms =
    List.init (between rng 1 4) (fun i ->
        let arity = between rng 1 2 in
        Printf.sprintf "%s(%s)" rels.(i)
          (String.concat ","
             (List.init arity (fun _ -> vars.(Random.State.int rng 4)))))
  in
  let query = String.concat ", " atoms in
  let module C = Incdb_core.Classify in
  match
    let q = Incdb_cq.Cq.of_string query in
    List.map
      (fun s ->
        ignore (C.approximate s q);
        ignore (C.membership s);
        C.verdict_to_string (C.exact s q))
      Incdb_core.Setting.all
  with
  | verdicts ->
    {
      line =
        Json.to_string
          (Json.Assoc
             [
               ("op", Json.String "classify");
               ("query", Json.String query);
               ("fresh", Json.Bool true);
             ]);
      expect = Verdicts verdicts;
    }
  | exception Invalid_argument _ -> classify_req rng

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* The timed requests of a run come in rounds of [round] requests, and a
   run sends whole rounds.  Each round starts (untimed) from the state
   set-up leaves: a reset drops the server's caches and metrics, and the
   warm-up is sent again.  So every round does the same work from the
   same state however many rounds a run gets through.  Without that the
   server slows and grows as its caches fill: over 30 s of #Val kernel
   traffic, answers per second fell from 140 to 75, and serve-mix grew
   by 34 MB a round, so a run's numbers depended on how far it got. *)
type workload = {
  name : string;
  clients : int;  (* 1: one connection over --stdio; more: --socket *)
  warmup : req array;
  round : int;
  request : int -> req;  (* timed request i, in round i / round *)
}

let names = [ "kernels"; "tractable"; "serve-mix" ]

(* Generators per request index, so a request does not depend on how
   many were generated before it.  Shapes (sizes, edges, catalogue
   entries) come from [shape_rng], which ignores the seed, and so does
   the order of a round.  In kernels and tractable the seed only
   renames nulls, with a tag of fixed width: every seed asks for
   the same work in the same order, so runs with ten seeds differ only
   by the host.  (Order matters: drawn per seed, it moved the server's
   peak RSS by 8%.)  In serve-mix the seed draws the traffic. *)
let shape_rng ~salt j = Random.State.make [| salt; j |]
let rng_for ~seed ~salt j = Random.State.make [| seed; salt; j |]
let seed_tag seed = Printf.sprintf "%02x" (Hashtbl.hash seed land 0xff)

(* The #Val half of kernels: the path query through the #Val kernel.
   Out of every 20 requests, 15 are path tables cycling through d in
   3..5 and 1-3 random edges, with k in 6..14 for one edge, 6..8 for two
   and 6 for three (a three-edge path at k=8 takes up to a quarter of a
   second); 3 are K_{k,k} bicliques (k in 4..5, three edges); 2 are
   K_{4,4}/K_{5,5} bicliques with forced spilling.  The forced traffic
   stays small on purpose: Force ignores the width bound, and a k=12
   path under it takes seconds. *)
let path_shapes =
  Array.of_list
    (List.concat_map
       (fun (ne, k_max) ->
         List.concat_map
           (fun d -> List.init (k_max - 5) (fun i -> (6 + i, d, ne)))
           [ 3; 4; 5 ])
       [ (1, 14); (2, 8); (3, 6) ])

let non_path_slots = [ 4; 9; 14; 17; 19 ]

(* 260 requests: 13 cycles of 20, over which the path slots take each
   of the 39 path shapes five times. *)
let val_round = 260

let val_req ~seed j =
  let shape = shape_rng ~salt:101 j in
  let cycle = j / 20 and slot = j mod 20 in
  (* The (R, T) extra counts repeat only every 1024 requests, so no
     request of a round meets the server's shared kernel cache warm with
     its own shape (and the cache is dropped between rounds): every
     answer is kernel work.  Every 32 consecutive requests cover every T
     count, so the sizes (and the bignum work they bring) have no trend
     along a round. *)
  let r_extra = 1 + (j mod 32) and t_extra = 1 + ((j + (j / 32)) mod 32) in
  let biclique ~k ~spill =
    let inst, answer =
      sized_path ~k ~d:(between shape 6 8) ~r_extra ~t_extra ~edges:(biclique_edges 3)
    in
    ({ inst with spill }, answer)
  in
  let inst, answer =
    match slot with
    | 4 -> biclique ~k:4 ~spill:true
    | 14 -> biclique ~k:5 ~spill:true
    | 9 | 17 | 19 -> biclique ~k:(4 + ((cycle + slot) mod 2)) ~spill:false
    | _ ->
      let index = slot - List.length (List.filter (fun s -> s < slot) non_path_slots) in
      let k, d, ne = path_shapes.(((15 * cycle) + index) mod Array.length path_shapes) in
      sized_path ~k ~d ~r_extra ~t_extra ~edges:(random_edges shape ~d ne)
  in
  count_req ~suffix:(Printf.sprintf "_%s_%d" (seed_tag seed) j) ~fresh:true inst answer

(* tractable: requests only the closed forms answer, one of each kind
   per five: diagonal Codd R(x,x) (answers hundreds of digits long),
   uniform R(x),S(x), R(x),S(y), uniform unary #Comp, and classify.
   A round is 1000 of them. *)
let tractable_round = 1000

let tractable_req ~seed j =
  let rng = shape_rng ~salt:2 j in
  let count_req = count_req ~suffix:(Printf.sprintf "_%s%d" (seed_tag seed) j) in
  match j mod 5 with
  | 0 ->
    let n = between rng 100 400 and d = between rng 20 50 in
    count_req ~fresh:true (diagonal ~n ~d) (Oracle.diagonal_val ~n ~d)
  | 1 ->
    let d = between rng 4 12 in
    let nr = between rng 1 12 and ns = between rng 1 12 in
    let cr = between rng 0 2 and cs = between rng 0 2 in
    count_req ~fresh:true (two_unary ~d ~nr ~cr ~ns ~cs)
      (Oracle.two_unary_val ~d ~nr ~cr ~ns ~cs)
  | 2 ->
    let sizes () = List.init (between rng 1 6) (fun _ -> between rng 2 20) in
    let r_sizes = sizes () and s_sizes = sizes () in
    let inst =
      product rng ~pool:40 ~r_sizes ~s_sizes ~cr:(between rng 0 2) ~cs:(between rng 0 2)
    in
    count_req ~fresh:true inst (Oracle.product_val ~domain_sizes:(r_sizes @ s_sizes))
  | 3 ->
    let d = between rng 20 200 and n = between rng 1 30 and c = between rng 1 10 in
    count_req ~fresh:true (unary_comp ~d ~n ~c) (Oracle.unary_comp ~d ~n ~c)
  | _ -> classify_req rng

(* The #Comp half of kernels, from a catalogue of 24 instances per
   class, each with its answer computed by an oracle that is not the arm
   answering it.

   - enum: non-uniform Codd unary pairs with 16-32 candidate facts,
     answered by the candidate enumerator; oracle Comp_kernel.count.
   - elim: Codd pairs with 100-160 candidates (mostly constants) and
     three nulls of 8-14 values, past the enumerator's cap, answered by
     elimination; oracle Brute_par over at most 2744 valuations.
   - shared: non-Codd pairs whose null ?p sits in both relations, d in
     10..20 plus two free nulls, answered by elimination with
     conditioning; oracle Brute_par over at most 8000 valuations.
   - path: #Comp of the path query, k in 2..4, d in 3..5, 1-3 edges,
     answered by the enumerator; oracle Comp_kernel.count. *)
let comp_classes = 4
let comp_pool = 24

let comp_oracle_kernel inst =
  let q = Incdb_cq.Query.Bcq (Incdb_cq.Cq.of_string inst.query) in
  Incdb_core.Comp_kernel.count ~query:q (parse inst.db)

let comp_oracle_brute inst =
  let q = Incdb_cq.Query.Bcq (Incdb_cq.Cq.of_string inst.query) in
  Incdb_par.Brute_par.count_completions ~limit:8000 ~jobs:1 q (parse inst.db)

let rec comp_entry cls i =
  let rng = shape_rng ~salt:(10 + cls) i in
  let retry () = comp_entry cls (i + 1_000_000) in
  match cls with
  | 0 ->
    let pool = between rng 10 16 in
    let doms k = List.init k (fun _ -> sample rng ~n:pool (between rng 2 4)) in
    let inst =
      unary_pair
        ~cr:(sample rng ~n:pool (between rng 0 2))
        ~cs:(sample rng ~n:pool (between rng 0 2))
        ~r_doms:(doms (between rng 3 5))
        ~s_doms:(doms (between rng 3 5))
        ()
    in
    let u = universe inst.db in
    if u < 16 || u > 32 then retry () else (inst, comp_oracle_kernel inst)
  | 1 ->
    let pool = 120 in
    let dom () = sample rng ~n:pool (between rng 8 14) in
    let inst =
      unary_pair
        ~cr:(sample rng ~n:pool (between rng 45 65))
        ~cs:(sample rng ~n:pool (between rng 45 65))
        ~r_doms:[ dom (); dom () ] ~s_doms:[ dom () ] ()
    in
    let u = universe inst.db in
    if u < 100 || u > 160 then retry () else (inst, comp_oracle_brute inst)
  | 2 ->
    let d = between rng 10 20 in
    let free_r = between rng 0 2 in
    let inst =
      unary_pair ~shared:(range d) ~cr:[] ~cs:[]
        ~r_doms:(List.init free_r (fun _ -> range d))
        ~s_doms:(List.init (2 - free_r) (fun _ -> range d))
        ()
    in
    (inst, comp_oracle_brute inst)
  | _ ->
    let k = between rng 2 4 and d = between rng 3 5 in
    let edges = random_edges rng ~d (between rng 1 3) in
    let doms = List.init k (fun _ -> range d) in
    let inst = path ~r_doms:doms ~t_doms:doms ~edges ~problem:Comp_count in
    (inst, comp_oracle_kernel inst)

let comp_catalogue () =
  Array.init comp_classes (fun cls -> Array.init comp_pool (comp_entry cls))

(* Out of every ten requests: four enum, three elim, two shared, one
   path.  Each class cycles through its catalogue, every request renamed
   apart.  240 requests pass through every catalogue a whole number of
   times. *)
let comp_first_slot = [| 0; 4; 7; 9 |]
let comp_per_cycle = [| 4; 3; 2; 1 |]
let comp_round = 240

let comp_req catalogue ~seed ~tag j =
  let slot = j mod 10 in
  let cls = match slot with 0 | 1 | 2 | 3 -> 0 | 4 | 5 | 6 -> 1 | 7 | 8 -> 2 | _ -> 3 in
  let k = ((j / 10 * comp_per_cycle.(cls)) + slot - comp_first_slot.(cls)) mod comp_pool in
  let inst, answer = catalogue.(cls).(k) in
  count_req ~suffix:(Printf.sprintf "_%s%s%d" (seed_tag seed) tag j) ~fresh:true inst answer

(* serve-mix catalogue: 2048 small questions (twice the default
   1024-entry result cache) from the formula families, so every answer
   has an independent closed-form oracle and kernel work stays light.
   The catalogue is the same for every seed: the Zipf draw sends most
   fresh recounts to the top few entries, so a catalogue drawn per seed
   would change what the slowest requests are. *)
let serve_catalogue_size = 2048

let serve_entry i =
  let rng = shape_rng ~salt:3 i in
  match i mod 5 with
  | 0 ->
    let k = between rng 2 4 and d = between rng 2 4 in
    let edges = random_edges rng ~d (between rng 1 2) in
    let doms = List.init k (fun _ -> range d) and sizes = List.init k (fun _ -> d) in
    ( path ~r_doms:doms ~t_doms:doms ~edges ~problem:Val_count,
      Oracle.path_val ~r_sizes:sizes ~t_sizes:sizes ~d ~edges )
  | 1 ->
    let n = between rng 2 10 and d = between rng 2 8 in
    (diagonal ~n ~d, Oracle.diagonal_val ~n ~d)
  | 2 ->
    let d = between rng 2 6 in
    let nr = between rng 0 4 and ns = between rng 0 4 in
    let cr = between rng 0 1 and cs = between rng 0 1 in
    let nr = if nr + cr = 0 then 1 else nr and ns = if ns + cs = 0 then 1 else ns in
    (two_unary ~d ~nr ~cr ~ns ~cs, Oracle.two_unary_val ~d ~nr ~cr ~ns ~cs)
  | 3 ->
    let r_sizes = List.init (between rng 1 3) (fun _ -> between rng 2 6) in
    let s_sizes = List.init (between rng 1 3) (fun _ -> between rng 2 6) in
    ( product rng ~pool:12 ~r_sizes ~s_sizes ~cr:0 ~cs:0,
      Oracle.product_val ~domain_sizes:(r_sizes @ s_sizes) )
  | _ ->
    let d = between rng 3 30 and n = between rng 1 8 and c = between rng 1 3 in
    (unary_comp ~d ~n ~c, Oracle.unary_comp ~d ~n ~c)

(* Zipf(1.1) over catalogue ranks, by inverting the cumulative weights. *)
let zipf_cdf n s =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_pick cdf u =
  let rec go lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length cdf - 1)

(* Every 20 requests hold one fresh recount of a catalogue entry and
   one upload of a never-seen table (a renamed entry); every 1000th is a
   batch of four fresh counts at jobs 4, more jobs than a 2-core host
   has, on purpose; the rest repeat a catalogue count (result-cache
   traffic).  Which entry is Zipf-drawn.  Batches stay rare because each
   pool domain the server spawns keeps its flight-recorder ring until a
   reset (about 1.5 MB per batch); README.md has the details.  A round
   is 40000 requests, about 2.5 s on a 2-core host, so the warm-up sent
   again before each round (about 0.25 s) does not stretch runs much. *)
let serve_round = 40000

let serve_mix_req ~seed catalogue =
  let cdf = zipf_cdf serve_catalogue_size 1.1 in
  let repeat = Array.map (fun (inst, n) -> count_req ~fresh:false inst n) catalogue in
  let fresh = Array.map (fun (inst, n) -> count_req ~fresh:true inst n) catalogue in
  fun j ->
    let rng = rng_for ~seed ~salt:4 j in
    let pick () = zipf_pick cdf (Random.State.float rng 1.) in
    if j mod 1000 = 500 then begin
      let subs = List.init 4 (fun _ -> catalogue.(pick ())) in
      {
        line =
          Json.to_string
            (Json.Assoc
               [
                 ("op", Json.String "batch");
                 ("jobs", Json.Int 4);
                 ( "requests",
                   Json.List (List.map (fun (inst, _) -> count_json ~fresh:true inst) subs) );
               ]);
        expect = Batch (List.map (fun (_, n) -> Count (Nat.to_string n)) subs);
      }
    end
    else
      match j mod 20 with
      | 7 -> fresh.(pick ())
      | 13 ->
        let inst, n = catalogue.(Random.State.int rng serve_catalogue_size) in
        count_req ~suffix:(Printf.sprintf "_u%d" j) ~fresh:false inst n
      | _ -> repeat.(pick ())

(* [a] and [b] merged, each in its own order, both spread evenly. *)
let interleave a b =
  let na = Array.length a and nb = Array.length b in
  let at n i = float_of_int ((2 * i) + 1) /. float_of_int (2 * n) in
  let rec go i j acc =
    if i = na && j = nb then Array.of_list (List.rev acc)
    else if j = nb || (i < na && at na i <= at nb j) then go (i + 1) j (a.(i) :: acc)
    else go i (j + 1) (b.(j) :: acc)
  in
  go 0 0 []

(* [make name ~seed] builds the warm-up and the timed stream.  [round]
   shortens a round, for the smoke run. *)
let make ?round name ~seed =
  (* Every round sends [base]. *)
  let same_rounds ~warmup base =
    let n = Option.fold ~none:(Array.length base) ~some:(min (Array.length base)) round in
    { name; clients = 1; warmup; round = n; request = (fun i -> base.(i mod n)) }
  in
  match name with
  | "kernels" ->
    let catalogue = comp_catalogue () in
    same_rounds
      ~warmup:
        (interleave
           (Array.init 20 (fun j -> val_req ~seed (1_000_000 + j)))
           (Array.init 20 (comp_req catalogue ~seed ~tag:"w")))
      (interleave
         (Array.init val_round (val_req ~seed))
         (Array.init comp_round (comp_req catalogue ~seed ~tag:"")))
  | "tractable" ->
    same_rounds
      ~warmup:(Array.init 50 (fun j -> tractable_req ~seed (1_000_000 + j)))
      (Array.init tractable_round (tractable_req ~seed))
  | "serve-mix" ->
    let catalogue = Array.init serve_catalogue_size serve_entry in
    {
      name;
      clients = 2;
      (* One request per catalogue entry in rank order: the hottest 1024
         fill the result cache. *)
      warmup = Array.map (fun (inst, n) -> count_req ~fresh:false inst n) catalogue;
      round = Option.value ~default:serve_round round;
      request = serve_mix_req ~seed catalogue;
    }
  | other -> invalid_arg ("unknown workload " ^ other)

(* The first [rounds] rounds of timed requests. *)
let timed w ~rounds = Array.init (rounds * w.round) w.request

(* Digest of the exact request bytes: warm-up then the first two rounds,
   each line hashed and the hashes hashed, so two commits can show they
   sent the same stream (later rounds repeat the first, or continue the
   same index-determined stream). *)
let digest w =
  let b = Buffer.create 1024 in
  let add r = Buffer.add_string b (Digest.string r.line) in
  Array.iter add w.warmup;
  Array.iter add (timed w ~rounds:2);
  Digest.to_hex (Digest.string (Buffer.contents b))

let rec expect_to_json = function
  | Count n -> Json.String n
  | Verdicts vs -> Json.List (List.map (fun v -> Json.String v) vs)
  | Batch es -> Json.List (List.map expect_to_json es)

(* The NDJSON stream of [gen]: one object per request, in send order,
   for the warm-up and the first [rounds] rounds. *)
let dump oc w ~rounds =
  let line phase i r =
    Printf.fprintf oc "{\"phase\":\"%s\",\"i\":%d,\"expect\":%s,\"request\":%s}\n" phase i
      (Json.to_string (expect_to_json r.expect))
      r.line
  in
  Array.iteri (line "warmup") w.warmup;
  Array.iteri (line "timed") (timed w ~rounds)
