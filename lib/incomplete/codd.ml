open Incdb_relational
open Incdb_graph

let fact_can_produce db (f : Idb.fact) (g : Cdb.fact) =
  f.Idb.rel = g.Cdb.rel
  && Array.length f.Idb.args = Array.length g.Cdb.args
  && begin
       (* A null repeated inside one fact must take one consistent value;
          in a Codd table repetition cannot happen, but handling it keeps
          the check sound on arbitrary single facts. *)
       let binding = Hashtbl.create 4 in
       let ok = ref true in
       Array.iteri
         (fun i t ->
           if !ok then
             match t with
             | Term.Const c -> if c <> g.Cdb.args.(i) then ok := false
             | Term.Null n ->
               let c = g.Cdb.args.(i) in
               (match Hashtbl.find_opt binding n with
               | Some c' -> if c <> c' then ok := false
               | None ->
                 if List.mem c (Idb.domain_of db n) then
                   Hashtbl.replace binding n c
                 else ok := false))
         f.Idb.args;
       !ok
     end

let is_completion db s =
  if not (Idb.is_codd db) then
    invalid_arg "Codd.is_completion: requires a Codd table";
  let dfacts = Array.of_list (Idb.facts db) in
  let sfacts = Array.of_list (Cdb.to_list s) in
  let nd = Array.length dfacts and ns = Array.length sfacts in
  (* Star check: every fact of D must be able to produce some fact of S,
     otherwise no valuation lands inside S at all. *)
  let producible i =
    Array.exists (fun g -> fact_can_produce db dfacts.(i) g) sfacts
  in
  let star_ok = Array.for_all producible (Array.init nd Fun.id) in
  star_ok
  &&
  (* Every fact of S must be matched by a distinct fact of D: maximum
     matching of the producibility graph must saturate S. *)
  let edges = ref [] in
  for i = 0 to nd - 1 do
    for j = 0 to ns - 1 do
      if fact_can_produce db dfacts.(i) sfacts.(j) then edges := (i, j) :: !edges
    done
  done;
  let b = Bipartite.make ~left:nd ~right:ns !edges in
  let size, _ = Matching.maximum_matching b in
  size = ns

(* ------------------------------------------------------------------ *)
(* Index-array completion kernel (the Lemma B.2 test over a universe)  *)
(* ------------------------------------------------------------------ *)

type kernel = {
  images : int array array; (* per table fact: universe indices it produces *)
  producers : int array array; (* per universe index: table facts producing it *)
  nd : int;
  (* Kuhn matching scratch, reused across calls (one kernel per domain). *)
  matched_bit : int array; (* per table fact: universe index held, or -1 *)
  visit : int array; (* per table fact: stamp of the last augmenting pass *)
  touched : int array; (* facts assigned during the current call *)
  mutable ntouched : int;
  mutable clock : int;
}

(* The immutable precomputation plus fresh matching scratch. *)
let with_scratch ~images ~producers ~nd =
  {
    images;
    producers;
    nd;
    matched_bit = Array.make nd (-1);
    visit = Array.make nd (-1);
    touched = Array.make nd 0;
    ntouched = 0;
    clock = 0;
  }

let kernel db ~universe =
  if not (Idb.is_codd db) then invalid_arg "Codd.kernel: requires a Codd table";
  let dfacts = Array.of_list (Idb.facts db) in
  let nd = Array.length dfacts in
  let producers = Array.make (Array.length universe) [] in
  let images =
    Array.map
      (fun f ->
        let img = ref [] in
        for j = Array.length universe - 1 downto 0 do
          if fact_can_produce db f universe.(j) then img := j :: !img
        done;
        Array.of_list !img)
      dfacts
  in
  for i = nd - 1 downto 0 do
    Array.iter (fun j -> producers.(j) <- i :: producers.(j)) images.(i)
  done;
  with_scratch ~images ~producers:(Array.map Array.of_list producers) ~nd

let kernel_images k = k.images
let kernel_producers k = k.producers
let kernel_size k = k.nd

(* Fresh matching scratch over the shared immutable precomputation, so
   sharded enumerations get one kernel per domain without re-deriving the
   ground images. *)
let kernel_copy k = with_scratch ~images:k.images ~producers:k.producers ~nd:k.nd

(* Kuhn's algorithm from the S side: every listed universe index needs a
   distinct producing table fact.  Matching state is reset by undoing only
   the facts touched in this call, so a failed check costs what it
   explored, not O(nd). *)
let kernel_saturates k bits ~len =
  let rec augment j =
    let ps = k.producers.(j) in
    let n = Array.length ps in
    let rec go i =
      if i = n then false
      else begin
        let f = Array.unsafe_get ps i in
        if k.visit.(f) = k.clock then go (i + 1)
        else begin
          k.visit.(f) <- k.clock;
          let prev = k.matched_bit.(f) in
          if prev = -1 || augment prev then begin
            if prev = -1 then begin
              k.touched.(k.ntouched) <- f;
              k.ntouched <- k.ntouched + 1
            end;
            k.matched_bit.(f) <- j;
            true
          end
          else go (i + 1)
        end
      end
    in
    go 0
  in
  let rec all i =
    i = len
    || begin
         k.clock <- k.clock + 1;
         augment bits.(i) && all (i + 1)
       end
  in
  let ok = all 0 in
  for i = 0 to k.ntouched - 1 do
    k.matched_bit.(k.touched.(i)) <- -1
  done;
  k.ntouched <- 0;
  ok

(* Whether two ascending index arrays share an element. *)
let meets a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    i < la && j < lb
    && (a.(i) = b.(j) || if a.(i) < b.(j) then go (i + 1) j else go i (j + 1))
  in
  go 0 0

let kernel_is_completion k set =
  (* Star check: every table fact must land somewhere inside the set. *)
  Array.for_all (fun img -> meets img set) k.images
  && Array.length set <= k.nd
  && kernel_saturates k set ~len:(Array.length set)

let is_completion_naive db s =
  let sfacts = Array.of_list (Cdb.to_list s) in
  let nulls = Array.of_list (Idb.nulls db) in
  let k = Array.length nulls in
  let index = Hashtbl.create 8 in
  Array.iteri (fun i n -> Hashtbl.replace index n i) nulls;
  let assignment = Array.make k None in
  (* A fact can still land in [s] under the partial assignment when some
     s-fact agrees with every already-fixed position. *)
  let fact_alive (f : Idb.fact) =
    Array.exists
      (fun (g : Cdb.fact) ->
        f.Idb.rel = g.Cdb.rel
        && Array.length f.Idb.args = Array.length g.Cdb.args
        && begin
             let ok = ref true in
             Array.iteri
               (fun i t ->
                 if !ok then
                   match t with
                   | Term.Const c -> if c <> g.Cdb.args.(i) then ok := false
                   | Term.Null n -> (
                     match assignment.(Hashtbl.find index n) with
                     | Some c -> if c <> g.Cdb.args.(i) then ok := false
                     | None ->
                       if not (List.mem g.Cdb.args.(i) (Idb.domain_of db n))
                       then ok := false))
               f.Idb.args;
             !ok
           end)
      sfacts
  in
  let all_alive () = List.for_all fact_alive (Idb.facts db) in
  (* Every s-fact must be produced by some table fact under the final
     assignment; check at the leaves (coverage pruning mid-way would need
     per-fact bookkeeping that rarely pays off at these sizes). *)
  let covered () =
    let v =
      List.init k (fun i ->
          (nulls.(i), match assignment.(i) with Some c -> c | None -> assert false))
    in
    Cdb.equal (Idb.apply db v) s
  in
  let rec go i =
    if i = k then covered ()
    else
      List.exists
        (fun c ->
          assignment.(i) <- Some c;
          let feasible = all_alive () in
          let result = feasible && go (i + 1) in
          assignment.(i) <- None;
          result)
        (Idb.domain_of db nulls.(i))
  in
  if k = 0 then Cdb.equal (Idb.apply db []) s else all_alive () && go 0

let is_completion_brute ?limit db s =
  let found = ref false in
  Idb.iter_valuations ?limit db (fun v ->
      if (not !found) && Cdb.equal (Idb.apply db v) s then found := true);
  !found
