open Incdb_bignum
open Incdb_graph
open Incdb_cq
open Incdb_incomplete

type t = {
  pattern : Cq.t;
  source : string;
  encode : Graph.t -> Idb.t;
  recover : Graph.t -> Nat.t -> Nat.t;
  direct : Graph.t -> Nat.t;
}

let isolated_count g =
  List.length
    (List.filter (fun u -> Graph.degree g u = 0)
       (List.init (Graph.node_count g) Fun.id))

(* The transform preserves the null set and domains, so the total number
   of valuations of the lifted instance equals the source instance's. *)
let total db = Idb.total_valuations db

let for_val q =
  if Pattern.has_rxx q then
    Some
      {
        pattern = Cq.q_rxx;
        source = "#3COL";
        encode =
          (fun g ->
            Pattern_red.transform ~pattern:Cq.q_rxx ~target:q
              (Coloring_red.encode g));
        recover =
          (fun g count ->
            let g_enc =
              Pattern_red.transform ~pattern:Cq.q_rxx ~target:q
                (Coloring_red.encode g)
            in
            Nat.mul
              (Nat.sub (total g_enc) count)
              (Combinat.power 3 (isolated_count g)));
        direct = (fun g -> Colorings.count_colorings g 3);
      }
  else if Pattern.has_rx_sxy_ty q then
    Some
      {
        pattern = Cq.q_rx_sxy_ty;
        source = "#IS";
        encode =
          (fun g ->
            Pattern_red.transform ~pattern:Cq.q_rx_sxy_ty ~target:q
              (Indep_val.encode_rst g));
        recover =
          (fun g count ->
            let g_enc =
              Pattern_red.transform ~pattern:Cq.q_rx_sxy_ty ~target:q
                (Indep_val.encode_rst g)
            in
            Nat.mul
              (Nat.sub (total g_enc) count)
              (Combinat.pow2 (isolated_count g)));
        direct = Independent.count_independent_sets;
      }
  else if Pattern.has_rxy_sxy q then
    Some
      {
        pattern = Cq.q_rxy_sxy;
        source = "#IS";
        encode =
          (fun g ->
            Pattern_red.transform ~pattern:Cq.q_rxy_sxy ~target:q
              (Indep_val.encode_rs g));
        recover =
          (fun g count ->
            let g_enc =
              Pattern_red.transform ~pattern:Cq.q_rxy_sxy ~target:q
                (Indep_val.encode_rs g)
            in
            Nat.mul
              (Nat.sub (total g_enc) count)
              (Combinat.pow2 (isolated_count g)));
        direct = Independent.count_independent_sets;
      }
  else None

let for_comp q =
  {
    pattern = Cq.q_rx;
    source = "#VC";
    encode =
      (fun g ->
        Pattern_red.transform ~pattern:Cq.q_rx ~target:q (Vc_comp.encode g));
    recover = (fun _ count -> count);
    direct = Independent.count_vertex_covers;
  }

module Events = Incdb_obs.Events
module Metrics = Incdb_obs.Metrics

let certificates_checked = Metrics.counter "reductions.certificates_checked"

(* Parsimony check, with each leg of the identity in its own span: the
   encoding D_G, the counting-oracle call on the lifted instance, the
   arithmetic recovery, and the direct combinatorial count it must
   equal. *)
let check cert ~count g =
  Events.with_span "reductions.check" (fun () ->
      Metrics.incr certificates_checked;
      let db = Events.with_span "reductions.encode" (fun () -> cert.encode g) in
      let oracle =
        Events.with_span "reductions.oracle_count" (fun () -> count db)
      in
      let recovered =
        Events.with_span "reductions.recover" (fun () -> cert.recover g oracle)
      in
      let direct =
        Events.with_span "reductions.direct_count" (fun () -> cert.direct g)
      in
      (recovered, direct))
