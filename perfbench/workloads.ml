(* The four workloads.  Each turns a seed into a graph and a pool of
   crash schedules, generated before any timing starts; the program
   under test only ever sees the graph, the schedule and the runner
   options of one case.  See README.md for why each workload exists. *)

open Cliffedge_graph
module Runner = Cliffedge.Runner
module Fault_gen = Cliffedge_workload.Fault_gen
module Prng = Cliffedge_prng.Prng
module Faults = Cliffedge_net.Faults
module Transport = Cliffedge_net.Transport

type case = {
  crashes : (float * Node_id.t) list;
  options : Runner.options;
}

type t = {
  graph : Graph.t;
  cases : case array;
  chunks : int;  (** timing chunks per cycle over [cases] *)
}

let names = [ "ring-wide"; "torus-cascade"; "torus-lossy"; "million-highid" ]

(* The one place a case's roster is confined.  A region of a
   million-node ring needs steppers only for its closed neighbourhood
   (CD3 keeps all traffic in region ∪ border); without confinement every
   node of the ring gets a stepper and an Init in every run. *)
let confined graph region options =
  { options with Runner.active_nodes = Some (Graph.closed_neighbourhood graph region) }

let base_options prng =
  { Runner.default_options with seed = Prng.int prng 1_000_000_000 }

let lossy =
  Transport.Arq_over_faulty ({ Faults.none with drop = 0.2 }, Transport.default_policy)

(* Random 8-node connected regions of ring:2048, crashed at once. *)
let ring_wide prng graph =
  Array.init 256 (fun _ ->
      let region = Fault_gen.connected_region prng graph ~size:8 in
      { crashes = Fault_gen.crash_at 10.0 region; options = base_options prng })

(* A 4-node seed region, then six border crashes 5 time units apart:
   crashes land while the border is still agreeing. *)
let torus_cascade ?channel prng graph =
  Array.init 1024 (fun _ ->
      let seed_region = Fault_gen.connected_region prng graph ~size:4 in
      let crashes, _ =
        Fault_gen.cascade prng graph ~seed_region ~depth:6 ~start:10.0 ~interval:5.0
      in
      let options = base_options prng in
      let options =
        match channel with None -> options | Some channel -> { options with channel }
      in
      { crashes; options })

(* An 8-node compact region grown from a seed node anywhere in the id
   range.  Seed nodes are stratified: each case draws uniformly from its
   own one of 64 equal slices of [0, n), so the pool covers the whole
   range evenly, high ids included, and its cost hardly depends on the
   seed.

   A run's cost grows faster than linearly with its ids, so the chunks
   must hold the same mix of ids or their timings split into a cheap and
   a dear mode.  Case k lands in chunk j = k mod 8 at position s = k / 8
   and draws from slice 8s + p, where p is j for s mod 4 in {0, 3} and
   7 - j otherwise: every chunk takes one slice from each eighth of the
   range, and the ABBA pattern cancels the offsets' linear term across
   chunks. *)
let million_highid prng graph =
  let n = Graph.node_count graph and pool = 64 in
  let slice = n / pool in
  let slice_of k =
    let s = k / 8 and j = k mod 8 in
    (8 * s) + if s mod 4 = 0 || s mod 4 = 3 then j else 7 - j
  in
  Array.init pool (fun k ->
      let seed_node = Node_id.of_int ((slice_of k * slice) + Prng.int prng slice) in
      let region = Fault_gen.compact_region graph ~seed_node ~size:8 in
      {
        crashes = Fault_gen.crash_at 10.0 region;
        options = confined graph region (base_options prng);
      })

let build_graph = function
  | "ring-wide" -> Topology.ring 2048
  | "torus-cascade" | "torus-lossy" -> Topology.torus 16 16
  | "million-highid" -> Topology.implicit_ring 1_000_000
  | name -> invalid_arg ("Workloads.build_graph: " ^ name)

let generate name ~seed graph =
  let prng = Prng.create seed in
  (* Chunks of 0.2-0.8 s of runs each on the tuning host. *)
  let cases, chunks =
    match name with
    | "ring-wide" -> (ring_wide prng graph, 2)
    | "torus-cascade" -> (torus_cascade prng graph, 16)
    | "torus-lossy" -> (torus_cascade ~channel:lossy prng graph, 16)
    | "million-highid" -> (million_highid prng graph, 8)
    | name -> invalid_arg ("Workloads.generate: " ^ name)
  in
  { graph; cases; chunks }

(* Chunk [j] holds cases j, j + c, j + 2c, ...: strided, so each chunk
   spans the whole pool (on million-highid, the whole id range). *)
let chunks w =
  let n = Array.length w.cases in
  Array.init w.chunks (fun j ->
      Array.init ((n - j + w.chunks - 1) / w.chunks) (fun k -> j + (k * w.chunks)))
