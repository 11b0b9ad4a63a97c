(* Differential suite: the flat-state protocol core against the
   map-based reference oracle (lib/baseline/protocol_ref.ml).

   The flat core earns its allocation discipline (sorted-array opinion
   vectors, dense instance slots, the targeted-stabilize fast path) by
   being observationally indistinguishable from the direct persistent
   transcription of Algorithm 1.  Both machines replay the same random
   lossy scenario — identical graph, crash schedule, seed, ARQ fault
   plan and early-stopping flag — through the identical
   runner/substrate, and the comparison is exact:

   - the decision streams match record-for-record (node, view, value,
     virtual time, causal-log seq);
   - the exported causal logs are byte-identical JSONL, which pins
     every send, delivery, retransmission, suspicion and protocol
     breadcrumb, not just the final verdicts.

   Divergence on any of the randomized seeds is a behavioral drift in
   one of the cores, by construction on the lossy-channel runs where
   retransmissions and reordering stress the no-change/merge paths
   hardest. *)

open Cliffedge_graph
module Prng = Cliffedge_prng.Prng
module Faults = Cliffedge_net.Faults
module Transport = Cliffedge_net.Transport
module Runner = Cliffedge.Runner
module Protocol = Cliffedge.Protocol
module View = Cliffedge.View
module Scenario = Cliffedge.Scenario
module Fault_gen = Cliffedge_workload.Fault_gen
module Protocol_ref = Cliffedge_baseline.Protocol_ref
module Obs = Cliffedge_obs

(* The lossy ARQ channel and early-stopping flag shared by both
   scenario families: loss up to 30% with duplication and bounded
   reordering, and the flag itself randomized so both the base protocol
   and the footnote-6 fast path are exercised. *)
let lossy_run rng ~seed graph crashes =
  let plan =
    { Faults.drop = Prng.float rng 0.3; dup = Prng.float rng 0.1;
      reorder = Prng.int rng 3; cuts = [] }
  in
  let early_stopping = Prng.int rng 2 = 0 in
  let options =
    {
      Runner.default_options with
      Runner.seed;
      channel = Transport.Arq_over_faulty (plan, Transport.default_policy);
      channel_consistent_fd = true;
      max_events = 5_000_000;
    }
  in
  (graph, crashes, early_stopping, options)

(* One random lossy scenario per seed, in the style of the ARQ
   end-to-end suite: small mixed topologies and a connected crashed
   region of 1-3 nodes. *)
let scenario_of_seed seed =
  let rng = Prng.create seed in
  let graph =
    Prng.choose rng
      [ Topology.ring 12; Topology.ring 16; Topology.torus 4 4; Topology.grid 4 5 ]
  in
  let size = 1 + Prng.int rng 3 in
  let crashes =
    Fault_gen.crash_at 10.0 (Fault_gen.connected_region rng graph ~size)
  in
  lossy_run rng ~seed graph crashes

(* Cascades on a torus, the shape of the torus-cascade benchmark: a
   seed region of 1-4 nodes, then 2-6 border crashes 5 time units
   apart, so crashes land while the border is still agreeing and
   deliveries carry piggybacked rejectors that excuse several awaited
   nodes at once. *)
let cascade_scenario_of_seed seed =
  let rng = Prng.create seed in
  let graph = Prng.choose rng [ Topology.torus 5 5; Topology.torus 6 6 ] in
  let seed_region =
    Fault_gen.connected_region rng graph ~size:(1 + Prng.int rng 4)
  in
  let crashes, _ =
    Fault_gen.cascade rng graph ~seed_region ~depth:(2 + Prng.int rng 5)
      ~start:10.0 ~interval:5.0
  in
  lossy_run rng ~seed graph crashes

let replay ~make (graph, crashes, options) =
  Runner.run_stepper ~options ~graph ~crashes ~make ()

let decision_repr d =
  Format.asprintf "%a %a %s @%g #%s" Node_id.pp d.Runner.node View.pp d.view
    d.value d.time
    (match d.event with None -> "-" | Some seq -> string_of_int seq)

let jsonl_of outcome = Obs.Export.jsonl (Obs.Log.to_list outcome.Runner.obs)

let check_scenario seed (graph, crashes, early_stopping, options) =
  let cfg =
    Protocol.config ~early_stopping ~graph
      ~propose_value:Scenario.default_propose ()
  in
  let flat =
    replay (graph, crashes, options) ~make:(fun p ->
        Runner.protocol_stepper cfg ~self:p)
  in
  let oracle =
    replay (graph, crashes, options) ~make:(fun p ->
        Protocol_ref.stepper cfg ~self:p)
  in
  let flat_dec = List.map decision_repr flat.Runner.decisions in
  let oracle_dec = List.map decision_repr oracle.Runner.decisions in
  if flat_dec <> oracle_dec then
    QCheck2.Test.fail_reportf
      "seed %d (early_stopping=%b): decisions diverge@.flat:   %s@.oracle: %s"
      seed early_stopping
      (String.concat "; " flat_dec)
      (String.concat "; " oracle_dec);
  let flat_log = jsonl_of flat and oracle_log = jsonl_of oracle in
  if not (String.equal flat_log oracle_log) then begin
    (* Byte-identical JSONL required; report the first differing line
       rather than dumping two full logs. *)
    let fl = String.split_on_char '\n' flat_log
    and ol = String.split_on_char '\n' oracle_log in
    let rec first_diff i = function
      | f :: fs, o :: os ->
          if String.equal f o then first_diff (i + 1) (fs, os) else (i, f, o)
      | f :: _, [] -> (i, f, "<end of oracle log>")
      | [], o :: _ -> (i, "<end of flat log>", o)
      | [], [] -> (i, "<equal?>", "<equal?>")
    in
    let line, f, o = first_diff 0 (fl, ol) in
    QCheck2.Test.fail_reportf
      "seed %d (early_stopping=%b): causal logs diverge at line %d@.flat:   \
       %s@.oracle: %s"
      seed early_stopping line f o
  end;
  true

let prop_flat_matches_oracle =
  QCheck2.Test.make
    ~name:"flat core = reference oracle (decisions + causal log), lossy ARQ"
    ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed -> check_scenario seed (scenario_of_seed seed))

(* Fixed seeds rather than a per-run qcheck draw, so the number of
   multi-removal deliveries this case drives is reproducible. *)
let test_torus_cascades () =
  for seed = 0 to 39 do
    ignore (check_scenario seed (cascade_scenario_of_seed seed))
  done

(* Deterministic anchor: the standard micro-suite scenario (ring:32,
   adjacent pair crash) through both machines, so a drift shows up even
   in a quick non-qcheck run. *)
let test_fixed_scenario () =
  let graph = Topology.ring 32 in
  let crashes = [ (10.0, Node_id.of_int 10); (10.0, Node_id.of_int 11) ] in
  let options = { Runner.default_options with Runner.seed = 7 } in
  let cfg =
    Protocol.config ~graph ~propose_value:Scenario.default_propose ()
  in
  let flat =
    replay (graph, crashes, options) ~make:(fun p ->
        Runner.protocol_stepper cfg ~self:p)
  in
  let oracle =
    replay (graph, crashes, options) ~make:(fun p ->
        Protocol_ref.stepper cfg ~self:p)
  in
  Alcotest.(check (list string))
    "decisions"
    (List.map decision_repr oracle.Runner.decisions)
    (List.map decision_repr flat.Runner.decisions);
  Alcotest.(check bool)
    "causal logs byte-identical" true
    (String.equal (jsonl_of flat) (jsonl_of oracle));
  Alcotest.(check bool) "someone decided" true (flat.Runner.decisions <> [])

let suite =
  ( "differential (flat vs oracle)",
    [
      Alcotest.test_case "ring32 anchor scenario" `Quick test_fixed_scenario;
      QCheck_alcotest.to_alcotest ~long:true prop_flat_matches_oracle;
      Alcotest.test_case "torus cascades over lossy ARQ" `Quick test_torus_cascades;
    ] )
