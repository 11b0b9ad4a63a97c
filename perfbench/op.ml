(* One checked run: Runner, then the CD1-CD7 checker, then the decision
   latency timeline.  [plain] is the operation the end-to-end metrics
   time; [traced] is the same operation with phase marks taken from
   outside the runner, at its public entry points (the [make] hook and
   each stepper call). *)

open Cliffedge_graph
module Runner = Cliffedge.Runner
module Protocol = Cliffedge.Protocol
module Checker = Cliffedge.Checker
module Timeline = Cliffedge.Timeline
module Scenario = Cliffedge.Scenario
module Stats = Cliffedge_net.Stats
module View = Cliffedge.View

type result = {
  outcome : string Runner.outcome;
  report : Checker.report;
  latencies : (View.t * float) list;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let failed r =
  (not (Checker.ok r.report)) || (not r.outcome.quiescent) || r.outcome.stalled_channels <> []

let plain graph (case : Workloads.case) =
  let outcome =
    Runner.run ~options:case.options ~graph ~crashes:case.crashes
      ~propose_value:Scenario.default_propose ()
  in
  let report = Checker.check ~value_equal:String.equal outcome in
  { outcome; report; latencies = Timeline.decision_latency outcome }

(* Deterministic summary of one run.  A pure speed change keeps it
   bit-identical, and every repeat of a case, traced or not, must
   reproduce the case's first run. *)
type summary = {
  events : int;
  sends : int;
  restarts : int;
  obs_events : int;
  decided : (Node_id.t * int * float) list;
      (** node, hash of the view, time; the hash keeps million-highid's
          wide views from staying live between runs *)
}

let summary r =
  {
    events = r.outcome.engine_events;
    sends = Stats.sent r.outcome.stats;
    restarts = Runner.restart_count r.outcome;
    obs_events = Cliffedge_obs.Log.length r.outcome.obs;
    decided =
      List.map
        (fun (d : string Runner.decision) -> (d.node, Node_set.hash d.view, d.time))
        r.outcome.decisions;
  }

let same a b =
  let decision_eq (n, v, t) (n', v', t') =
    Node_id.equal n n' && Int.equal v v' && Float.equal t t'
  in
  a.events = b.events && a.sends = b.sends && a.restarts = b.restarts
  && a.obs_events = b.obs_events
  && List.equal decision_eq a.decided b.decided

(* ---- traced run ------------------------------------------------- *)

type mark = { ns : int; minor : float; major : float }

let mark () =
  let minor, _, major = Gc.counters () in
  { ns = now_ns (); minor; major }

(* Boundaries 0..5 delimit the runner phases; 6 and 7 end the checker
   and the timeline. *)
let phase_names =
  [|
    "runner.setup"; "runner.roster"; "runner.init"; "runner.loop"; "runner.finish"; "checker";
    "timeline";
  |]

(* Stepper calls by event kind. *)
let step_names = [| "init"; "crash"; "deliver" |]

let boundaries = Array.length phase_names + 1

type trace = {
  marks : mark array;
  mutable reached : int;
  step_ns : int array;  (** by {!step_names} *)
  step_count : int array;
  mutable sends : int;
  mutable decides : int;
  mutable makes : int;
}

(* Boundary [i] is set the first time the run reaches it; phases the
   run skips get zero length. *)
let reach t i =
  if t.reached < i then begin
    let m = mark () in
    for j = t.reached + 1 to i do
      t.marks.(j) <- m
    done;
    t.reached <- i
  end

let traced_stepper t (inner : string Runner.stepper) =
  {
    inner with
    Runner.step =
      (fun event ->
        let kind =
          match event with
          | Protocol.Init -> 0
          | Protocol.Crash _ -> 1
          | Protocol.Deliver _ -> 2
        in
        (* The first Init opens runner.init; the first other event
           opens runner.loop. *)
        reach t (if kind = 0 then 2 else 3);
        let t0 = now_ns () in
        let actions = inner.step event in
        t.step_ns.(kind) <- t.step_ns.(kind) + (now_ns () - t0);
        t.step_count.(kind) <- t.step_count.(kind) + 1;
        List.iter
          (function
            | Protocol.Send _ -> t.sends <- t.sends + 1
            | Protocol.Decide _ -> t.decides <- t.decides + 1
            | Protocol.Monitor _ | Protocol.Note _ -> ())
          actions;
        actions);
    (* The runner reads final states only once the loop is over. *)
    flat_state =
      (fun () ->
        reach t 4;
        inner.flat_state ());
  }

let traced graph (case : Workloads.case) =
  let first = mark () in
  let t =
    {
      marks = Array.make boundaries first;
      reached = 0;
      step_ns = Array.make 3 0;
      step_count = Array.make 3 0;
      sends = 0;
      decides = 0;
      makes = 0;
    }
  in
  let cfg =
    Protocol.config ~early_stopping:case.options.early_stopping ~graph
      ~propose_value:Scenario.default_propose ()
  in
  let make p =
    reach t 1;
    t.makes <- t.makes + 1;
    traced_stepper t (Runner.protocol_stepper cfg ~self:p)
  in
  let outcome = Runner.run_stepper ~options:case.options ~graph ~crashes:case.crashes ~make () in
  reach t 5;
  let report = Checker.check ~value_equal:String.equal outcome in
  reach t 6;
  let latencies = Timeline.decision_latency outcome in
  reach t 7;
  ({ outcome; report; latencies }, t)
