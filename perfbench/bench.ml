(* The checked-run benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]

   Closed loop, one client, one domain: each operation is one checked
   run (Op.plain) on a case generated beforehand from --seed, and the
   next starts when the previous one returns.  Cases run in strided
   chunks of 0.2-0.8 s; timings are averaged over chunks.
   --trace 0 prints the end-to-end metrics; --trace 1 alternates traced
   and untraced chunks and prints the per-layer metrics.  The last
   stdout line is one JSON object; README.md maps the metrics. *)

open Cliffedge_graph
module Stats = Cliffedge_net.Stats
module Transport = Cliffedge_net.Transport
module Obs = Cliffedge_obs

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* ---- command line ----------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  spans : string option;
}

let parse_args argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and spans = ref None in
  let rec go = function
    | [] -> ()
    | flag :: _ when not (String.starts_with ~prefix:"--" flag) ->
        die "unexpected argument %S" flag
    | [ flag ] -> die "%s needs a value" flag
    | flag :: value :: rest ->
        (match flag with
        | "--workload" ->
            if not (List.mem value Workloads.names) then
              die "unknown workload %S (expected one of: %s)" value
                (String.concat ", " Workloads.names);
            workload := Some value
        | "--seed" -> (
            let decimal = value <> "" && String.for_all (fun c -> c >= '0' && c <= '9') value in
            match int_of_string_opt value with
            | Some n when decimal -> seed := Some n
            | _ -> die "malformed seed %S (expected a non-negative decimal integer)" value)
        | "--seconds" -> (
            match float_of_string_opt value with
            | Some s when Float.is_finite s && s > 0.0 && s <= 3600.0 -> seconds := Some s
            | _ -> die "malformed --seconds %S (expected a number in (0, 3600])" value)
        | "--trace" -> (
            match value with
            | "0" -> trace := false
            | "1" -> trace := true
            | _ -> die "malformed --trace %S (expected 0 or 1)" value)
        | "--spans" -> spans := Some value
        | _ -> die "unknown option %S" flag);
        go rest
  in
  go (List.tl (Array.to_list argv));
  let need name = function Some v -> v | None -> die "missing %s" name in
  if Option.is_some !spans && not !trace then die "--spans needs --trace 1";
  {
    workload = need "--workload" !workload;
    seed = need "--seed" !seed;
    seconds = Option.value ~default:10.0 !seconds;
    trace = !trace;
    spans = !spans;
  }

(* ---- statistics ------------------------------------------------- *)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = quantile (sorted_of_list xs) 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b

let elapsed_s t0 = float_of_int (Op.now_ns () - t0) /. 1e9

(* ---- set-up ----------------------------------------------------- *)

let warmup_cases = 4

(* Graph build, case generation and warm-up: everything a user pays
   before the first timed run.  The warm-up cases are spread evenly
   over the pool, so on million-highid they span the id range.
   Returns the workload, the set-up time and the graph-build time. *)
let setup_once name ~seed =
  let t0 = Op.now_ns () in
  let graph = Workloads.build_graph name in
  let built = Op.now_ns () in
  let w = Workloads.generate name ~seed graph in
  let n = Array.length w.cases in
  for k = 0 to warmup_cases - 1 do
    ignore (Op.plain graph w.cases.(k * n / warmup_cases))
  done;
  (w, elapsed_s t0, float_of_int (built - t0))

(* ---- untraced chunks ------------------------------------------- *)

(* What the first run of each case records: the summary every later
   repeat must reproduce, and what the simulation metrics read. *)
type first = {
  summaries : Op.summary option array;
  minor : float array;
  msgs : float array;
  involved : float array;
  mutable latencies : float list;
}

let new_first n =
  {
    summaries = Array.make n None;
    minor = Array.make n 0.0;
    msgs = Array.make n 0.0;
    involved = Array.make n 0.0;
    latencies = [];
  }

(* Timing summary of one chunk.  The reported timings average over
   chunks: the host's speed steps between levels that last from seconds
   to minutes, and a mean moves smoothly with the share of a run spent
   at each level, where a median over chunks jumps from one level to
   the next. *)
type chunk = { runs : int; seconds : float; p50 : float; p90 : float }

let chunk_stats us seconds =
  let sorted = Array.copy us in
  Array.sort Float.compare sorted;
  { runs = Array.length us; seconds; p50 = quantile sorted 0.5; p90 = quantile sorted 0.9 }

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable nondeterministic : int;
  mutable chunks : chunk list;
  mutable minor_sum : float;
  mutable major_sum : float;
  mutable timed : int;
}

let new_tally () =
  {
    attempted = 0;
    failed = 0;
    nondeterministic = 0;
    chunks = [];
    minor_sum = 0.0;
    major_sum = 0.0;
    timed = 0;
  }

(* Outcome check shared by every operation: checker verdict,
   quiescence and ARQ stalls, plus the repeat check against the case's
   first run.  Returns whether the run repeated its first run. *)
let judge tally first i r =
  tally.attempted <- tally.attempted + 1;
  let repeat_ok =
    match first.summaries.(i) with None -> true | Some s -> Op.same s (Op.summary r)
  in
  if not repeat_ok then tally.nondeterministic <- tally.nondeterministic + 1;
  if Op.failed r || not repeat_ok then tally.failed <- tally.failed + 1;
  repeat_ok

(* Runs the cases [idx] once each.  Only the clock and allocation
   counters are read around each operation; results are inspected
   after the clock has stopped, and dropped before the next one. *)
let plain_chunk (w : Workloads.t) first tally idx =
  let us = Array.make (Array.length idx) 0.0 in
  let c0 = Op.now_ns () in
  Array.iteri
    (fun k i ->
      let _, _, j0 = Gc.counters () in
      let m0 = Gc.minor_words () in
      let t0 = Op.now_ns () in
      let r = Op.plain w.graph w.cases.(i) in
      let t1 = Op.now_ns () in
      let m1 = Gc.minor_words () in
      let _, _, j1 = Gc.counters () in
      us.(k) <- float_of_int (t1 - t0) /. 1e3;
      tally.minor_sum <- tally.minor_sum +. (m1 -. m0);
      tally.major_sum <- tally.major_sum +. (j1 -. j0);
      tally.timed <- tally.timed + 1;
      ignore (judge tally first i r : bool);
      if Option.is_none first.summaries.(i) then begin
        first.summaries.(i) <- Some (Op.summary r);
        first.minor.(i) <- m1 -. m0;
        first.msgs.(i) <- float_of_int (Stats.sent r.outcome.stats);
        first.involved.(i) <-
          float_of_int (Node_set.cardinal (Stats.communicating_nodes r.outcome.stats));
        first.latencies <- List.rev_append (List.map snd r.latencies) first.latencies
      end)
    idx;
  tally.chunks <- chunk_stats us (elapsed_s c0) :: tally.chunks

let fingerprint name seed first =
  let summaries = Array.map Option.get first.summaries in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 summaries in
  Printf.sprintf
    "fingerprint %s seed=%d cases=%d: events=%d sends=%d decisions=%d restarts=%d obs_events=%d minor_words=%.0f"
    name seed (Array.length summaries)
    (sum (fun (s : Op.summary) -> s.events))
    (sum (fun s -> s.sends))
    (sum (fun s -> List.length s.decided))
    (sum (fun s -> s.restarts))
    (sum (fun s -> s.obs_events))
    (Array.fold_left ( +. ) 0.0 first.minor)

(* ---- traced chunks --------------------------------------------- *)

(* Per-layer sums over every traced run, by metric name. *)
type layers = {
  sums : (string, float) Hashtbl.t;
  mutable runs : int;
  mutable op_ns : float;
  mutable op_chunks : chunk list;
  mutable mismatches : int;
  mutable spans : (int * int * Op.mark array * int * int) list;
      (** run, case, marks, operation start and end *)
}

let new_layers () =
  { sums = Hashtbl.create 64; runs = 0; op_ns = 0.0; op_chunks = []; mismatches = 0; spans = [] }

let sum l name = Option.value ~default:0.0 (Hashtbl.find_opt l.sums name)

let add l name v = Hashtbl.replace l.sums name (sum l name +. v)

let fl = float_of_int

(* Time and major words of [f ()], for the side probes. *)
let probe f =
  let _, _, j0 = Gc.counters () in
  let t0 = Op.now_ns () in
  let x = f () in
  let t1 = Op.now_ns () in
  let _, _, j1 = Gc.counters () in
  (x, fl (t1 - t0), j1 -. j0)

(* Side probes: outside the operation and outside the phase sum.  They
   replay the case's crashes through the incremental tracker and the
   batch geometry, and fold the causal log into metrics.  [probe_graph]
   is built afresh for each chunk, so its memos are cold for every case
   the chunk holds. *)
let side_probes l probe_graph (case : Workloads.case) (r : Op.result) =
  let tracker, ns, major =
    probe (fun () ->
        let g = Incr_geometry.create probe_graph in
        List.iter (fun (_, p) -> Incr_geometry.crash g p) case.crashes;
        ignore (Incr_geometry.snapshot g);
        g)
  in
  add l "geometry.tracker.ns" ns;
  add l "geometry.tracker.major_words" major;
  add l "geometry.tracker.resident_words" (fl (Incr_geometry.resident_words tracker));
  let _, ns, major =
    probe (fun () -> Fault_geometry.compute probe_graph ~faulty:r.outcome.crashed)
  in
  add l "geometry.batch.ns" ns;
  add l "geometry.batch.major_words" major;
  let _, ns, _ = probe (fun () -> Obs.Metrics.of_log r.outcome.obs) in
  add l "obs.metrics.ns" ns

let record_layers l (case : Workloads.case) (r : Op.result) (t : Op.trace) =
  let o = r.outcome in
  l.runs <- l.runs + 1;
  Array.iteri
    (fun p name ->
      let a = t.marks.(p) and b = t.marks.(p + 1) in
      add l (name ^ ".ns") (fl (b.ns - a.ns));
      add l (name ^ ".minor_words") (b.minor -. a.minor);
      add l (name ^ ".major_words") (b.major -. a.major))
    Op.phase_names;
  Array.iteri
    (fun k name ->
      add l ("protocol." ^ name ^ ".ns") (fl t.step_ns.(k));
      add l ("protocol." ^ name ^ ".count") (fl t.step_count.(k)))
    Op.step_names;
  add l "protocol.sends" (fl t.sends);
  add l "protocol.decides" (fl t.decides);
  add l "runner.roster.steppers" (fl t.makes);
  List.iter
    (fun (_, _, note) ->
      match note with
      | Cliffedge.Protocol.Proposed _ -> add l "proposed" 1.0
      | Cliffedge.Protocol.Attempt_failed _ -> add l "attempts_failed" 1.0
      | _ -> ())
    o.notes;
  add l "engine.events" (fl o.engine_events);
  add l "network.sends" (fl (Stats.sent o.stats));
  add l "network.units" (fl (Stats.units_sent o.stats));
  add l "network.delivered" (fl (Stats.delivered o.stats));
  let suspicions = ref 0 in
  Obs.Log.iter o.obs (fun e ->
      match e.Obs.Event.kind with Obs.Event.Suspect _ -> incr suspicions | _ -> ());
  add l "failure_detector.suspicions" (fl !suspicions);
  add l "obs.events" (fl (Obs.Log.length o.obs));
  (match case.options.channel with
  | Transport.Arq_over_faulty _ ->
      add l "transport.retransmits" (fl (Stats.retransmitted o.stats));
      add l "transport.dedups" (fl (Stats.deduped o.stats));
      add l "transport.fault_drops" (fl (Stats.fault_dropped o.stats));
      add l "transport.stalls" (fl (List.length o.stalled_channels));
      add l "transport.frames" (fl (Stats.sent o.stats))
  | Transport.Reliable | Transport.Raw_faulty _ -> ());
  add l "checker.pairs_checked" (fl r.report.pairs_checked);
  add l "node_set.region_words" (fl (Node_set.words o.crashed))

let traced_chunk name (w : Workloads.t) first tally l idx =
  let probe_graph = Workloads.build_graph name in
  let us = Array.make (Array.length idx) 0.0 in
  let c0 = Op.now_ns () in
  Array.iteri
    (fun k i ->
      let case = w.cases.(i) in
      let t0 = Op.now_ns () in
      let r, t = Op.traced w.graph case in
      let t1 = Op.now_ns () in
      us.(k) <- fl (t1 - t0) /. 1e3;
      if not (judge tally first i r) then l.mismatches <- l.mismatches + 1;
      l.op_ns <- l.op_ns +. fl (t1 - t0);
      l.spans <- (l.runs, i, t.marks, t0, t1) :: l.spans;
      record_layers l case r t;
      side_probes l probe_graph case r)
    idx;
  l.op_chunks <- chunk_stats us (elapsed_s c0) :: l.op_chunks

(* ---- output ----------------------------------------------------- *)

let json_number v =
  if Float.is_finite v then
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  else "0"

let result_line ~correct (tally : tally) metrics =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct tally.attempted tally.failed (String.concat ", " fields)

(* Spans, one JSON object per line: each traced run's operation span
   and its phase children, sharing the run's id, with times relative
   to the operation start. *)
let write_spans oc (l : layers) =
  List.iter
    (fun (run, case, (marks : Op.mark array), t0, t1) ->
      Printf.fprintf oc
        "{\"run\": %d, \"case\": %d, \"span\": \"op\", \"parent\": null, \"start_ns\": 0, \"end_ns\": %d}\n"
        run case (t1 - t0);
      Array.iteri
        (fun p name ->
          let a = marks.(p) and b = marks.(p + 1) in
          Printf.fprintf oc
            "{\"run\": %d, \"case\": %d, \"span\": \"%s\", \"parent\": \"op\", \"start_ns\": %d, \"end_ns\": %d, \"minor_words\": %.0f, \"major_words\": %.0f}\n"
            run case name (a.ns - t0) (b.ns - t0) (b.minor -. a.minor) (b.major -. a.major))
        Op.phase_names)
    (List.rev l.spans)

let top_heap_mb () =
  let s = Gc.quick_stat () in
  fl s.Gc.top_heap_words *. fl (Sys.word_size / 8) /. 1048576.0

let sum_of f (chunks : chunk list) = List.fold_left (fun acc c -> acc +. f c) 0.0 chunks

let mean_of f chunks = sum_of f chunks /. fl (List.length chunks)

(* Runs over seconds, summed over every timed chunk. *)
let runs_per_s chunks =
  ratio (sum_of (fun c -> fl c.runs) chunks) (sum_of (fun c -> c.seconds) chunks)

let end_to_end ~setup_s (tally : tally) first =
  let timed = fl tally.timed in
  [
    ("runs_per_s", runs_per_s tally.chunks, "1/s");
    ("run_us_p50", mean_of (fun c -> c.p50) tally.chunks, "us");
    ("run_us_p90", mean_of (fun c -> c.p90) tally.chunks, "us");
    ("minor_words_per_run", tally.minor_sum /. timed, "words");
    ("major_words_per_run", tally.major_sum /. timed, "words");
    ("top_heap_mb", top_heap_mb (), "MB");
    ("setup_s", setup_s, "s");
    ("msgs_per_run", median (Array.to_list first.msgs), "count");
    ("nodes_involved_per_run", median (Array.to_list first.involved), "count");
    ("sim_decide_latency_p50", median first.latencies, "sim-time");
  ]

(* Per-layer metrics reported as means per traced run. *)
let mean_metrics =
  List.concat_map
    (fun p -> [ p ^ ".ns"; p ^ ".minor_words"; p ^ ".major_words" ])
    (Array.to_list Op.phase_names)
  @ List.concat_map
      (fun s -> [ "protocol." ^ s ^ ".ns"; "protocol." ^ s ^ ".count" ])
      (Array.to_list Op.step_names)
  @ [
      "runner.roster.steppers"; "protocol.sends"; "protocol.decides"; "engine.events";
      "network.sends"; "network.units"; "network.delivered"; "failure_detector.suspicions";
      "obs.events"; "transport.retransmits"; "transport.dedups"; "transport.fault_drops";
      "transport.stalls"; "checker.pairs_checked"; "node_set.region_words";
      "geometry.tracker.ns"; "geometry.tracker.major_words"; "geometry.tracker.resident_words";
      "geometry.batch.ns"; "geometry.batch.major_words"; "obs.metrics.ns";
    ]

let unit_of name =
  if String.ends_with ~suffix:".ns" name then "ns"
  else if String.ends_with ~suffix:"words" name then "words"
  else "count"

let phase_sum l =
  Array.fold_left (fun acc p -> acc +. sum l (p ^ ".ns")) 0.0 Op.phase_names

let per_layer ~build_ns (tally : tally) (l : layers) =
  let n = fl l.runs in
  let substrate_ns =
    sum l "runner.loop.ns" -. sum l "protocol.crash.ns" -. sum l "protocol.deliver.ns"
  in
  let frames = sum l "transport.frames" in
  let traced_us = mean_of (fun c -> c.p50) l.op_chunks in
  let untraced_us = mean_of (fun c -> c.p50) tally.chunks in
  List.map (fun name -> (name, sum l name /. n, unit_of name)) mean_metrics
  @ [
      ("protocol.restart_ratio", ratio (sum l "attempts_failed") (sum l "proposed"), "ratio");
      ("substrate.self.ns", substrate_ns /. n, "ns");
      ("substrate.ns_per_event", ratio substrate_ns (sum l "engine.events"), "ns");
      ( "transport.goodput_ratio",
        ratio (frames -. sum l "transport.retransmits") frames,
        "ratio" );
      ("topology.build.ns", build_ns, "ns");
      ("trace.runs", n, "count");
      ("trace.op_us_p50", traced_us, "us");
      ("trace.untraced_us_p50", untraced_us, "us");
      ("trace.overhead_us", traced_us -. untraced_us, "us");
      ("trace.phase_sum_ratio", ratio (phase_sum l) l.op_ns, "ratio");
      ("failed_run_ratio", ratio (fl tally.failed) (fl tally.attempted), "ratio");
    ]

(* ---- main ------------------------------------------------------- *)

(* Spans go to --spans, or by default to perfbench/out/ (relative to
   the repository root, where run.py starts the benchmark). *)
let open_spans (a : args) =
  let path =
    match a.spans with
    | Some path -> path
    | None ->
        let dir = Filename.concat "perfbench" "out" in
        (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
         with Sys_error msg -> die "cannot create %s: %s" dir msg);
        Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" a.workload a.seed)
  in
  try open_out path with Sys_error msg -> die "cannot write spans: %s" msg

let main () =
  let a = parse_args Sys.argv in
  let spans_oc =
    if a.trace then Some (open_spans a)
    else None
  in
  (* Set up at least five times and for at least a second, so a set-up
     of a few milliseconds gets enough samples for a steady median; keep
     the last and report the median.  Only the times of earlier set-ups
     are kept: holding their workloads would raise top_heap_mb with the
     number of set-ups. *)
  let setup_start = Op.now_ns () in
  let rec set_up times n =
    let w, s, b = setup_once a.workload ~seed:a.seed in
    let times = (s, b) :: times in
    if n + 1 >= 5 && elapsed_s setup_start >= 1.0 then (w, times) else set_up times (n + 1)
  in
  let w, times = set_up [] 0 in
  let setup_s = median (List.map fst times) in
  let build_ns = median (List.map snd times) in
  let tally = new_tally () in
  let l = new_layers () in
  let first = new_first (Array.length w.cases) in
  let chunks = Workloads.chunks w in
  let c = Array.length chunks in
  let start = Op.now_ns () in
  (* The first cycle runs every case once, untraced, to record its
     first outcome.  After it, trace mode alternates traced and
     untraced chunks, so the tracing overhead compares runs made under
     the same conditions.  The run stops when another chunk would
     overshoot --seconds by more than it would fall short. *)
  let rec loop k last =
    let first_cycle = k < c in
    if first_cycle || (a.trace && l.runs = 0) || elapsed_s start +. (last /. 2.0) < a.seconds
    then begin
      let t0 = Op.now_ns () in
      let idx = chunks.(k mod c) in
      if a.trace && (not first_cycle) && (k + (k / c)) mod 2 = 0 then
        traced_chunk a.workload w first tally l idx
      else plain_chunk w first tally idx;
      loop (k + 1) (elapsed_s t0)
    end
  in
  loop 0 0.0;
  let loop_s = elapsed_s start in
  print_endline (fingerprint a.workload a.seed first);
  Printf.printf
    "%s seed=%d: %d cases, %d runs in %d chunks (%d timed untraced; %d failed, %d not repeating) in %.2f s\n"
    a.workload a.seed (Array.length w.cases) tally.attempted
    (List.length tally.chunks + List.length l.op_chunks)
    tally.timed tally.failed tally.nondeterministic loop_s;
  let correct, metrics =
    match spans_oc with
    | None -> (tally.failed = 0, end_to_end ~setup_s tally first)
    | Some oc ->
        write_spans oc l;
        close_out oc;
        let metrics = per_layer ~build_ns tally l in
        let sum_ratio = ratio (phase_sum l) l.op_ns in
        let sum_ok = Float.abs (sum_ratio -. 1.0) <= 0.10 in
        Printf.printf "traced runs: %d; outcome mismatches vs untraced: %d; phase sum / op time = %.4f\n"
          l.runs l.mismatches sum_ratio;
        (tally.failed = 0 && l.mismatches = 0 && sum_ok, metrics)
  in
  print_endline (result_line ~correct tally metrics)

let () =
  try main () with
  | Sys_error msg -> die "%s" msg
