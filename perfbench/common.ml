(* Shared plumbing of the four workloads: run context, the operation
   ledger behind [attempted]/[failed], timed set-up and timed passes,
   the metric tables, and process memory readings. *)

module Spans = Perfbench_harness.Spans
module Stats = Perfbench_harness.Stats

let now = Unix.gettimeofday

type ctx = {
  seed : int;
  holdout_seed : int;
  seconds : float;
  traced : bool;
  tr : Spans.t;  (** Records only while a traced pass or probe runs. *)
}

let span ctx name f = Spans.with_span ctx.tr name f

(* The fold half of [Run.measure]: the lk power sum and the flow moments
   over a simulated flow vector, through rr_metrics. *)
let fold ctx name ~k (res : Rr_engine.Simulator.result) =
  span ctx name (fun () ->
      let flows = Rr_engine.Simulator.flows res in
      ignore (Rr_metrics.Norms.power_sum ~k flows : float);
      ignore (Rr_metrics.Flow_stats.of_flows flows : Rr_metrics.Flow_stats.t))

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Operation ledger                                                    *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* A failure, reported on stderr so a failing run says what went wrong.
   [fail] alone is for a failure found after the fact in an operation
   already counted. *)
let fail what =
  incr failed;
  prerr_endline ("perfbench: check failed: " ^ what)

(* Count one checked operation. *)
let check ok what =
  incr attempted;
  if not ok then fail what

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_result (a : Temporal_fairness.Run.result) (b : Temporal_fairness.Run.result) =
  a.n = b.n && a.events = b.events && same_float a.norm b.norm
  && same_float a.power_sum b.power_sum && same_float a.mean_flow b.mean_flow
  && same_float a.max_flow b.max_flow

let rel_diff a b =
  if a = b then 0. else Float.abs (a -. b) /. Float.max 1e-300 (Float.max (Float.abs a) (Float.abs b))

(* ------------------------------------------------------------------ *)
(* Set-up and the timed window                                         *)
(* ------------------------------------------------------------------ *)

(* Run the set-up [setup_reps] times and keep the last state; [discard]
   releases each earlier one.  Reporting the median makes [setup_s] a
   steady figure even when one repetition meets a noisy neighbour. *)
let setup_reps = 3

let timed_setup ?(discard = ignore) f =
  let times = Array.make setup_reps 0. in
  let rec go i =
    Gc.full_major ();
    let state, dt = time f in
    times.(i) <- dt;
    if i = setup_reps - 1 then state
    else begin
      discard state;
      go (i + 1)
    end
  in
  let state = go 0 in
  (state, Stats.median times)

(* Run [pass] back to back until [seconds] have elapsed, at least
   [min_passes] times.  In a traced run odd passes record spans and even
   passes do not, so the same window yields both the untraced pass times
   and the tracing overhead.  Returns the (traced, duration) of every
   pass. *)
let timed_passes ctx ~min_passes pass =
  let t_end = now () +. ctx.seconds in
  let rec go i acc =
    if i >= min_passes && now () >= t_end then List.rev acc
    else begin
      let traced = ctx.traced && i land 1 = 1 in
      (* Each pass starts from a collected heap, so one pass's garbage is
         not billed to the next and the peak RSS is a per-pass figure. *)
      Gc.full_major ();
      Spans.set_enabled ctx.tr traced;
      let (), dt = time (fun () -> pass i) in
      Spans.set_enabled ctx.tr false;
      go (i + 1) ((traced, dt) :: acc)
    end
  in
  let passes = go 0 [] in
  let times = Array.of_list (List.map snd passes) in
  let q1, q2, q3 = Stats.quartiles times in
  Printf.printf "# %d passes, quartiles %.4f %.4f %.4f s: %s\n" (Array.length times) q1 q2 q3
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") times)));
  passes

let untraced_times passes =
  Array.of_list (List.filter_map (fun (tr, dt) -> if tr then None else Some dt) passes)

(* Mean untraced pass time: a workload's throughput is its work over the
   time the window spent on it, not over one typical pass.  The host's
   speed drifts on a scale of seconds, so pass times are not outliers
   around one value but samples of that drift; the mean weighs each
   stretch by the time it lasted, where a median jumps between a slow and
   a fast stretch as one outnumbers the other. *)
let mean_pass_time passes = Stats.mean (untraced_times passes)

let traced_times passes =
  Array.of_list (List.filter_map (fun (tr, dt) -> if tr then Some dt else None) passes)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Every per-layer metric, in report order.  A traced run prints all of
   them; a layer its workload does not reach reads 0 (README.md lists
   which workload reaches which layer). *)
let classes = [ "equal-share"; "index"; "setf-cascade"; "dense"; "hybrid"; "budget" ]
let stream_policies = [ "rr"; "srpt"; "setf"; "hybrid" ]
let phases = [ "light"; "heavy" ]

let per_layer =
  let each xs f = List.concat_map f xs in
  [ ("workload.generate_s", "s"); ("workload.stream_gen_s", "s");
    ("loadgen.feed_us_per_frame", "us") ]
  @ each classes (fun c ->
        [ ("engine." ^ c ^ ".self_s", "s"); ("engine." ^ c ^ ".events", "count") ])
  @ each stream_policies (fun p -> [ ("engine." ^ p ^ ".stream_self_s", "s") ])
  @ [ ("engine.live.us_per_frame", "us") ]
  @ each stream_policies (fun p ->
        [ ("materialized." ^ p ^ ".live_s", "s"); ("materialized." ^ p ^ ".simulate_s", "s");
          ("materialized." ^ p ^ ".fold_s", "s") ])
  @ [ ("engine.live.snapshot_us", "us"); ("engine.live.restore_us", "us");
      ("engine.live.snapshot_bytes", "bytes"); ("metrics.fold_s", "s"); ("metrics.sink_s", "s");
      ("materialized.generate_s", "s"); ("executor.backend", "code");
      ("executor.width", "count"); ("executor.overhead_s", "s");
      ("executor.efficiency", "ratio"); ("cache.hits", "count"); ("cache.misses", "count");
      ("cache.hit_ratio", "ratio"); ("sweep.probes", "count"); ("sweep.s", "s");
      ("lp.cheap_s", "s"); ("lp.interval_s", "s"); ("lp.solves", "count");
      ("lp.s_per_solve", "s"); ("dualfit.s", "s"); ("serve.roundtrip_us", "us");
      ("serve.wire_us_per_frame", "us"); ("serve.encode_us_per_frame", "us");
      ("serve.decode_us_per_frame", "us"); ("serve.stats_us", "us");
      ("serve.snapshot_us", "us"); ("serve.snapshot_bytes", "bytes") ]
  @ each phases (fun ph ->
        List.map (fun q -> (Printf.sprintf "serve.%s.%s_us" ph q, "us")) [ "p50"; "p90"; "p99"; "max" ])
  @ each phases (fun ph ->
        [ (Printf.sprintf "loadgen.%s.late_p50_us" ph, "us");
          (Printf.sprintf "loadgen.%s.late_max_us" ph, "us");
          (Printf.sprintf "loadgen.%s.achieved_over_offered" ph, "ratio") ])
  @ [ ("gc.minor_words_per_job", "words"); ("gc.major_collections", "count");
      ("trace.spans", "count"); ("trace.overhead", "ratio") ]

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 128

let set_layer name v =
  if not (List.mem_assoc name per_layer) then invalid_arg ("unknown per-layer metric " ^ name);
  Hashtbl.replace layer_values name v

let add_layer name v =
  set_layer name (v +. Option.value ~default:0. (Hashtbl.find_opt layer_values name))

let end_to_end : (string * float * string) list ref = ref []

let set_e2e name unit_ v = end_to_end := (name, v, unit_) :: !end_to_end

(* Span self time summed per name, written into the per-layer metric of
   the same name (a span "engine.dense.self_s" feeds that metric). *)
let layers_of_spans ctx =
  let by_name = Spans.self_by_name (Spans.spans ctx.tr) in
  Printf.printf "# span self time (name, count, self s)\n";
  List.iter
    (fun (name, self, k) ->
      Printf.printf "#   %-36s %6d %12.6f\n" name k self;
      if List.mem_assoc name per_layer then set_layer name self)
    by_name;
  set_layer "trace.spans" (Float.of_int (Spans.count ctx.tr))

(* A layer probe: [f] runs with spans recording, after the timed window,
   and the per-layer metrics are read from its spans alone. *)
let probe ctx f =
  Spans.reset ctx.tr;
  Spans.set_enabled ctx.tr true;
  let v = f () in
  Spans.set_enabled ctx.tr false;
  layers_of_spans ctx;
  v

let trace_overhead passes =
  let tr = traced_times passes and un = untraced_times passes in
  if Array.length tr = 0 || Array.length un = 0 then 0.
  else (Stats.median tr /. Stats.median un) -. 1.

(* Allocation and major collections of this process over [f]. *)
let with_gc_counts f =
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).major_collections in
  let v = f () in
  let minor = Gc.minor_words () -. minor0
  and major = (Gc.quick_stat ()).major_collections - major0 in
  (v, minor, major)

(* Peak resident set (VmHWM) of a process, in MB. *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  In_channel.with_open_text path (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Float.of_int kb /. 1024.)
            else find ()
      in
      find ())

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The result line: the last line of standard output. *)
let print_result ctx =
  let metrics =
    if ctx.traced then
      List.map
        (fun (name, unit_) ->
          (name, Option.value ~default:0. (Hashtbl.find_opt layer_values name), unit_))
        per_layer
    else List.rev !end_to_end
  in
  let fields =
    List.map
      (fun (name, v, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (String.concat ", " fields)
