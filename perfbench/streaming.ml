(* stream: four policies over one 250k-job lazy Poisson stream through
   [Run.measure_stream], cache off, no executor.  Stream generation, the
   streamed kernels and the sink folds do all the work; a 100k prefix is
   also run materialized to pin the streamed path to it.  Short passes,
   many of them, so a window's mean pass time covers many stretches of
   host speed. *)

open Common
module Run = Temporal_fairness.Run
module Registry = Rr_policies.Registry
module Stream = Rr_workload.Instance.Stream

let n = 250_000
let prefix_n = 100_000
let machines = 2
let load = 0.95
let policies = List.combine stream_policies [ Registry.Rr; Srpt; Setf; Hybrid 3. ]
let cfg = Run.config ~machines ~k:2 ~cache:false ()
let rtol = 1e-9

let stream ~seed ~n =
  Stream.generate_load ~seed ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. }) ~load
    ~machines ~n ()

let agree (a : Run.result) (b : Run.result) =
  a.n = b.n
  && List.for_all
       (fun (x, y) -> rel_diff x y <= rtol)
       [ (a.norm, b.norm); (a.power_sum, b.power_sum); (a.mean_flow, b.mean_flow);
         (a.max_flow, b.max_flow) ]

(* The 100k prefix, materialized and streamed: the two paths sum in
   different orders and must agree within [rtol]. *)
let prefix_check ~seed =
  let s = stream ~seed ~n:prefix_n in
  let inst = Stream.materialize s in
  List.iter
    (fun (name, spec) ->
      let m = Run.measure cfg (Registry.make spec) inst
      and st = Run.measure_stream cfg (Registry.make spec) s in
      check (agree m st)
        (Printf.sprintf "stream: %s materialized and streamed prefix differ beyond %g" name rtol))
    policies

(* One pass: every policy over the full stream, timed per policy. *)
let pass ctx s =
  List.map
    (fun (name, spec) ->
      time (fun () ->
          span ctx ("stream.measure." ^ name) (fun () ->
              Run.measure_stream cfg (Registry.make spec) s)))
    policies

let noop_sink ~id:_ ~arrival:_ ~flow:_ = ()

let layer_probe ctx s ~measure_s =
  let fill = Stream.start_raw s in
  let cur = { Rr_engine.Simulator.Source.arrival = 0.; size = 0. } in
  span ctx "workload.stream_gen_s" (fun () -> while fill cur >= 0 do () done);
  List.iter2
    (fun (name, spec) measure ->
      let (_ : Rr_engine.Simulator.summary), sim =
        time (fun () ->
            span ctx ("engine." ^ name ^ ".stream_self_s") (fun () ->
                Run.simulate_stream cfg (Registry.make spec) s ~sink:noop_sink))
      in
      add_layer "metrics.sink_s" (measure -. sim))
    policies measure_s;
  let inst =
    span ctx "materialized.generate_s" (fun () ->
        Stream.materialize (stream ~seed:ctx.seed ~n:prefix_n))
  in
  List.iter
    (fun (name, spec) ->
      let res =
        span ctx ("materialized." ^ name ^ ".simulate_s") (fun () ->
            Run.simulate cfg (Registry.make spec) inst)
      in
      ignore
        (span ctx ("materialized." ^ name ^ ".live_s") (fun () ->
             Run.simulate { cfg with engine = `Live } (Registry.make spec) inst)
          : Rr_engine.Simulator.result);
      fold ctx ("materialized." ^ name ^ ".fold_s") ~k:cfg.k res)
    policies

let run ctx =
  let s = stream ~seed:ctx.seed ~n in
  let (), setup_s = timed_setup (fun () -> prefix_check ~seed:ctx.seed) in
  set_e2e "setup_s" "s" setup_s;
  let first = ref [] in
  let passes_rev = ref [] in
  let passes, minor, major =
    with_gc_counts (fun () ->
        timed_passes ctx ~min_passes:3 (fun i ->
            let results = pass ctx s in
            passes_rev := (Spans.enabled ctx.tr, List.map snd results) :: !passes_rev;
            let results = List.map fst results in
            if i = 0 then first := results
            else
              List.iter2
                (fun (a : Run.result) b ->
                  check (same_result a b)
                    (Printf.sprintf "stream: pass %d of %s differs from the first pass" i
                       a.policy_name))
                !first results))
  in
  (* Per-policy medians over the untraced passes, for the sink probe. *)
  let untraced = List.filter_map (fun (tr, ts) -> if tr then None else Some ts) !passes_rev in
  let measure_s =
    List.mapi (fun k _ -> Stats.median (Array.of_list (List.map (fun ts -> List.nth ts k) untraced)))
      policies
  in
  let jobs = Float.of_int (List.length policies * n) in
  set_e2e "jobs_per_s" "jobs/s" (jobs /. mean_pass_time passes);
  set_e2e "peak_rss_mb" "MB" (vmhwm_mb 0);
  Printf.printf "# stream: %d passes, per-policy median s: %s\n" (List.length passes)
    (String.concat " " (List.map2 (fun (p, _) t -> Printf.sprintf "%s=%.4f" p t) policies measure_s));
  if ctx.traced then begin
    let npasses = Float.of_int (List.length passes) in
    set_layer "gc.minor_words_per_job" (minor /. (npasses *. jobs));
    set_layer "gc.major_collections" (Float.of_int major);
    set_layer "trace.overhead" (trace_overhead passes);
    probe ctx (fun () -> layer_probe ctx s ~measure_s)
  end;
  (* Hold-out inputs: the prefix agreement, and a streamed prefix pass
     that must repeat itself bit for bit. *)
  prefix_check ~seed:ctx.holdout_seed;
  let held = stream ~seed:ctx.holdout_seed ~n:prefix_n in
  let a = pass ctx held and b = pass ctx held in
  List.iter2
    (fun ((x : Run.result), _) (y, _) ->
      check (same_result x y) ("stream: hold-out pass of " ^ x.policy_name ^ " does not repeat"))
    a b
