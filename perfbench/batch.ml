(* batch: every registry policy on 192 instances (96 per size
   distribution, 500 jobs each) through the executor ([Run.batch_auto]).
   The only workload where the executor does work; all six closed kernel
   classes and the materialized folds run here.

   Many small instances rather than two big ones: at load 0.95 with
   heavy-tailed sizes one instance's alive set, and with it the cost of
   the O(alive) kernels, swings by a third from seed to seed (12
   instances of 4000 jobs still moved a pass by 35% between seeds, 48 of
   1000 by 18%); averaging over 96 independent instances per
   distribution keeps a run's throughput a property of the code, not of
   the seed. *)

open Common
module Run = Temporal_fairness.Run
module Cache = Temporal_fairness.Cache
module Registry = Rr_policies.Registry
module Distribution = Rr_workload.Distribution

let n = 500
let per_dist = 96
let machines = 2
let load = 0.95

let dists =
  [
    Distribution.Exponential { mean = 1. };
    Distribution.Bounded_pareto { alpha = 1.5; x_min = 0.5; x_max = 50. };
  ]

let cfg = Run.config ~machines ~k:2 ()
let seq_cfg = { cfg with cache = false }

let instances seed =
  List.concat
    (List.mapi
       (fun d sizes ->
         List.init per_dist (fun i ->
             let rng = Rr_util.Prng.create ~seed:((seed * 1009) + (d * per_dist) + i) in
             Rr_workload.Instance.generate_load ~rng ~sizes ~load ~machines ~n ()))
       dists)

(* Fresh policy values per pass: quantum-RR keeps per-run state. *)
let tasks insts =
  List.concat_map
    (fun inst -> List.map (fun spec -> (Registry.make spec, inst)) (Registry.default_specs ()))
    insts

let class_of policy =
  match Run.selection_for cfg policy with
  | Run.Equal_share -> "equal-share"
  | Index _ -> "index"
  | Setf_cascade -> "setf-cascade"
  | Classed _ -> "dense"
  | Hybrid _ -> "hybrid"
  | Budget _ -> "budget"
  | General | Live _ -> invalid_arg "batch: a registry policy left its class kernel"

let reference insts = List.map (fun (p, inst) -> Run.measure seq_cfg p inst) (tasks insts)

let check_against ~what reference results =
  List.iter2
    (fun (r : Run.result) got ->
      check (same_result r got)
        (Printf.sprintf "batch %s: %s on %s differs from sequential Run.measure" what
           r.policy_name r.instance_label))
    reference results

let pass insts =
  Cache.clear ();
  Run.batch_auto cfg (tasks insts)

(* Sequential per-task probe: kernel time per class (Run.simulate), the
   fold over its flows, and the whole task (Run.measure), whose sum is
   the sequential work the executor divides among its workers. *)
let layer_probe ctx =
  let insts = span ctx "workload.generate_s" (fun () -> instances ctx.seed) in
  let seq_work = ref 0. in
  List.iter2
    (fun (p, inst) (fresh, _) ->
      let c = class_of p in
      let res = span ctx ("engine." ^ c ^ ".self_s") (fun () -> Run.simulate seq_cfg p inst) in
      add_layer ("engine." ^ c ^ ".events") (Float.of_int res.events);
      fold ctx "metrics.fold_s" ~k:cfg.k res;
      let _, dt =
        time (fun () -> span ctx "run.measure" (fun () -> Run.measure seq_cfg fresh inst))
      in
      seq_work := !seq_work +. dt)
    (tasks insts) (tasks insts);
  !seq_work

let run ctx =
  (* Set-up: generate the instances and run one discarded warm-up pass. *)
  let insts, setup_s =
    timed_setup (fun () ->
        let insts = instances ctx.seed in
        ignore (pass insts : Run.backend * Run.result list);
        insts)
  in
  set_e2e "setup_s" "s" setup_s;
  let ref_results = reference insts in
  let backend = ref (`Sequential : Run.backend) in
  let passes, minor, major =
    with_gc_counts (fun () ->
        timed_passes ctx ~min_passes:3 (fun _ ->
            let b, results = span ctx "executor.batch_auto" (fun () -> pass insts) in
            backend := b;
            check_against ~what:"pass" ref_results results))
  in
  let pass_s = mean_pass_time passes in
  let jobs_per_pass = Float.of_int (n * List.length (tasks insts)) in
  set_e2e "jobs_per_s" "jobs/s" (jobs_per_pass /. pass_s);
  set_e2e "peak_rss_mb" "MB" (vmhwm_mb 0);
  Printf.printf "# batch: %d passes, mean %.4f s, backend %s\n" (List.length passes) pass_s
    (Run.backend_name !backend);
  if ctx.traced then begin
    let stats = Cache.stats () in
    let lookups = stats.hits + stats.misses in
    set_layer "cache.hits" (Float.of_int stats.hits);
    set_layer "cache.misses" (Float.of_int stats.misses);
    set_layer "cache.hit_ratio"
      (if lookups = 0 then 0. else Float.of_int stats.hits /. Float.of_int lookups);
    let code, width =
      match !backend with `Sequential -> (0, 1) | `Domains d -> (1, d) | `Procs p -> (2, p)
    in
    set_layer "executor.backend" (Float.of_int code);
    set_layer "executor.width" (Float.of_int width);
    let npasses = Float.of_int (List.length passes) in
    set_layer "gc.minor_words_per_job" (minor /. (npasses *. jobs_per_pass));
    set_layer "gc.major_collections" (Float.of_int major);
    set_layer "trace.overhead" (trace_overhead passes);
    let seq_work = probe ctx (fun () -> layer_probe ctx) in
    let w = Float.of_int width in
    set_layer "executor.overhead_s" (pass_s -. (seq_work /. w));
    set_layer "executor.efficiency" (seq_work /. (w *. pass_s))
  end;
  (* Hold-out inputs: the same check on instances the run never timed. *)
  let held = instances ctx.holdout_seed in
  check_against ~what:"hold-out" (reference held) (snd (pass held))
