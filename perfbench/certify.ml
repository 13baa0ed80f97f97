(* certify: the paper's own question on 36 small batched instances of
   100 jobs —
   the RR-vs-SRPT crossover speed (Sweep on a 2-domain Pool), the
   certified LP interval ratio (Ratio.vs_certified), and the dual-fitting
   certificate at Theorem 1's speed.  The only workload where rr_lp,
   rr_flow, rr_dualfit, Sweep and cache hits do the work. *)

open Common
module Run = Temporal_fairness.Run
module Cache = Temporal_fairness.Cache
module Pool = Temporal_fairness.Pool
module Sweep = Temporal_fairness.Sweep
module Ratio = Temporal_fairness.Ratio
module Bound = Temporal_fairness.Bound
module Certificate = Rr_dualfit.Certificate

let n = 100

(* Relative width of the certified LP bracket.  The library default
   (0.05) halves the slot width once more and costs six times as much
   per instance; 0.1 keeps a pass near a second. *)
let lp_tol = 0.1
let count = 36
let k = 2
let eps = 0.1

(* 9 jobs every 10 time units with mean size 1: load 0.9 on one machine. *)
let arrivals = Rr_workload.Arrivals.Batched { batch = 9; interval = 10. }
let sizes = Rr_workload.Distribution.Uniform { lo = 0.75; hi = 1.25 }
let cfg = Run.config ~machines:1 ~k ()
let crossover_lo = 1.
let crossover_hi = 4.
let crossover_iters = 8

let instances seed =
  Array.init count (fun i ->
      let rng = Rr_util.Prng.create ~seed:((seed * 1009) + i) in
      Rr_workload.Instance.generate ~rng ~arrivals ~sizes ~n ())

type answer = {
  crossover : float;
  ratio : float;
  lo : float;
  hi : float;
  certified : float;
  sound : bool;
}

let probes = ref 0

let solve ctx pool inst =
  let rr = Rr_policies.Round_robin.policy in
  let f speed =
    incr probes;
    Ratio.vs_baseline { cfg with speed } rr inst
  in
  let crossover =
    match
      span ctx "sweep.s" (fun () ->
          Sweep.min_speed_for ~pool ~f ~threshold:1. ~lo:crossover_lo ~hi:crossover_hi
            ~iters:crossover_iters ())
    with
    | Ok s -> s
    | Error _ -> Float.nan
  in
  let c = span ctx "ratio.vs_certified" (fun () -> Ratio.vs_certified ~pool ~tol:lp_tol cfg rr inst) in
  let lo, hi = match c.interval with Some i -> (i.lo, i.hi) | None -> (Float.nan, Float.nan) in
  let speed = Certificate.theorem_speed ~k ~eps in
  let sim =
    span ctx "run.simulate_traced" (fun () ->
        Run.simulate { cfg with speed; record_trace = true } rr inst)
  in
  let cert = span ctx "dualfit.s" (fun () -> Certificate.certify ~eps ~k sim) in
  { crossover; ratio = c.ratio; lo; hi; certified = cert.certified_ratio;
    sound = Certificate.is_sound cert }

let same a b =
  same_float a.crossover b.crossover && same_float a.ratio b.ratio && same_float a.lo b.lo
  && same_float a.hi b.hi && same_float a.certified b.certified && a.sound = b.sound

let check_sound ~what i a =
  check
    (Float.is_finite a.crossover && a.sound && a.lo <= a.hi)
    (Printf.sprintf "certify %s instance %d: crossover %g, LP [%g, %g], certificate sound %b"
       what i a.crossover a.lo a.hi a.sound)

let pass ctx pool insts =
  Cache.clear ();
  Array.map (solve ctx pool) insts

(* Direct calls into rr_lp beside the pass: the cheap combinatorial
   floor and the certified interval, uncached. *)
let lp_probe ctx pool insts =
  let solves = ref 0 in
  Array.iter
    (fun inst ->
      ignore
        (span ctx "lp.cheap_s" (fun () ->
             Rr_lp.Lp_bound.cheap_lower_bound ~k ~machines:1 inst)
          : float);
      let itv =
        span ctx "lp.interval_s" (fun () -> Bound.interval ~pool ~cache:false ~tol:lp_tol ~k ~machines:1 inst)
      in
      solves := !solves + itv.solves)
    insts;
  !solves

let run ctx =
  Pool.with_pool ~domains:2 (fun pool ->
      let (insts, warm), setup_s =
        timed_setup (fun () ->
            let insts = instances ctx.seed in
            (* The first pass in a process runs slower; it is set-up. *)
            (insts, pass ctx pool insts))
      in
      set_e2e "setup_s" "s" setup_s;
      Array.iteri (check_sound ~what:"warm-up") warm;
      let passes, minor, major =
        with_gc_counts (fun () ->
            timed_passes ctx ~min_passes:3 (fun i ->
                let answers = pass ctx pool insts in
                Array.iteri
                  (fun j a ->
                    check_sound ~what:"pass" j a;
                    check (same a warm.(j))
                      (Printf.sprintf "certify: pass %d instance %d differs from the first" i j))
                  answers))
      in
      let pass_s = mean_pass_time passes in
      let jobs = Float.of_int (n * count) in
      set_e2e "jobs_per_s" "jobs/s" (jobs /. pass_s);
      set_e2e "peak_rss_mb" "MB" (vmhwm_mb 0);
      Printf.printf "# certify: %d passes, mean %.4f s\n" (List.length passes) pass_s;
      if ctx.traced then begin
        let npasses = Float.of_int (List.length passes) in
        set_layer "gc.minor_words_per_job" (minor /. (npasses *. jobs));
        set_layer "gc.major_collections" (Float.of_int major);
        set_layer "trace.overhead" (trace_overhead passes);
        (* One traced pass, then the direct LP calls. *)
        probes := 0;
        let st, solves =
          probe ctx (fun () ->
              ignore (pass ctx pool insts : answer array);
              let st = Cache.stats () in
              (st, lp_probe ctx pool insts))
        in
        set_layer "sweep.probes" (Float.of_int !probes);
        set_layer "cache.hits" (Float.of_int st.hits);
        set_layer "cache.misses" (Float.of_int st.misses);
        set_layer "cache.hit_ratio"
          (Float.of_int st.hits /. Float.of_int (max 1 (st.hits + st.misses)));
        set_layer "lp.solves" (Float.of_int solves);
        set_layer "lp.s_per_solve"
          (Hashtbl.find layer_values "lp.interval_s" /. Float.of_int (max 1 solves))
      end;
      Array.iteri (check_sound ~what:"hold-out") (pass ctx pool (instances ctx.holdout_seed)))
