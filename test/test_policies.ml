(* Tests for the policy implementations: rate shapes, hand schedules,
   optimality cross-checks, and the capped proportional allocation. *)

open Rr_engine

let job ~id ~arrival ~size = Job.make ~id ~arrival ~size
let check_close ?(tol = 1e-9) msg a b = Alcotest.(check (float tol)) msg a b

let view ~id ~arrival ~attained ?size ?remaining () =
  { Policy.id; arrival; attained; size; remaining }

(* ------------------------------------------------------------------ *)
(* Round Robin                                                         *)
(* ------------------------------------------------------------------ *)

let test_rr_rates () =
  let views = Array.init 5 (fun id -> view ~id ~arrival:0. ~attained:0. ()) in
  let d = Rr_policies.Round_robin.policy.allocate ~now:0. ~machines:2 ~speed:1. views in
  Array.iter (fun r -> check_close "share m/n" 0.4 r) d.Policy.rates;
  let d1 = Rr_policies.Round_robin.policy.allocate ~now:0. ~machines:8 ~speed:1. views in
  Array.iter (fun r -> check_close "capped at 1" 1. r) d1.Policy.rates

let test_rr_nonclairvoyant () =
  Alcotest.(check bool) "rr hides sizes" false
    Rr_policies.Round_robin.policy.clairvoyant

(* ------------------------------------------------------------------ *)
(* SRPT optimality for total flow on one machine                       *)
(* ------------------------------------------------------------------ *)

let test_srpt_matches_brute_l1 () =
  (* SRPT is exactly optimal for l1 on a single machine; compare against
     the brute-force optimum on integer instances. *)
  List.iter
    (fun jobs ->
      let brute = Rr_lp.Brute.optimal_power_sum ~k:1 ~machines:1 jobs in
      let sim_jobs =
        List.mapi
          (fun id (r, p) -> job ~id ~arrival:(Float.of_int r) ~size:(Float.of_int p))
          (List.stable_sort compare jobs)
      in
      let res = Simulator.run ~machines:1 ~policy:Rr_policies.Srpt.policy sim_jobs in
      check_close ~tol:1e-6 "srpt = opt for l1/m=1" brute (Simulator.total_flow res))
    [
      [ (0, 3); (1, 1); (2, 2) ];
      [ (0, 1); (0, 2); (0, 3) ];
      [ (0, 4); (2, 1); (3, 1); (4, 2) ];
      [ (0, 2); (5, 2) ];
    ]

(* ------------------------------------------------------------------ *)
(* SJF vs SRPT difference                                              *)
(* ------------------------------------------------------------------ *)

let test_sjf_uses_original_size () =
  (* Big job has run down to remaining 1 when a size-2 job arrives: SRPT
     would favour the short-remaining big job only after...  Construct:
     size 5 at t=0, size 2 at t=4 (big job remaining 1 < 2): SRPT finishes
     big at 5, newcomer at 7.  SJF compares original sizes (5 vs 2) and
     preempts, finishing the newcomer at 6 first. *)
  let jobs = [ job ~id:0 ~arrival:0. ~size:5.; job ~id:1 ~arrival:4. ~size:2. ] in
  let srpt_res = Simulator.run ~machines:1 ~policy:Rr_policies.Srpt.policy jobs in
  check_close "srpt big first" 5. srpt_res.completions.(0);
  check_close "srpt newcomer second" 7. srpt_res.completions.(1);
  let sjf_res = Simulator.run ~machines:1 ~policy:Rr_policies.Sjf.policy jobs in
  check_close "sjf newcomer first" 6. sjf_res.completions.(1);
  check_close "sjf big second" 7. sjf_res.completions.(0)

(* ------------------------------------------------------------------ *)
(* FCFS                                                                *)
(* ------------------------------------------------------------------ *)

let test_fcfs_no_preemption () =
  let jobs = [ job ~id:0 ~arrival:0. ~size:5.; job ~id:1 ~arrival:1. ~size:1. ] in
  let res = Simulator.run ~machines:1 ~policy:Rr_policies.Fcfs.policy jobs in
  check_close "first job runs to completion" 5. res.completions.(0);
  check_close "second queues" 6. res.completions.(1)

(* ------------------------------------------------------------------ *)
(* SETF                                                                *)
(* ------------------------------------------------------------------ *)

(* SETF with jobs of size 1 and 2 released together behaves like RR until
   the small job finishes (equal attained service), then serves the big one
   alone: identical completions to RR here. *)
let test_setf_equal_attained_shares () =
  let jobs = [ job ~id:0 ~arrival:0. ~size:1.; job ~id:1 ~arrival:0. ~size:2. ] in
  let res = Simulator.run ~machines:1 ~policy:Rr_policies.Setf.policy jobs in
  check_close "small" 2. res.completions.(0);
  check_close "large" 3. res.completions.(1)

(* Staggered SETF: job0 (size 2) runs alone on [0,1) reaching attained 1.
   Job1 (size 2) arrives with attained 0 and runs EXCLUSIVELY until it
   catches up at t = 2 (attained 1 each); they then share at rate 1/2 until
   both finish at t = 4. *)
let test_setf_catch_up () =
  let jobs = [ job ~id:0 ~arrival:0. ~size:2.; job ~id:1 ~arrival:1. ~size:2. ] in
  let res = Simulator.run ~machines:1 ~policy:Rr_policies.Setf.policy jobs in
  check_close ~tol:1e-6 "job0" 4. res.completions.(0);
  check_close ~tol:1e-6 "job1" 4. res.completions.(1)

(* Three-way SETF merge: job0 alone reaches attained 2; job1 arrives at 2
   and catches up at t = 4 (attained 2 each); they share at rate 1/2 until
   job2 arrives at 5 (attained 2.5 each) and runs alone until catching up
   at t = 7.5; all three then share.  Sizes chosen so everyone completes
   together: 4 each -> remaining 1.5 each at t = 7.5, shared at 1/3:
   completion 7.5 + 4.5 = 12. *)
let test_setf_three_way_merge () =
  let jobs =
    [
      job ~id:0 ~arrival:0. ~size:4.;
      job ~id:1 ~arrival:2. ~size:4.;
      job ~id:2 ~arrival:5. ~size:4.;
    ]
  in
  let res = Simulator.run ~machines:1 ~policy:Rr_policies.Setf.policy jobs in
  Array.iter (fun c -> check_close ~tol:1e-6 "all complete together" 12. c) res.completions

(* The newcomer is served exclusively while behind: job1 smaller than the
   head start never lets job0 resume before it finishes. *)
let test_setf_newcomer_priority () =
  let jobs = [ job ~id:0 ~arrival:0. ~size:3.; job ~id:1 ~arrival:2. ~size:1. ] in
  let res = Simulator.run ~machines:1 ~policy:Rr_policies.Setf.policy jobs in
  check_close ~tol:1e-6 "newcomer immediate" 3. res.completions.(1);
  check_close ~tol:1e-6 "job0 delayed by 1" 4. res.completions.(0)

(* ------------------------------------------------------------------ *)
(* LAPS                                                                *)
(* ------------------------------------------------------------------ *)

let test_laps_beta_validation () =
  List.iter
    (fun beta ->
      match Rr_policies.Laps.policy ~beta with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "expected rejection of beta = %g" beta)
    [ 0.; -0.5; 1.5 ]

let test_laps_shares_latest () =
  (* Four jobs alive, beta = 0.5 -> the 2 latest arrivals share the machine. *)
  let views =
    Array.init 4 (fun id -> view ~id ~arrival:(Float.of_int id) ~attained:0. ())
  in
  let laps = Rr_policies.Laps.policy ~beta:0.5 in
  let d = laps.allocate ~now:10. ~machines:1 ~speed:1. views in
  check_close "oldest gets nothing" 0. d.Policy.rates.(0);
  check_close "second oldest gets nothing" 0. d.Policy.rates.(1);
  check_close "latest shares" 0.5 d.Policy.rates.(2);
  check_close "latest shares'" 0.5 d.Policy.rates.(3)

let test_laps_one_is_rr () =
  let views = Array.init 4 (fun id -> view ~id ~arrival:0. ~attained:0. ()) in
  let laps = Rr_policies.Laps.policy ~beta:1.0 in
  let d = laps.allocate ~now:1. ~machines:1 ~speed:1. views in
  Array.iter (fun r -> check_close "all share" 0.25 r) d.Policy.rates

(* ------------------------------------------------------------------ *)
(* Age-weighted RR                                                     *)
(* ------------------------------------------------------------------ *)

let test_proportional_rates_underloaded () =
  let rates = Rr_policies.Wrr_age.proportional_rates ~machines:4 ~ids:[| 0; 1; 2 |] [| 1.; 5.; 2. |] in
  Array.iter (fun r -> check_close "all run" 1. r) rates

let test_proportional_rates_proportional () =
  let rates = Rr_policies.Wrr_age.proportional_rates ~machines:1 ~ids:[| 0; 1 |] [| 1.; 3. |] in
  check_close "light job" 0.25 rates.(0);
  check_close "heavy job" 0.75 rates.(1)

let test_proportional_rates_capping () =
  (* One dominant weight is capped at a full machine; the leftover machine
     is split proportionally among the others. *)
  let rates = Rr_policies.Wrr_age.proportional_rates ~machines:2 ~ids:[| 0; 1; 2 |] [| 100.; 1.; 1. |] in
  check_close "capped" 1. rates.(0);
  check_close "leftover split" 0.5 rates.(1);
  check_close "leftover split'" 0.5 rates.(2)

let prop_proportional_rates_feasible =
  QCheck2.Test.make ~name:"proportional rates are feasible" ~count:300
    QCheck2.Gen.(
      pair (int_range 1 6) (list_size (int_range 1 20) (float_range 0.001 100.)))
    (fun (machines, weights) ->
      let w = Array.of_list weights in
      let rates =
        Rr_policies.Wrr_age.proportional_rates ~machines
          ~ids:(Array.init (Array.length w) Fun.id)
          w
      in
      let sum = Array.fold_left ( +. ) 0. rates in
      Array.for_all (fun r -> r >= -1e-9 && r <= 1. +. 1e-9) rates
      && sum <= Float.of_int machines +. 1e-6
      && (Array.length w <= machines || sum >= Float.of_int machines -. 1e-6))

let prop_proportional_rates_monotone =
  QCheck2.Test.make ~name:"larger weight gets no smaller rate" ~count:300
    QCheck2.Gen.(
      pair (int_range 1 4) (list_size (int_range 2 15) (float_range 0.001 50.)))
    (fun (machines, weights) ->
      let w = Array.of_list weights in
      let rates =
        Rr_policies.Wrr_age.proportional_rates ~machines
          ~ids:(Array.init (Array.length w) Fun.id)
          w
      in
      let n = Array.length w in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if w.(i) > w.(j) && rates.(i) < rates.(j) -. 1e-9 then ok := false
        done
      done;
      !ok)

let test_wrr_age_k1_is_rr_like () =
  (* k = 1 weights are all 1: allocation matches plain RR. *)
  let jobs = [ job ~id:0 ~arrival:0. ~size:1.; job ~id:1 ~arrival:0. ~size:2. ] in
  let wrr = Rr_policies.Wrr_age.policy ~k:1 () in
  let res = Simulator.run ~machines:1 ~policy:wrr jobs in
  check_close ~tol:1e-6 "small like rr" 2. res.completions.(0);
  check_close ~tol:1e-6 "large like rr" 3. res.completions.(1)

let test_wrr_age_completes () =
  let jobs = List.init 20 (fun id -> job ~id ~arrival:(Float.of_int id *. 0.3) ~size:1.) in
  let wrr = Rr_policies.Wrr_age.policy ~k:2 () in
  let res = Simulator.run ~machines:1 ~policy:wrr jobs in
  Array.iter (fun c -> Alcotest.(check bool) "finite" true (Float.is_finite c)) res.completions

let test_wrr_param_validation () =
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected parameter rejection")
    [
      (fun () -> Rr_policies.Wrr_age.policy ~k:0 ());
      (fun () -> Rr_policies.Wrr_age.policy ~refresh:0. ~k:2 ());
      (fun () -> Rr_policies.Wrr_age.policy ~offset:0. ~k:2 ());
    ]

(* ------------------------------------------------------------------ *)
(* Quantum (time-sliced) RR                                            *)
(* ------------------------------------------------------------------ *)

let test_quantum_validation () =
  match Rr_policies.Quantum_rr.policy ~quantum:0. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected quantum validation failure"

let test_quantum_single_job () =
  let res =
    Simulator.run ~machines:1
      ~policy:(Rr_policies.Quantum_rr.policy ~quantum:0.5 ())
      [ job ~id:0 ~arrival:0. ~size:2. ]
  in
  check_close ~tol:1e-6 "runs through consecutive quanta" 2. res.completions.(0)

(* Two size-2 jobs, quantum 1, one machine: J0 on [0,1), J1 on [1,2),
   J0 on [2,3) completing, J1 on [3,4) completing. *)
let test_quantum_alternation () =
  let res =
    Simulator.run ~machines:1
      ~policy:(Rr_policies.Quantum_rr.policy ~quantum:1. ())
      [ job ~id:0 ~arrival:0. ~size:2.; job ~id:1 ~arrival:0. ~size:2. ]
  in
  check_close ~tol:1e-6 "first admitted finishes first" 3. res.completions.(0);
  check_close ~tol:1e-6 "second alternates" 4. res.completions.(1)

let test_quantum_multimachine () =
  let res =
    Simulator.run ~machines:2
      ~policy:(Rr_policies.Quantum_rr.policy ~quantum:1. ())
      [ job ~id:0 ~arrival:0. ~size:1.5; job ~id:1 ~arrival:0. ~size:1. ]
  in
  check_close ~tol:1e-6 "parallel slot 0" 1.5 res.completions.(0);
  check_close ~tol:1e-6 "parallel slot 1" 1. res.completions.(1)

let test_quantum_converges_to_fluid_rr () =
  let jobs =
    List.init 12 (fun id -> job ~id ~arrival:(Float.of_int id *. 0.7) ~size:(1. +. (0.3 *. Float.of_int (id mod 4))))
  in
  let fluid = Simulator.run ~machines:1 ~policy:Rr_policies.Round_robin.policy jobs in
  let sliced =
    Simulator.run ~machines:1 ~policy:(Rr_policies.Quantum_rr.policy ~quantum:0.01 ()) jobs
  in
  Array.iteri
    (fun i c ->
      if Float.abs (c -. fluid.completions.(i)) > 0.2 then
        Alcotest.failf "job %d: sliced %g vs fluid %g" i c fluid.completions.(i))
    sliced.completions

let test_quantum_policy_reuse_resets () =
  let jobs = [ job ~id:0 ~arrival:0. ~size:2.; job ~id:1 ~arrival:0. ~size:2. ] in
  let policy = Rr_policies.Quantum_rr.policy ~quantum:1. () in
  let first = Simulator.run ~machines:1 ~policy jobs in
  let second = Simulator.run ~machines:1 ~policy jobs in
  Alcotest.(check (array (float 1e-9)))
    "identical across reuse" first.completions second.completions

(* A second run that starts after the first one's last decision: the
   clock never goes backwards, yet the ids 0 and 1 the value still
   tracks belong to the first run. *)
let test_quantum_policy_reuse_later_run () =
  let policy = Rr_policies.Quantum_rr.policy ~quantum:1. () in
  let (_ : Simulator.result) =
    Simulator.run ~machines:1 ~policy
      [ job ~id:0 ~arrival:0. ~size:1.; job ~id:1 ~arrival:0.5 ~size:2. ]
  in
  let later = [ job ~id:0 ~arrival:10. ~size:1.; job ~id:1 ~arrival:11. ~size:1. ] in
  let reused = Simulator.run ~machines:1 ~policy later in
  let fresh =
    Simulator.run ~machines:1 ~policy:(Rr_policies.Quantum_rr.policy ~quantum:1. ()) later
  in
  Alcotest.(check (array (float 1e-12))) "flows 1, 1" [| 1.; 1. |] (Simulator.flows fresh);
  Alcotest.(check (array (float 0.)))
    "reused value matches a fresh one" (Simulator.flows fresh) (Simulator.flows reused)

(* ------------------------------------------------------------------ *)
(* MLFQ                                                                *)
(* ------------------------------------------------------------------ *)

let test_mlfq_levels () =
  let level = Rr_policies.Mlfq.level_of_attained ~base_quantum:1. ~factor:2. ~levels:5 in
  Alcotest.(check int) "fresh job" 0 (level 0.);
  Alcotest.(check int) "below first threshold" 0 (level 0.99);
  Alcotest.(check int) "at first threshold" 1 (level 1.);
  (* thresholds at 1, 3, 7, 15 *)
  Alcotest.(check int) "second" 2 (level 3.);
  Alcotest.(check int) "third" 3 (level 7.);
  Alcotest.(check int) "capped at last level" 4 (level 1000.)

let test_mlfq_validation () =
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected mlfq validation failure")
    [
      (fun () -> Rr_policies.Mlfq.policy ~base_quantum:0. ());
      (fun () -> Rr_policies.Mlfq.policy ~factor:0.5 ());
      (fun () -> Rr_policies.Mlfq.policy ~levels:0 ());
    ]

(* Short job vs long job under MLFQ: the short one (size <= base quantum)
   finishes in the top level; only then is the long one demoted further.
   Sizes 0.5 and 3, base quantum 1: both share level 0 on [0, 1) (rates
   1/2 each); the short finishes exactly at t = 1.  The long job then runs
   alone: it is demoted but always served, completing at 1 + 2.5 = 3.5. *)
let test_mlfq_short_protected () =
  let jobs = [ job ~id:0 ~arrival:0. ~size:0.5; job ~id:1 ~arrival:0. ~size:3. ] in
  let res = Simulator.run ~machines:1 ~policy:(Rr_policies.Mlfq.policy ~base_quantum:1. ()) jobs in
  check_close ~tol:1e-6 "short done in top level" 1. res.completions.(0);
  check_close ~tol:1e-6 "long continues" 3.5 res.completions.(1)

(* A demoted long job starves while fresh short jobs keep the top level
   busy — exactly SETF-like behaviour. *)
let test_mlfq_prefers_fresh_jobs () =
  let jobs = [ job ~id:0 ~arrival:0. ~size:2.; job ~id:1 ~arrival:1.5 ~size:0.25 ] in
  (* Job 0 consumes its level-0 quantum (1.0) by t = 1 and is demoted.  It
     runs alone until the short job arrives at 1.5 with level 0 priority,
     preempting it completely for 0.25 time units. *)
  let res = Simulator.run ~machines:1 ~policy:(Rr_policies.Mlfq.policy ~base_quantum:1. ()) jobs in
  check_close ~tol:1e-6 "newcomer served instantly" 0.25 (Simulator.flows res).(1);
  check_close ~tol:1e-6 "long job pauses" 2.25 res.completions.(0)

let test_mlfq_tiny_quantum_approximates_setf () =
  let jobs =
    List.init 10 (fun id -> job ~id ~arrival:(Float.of_int id *. 0.6) ~size:(0.4 +. (0.2 *. Float.of_int (id mod 3))))
  in
  let setf = Simulator.run ~machines:1 ~policy:Rr_policies.Setf.policy jobs in
  let mlfq =
    Simulator.run ~machines:1
      ~policy:(Rr_policies.Mlfq.policy ~base_quantum:0.01 ~factor:1.1 ~levels:150 ())
      jobs
  in
  Array.iteri
    (fun i c ->
      if Float.abs (c -. setf.completions.(i)) > 0.2 then
        Alcotest.failf "job %d: mlfq %g vs setf %g" i c setf.completions.(i))
    mlfq.completions

(* ------------------------------------------------------------------ *)
(* Static-weight RR                                                    *)
(* ------------------------------------------------------------------ *)

let test_wrr_static_shares () =
  (* Weights 3 and 1 on one machine: rates 0.75 / 0.25. *)
  let weight_of = function 0 -> 3. | _ -> 1. in
  let policy = Rr_policies.Wrr_static.policy ~weight_of () in
  let views = [| view ~id:0 ~arrival:0. ~attained:0. (); view ~id:1 ~arrival:0. ~attained:0. () |] in
  let d = policy.allocate ~now:0. ~machines:1 ~speed:1. views in
  check_close "heavy" 0.75 d.Policy.rates.(0);
  check_close "light" 0.25 d.Policy.rates.(1)

let test_wrr_static_equal_weights_is_rr () =
  let jobs = [ job ~id:0 ~arrival:0. ~size:1.; job ~id:1 ~arrival:0. ~size:2. ] in
  let policy = Rr_policies.Wrr_static.policy ~weight_of:(fun _ -> 1.) () in
  let res = Simulator.run ~machines:1 ~policy jobs in
  check_close "same as rr" 2. res.completions.(0);
  check_close "same as rr'" 3. res.completions.(1)

let test_wrr_static_rejects_bad_weight () =
  let policy = Rr_policies.Wrr_static.policy ~weight_of:(fun _ -> 0.) () in
  match Simulator.run ~machines:1 ~policy [ job ~id:0 ~arrival:0. ~size:1. ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected weight rejection"

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_find () =
  let module R = Rr_policies.Registry in
  List.iter
    (fun name ->
      match R.spec_of_string name with
      | Ok spec -> ignore (R.make spec : Rr_engine.Policy.t)
      | Error msg -> Alcotest.failf "registry misses %s: %s" name msg)
    [
      "rr"; "srpt"; "sjf"; "setf"; "fcfs"; "laps"; "laps:0.25"; "wrr-age"; "wrr-age:3";
      "quantum-rr"; "quantum-rr:0.5";
    ];
  List.iter
    (fun name ->
      match R.spec_of_string name with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "registry should reject %s" name)
    [ "nope"; "laps:2.0"; "laps:x"; "wrr-age:0"; "quantum-rr:0" ];
  (* An unknown name's error must steer the user to the valid surface
     forms. *)
  match R.spec_of_string "nope" with
  | Error msg ->
      Alcotest.(check bool)
        "unknown-policy error lists valid names" true
        (List.for_all
           (fun name ->
             let rec contains i =
               i + String.length name <= String.length msg
               && (String.sub msg i (String.length name) = name || contains (i + 1))
             in
             contains 0)
           [ "rr"; "srpt"; "laps" ])
  | Ok _ -> Alcotest.fail "nope should not parse"

let test_registry_spec_of_string () =
  let module R = Rr_policies.Registry in
  List.iter
    (fun (name, expected) ->
      match R.spec_of_string name with
      | Ok spec when spec = expected -> ()
      | Ok spec -> Alcotest.failf "%s parsed to %s" name (R.spec_to_string spec)
      | Error e -> Alcotest.failf "%s rejected: %s" name e)
    [
      ("rr", R.Rr); ("srpt", R.Srpt); ("sjf", R.Sjf); ("setf", R.Setf); ("fcfs", R.Fcfs);
      ("laps", R.Laps 0.5); ("laps:0.25", R.Laps 0.25);
      ("wrr-age", R.Wrr_age 2); ("wrr-age:3", R.Wrr_age 3);
      ("quantum-rr", R.Quantum_rr 1.); ("quantum-rr:0.5", R.Quantum_rr 0.5);
      ("mlfq", R.Mlfq 0.5); ("mlfq:2.0", R.Mlfq 2.0);
      ("hdf", R.Hdf 2.); ("hdf:1.5", R.Hdf 1.5);
      ("wrr-static", R.Wrr_static 1.); ("wrr-static:-0.5", R.Wrr_static (-0.5));
      ("hybrid", R.Hybrid 3.); ("hybrid:0.75", R.Hybrid 0.75);
      ("srpt-mig", R.Srpt_mig 1); ("srpt-mig:0", R.Srpt_mig 0); ("srpt-mig:4", R.Srpt_mig 4);
    ]

let test_registry_spec_errors () =
  let module R = Rr_policies.Registry in
  List.iter
    (fun name ->
      match R.spec_of_string name with
      | Error msg -> Alcotest.(check bool) (name ^ " has message") true (String.length msg > 0)
      | Ok spec -> Alcotest.failf "%s should be rejected, parsed to %s" name (R.spec_to_string spec))
    [
      "nope"; "laps:2.0"; "laps:x"; "wrr-age:0"; "quantum-rr:0"; "mlfq:0"; "rr:1";
      "hdf:inf"; "hdf:x"; "wrr-static:nan"; "hybrid:0"; "hybrid:-1"; "hybrid:inf";
      "srpt-mig:-1"; "srpt-mig:1.5";
    ];
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (* A malformed parameter's error names the surface form it expected. *)
  List.iter
    (fun (input, form) ->
      match R.spec_of_string input with
      | Error msg ->
          Alcotest.(check bool) (input ^ " error names " ^ form) true (contains ~sub:form msg)
      | Ok spec -> Alcotest.failf "%s should be rejected, parsed to %s" input (R.spec_to_string spec))
    [
      ("hdf:x", "hdf:<alpha>");
      ("wrr-static:nan", "wrr-static:<gamma>");
      ("hybrid:0", "hybrid:<theta>");
      ("srpt-mig:1.5", "srpt-mig:<budget>");
    ];
  (* the unknown-policy error enumerates the valid names *)
  match R.spec_of_string "nope" with
  | Error msg ->
      List.iter
        (fun n -> Alcotest.(check bool) ("error mentions " ^ n) true (contains ~sub:n msg))
        (R.names ())
  | Ok _ -> Alcotest.fail "nope should be rejected"

let test_registry_spec_round_trip () =
  let module R = Rr_policies.Registry in
  List.iter
    (fun spec ->
      match R.spec_of_string (R.spec_to_string spec) with
      | Ok spec' when spec' = spec -> ()
      | Ok spec' ->
          Alcotest.failf "%s round-tripped to %s" (R.spec_to_string spec) (R.spec_to_string spec')
      | Error e -> Alcotest.failf "%s rejected on round trip: %s" (R.spec_to_string spec) e)
    (R.default_specs ()
    @ R.
        [
          Laps 0.25; Wrr_age 5; Quantum_rr 0.25; Mlfq 2.; Hdf 1.5; Wrr_static (-1.);
          Hybrid 0.75; Srpt_mig 3;
        ])

let test_registry_make_fresh () =
  (* make returns a fresh closure each time: two quantum-rr policies must not
     share scheduling state. *)
  let module R = Rr_policies.Registry in
  let p1 = R.make (R.Quantum_rr 1.) and p2 = R.make (R.Quantum_rr 1.) in
  Alcotest.(check bool) "distinct closures" false (p1 == p2);
  match R.make (R.Laps 7.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "make should reject invalid params"

let test_registry_all_run () =
  let jobs = List.init 8 (fun id -> job ~id ~arrival:(Float.of_int id *. 0.5) ~size:1.) in
  List.iter
    (fun policy ->
      let res = Simulator.run ~machines:2 ~policy jobs in
      Array.iter
        (fun c -> Alcotest.(check bool) (policy.Policy.name ^ " completes") true (Float.is_finite c))
        res.completions)
    (Rr_policies.Registry.all ())

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_proportional_rates_feasible; prop_proportional_rates_monotone ]

let () =
  Alcotest.run "rr_policies"
    [
      ( "round robin",
        [
          Alcotest.test_case "rates" `Quick test_rr_rates;
          Alcotest.test_case "non-clairvoyant" `Quick test_rr_nonclairvoyant;
        ] );
      ( "srpt/sjf",
        [
          Alcotest.test_case "srpt optimal l1" `Quick test_srpt_matches_brute_l1;
          Alcotest.test_case "sjf original size" `Quick test_sjf_uses_original_size;
        ] );
      ("fcfs", [ Alcotest.test_case "no preemption" `Quick test_fcfs_no_preemption ]);
      ( "setf",
        [
          Alcotest.test_case "equal attained" `Quick test_setf_equal_attained_shares;
          Alcotest.test_case "catch up" `Quick test_setf_catch_up;
          Alcotest.test_case "three-way merge" `Quick test_setf_three_way_merge;
          Alcotest.test_case "newcomer priority" `Quick test_setf_newcomer_priority;
        ] );
      ( "laps",
        [
          Alcotest.test_case "beta validation" `Quick test_laps_beta_validation;
          Alcotest.test_case "shares latest" `Quick test_laps_shares_latest;
          Alcotest.test_case "beta 1 is rr" `Quick test_laps_one_is_rr;
        ] );
      ( "wrr-age",
        [
          Alcotest.test_case "underloaded" `Quick test_proportional_rates_underloaded;
          Alcotest.test_case "proportional" `Quick test_proportional_rates_proportional;
          Alcotest.test_case "capping" `Quick test_proportional_rates_capping;
          Alcotest.test_case "k=1 like rr" `Quick test_wrr_age_k1_is_rr_like;
          Alcotest.test_case "completes" `Quick test_wrr_age_completes;
          Alcotest.test_case "param validation" `Quick test_wrr_param_validation;
        ] );
      ( "quantum-rr",
        [
          Alcotest.test_case "validation" `Quick test_quantum_validation;
          Alcotest.test_case "single job" `Quick test_quantum_single_job;
          Alcotest.test_case "alternation" `Quick test_quantum_alternation;
          Alcotest.test_case "multi-machine" `Quick test_quantum_multimachine;
          Alcotest.test_case "converges to fluid" `Quick test_quantum_converges_to_fluid_rr;
          Alcotest.test_case "reuse resets" `Quick test_quantum_policy_reuse_resets;
          Alcotest.test_case "reuse, later run" `Quick test_quantum_policy_reuse_later_run;
        ] );
      ( "mlfq",
        [
          Alcotest.test_case "levels" `Quick test_mlfq_levels;
          Alcotest.test_case "validation" `Quick test_mlfq_validation;
          Alcotest.test_case "short protected" `Quick test_mlfq_short_protected;
          Alcotest.test_case "fresh priority" `Quick test_mlfq_prefers_fresh_jobs;
          Alcotest.test_case "approximates setf" `Quick test_mlfq_tiny_quantum_approximates_setf;
        ] );
      ( "wrr-static",
        [
          Alcotest.test_case "shares" `Quick test_wrr_static_shares;
          Alcotest.test_case "equal weights" `Quick test_wrr_static_equal_weights_is_rr;
          Alcotest.test_case "bad weight" `Quick test_wrr_static_rejects_bad_weight;
        ] );
      ( "registry",
        [
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "spec of string" `Quick test_registry_spec_of_string;
          Alcotest.test_case "spec errors" `Quick test_registry_spec_errors;
          Alcotest.test_case "spec round trip" `Quick test_registry_spec_round_trip;
          Alcotest.test_case "make fresh" `Quick test_registry_make_fresh;
          Alcotest.test_case "all run" `Quick test_registry_all_run;
        ] );
      ("properties", qsuite);
    ]
