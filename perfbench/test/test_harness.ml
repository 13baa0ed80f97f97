(* Tests for the benchmark's own helpers: quantiles, the supported
   percentile ladder, open-loop due-time accounting and span self time. *)

open Perfbench_harness

let feq = Alcotest.float 1e-12

(* Reference values from Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let check data (q1, q2, q3) =
    let a, b, c = Stats.quartiles data in
    Alcotest.check feq "q1" q1 a;
    Alcotest.check feq "q2" q2 b;
    Alcotest.check feq "q3" q3 c
  in
  check [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] (2.75, 5.5, 8.25);
  check [| 10.; 1.; 7.; 3. |] (1.5, 5., 9.25);
  check [| 2.; 1. |] (0.75, 1.5, 2.25);
  check [| 5.; 1.; 4.; 2.; 3. |] (1.5, 3., 4.5)

let test_median () =
  Alcotest.check feq "odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.check feq "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check feq "mean" 2.5 (Stats.mean [| 4.; 1.; 3.; 2. |])

let test_ladder () =
  let opt = Alcotest.(option (float 0.)) in
  Alcotest.check opt "19 samples support nothing" None (Stats.highest_supported ~n:19);
  Alcotest.check opt "20 samples support p50" (Some 50.) (Stats.highest_supported ~n:20);
  Alcotest.check opt "99 samples stop at p50" (Some 50.) (Stats.highest_supported ~n:99);
  Alcotest.check opt "100 samples support p90" (Some 90.) (Stats.highest_supported ~n:100);
  Alcotest.check opt "999 samples stop at p90" (Some 90.) (Stats.highest_supported ~n:999);
  Alcotest.check opt "1000 samples support p99" (Some 99.) (Stats.highest_supported ~n:1000);
  Alcotest.check opt "10000 samples support p99.9" (Some 99.9)
    (Stats.highest_supported ~n:10_000);
  Alcotest.check feq "nearest rank p99 of 1..1000" 990.
    (Stats.percentile_sorted (Array.init 1000 (fun i -> Float.of_int (i + 1))) 99.)

(* A fake clock: [send] advances it by the frame's service time and
   [wait_until] jumps forward to the due time when it is still ahead. *)
let fake_phase ~service ~interval ~duration ~give_up =
  let now = ref 0. and i = ref 0 in
  Openloop.run
    ~clock:(fun () -> !now)
    ~wait_until:(fun due -> if !now < due then now := due)
    ~start:0. ~interval ~duration ~give_up
    ~send:(fun () ->
      now := !now +. service !i;
      incr i)

let test_stall_charged () =
  (* Frame 0 stalls for 5 time units; frames 1..4 fall due during the
     stall and queue behind it. *)
  let p =
    fake_phase ~service:(fun i -> if i = 0 then 5. else 0.1) ~interval:1. ~duration:8.
      ~give_up:100.
  in
  Alcotest.(check int) "offered" 8 p.offered;
  Alcotest.(check int) "all sent" 8 (Array.length p.latencies);
  let expect = [| 5.; 4.1; 3.2; 2.3; 1.4; 0.5; 0.1; 0.1 |] in
  Array.iteri
    (fun i e -> Alcotest.check (Alcotest.float 1e-9) (Printf.sprintf "latency %d" i) e
        p.latencies.(i))
    expect;
  (* The generator itself was never late: every delayed send waited on
     the previous reply. *)
  Array.iteri
    (fun i l -> Alcotest.check (Alcotest.float 1e-9) (Printf.sprintf "late %d" i) 0. l)
    p.late;
  Alcotest.check (Alcotest.float 1e-9) "achieved over offered" 1.
    (Openloop.achieved_over_offered p)

let test_give_up () =
  (* A 10-unit stall with a 3-unit give-up: frames due more than 3
     units before the stall ends are skipped and counted overdue. *)
  let p =
    fake_phase ~service:(fun i -> if i = 0 then 10. else 0.) ~interval:1. ~duration:10.
      ~give_up:3.
  in
  Alcotest.(check int) "overdue" 6 p.overdue;
  Alcotest.(check int) "sent" 4 (Array.length p.latencies);
  Alcotest.check (Alcotest.float 1e-9) "first latency" 10. p.latencies.(0)

let test_generator_late () =
  (* A generator that overshoots every due time by 0.25 is late by
     exactly that, and its frames carry it in their latency. *)
  let now = ref 0. in
  let p =
    Openloop.run
      ~clock:(fun () -> !now)
      ~wait_until:(fun due -> if !now < due +. 0.25 then now := due +. 0.25)
      ~start:0. ~interval:1. ~duration:4. ~give_up:100.
      ~send:(fun () -> now := !now +. 0.5)
  in
  Array.iter (fun l -> Alcotest.check (Alcotest.float 1e-9) "late" 0.25 l) p.late;
  Array.iter (fun l -> Alcotest.check (Alcotest.float 1e-9) "latency" 0.75 l) p.latencies

let test_self_time () =
  let now = ref 0. in
  let tr = Spans.create ~clock:(fun () -> !now) ~enabled:true () in
  let step d = now := !now +. d in
  Spans.with_span tr "outer" (fun () ->
      step 1.;
      Spans.with_span tr "inner" (fun () -> step 2.);
      step 3.;
      Spans.with_span tr "inner" (fun () ->
          step 1.;
          Spans.with_span tr "leaf" (fun () -> step 0.5)));
  let by_name = Spans.self_by_name (Spans.spans tr) in
  let get n = List.find (fun (m, _, _) -> m = n) by_name in
  let _, outer, _ = get "outer" and _, inner, k = get "inner" and _, leaf, _ = get "leaf" in
  Alcotest.check feq "outer self" 4. outer;
  Alcotest.check feq "inner self (two spans)" 3. inner;
  Alcotest.(check int) "inner count" 2 k;
  Alcotest.check feq "leaf self" 0.5 leaf;
  Alcotest.(check int) "spans" 4 (Spans.count tr)

let test_overlapping_children () =
  (* Children that overlap each other or run past the parent are counted
     once and clipped to the parent's interval. *)
  Alcotest.check feq "union" 6.
    (Spans.covered ~lo:0. ~hi:10. [ (1., 3.); (2., 5.); (8., 12.) ]);
  let disabled = Spans.create ~enabled:false () in
  Alcotest.(check int) "disabled tracer records nothing" 0
    (Spans.with_span disabled "x" (fun () -> Spans.count disabled))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile ladder" `Quick test_ladder;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "stall charged to queued frames" `Quick test_stall_charged;
          Alcotest.test_case "give up on overdue frames" `Quick test_give_up;
          Alcotest.test_case "generator lateness" `Quick test_generator_late;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "overlapping children" `Quick test_overlapping_children;
        ] );
    ]
