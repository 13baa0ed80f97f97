(* serve: a forked binary-protocol server ([Server.run], Live rr, m = 2)
   driven by this process over two connections.

   - The feeder sends BATCH+ADVANCE frame pairs.  Each round has an
     open-loop light phase and heavy phase of BATCH(64) pairs at fixed
     offered rates, timed from each pair's due time, then a closed-loop
     saturation slice of BATCH(512) pairs with one pair outstanding.
     Rounds repeat over the window, so every phase samples all of it.
   - The observer, on the second connection, reads STATS every 10 ms and
     SNAPSHOT every 250 ms in every phase, so reads land beside writes.

   The client waits for due times by spinning rather than sleeping: with
   one pair outstanding the server is idle while the client waits, and
   the wrapper pins client and server to one CPU (two CPUs made the rate
   swing by a third between runs). *)

open Common
module Client = Rr_serve.Client
module Frame = Rr_serve.Frame
module Ring = Rr_serve.Ring
module Live = Rr_engine.Live
module Stream = Rr_workload.Instance.Stream
module Openloop = Perfbench_harness.Openloop

let machines = 2
let load = 0.95
let open_batch = 64
let sat_batch = 512

(* Offered rates of the open-loop phases, in BATCH(64)+ADVANCE pairs per
   second: about a quarter and two-thirds of the closed-loop BATCH(64)
   rate measured with client and server sharing one CPU of a 2-CPU
   x86-64 container (17k-20k pairs/s).  Constants, so that a faster
   server shows as lower latency, not as a moved operating point. *)
let light_fps = 5_000.
let heavy_fps = 12_000.

let round_s = 1.0
let light_s = 0.2
let heavy_s = 0.2
let sat_s = 0.6
let stats_every = 0.010
let snapshot_every = 0.250

(* A pair answered more than this after its due time is a failure. *)
let give_up = 1.0

(* Fixed warm-up prefix pushed during set-up: enough jobs that the
   engine's alive set and both connections' rings reach steady state. *)
let warm_sat_pairs = 1_000
let warm_open_pairs = 4_000
let stream_jobs = 200_000_000

(* ------------------------------------------------------------------ *)
(* Feed: one job stream cut into frames, with a log for the replay     *)
(* ------------------------------------------------------------------ *)

type feed = {
  fill : Rr_engine.Simulator.Source.cursor -> int;
  cur : Rr_engine.Simulator.Source.cursor;
  arrivals : float array;
  sizes : float array;
  mutable log : int list;  (** Pair lengths sent, newest first. *)
}

let stream seed =
  Stream.generate_load ~seed ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. }) ~load
    ~machines ~n:stream_jobs ()

let feed seed =
  {
    fill = Stream.start_raw (stream seed);
    cur = { arrival = 0.; size = 0. };
    arrivals = Array.make sat_batch 0.;
    sizes = Array.make sat_batch 0.;
    log = [];
  }

let next_frame f len =
  let rec go i =
    if i = len then i
    else if f.fill f.cur < 0 then i
    else begin
      f.arrivals.(i) <- f.cur.arrival;
      f.sizes.(i) <- f.cur.size;
      go (i + 1)
    end
  in
  let got = go 0 in
  if got < len then failwith "serve: job stream exhausted";
  f.log <- len :: f.log

(* ------------------------------------------------------------------ *)
(* Server process                                                      *)
(* ------------------------------------------------------------------ *)

type server = {
  pid : int;
  path : string;
  feeder : Client.t;
  observer : Client.t;
  mutable stopped : bool;
}

let spec = Live.Equal_share
let sockets = ref 0

let start_server () =
  incr sockets;
  (* Relative, so the path stays under the socket-path length limit
     wherever the checkout lives. *)
  let path = Printf.sprintf ".perfbench-%d-%d.sock" (Unix.getpid ()) !sockets in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let engine = ref (Live.create ~machines spec) in
          Rr_serve.Server.run ~proto:Rr_serve.Server.Binary ~engine ~path ();
          0
        with e ->
          prerr_endline ("perfbench server: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid ->
      let feeder = Client.connect path in
      let observer = Client.connect path in
      { pid; path; feeder; observer; stopped = false }

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait_exit pid deadline
  | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid : int * Unix.process_status)
  | _ -> ()

(* Orderly SHUTDOWN, then reap; a server that does not exit within 5 s
   is killed, so no run leaves a process behind. *)
let stop_server s =
  if not s.stopped then begin
    s.stopped <- true;
    (try Client.bye s.observer with _ -> Client.close s.observer);
    (try Client.shutdown s.feeder with _ -> Client.close s.feeder);
    wait_exit s.pid (now () +. 5.);
    try Sys.remove s.path with Sys_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)
(* ------------------------------------------------------------------ *)

type obs = {
  mutable next_stats : float;
  mutable next_snap : float;
  mutable stats_s : float list;
  mutable snap_s : float list;
  mutable snap_bytes : int;
}

(* One frame pair: BATCH then ADVANCE to the batch's last arrival.  An
   ERR reply is a failed operation. *)
let send_pair ctx s f len =
  next_frame f len;
  span ctx "serve.pair" (fun () ->
      match
        ignore (Client.submit_batch s.feeder ~arrivals:f.arrivals ~sizes:f.sizes ~len () : int);
        ignore (Client.advance s.feeder f.arrivals.(len - 1) : float * int * int)
      with
      | () -> check true ""
      | exception Client.Server_error msg -> check false ("serve: ERR reply: " ^ msg))

let observe ctx s o =
  let t = now () in
  if t >= o.next_stats then begin
    let (_ : Live.stats), dt =
      time (fun () -> span ctx "serve.observer.stats" (fun () -> Client.stats s.observer))
    in
    o.stats_s <- dt :: o.stats_s;
    o.next_stats <- Float.max (o.next_stats +. stats_every) t
  end;
  if t >= o.next_snap then begin
    let b, dt =
      time (fun () -> span ctx "serve.observer.snapshot" (fun () -> Client.snapshot s.observer))
    in
    o.snap_s <- dt :: o.snap_s;
    o.snap_bytes <- Bytes.length b;
    o.next_snap <- Float.max (o.next_snap +. snapshot_every) t
  end

let spin_until ctx s o due =
  while now () < due do
    observe ctx s o
  done

(* Set-up: fork, handshake, and push the fixed warm-up prefix closed
   loop.  Returns the server, the feed positioned after the prefix, and
   the closed-loop BATCH(64) pair rate seen while warming. *)
let setup ctx seed =
  let s = start_server () in
  let f = feed seed in
  for _ = 1 to warm_sat_pairs do
    send_pair ctx s f sat_batch
  done;
  let (), dt =
    time (fun () ->
        for _ = 1 to warm_open_pairs do
          send_pair ctx s f open_batch
        done)
  in
  ignore (Client.stats s.observer : Live.stats);
  ignore (Client.snapshot s.observer : bytes);
  (s, f, Float.of_int warm_open_pairs /. dt)

let apply live f len =
  ignore (Live.submit_batch live ~arrivals:f.arrivals ~sizes:f.sizes ~len () : int);
  Live.advance live f.arrivals.(len - 1)

(* The same frames, replayed into an in-process engine.  Returns the
   engine and a feed positioned where the server's feed is, so the two
   can go on in step. *)
let replay seed log =
  let live = Live.create ~machines spec in
  let f = feed seed in
  List.iter
    (fun len ->
      next_frame f len;
      apply live f len)
    (List.rev log);
  (live, f)

let same_stats (a : Live.stats) (b : Live.stats) =
  a.submitted = b.submitted && a.completed = b.completed && a.alive = b.alive
  && a.pending = b.pending && a.events = b.events && a.max_alive = b.max_alive
  && List.for_all2 same_float
       [ a.now; a.makespan; a.mean_flow; a.max_flow; a.power_sum; a.norm; a.p50; a.p90; a.p99 ]
       [ b.now; b.makespan; b.mean_flow; b.max_flow; b.power_sum; b.norm; b.p50; b.p90; b.p99 ]

let check_wire ~what s live =
  check
    (same_stats (Client.stats s.feeder) (Live.query live))
    (Printf.sprintf "serve %s: wire STATS differ from the in-process replay" what)

(* Wire against engine, side by side: the same BATCH(512) pairs go over
   the socket and into the in-process mirror, ten at a time in turn, so
   both halves run at the same host speed.  Their difference is what the
   wire costs per pair. *)
let wire_probe ctx s f live rf =
  let wire = ref [] and local = ref [] in
  for _ = 1 to 30 do
    for _ = 1 to 10 do
      wire := snd (time (fun () -> send_pair ctx s f sat_batch)) :: !wire
    done;
    for _ = 1 to 10 do
      next_frame rf sat_batch;
      local := snd (time (fun () -> apply live rf sat_batch)) :: !local
    done
  done;
  let roundtrip = Stats.median (Array.of_list !wire)
  and engine = Stats.median (Array.of_list !local) in
  set_layer "serve.roundtrip_us" (roundtrip *. 1e6);
  set_layer "engine.live.us_per_frame" (engine *. 1e6);
  set_layer "serve.wire_us_per_frame" ((roundtrip -. engine) *. 1e6)

(* ------------------------------------------------------------------ *)
(* In-process probes of the codec and the client's feed                *)
(* ------------------------------------------------------------------ *)

let probe_reps = 2_000

(* Per BATCH(512)+ADVANCE pair: encode into a ring, decode every field
   back out, and generate+encode as the feeder does. *)
let codec_probe ctx =
  let f = feed ctx.seed in
  next_frame f sat_batch;
  let last = f.arrivals.(sat_batch - 1) in
  let ring = Ring.create ~capacity:(1 lsl 16) () in
  let encode () =
    Ring.clear ring;
    Frame.put_batch ring ~arrivals:f.arrivals ~sizes:f.sizes ~off:0 ~len:sat_batch;
    Frame.put_advance ring last
  in
  let (), enc = time (fun () -> for _ = 1 to probe_reps do encode () done) in
  let buf = Ring.buf ring and pos = Ring.pos ring in
  let sum = ref 0. in
  let decode () =
    match Frame.parse_header buf pos with
    | Error e -> failwith e
    | Ok (_, plen) -> (
        let p = pos + Frame.header_size in
        let count = Frame.get_u32 buf p in
        for j = 0 to count - 1 do
          sum := !sum +. Frame.get_f64 buf (p + 4 + (16 * j)) +. Frame.get_f64 buf (p + 12 + (16 * j))
        done;
        let q = p + plen in
        match Frame.parse_header buf q with
        | Error e -> failwith e
        | Ok _ -> sum := !sum +. Frame.get_f64 buf (q + Frame.header_size))
  in
  let (), dec = time (fun () -> for _ = 1 to probe_reps do decode () done) in
  let (), feed_t =
    time (fun () ->
        for _ = 1 to probe_reps do
          next_frame f sat_batch;
          encode ()
        done)
  in
  let per t = t /. Float.of_int probe_reps *. 1e6 in
  set_layer "serve.encode_us_per_frame" (per enc);
  set_layer "serve.decode_us_per_frame" (per dec);
  set_layer "loadgen.feed_us_per_frame" (per feed_t);
  if Float.is_nan !sum then failwith "serve: decoded a NaN field"

(* Live.to_bytes / of_bytes on the replayed engine, median of 21. *)
let snapshot_probe live =
  let bytes = ref Bytes.empty in
  let snap =
    Array.init 21 (fun _ ->
        snd (time (fun () -> bytes := Live.to_bytes live)))
  in
  let restore = Array.init 21 (fun _ -> snd (time (fun () -> ignore (Live.of_bytes !bytes : Live.t)))) in
  set_layer "engine.live.snapshot_us" (Stats.median snap *. 1e6);
  set_layer "engine.live.restore_us" (Stats.median restore *. 1e6);
  set_layer "engine.live.snapshot_bytes" (Float.of_int (Bytes.length !bytes))

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let us x = x *. 1e6

let phase_layers name (phases : Openloop.phase list) =
  let lat = Stats.sorted (Array.concat (List.map (fun (p : Openloop.phase) -> p.latencies) phases)) in
  let late = Array.concat (List.map (fun (p : Openloop.phase) -> p.late) phases) in
  let q p = us (Stats.percentile_sorted lat p) in
  set_layer (Printf.sprintf "serve.%s.p50_us" name) (q 50.);
  set_layer (Printf.sprintf "serve.%s.p90_us" name) (q 90.);
  set_layer (Printf.sprintf "serve.%s.p99_us" name) (q 99.);
  set_layer (Printf.sprintf "serve.%s.max_us" name) (us lat.(Array.length lat - 1));
  set_layer (Printf.sprintf "loadgen.%s.late_p50_us" name) (us (Stats.median late));
  set_layer (Printf.sprintf "loadgen.%s.late_max_us" name)
    (us (Array.fold_left Float.max 0. late));
  set_layer (Printf.sprintf "loadgen.%s.achieved_over_offered" name)
    (Stats.median (Array.of_list (List.map Openloop.achieved_over_offered phases)))

(* Pairs answered after [give_up], or skipped as overdue, fail. *)
let check_phases name (phases : Openloop.phase list) =
  List.iter
    (fun (p : Openloop.phase) ->
      for _ = 1 to p.overdue do
        check false (Printf.sprintf "serve %s: pair skipped, over %gs past due" name give_up)
      done;
      Array.iter
        (fun l -> if l > give_up then fail (Printf.sprintf "serve %s: pair answered %.3fs past due" name l))
        p.latencies)
    phases

let run ctx =
  let (s, f, closed64), setup_s =
    timed_setup ~discard:(fun (s, _, _) -> stop_server s) (fun () -> setup ctx ctx.seed)
  in
  set_e2e "setup_s" "s" setup_s;
  Printf.printf "# serve: closed-loop BATCH(%d) pair rate while warming: %.0f pairs/s\n"
    open_batch closed64;
  let light = ref [] and heavy = ref [] and slices = ref [] in
  let o = { next_stats = now (); next_snap = now (); stats_s = []; snap_s = []; snap_bytes = 0 } in
  let rss, live =
    Fun.protect
      ~finally:(fun () -> stop_server s)
      (fun () ->
        let rounds = max 3 (Float.to_int (ctx.seconds /. round_s)) in
        for r = 0 to rounds - 1 do
          let traced = ctx.traced && r land 1 = 1 in
          Spans.set_enabled ctx.tr traced;
          let phase fps duration =
            Openloop.run ~clock:now ~wait_until:(spin_until ctx s o) ~start:(now ())
              ~interval:(1. /. fps) ~duration ~give_up ~send:(fun () ->
                send_pair ctx s f open_batch)
          in
          light := phase light_fps light_s :: !light;
          heavy := phase heavy_fps heavy_s :: !heavy;
          let t0 = now () and jobs = ref 0 in
          while now () -. t0 < sat_s do
            send_pair ctx s f sat_batch;
            jobs := !jobs + sat_batch;
            observe ctx s o
          done;
          slices := (traced, Float.of_int !jobs, now () -. t0) :: !slices;
          Spans.set_enabled ctx.tr false
        done;
        let rss = vmhwm_mb s.pid in
        let live, rf = replay ctx.seed f.log in
        check_wire ~what:"window" s live;
        if ctx.traced then begin
          wire_probe ctx s f live rf;
          check_wire ~what:"probe" s live
        end;
        (rss, live))
  in
  check_phases "light" !light;
  check_phases "heavy" !heavy;
  let rates traced =
    List.filter_map (fun (tr, jobs, dt) -> if tr = traced then Some (jobs /. dt) else None) !slices
  in
  let untraced = rates false and traced = rates true in
  (* Jobs over the time of all untraced slices: the window's rate, each
     stretch of host speed weighed by the time it lasted. *)
  let jobs, dt =
    List.fold_left
      (fun (j, t) (tr, jobs, dt) -> if tr then (j, t) else (j +. jobs, t +. dt))
      (0., 0.) !slices
  in
  let heavy_lat =
    Stats.sorted (Array.concat (List.map (fun (p : Openloop.phase) -> p.latencies) !heavy))
  in
  let samples = Array.length heavy_lat in
  check (List.mem 99. (Stats.supported ~n:samples))
    (Printf.sprintf "serve: %d heavy-phase samples do not support a p99" samples);
  set_e2e "jobs_per_s" "jobs/s" (jobs /. dt);
  set_e2e "peak_rss_mb" "MB" rss;
  Printf.printf "# serve: saturation slices, jobs/s: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.0f") untraced));
  Printf.printf
    "# serve: %d rounds; heavy phase %d samples (p99 has %d beyond it, highest supported \
     p%g), p50 %.1f us, p99 %.1f us; light %d samples\n"
    (List.length !slices) samples (Stats.beyond ~n:samples 99.)
    (Option.value ~default:0. (Stats.highest_supported ~n:samples))
    (us (Stats.percentile_sorted heavy_lat 50.))
    (us (Stats.percentile_sorted heavy_lat 99.))
    (Array.length (Array.concat (List.map (fun (p : Openloop.phase) -> p.latencies) !light)));
  if ctx.traced then begin
    layers_of_spans ctx;
    phase_layers "light" !light;
    phase_layers "heavy" !heavy;
    set_layer "serve.stats_us" (us (Stats.median (Array.of_list o.stats_s)));
    set_layer "serve.snapshot_us" (us (Stats.median (Array.of_list o.snap_s)));
    set_layer "serve.snapshot_bytes" (Float.of_int o.snap_bytes);
    if traced <> [] then
      set_layer "trace.overhead"
        ((Stats.median (Array.of_list untraced) /. Stats.median (Array.of_list traced)) -. 1.);
    codec_probe ctx;
    snapshot_probe live
  end;
  (* Hold-out inputs: a fresh server fed the hold-out prefix. *)
  let s2, f2, _ = setup ctx ctx.holdout_seed in
  Fun.protect
    ~finally:(fun () -> stop_server s2)
    (fun () -> check_wire ~what:"hold-out" s2 (fst (replay ctx.holdout_seed f2.log)))
