(* Dense class kernels: specialised engines for the rate-vector policy
   classes whose decisions depend on the whole alive set — LAPS's
   latest-arrival share, MLFQ's attained-service ladder, the weighted
   proportional shares (age- and size-weighted), and discrete quantum
   round-robin.  See class_engine.mli.

   Unlike the priority-index kernels (index_engine.ml), these classes
   hand fractional rates to many jobs at once, so each event still costs
   O(alive); the win over the general loop is structural.  The engine
   keeps its jobs in exactly the order its class needs — admission order
   doubles as (arrival asc, id asc) for LAPS and, because age-derived
   weights are monotone in arrival, as (weight desc, id asc) for WRR-age
   — so it never sorts, never rebuilds policy views, and never runs the
   policy closure.  The numeric kernels (capped proportional shares, the
   MLFQ ladder) are the shared ones in {!Policy_class}, and the fold
   orders, guards, and float expressions mirror the reference policies
   operation for operation, so on the same event sequence the two sides
   produce the same floats; the differential suite in test_simcore pins
   agreement to <= 1e-9 relative flow time. *)

module Source = Simulator.Source

let fmin = Rr_util.Floatx.fmin
let fmax = Rr_util.Floatx.fmax

type kind =
  | Laps of { beta : float }
  | Ladder of { base_quantum : float; factor : float; levels : int }
  | Aged of { k : int; refresh : float; offset : float }
  | Sized of { gamma : float }
  | Quantum of { quantum : float }

let kind_of_class = function
  | Policy_class.Latest_fraction { beta } -> Some (Laps { beta })
  | Policy_class.Level_ladder { base_quantum; factor; levels } ->
      Some (Ladder { base_quantum; factor; levels })
  | Policy_class.Aged_share { k; refresh; offset } -> Some (Aged { k; refresh; offset })
  | Policy_class.Sized_share { gamma } -> Some (Sized { gamma })
  | Policy_class.Quantum_cycle { quantum } -> Some (Quantum { quantum })
  | Policy_class.Equal_share | Policy_class.Static_key _ | Policy_class.Attained_cascade
  | Policy_class.Starvation_hybrid _ | Policy_class.Preempt_budget _ ->
      None

let class_of_kind = function
  | Laps { beta } -> Policy_class.Latest_fraction { beta }
  | Ladder { base_quantum; factor; levels } ->
      Policy_class.Level_ladder { base_quantum; factor; levels }
  | Aged { k; refresh; offset } -> Policy_class.Aged_share { k; refresh; offset }
  | Sized { gamma } -> Policy_class.Sized_share { gamma }
  | Quantum { quantum } -> Policy_class.Quantum_cycle { quantum }

(* One record per alive job, owned by the engine for the job's whole
   lifetime.  [rate] caches the last decision so partial advances (the
   live engine splits intervals at [step] targets) reuse it without a
   recompute — exactly the general loop's allocate-once-per-event
   discipline, which is what keeps WRR-age's drifting weights
   split-safe.

   All fields are floats, so the record is flat and the per-event
   stores into [remaining], [attained] and [rate] never allocate (one
   int field would box every one of them).  The id rides along as a
   float — exact below 2^53 — and so does the ladder level, an exact
   small integer. *)
type djob = {
  fid : float;  (* job id *)
  arrival : float;
  size : float;
  weight : float;  (* Sized only: size ** gamma, fixed at admission *)
  mutable remaining : float;
  mutable attained : float;
  mutable rate : float;
  mutable level : float;  (* Ladder only: MLFQ level as of the last refresh *)
}

let[@inline] id_of dj = int_of_float dj.fid

(* A free quantum slot or an empty ring cell: recognised by its negative
   id, never by physical identity (a Marshal round trip copies it). *)
let vacant () =
  {
    fid = -1.;
    arrival = 0.;
    size = 0.;
    weight = 0.;
    remaining = 0.;
    attained = 0.;
    rate = 0.;
    level = 0.;
  }

type scalars = { mutable horizon : float (* decision horizon; +inf when none *) }

type state = {
  kind : kind;
  machines : int;
  speed : float;
  clk : Kernel.clock;
  sc : scalars;
  idle : djob;  (* the vacant record idle slots and ring cells hold *)
  mutable jobs : djob array;
      (* dense cores: the [alive] jobs in [0, alive), in class-specific
         order (see [admit]); cells past [alive] hold [idle] *)
  slots : djob array;  (* Quantum: seated jobs, one per machine, vacant when idle *)
  deadlines : float array;  (* Quantum: per-slot quantum deadline *)
  mutable ready : djob array;  (* Quantum: FIFO ready queue, a ring *)
  mutable ready_head : int;
  mutable ready_len : int;
  cutoffs : float array;  (* Ladder: attained service that leaves each level *)
  thresholds : float array;  (* Ladder: each level's demotion threshold *)
  level_counts : int array;  (* Ladder scratch: alive jobs per level *)
  level_share : float array;  (* Ladder scratch: rate per level *)
  mutable weights : float array;  (* Aged / Sized scratch, capacity >= alive *)
  mutable suffix : float array;  (* capped_rates_into scratch, capacity >= alive + 1 *)
  mutable rates : float array;  (* capped_rates_into output, capacity >= alive *)
  mutable alive : int;
}

(* The ladder's thresholds, accumulated exactly as
   {!Policy_class.ladder_threshold} sums them, and the cutoffs
   {!Policy_class.ladder_level} compares attained service against: one
   table per engine instead of a sum per job per event. *)
let ladder_tables = function
  | Ladder { base_quantum; factor; levels } ->
      let thresholds = Array.make levels 0. in
      let acc = ref 0. and quantum = ref base_quantum in
      for l = 0 to levels - 1 do
        acc := !acc +. !quantum;
        quantum := !quantum *. factor;
        thresholds.(l) <- !acc
      done;
      (thresholds, Array.map (fun t -> t -. (1e-9 *. (1. +. t))) thresholds)
  | _ -> ([||], [||])

let create ~machines ~speed kind =
  if machines < 1 then invalid_arg "Class_engine.create: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Class_engine.create: speed must be finite and positive";
  (match Policy_class.validate (class_of_kind kind) with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Class_engine.create: " ^ msg));
  let thresholds, cutoffs = ladder_tables kind in
  let quantum = match kind with Quantum _ -> true | _ -> false in
  let idle = vacant () in
  {
    kind;
    machines;
    speed;
    clk = Kernel.clock ();
    sc = { horizon = Float.infinity };
    jobs = [||];
    idle;
    slots = (if quantum then Array.make machines idle else [||]);
    deadlines = (if quantum then Array.make machines Float.infinity else [||]);
    ready = [||];
    ready_head = 0;
    ready_len = 0;
    cutoffs;
    thresholds;
    level_counts = Array.make (Array.length cutoffs) 0;
    level_share = Array.make (Array.length cutoffs) 0.;
    weights = [||];
    suffix = [||];
    rates = [||];
    alive = 0;
  }

(* Grow-only scratch for the weight-proportional kinds: the buffers track
   the alive high-water mark, so in steady state a refresh allocates
   nothing — the pre-arena version made three exact-size arrays per
   event. *)
let ensure_scratch st n =
  if Array.length st.weights < n then begin
    let cap = Int.max 16 (Int.max n (2 * Array.length st.weights)) in
    st.weights <- Array.make cap 0.;
    st.rates <- Array.make cap 0.;
    st.suffix <- Array.make (cap + 1) 0.
  end

let alive st = st.alive
let clock st = st.clk

(* Same float as Simulator.completion_threshold, inlined into the hot
   loop. *)
let[@inline] threshold size = 1e-9 *. (1. +. size)

(* The ready ring: FIFO order, grown by doubling; vacated cells are reset
   so the ring holds no finished job. *)
let ready_push st dj =
  let cap = Array.length st.ready in
  if st.ready_len = cap then begin
    let nr = Array.make (Int.max 8 (2 * cap)) st.idle in
    for i = 0 to st.ready_len - 1 do
      nr.(i) <- st.ready.((st.ready_head + i) mod cap)
    done;
    st.ready <- nr;
    st.ready_head <- 0
  end;
  st.ready.((st.ready_head + st.ready_len) mod Array.length st.ready) <- dj;
  st.ready_len <- st.ready_len + 1

let ready_pop st =
  let dj = st.ready.(st.ready_head) in
  st.ready.(st.ready_head) <- st.idle;
  st.ready_head <- (st.ready_head + 1) mod Array.length st.ready;
  st.ready_len <- st.ready_len - 1;
  dj

(* Make room for one more dense job. *)
let reserve st =
  let cap = Array.length st.jobs in
  if st.alive = cap then begin
    let grown = Array.make (Int.max 16 (2 * cap)) st.idle in
    Array.blit st.jobs 0 grown 0 cap;
    st.jobs <- grown
  end

(* Jobs must be admitted in (arrival asc, id asc) order — the order
   every source produces.  LAPS keeps that order directly (the policy
   serves the latest arrivals, i.e. a suffix of the job array); WRR-age
   keeps it because age is decreasing in admission order and the
   age-derived weight is monotone non-decreasing in age, so admission
   order IS (weight desc, id asc) at every instant; WRR-static inserts
   by its static weight; MLFQ's array is unordered (rates depend only
   on levels). *)
let[@inline] admit_job st id arrival size =
  let weight = match st.kind with Sized { gamma } -> size ** gamma | _ -> 0. in
  let dj =
    {
      fid = Float.of_int id;
      arrival;
      size;
      weight;
      remaining = size;
      attained = 0.;
      rate = 0.;
      level = 0.;
    }
  in
  (match st.kind with
  | Quantum _ -> ready_push st dj
  | Laps _ | Aged _ | Ladder _ | Sized _ ->
      reserve st;
      let jobs = st.jobs in
      let i = ref st.alive in
      (match st.kind with
      | Ladder { levels; _ } ->
          (* [refresh] recomputes levels only for served jobs, so a
             newcomer starts at the level of zero attained service. *)
          let l = ref 0 in
          while !l < levels - 1 && not (0. < st.cutoffs.(!l)) do
            incr l
          done;
          dj.level <- Float.of_int !l
      | Sized _ ->
          (* Keep (weight desc, id asc).  The newcomer has the largest id,
             so it goes after every incumbent of weight >= its own: shift
             the strictly-lighter suffix right by one. *)
          while !i > 0 && jobs.(!i - 1).weight < weight do
            jobs.(!i) <- jobs.(!i - 1);
            decr i
          done
      | _ -> ());
      jobs.(!i) <- dj);
  st.alive <- st.alive + 1

let admit st ~id ~arrival ~size = admit_job st id arrival size

let admit_head st src =
  admit_job st (Source.head_id src) (Source.head_arrival src) (Source.head_size src)

(* Mirror of one [allocate] call: recompute every cached rate and the
   decision horizon at [clk.now].  Run exactly once per event, after
   completions and admissions have settled — the same place the general
   loop invokes the policy. *)
let refresh st =
  let now = st.clk.now in
  let n = st.alive and jobs = st.jobs in
  match st.kind with
  | Laps { beta } ->
      if n > 0 then begin
        let share_count = Int.max 1 (int_of_float (Float.ceil (beta *. Float.of_int n))) in
        let share = fmin 1. (Float.of_int st.machines /. Float.of_int share_count) in
        let first = n - share_count in
        for i = 0 to n - 1 do
          jobs.(i).rate <- (if i >= first then share else 0.)
        done
      end;
      st.sc.horizon <- Float.infinity
  | Ladder { levels; _ } ->
      Array.fill st.level_counts 0 levels 0;
      for i = 0 to n - 1 do
        let dj = jobs.(i) in
        (* Only a job served since the last refresh can have moved, and
           attained service never decreases, so its level is found by
           scanning up from the old one — the same first level whose
           cutoff it has not reached that {!Policy_class.ladder_level}
           finds from the bottom. *)
        if dj.rate > 0. then begin
          let l = ref (int_of_float dj.level) in
          while !l < levels - 1 && not (dj.attained < st.cutoffs.(!l)) do
            incr l
          done;
          dj.level <- Float.of_int !l
        end;
        let l = int_of_float dj.level in
        st.level_counts.(l) <- st.level_counts.(l) + 1
      done;
      (* Serve levels lowest-first; same block arithmetic (and the same
         1e-12 exhaustion guard) as the mirror policy's sorted sweep. *)
      let left = ref (Float.of_int st.machines) in
      for lvl = 0 to levels - 1 do
        if st.level_counts.(lvl) > 0 && !left > 1e-12 then begin
          let count = Float.of_int st.level_counts.(lvl) in
          let share = fmin 1. (!left /. count) in
          st.level_share.(lvl) <- share;
          left := !left -. (share *. count)
        end
        else st.level_share.(lvl) <- 0.
      done;
      let horizon = ref Float.infinity in
      for i = 0 to n - 1 do
        let dj = jobs.(i) in
        let l = int_of_float dj.level in
        dj.rate <- st.level_share.(l);
        if dj.rate > 0. && l < levels - 1 then begin
          let gap = st.thresholds.(l) -. dj.attained in
          if gap > 1e-12 then begin
            let t = now +. (gap /. (dj.rate *. st.speed)) in
            if t < !horizon then horizon := t
          end
        end
      done;
      st.sc.horizon <- !horizon
  | Aged { k; refresh; offset } ->
      ensure_scratch st n;
      let youngest = ref Float.infinity in
      for i = 0 to n - 1 do
        let age = now -. jobs.(i).arrival in
        st.weights.(i) <- Rr_util.Floatx.powi (age +. offset) (k - 1);
        youngest := fmin !youngest age
      done;
      Policy_class.capped_rates_into ~machines:st.machines ~n ~weights:st.weights
        ~suffix:st.suffix ~rates:st.rates;
      for i = 0 to n - 1 do
        jobs.(i).rate <- st.rates.(i)
      done;
      st.sc.horizon <-
        (if k = 1 || n = 0 then Float.infinity
         else now +. fmax 1e-6 (refresh *. (!youngest +. offset)))
  | Sized _ ->
      ensure_scratch st n;
      for i = 0 to n - 1 do
        st.weights.(i) <- jobs.(i).weight
      done;
      Policy_class.capped_rates_into ~machines:st.machines ~n ~weights:st.weights
        ~suffix:st.suffix ~rates:st.rates;
      for i = 0 to n - 1 do
        jobs.(i).rate <- st.rates.(i)
      done;
      st.sc.horizon <- Float.infinity
  | Quantum { quantum } ->
      (* Expired quanta first (incumbent to the back of the queue), then
         refill idle machines — the mirror policy's transition order. *)
      for s = 0 to st.machines - 1 do
        let dj = st.slots.(s) in
        if dj.fid >= 0. && now >= st.deadlines.(s) -. 1e-12 then begin
          dj.rate <- 0.;
          ready_push st dj;
          st.slots.(s) <- st.idle
        end
      done;
      for s = 0 to st.machines - 1 do
        if st.slots.(s).fid < 0. && st.ready_len > 0 then begin
          let dj = ready_pop st in
          dj.rate <- 1.;
          st.slots.(s) <- dj;
          st.deadlines.(s) <- now +. quantum
        end
      done;
      let horizon = ref Float.infinity in
      for s = 0 to st.machines - 1 do
        if st.slots.(s).fid >= 0. && st.deadlines.(s) < !horizon then
          horizon := st.deadlines.(s)
      done;
      st.sc.horizon <- !horizon

(* The jobs the per-job loops below walk: the seats (vacant ones have
   rate 0 and drop out) or the dense prefix. *)
let[@inline] served st = match st.kind with Quantum _ -> st.slots | _ -> st.jobs
let[@inline] served_count st = match st.kind with Quantum _ -> st.machines | _ -> st.alive

(* Earliest internal event under the cached decision: analytic
   completion or decision horizon, whichever first, written to
   [clk.t_next].  The caller folds in the next arrival; the min over all
   three is the same float whatever the fold order, so the general
   loop's completion -> arrival -> horizon sequencing needs no
   replication. *)
let next_internal st =
  let now = st.clk.now and jobs = served st in
  let t = ref st.sc.horizon in
  for i = 0 to served_count st - 1 do
    let dj = jobs.(i) in
    let v = dj.rate *. st.speed in
    if v > 0. then begin
      let c = now +. (dj.remaining /. v) in
      if c < !t then t := c
    end
  done;
  st.clk.t_next <- !t

(* Advance every served job by the cached rates from [clk.now] to
   [clk.t_next]; a zero rate is a bit-exact no-op in the general loop,
   so skipping those jobs changes nothing. *)
let advance st =
  let dt = st.clk.t_next -. st.clk.now and jobs = served st in
  for i = 0 to served_count st - 1 do
    let dj = jobs.(i) in
    if dj.rate > 0. then begin
      let delta = dj.rate *. st.speed *. dt in
      dj.remaining <- dj.remaining -. delta;
      dj.attained <- dj.attained +. delta
    end
  done

(* Retire completed jobs.  The dense cores check the whole array (the
   general loop does too, and it costs nothing extra at O(alive) per
   event); the quantum core checks its slots — queued jobs have rate 0
   and cannot cross the threshold. *)
let settle st out =
  match st.kind with
  | Quantum _ ->
      for s = 0 to st.machines - 1 do
        let dj = st.slots.(s) in
        if dj.fid >= 0. && dj.remaining <= threshold dj.size then begin
          Kernel.emit st.clk out (id_of dj) dj.arrival;
          st.slots.(s) <- st.idle;
          st.alive <- st.alive - 1
        end
      done
  | Laps _ | Aged _ | Sized _ | Ladder _ ->
      let jobs = st.jobs in
      for i = st.alive - 1 downto 0 do
        let dj = jobs.(i) in
        if dj.remaining <= threshold dj.size then begin
          Kernel.emit st.clk out (id_of dj) dj.arrival;
          let last = st.alive - 1 in
          (match st.kind with
          | Ladder _ ->
              (* Unordered: the last job fills the gap. *)
              jobs.(i) <- jobs.(last)
          | _ ->
              (* Ordered: shift the suffix left to preserve the class
                 order.  Indices below [i] are untouched, so the
                 downward sweep stays valid. *)
              for p = i to last - 1 do
                jobs.(p) <- jobs.(p + 1)
              done);
          jobs.(last) <- st.idle;
          st.alive <- last
        end
      done

let trace_entries st =
  let entries = Array.make st.alive { Trace.job = -1; arrival = 0.; rate = 0. } in
  let next = ref 0 in
  let add dj =
    if dj.fid >= 0. then begin
      entries.(!next) <- { Trace.job = id_of dj; arrival = dj.arrival; rate = dj.rate };
      incr next
    end
  in
  Array.iter add (served st);
  for i = 0 to st.ready_len - 1 do
    add st.ready.((st.ready_head + i) mod Array.length st.ready)
  done;
  entries

let ops =
  {
    Kernel.clock_of = clock;
    alive;
    admit_head;
    refresh;
    next_internal;
    advance;
    settle;
    trace_entries;
  }

(* ------------------------------------------------------------------ *)
(* Closed runs                                                         *)
(* ------------------------------------------------------------------ *)

let no_sink : Simulator.sink = fun ~id:_ ~arrival:_ ~flow:_ -> ()

let run ?(record_trace = false) ?(speed = 1.) ?(max_events = 10_000_000) ?(sink = no_sink)
    ~machines ~kind jobs =
  Kernel.run ~record_trace ~speed ~max_events ~sink ~machines
    (fun _ -> create ~machines ~speed kind)
    ops jobs

let run_stream ?(speed = 1.) ?(max_events = 10_000_000) ~machines ~kind ~sink source =
  Kernel.run_stream ~speed ~max_events ~sink ~machines
    (fun _ -> create ~machines ~speed kind)
    ops source
