(* Incremental, submit-while-running scheduling core.  See live.mli for
   the user-facing contract.

   Each closed-form engine in this library is a loop over a finished
   arrival source; this module re-expresses the same three kernels —
   the equal-share virtual-service deadline heap (simulator.ml), the
   priority-index slot/heap kernel (index_engine.ml) and the SETF group
   cascade (index_engine.ml) — as resumable state advanced on demand, so
   jobs can be submitted while the simulation is already under way.

   The arithmetic deliberately mirrors the closed cores operation for
   operation: the same completion candidates ([now +. remaining /. rate]),
   the same shared completion threshold, the same
   completion-beats-arrival tie rule ([next_arrival < t_complete] picks
   the arrival), and the same admission, retirement and merge orders.  On
   a submit-everything-upfront feed the event sequence is identical; the
   only divergence is that [advance] may split an inter-event interval at
   an arbitrary horizon, accumulating the advance in pieces — a rounding
   difference bounded well inside the 1e-9 relative tolerance the
   differential suite (test_live.ml) pins.

   The per-event code follows the hot-path rule of kernel.mli: scalar
   times sit in the all-float {!clock}, pending jobs in a ring of two
   float arrays, running slots in flat columns and SETF group levels in
   all-float records; no closure, option or tuple is built per event, and
   the completion folds are inlined.

   Everything in [state] is plain mutable data — heaps and rings of float
   arrays, records, an option-linked group list — with no closures, so a
   whole engine snapshots with [Marshal] (which handles the SETF prev/next
   cycles via its sharing machinery).  The completion sink is the one
   closure a live engine carries; it lives outside [state] and is
   re-attached on restore. *)

module Heap = Rr_util.Heap
module Floatx = Rr_util.Floatx

type spec =
  | Equal_share
  | Indexed of Index_engine.kind
  | Setf_cascade
  | Classified of Policy_class.t

let spec_name = function
  | Equal_share -> "equal-share"
  | Indexed kind -> Index_engine.kind_name kind ^ "-index"
  | Setf_cascade -> "setf-cascade"
  | Classified klass -> Policy_class.engine_name klass

(* Surface names accept every classified policy at its registry-default
   parameters; the typed [Classified] constructor covers arbitrary
   parameters (rr_cli serve goes through the registry and passes the
   policy's own class). *)
let spec_of_string s =
  match String.lowercase_ascii s with
  | "rr" | "round-robin" | "equal-share" -> Some Equal_share
  | "srpt" | "srpt-index" -> Some (Indexed Index_engine.Srpt)
  | "sjf" | "sjf-index" -> Some (Indexed Index_engine.Sjf)
  | "fcfs" | "fcfs-index" -> Some (Indexed Index_engine.Fcfs)
  | "setf" | "setf-cascade" -> Some Setf_cascade
  | "hdf" | "hdf-index" ->
      Some (Classified (Policy_class.Static_key (Policy_class.Key_density { alpha = 2. })))
  | "laps" | "laps-dense" -> Some (Classified (Policy_class.Latest_fraction { beta = 0.5 }))
  | "mlfq" | "mlfq-ladder" ->
      Some
        (Classified (Policy_class.Level_ladder { base_quantum = 0.5; factor = 2.; levels = 24 }))
  | "quantum-rr" | "quantum-cycle" ->
      Some (Classified (Policy_class.Quantum_cycle { quantum = 1. }))
  | "wrr-age" | "wrr-age-dense" ->
      Some (Classified (Policy_class.Aged_share { k = 2; refresh = 0.25; offset = 0.1 }))
  | "wrr-static" | "wrr-static-dense" ->
      Some (Classified (Policy_class.Sized_share { gamma = 1. }))
  | "hybrid" | "hybrid-index" ->
      Some (Classified (Policy_class.Starvation_hybrid { theta = 3. }))
  | "srpt-mig" | "srpt-mig-index" ->
      Some (Classified (Policy_class.Preempt_budget { budget = 1 }))
  | _ -> None

let spec_names =
  [
    "rr";
    "srpt";
    "sjf";
    "fcfs";
    "setf";
    "hdf";
    "laps";
    "mlfq";
    "quantum-rr";
    "wrr-age";
    "wrr-static";
    "hybrid";
    "srpt-mig";
  ]

(* ------------------------------------------------------------------ *)
(* Pending ring                                                        *)
(* ------------------------------------------------------------------ *)

(* Submitted jobs not yet admitted, in submission = (arrival, id) order:
   a growable ring of two float arrays.  The oldest pending job sits at
   slot [head] and has id [submitted - len]; ids are dense, so the ring
   stores none. *)
type ring = {
  mutable arrivals : float array;
  mutable sizes : float array;
  mutable head : int;
  mutable len : int;
}

let ring_capacity = 1024

let ring_create () =
  {
    arrivals = Array.make ring_capacity 0.;
    sizes = Array.make ring_capacity 0.;
    head = 0;
    len = 0;
  }

(* Make room for [need] jobs, unrolling a wrapped ring to start at slot 0
   (pending order is kept). *)
let ring_reserve r need =
  let cap = Array.length r.arrivals in
  if need > cap then begin
    let ncap = ref (Int.max ring_capacity cap) in
    while !ncap < need do
      ncap := 2 * !ncap
    done;
    let arrivals = Array.make !ncap 0. and sizes = Array.make !ncap 0. in
    let upper = Int.min r.len (cap - r.head) in
    Array.blit r.arrivals r.head arrivals 0 upper;
    Array.blit r.sizes r.head sizes 0 upper;
    Array.blit r.arrivals 0 arrivals upper (r.len - upper);
    Array.blit r.sizes 0 sizes upper (r.len - upper);
    r.arrivals <- arrivals;
    r.sizes <- sizes;
    r.head <- 0
  end

(* Append one job; the caller has reserved the slot. *)
let[@inline] ring_push r ~arrival ~size =
  let cap = Array.length r.arrivals in
  let i = r.head + r.len in
  let i = if i >= cap then i - cap else i in
  r.arrivals.(i) <- arrival;
  r.sizes.(i) <- size;
  r.len <- r.len + 1

let[@inline] ring_drop r =
  let h = r.head + 1 in
  r.head <- (if h = Array.length r.arrivals then 0 else h);
  r.len <- r.len - 1

(* The pending jobs alone, at exact capacity: what a snapshot stores. *)
let ring_compact r =
  let cap = Array.length r.arrivals in
  let at i = if r.head + i >= cap then r.head + i - cap else r.head + i in
  {
    arrivals = Array.init r.len (fun i -> r.arrivals.(at i));
    sizes = Array.init r.len (fun i -> r.sizes.(at i));
    head = 0;
    len = r.len;
  }

(* ------------------------------------------------------------------ *)
(* Per-spec core state                                                 *)
(* ------------------------------------------------------------------ *)

(* Equal share: the deadline heap IS the live state (key = admission
   virtual time + size, aux1 = arrival, aux2 = size); the virtual service
   clock lives in the engine's {!clock}.

   Priority index: <= m running slots in flat columns scanned in O(m),
   everything else in the waiting heap with the same uniform satellite
   layout as index_engine.ml (key = Index_engine.job_key, aux1 = arrival,
   aux2 = size, aux3 = remaining). *)
type idx_state = {
  kind : Index_engine.kind;
  waiting : Heap.Scalar3.t;
  r_id : int array;
  r_arrival : float array;
  r_size : float array;
  r_remaining : float array;
  mutable n_run : int;
}

(* SETF: groups of equal attained service in a doubly-linked list sorted
   by level ascending, lazy all-float levels [(level, t_upd, grate)],
   per-group member heaps keyed by size.  Each group carries its own
   [Some] cell for linking, and emptied groups wait in a free list
   (linked through [next]) with their heaps' capacity, so opening a group
   allocates nothing in steady state. *)
type level = { mutable level : float; mutable t_upd : float; mutable grate : float }

type group = {
  lv : level;
  members : Heap.Scalar2.t;
  mutable prev : group option;
  mutable next : group option;
  self : group option;
}

type setf_state = {
  mutable first : group option;
  mutable setf_alive : int;
  mutable spare : group option;
}

(* The classified cores reuse the closed engines' incremental state
   directly (class_engine.ml, hybrid_engine.ml, budget_engine.ml): one
   [refresh] per event — never per horizon split, so cached rates carry
   partial advances exactly like the general loop's
   allocate-once-per-event discipline, which is what keeps WRR-age's
   drifting weights split-safe. *)
type core =
  | Eq of Heap.Scalar2.t
  | Idx of idx_state
  | Setf of setf_state
  | Cls of Class_engine.state
  | Hyb of Hybrid_engine.state
  | Bud of Budget_engine.state

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

(* All-float, hence flat: stores never allocate (cf. {!Kernel.clock}). *)
type clock = {
  mutable now : float;
  mutable t_next : float;  (** The Idx/Setf scans' earliest internal event. *)
  mutable vsrv : float;  (** Equal share's virtual service clock. *)
  mutable last_arrival : float;
  mutable makespan : float;
  mutable max_flow : float;
  mutable flow : float;  (** The completing job's flow, read by {!fold_flow}. *)
}

type state = {
  spec : spec;
  machines : int;
  speed : float;
  k : int;
  max_events : int;
  core : core;
  (* Classified cores only: true when the cached decision must be
     recomputed before the next event scan (after every processed event,
     admission or idle jump; never after a pure horizon split). *)
  mutable rates_dirty : bool;
  clk : clock;
  pending : ring;
  mutable submitted : int;
  mutable completed : int;
  mutable events : int;
  mutable max_alive : int;
  (* O(1)-memory live metrics: the same accumulators Run.measure fuses —
     Kahan power sum for the Lk norm, Welford moments, running max (in
     [clk]) — plus three P-squared sketches for the percentiles. *)
  ps : Rr_util.Kahan.t;
  moments : Rr_util.Welford.t;
  p50 : Rr_util.P2.t;
  p90 : Rr_util.P2.t;
  p99 : Rr_util.P2.t;
}

(* [out] routes the classified kernels' completions into [complete]; it
   holds a closure, so it lives beside the snapshotted [state]. *)
type t = { st : state; sink : Simulator.sink option; out : Kernel.out }

type stats = {
  submitted : int;
  completed : int;
  alive : int;  (** Admitted and unfinished at [now] (excludes [pending]). *)
  pending : int;  (** Submitted with an arrival still in the future. *)
  now : float;
  events : int;
  makespan : float;
  max_alive : int;
  mean_flow : float;
  max_flow : float;
  power_sum : float;
  norm : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* Every metric fold of one completion, its flow read from [clk.flow].
   One direct call per completion with no float argument; the folds
   themselves are inlined here. *)
let fold_flow (st : state) =
  let c = st.clk in
  let flow = c.flow in
  Rr_util.Kahan.add st.ps (Floatx.powi flow st.k);
  Rr_util.Welford.add st.moments flow;
  if flow > c.max_flow then c.max_flow <- flow;
  Rr_util.P2.add st.p50 flow;
  Rr_util.P2.add st.p90 flow;
  Rr_util.P2.add st.p99 flow

let[@inline] complete (t : t) ~id ~arrival =
  let st = t.st in
  let c = st.clk in
  let now = c.now in
  st.completed <- st.completed + 1;
  c.makespan <- now;
  c.flow <- now -. arrival;
  fold_flow st;
  match t.sink with None -> () | Some sink -> sink ~id ~arrival ~flow:c.flow

let wrap st sink =
  let rec t =
    {
      st;
      sink;
      out =
        {
          Kernel.completions = [||];
          sink = (fun ~id ~arrival ~flow:_ -> complete t ~id ~arrival);
          completed = 0;
        };
    }
  in
  t

(* A live engine is long-lived by design — it owns its heaps outright
   rather than borrowing from the per-domain {!Arena}, whose components
   must not outlive a single borrow.  The allocation happens once per
   [create], not per run, so there is nothing for the arena to save
   here. *)
let create ?(machines = 1) ?(speed = 1.) ?(k = 2) ?(max_events = max_int) ?sink spec =
  if machines < 1 then invalid_arg "Live.create: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Live.create: speed must be finite and positive";
  if k < 1 then invalid_arg "Live.create: k must be >= 1";
  if max_events < 1 then invalid_arg "Live.create: max_events must be >= 1";
  let idx_core kind =
    Idx
      {
        kind;
        waiting = Heap.Scalar3.create ();
        r_id = Array.make machines (-1);
        r_arrival = Array.make machines 0.;
        r_size = Array.make machines 0.;
        r_remaining = Array.make machines 0.;
        n_run = 0;
      }
  in
  let core =
    match spec with
    | Equal_share | Classified Policy_class.Equal_share -> Eq (Heap.Scalar2.create ())
    | Indexed kind -> idx_core kind
    | Classified (Policy_class.Static_key key) -> idx_core (Index_engine.kind_of_key key)
    | Setf_cascade | Classified Policy_class.Attained_cascade ->
        Setf { first = None; setf_alive = 0; spare = None }
    | Classified (Policy_class.Starvation_hybrid { theta }) ->
        Hyb (Hybrid_engine.create ~machines ~speed ~theta)
    | Classified (Policy_class.Preempt_budget { budget }) ->
        Bud (Budget_engine.create ~machines ~speed ~budget)
    | Classified klass -> (
        match Class_engine.kind_of_class klass with
        | Some kind -> Cls (Class_engine.create ~machines ~speed kind)
        | None ->
            (* Unreachable: every class is covered above. *)
            invalid_arg "Live.create: unclassifiable spec")
  in
  let st =
    {
      spec;
      machines;
      speed;
      k;
      max_events;
      core;
      rates_dirty = true;
      clk =
        {
          now = 0.;
          t_next = Float.infinity;
          vsrv = 0.;
          last_arrival = 0.;
          makespan = 0.;
          max_flow = 0.;
          flow = 0.;
        };
      pending = ring_create ();
      submitted = 0;
      completed = 0;
      events = 0;
      max_alive = 0;
      ps = Rr_util.Kahan.create ();
      moments = Rr_util.Welford.create ();
      p50 = Rr_util.P2.create ~p:0.5 ();
      p90 = Rr_util.P2.create ~p:0.9 ();
      p99 = Rr_util.P2.create ~p:0.99 ();
    }
  in
  wrap st sink

(* ------------------------------------------------------------------ *)
(* Submission                                                          *)
(* ------------------------------------------------------------------ *)

let submit t ~arrival ~size =
  let st = t.st in
  let c = st.clk in
  if not (Floatx.is_finite_nonneg arrival) then
    invalid_arg "Live.submit: arrival must be a finite non-negative float";
  if not (Float.is_finite size && size > 0.) then
    invalid_arg "Live.submit: size must be finite and positive";
  if arrival < c.last_arrival then
    invalid_arg
      (Printf.sprintf
         "Live.submit: arrivals must be non-decreasing (%g after %g)" arrival
         c.last_arrival);
  if arrival < c.now then
    invalid_arg
      (Printf.sprintf "Live.submit: arrival %g is in the simulated past (now = %g)" arrival
         c.now);
  let id = st.submitted in
  ring_reserve st.pending (st.pending.len + 1);
  ring_push st.pending ~arrival ~size;
  st.submitted <- id + 1;
  c.last_arrival <- arrival;
  id

(* Bulk submission: exactly the ring pushes [submit] would perform for
   the same jobs in the same order (bit-identical engine state,
   differentially pinned by test_serve), with the validation pass hoisted
   out in front.  The whole slice is checked before anything mutates, so
   a rejected batch leaves the engine untouched — the serving layer
   answers ERR off that atomicity without corrupting the session
   ([rr_cli serve]'s BATCH frame lands here). *)
let submit_batch t ~arrivals ~sizes ?(off = 0) ?len () =
  let st = t.st in
  let c = st.clk in
  let len = match len with Some l -> l | None -> Array.length arrivals - off in
  if
    off < 0 || len < 0
    || off + len > Array.length arrivals
    || off + len > Array.length sizes
  then invalid_arg "Live.submit_batch: off/len out of bounds";
  let last = ref c.last_arrival in
  for i = off to off + len - 1 do
    let arrival = Array.unsafe_get arrivals i and size = Array.unsafe_get sizes i in
    if not (Floatx.is_finite_nonneg arrival) then
      invalid_arg "Live.submit: arrival must be a finite non-negative float";
    if not (Float.is_finite size && size > 0.) then
      invalid_arg "Live.submit: size must be finite and positive";
    if arrival < !last then
      invalid_arg
        (Printf.sprintf "Live.submit: arrivals must be non-decreasing (%g after %g)" arrival
           !last);
    if arrival < c.now then
      invalid_arg
        (Printf.sprintf "Live.submit: arrival %g is in the simulated past (now = %g)" arrival
           c.now);
    last := arrival
  done;
  let r = st.pending in
  ring_reserve r (r.len + len);
  for i = off to off + len - 1 do
    ring_push r ~arrival:(Array.unsafe_get arrivals i) ~size:(Array.unsafe_get sizes i)
  done;
  let first = st.submitted in
  st.submitted <- first + len;
  if len > 0 then c.last_arrival <- arrivals.(off + len - 1);
  first

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Same float as Simulator.completion_threshold, inlined like the closed
   cores do. *)
let[@inline] threshold size = 1e-9 *. (1. +. size)

let alive_core (st : state) =
  match st.core with
  | Eq h -> Heap.Scalar2.length h
  | Idx i -> i.n_run + Heap.Scalar3.length i.waiting
  | Setf s -> s.setf_alive
  | Cls c -> Class_engine.alive c
  | Hyb h -> Hybrid_engine.alive h
  | Bud b -> Budget_engine.alive b

let[@inline] next_pending (st : state) =
  let r = st.pending in
  if r.len > 0 then r.arrivals.(r.head) else Float.infinity

let[@inline] bump_events (st : state) =
  st.events <- st.events + 1;
  if st.events > st.max_events then
    raise (Simulator.Event_limit_exceeded { limit = st.max_events; now = st.clk.now })

(* ------------------------------------------------------------------ *)
(* Admission (mirrors each closed core's admit)                        *)
(* ------------------------------------------------------------------ *)

let[@inline] slot_key (i : idx_state) x =
  Index_engine.job_key i.kind ~arrival:i.r_arrival.(x) ~size:i.r_size.(x)
    ~remaining:i.r_remaining.(x)

let[@inline] fill (i : idx_state) x ~id ~arrival ~size ~remaining =
  i.r_id.(x) <- id;
  i.r_arrival.(x) <- arrival;
  i.r_size.(x) <- size;
  i.r_remaining.(x) <- remaining

let[@inline] idx_push_waiting (i : idx_state) ~id ~arrival ~size ~remaining =
  Heap.Scalar3.add i.waiting
    ~key:(Index_engine.job_key i.kind ~arrival ~size ~remaining)
    ~aux1:arrival ~aux2:size ~aux3:remaining id

(* Slot [n_run] takes the best waiting job. *)
let[@inline] idx_pop_into_free_slot (i : idx_state) =
  let arrival = Heap.Scalar3.min_aux1_exn i.waiting in
  let size = Heap.Scalar3.min_aux2_exn i.waiting in
  let remaining = Heap.Scalar3.min_aux3_exn i.waiting in
  let id = Heap.Scalar3.pop_exn i.waiting in
  fill i i.n_run ~id ~arrival ~size ~remaining;
  i.n_run <- i.n_run + 1

let[@inline] idx_admit machines (i : idx_state) ~id ~arrival ~size =
  if i.n_run < machines then begin
    fill i i.n_run ~id ~arrival ~size ~remaining:size;
    i.n_run <- i.n_run + 1
  end
  else begin
    (* Preempt the weakest running job iff the newcomer beats it under
       (key, id) — same tournament as index_core.admit. *)
    let w = ref 0 in
    for x = 1 to machines - 1 do
      let ka = slot_key i x and kb = slot_key i !w in
      if ka > kb || (ka = kb && i.r_id.(x) > i.r_id.(!w)) then w := x
    done;
    let w = !w in
    let kj = Index_engine.job_key i.kind ~arrival ~size ~remaining:size in
    let ks = slot_key i w in
    if kj < ks || (kj = ks && id < i.r_id.(w)) then begin
      idx_push_waiting i ~id:i.r_id.(w) ~arrival:i.r_arrival.(w) ~size:i.r_size.(w)
        ~remaining:i.r_remaining.(w);
      fill i w ~id ~arrival ~size ~remaining:size
    end
    else idx_push_waiting i ~id ~arrival ~size ~remaining:size
  end

let[@inline] level_at (g : group) ~speed now =
  g.lv.level +. (g.lv.grate *. speed *. (now -. g.lv.t_upd))

(* Unlink an emptied group and park it on the free list. *)
let setf_unlink (s : setf_state) (g : group) =
  (match g.prev with None -> s.first <- g.next | Some p -> p.next <- g.next);
  (match g.next with None -> () | Some nx -> nx.prev <- g.prev);
  Heap.Scalar2.clear g.members;
  g.prev <- None;
  g.next <- s.spare;
  s.spare <- g.self

let setf_take_group (s : setf_state) =
  match s.spare with
  | Some g ->
      s.spare <- g.next;
      g
  | None ->
      let rec g =
        {
          lv = { level = 0.; t_upd = 0.; grate = 0. };
          members = Heap.Scalar2.create ();
          prev = None;
          next = None;
          self = Some g;
        }
      in
      g

let[@inline] setf_admit ~speed ~now (s : setf_state) ~id ~arrival ~size =
  (match s.first with
  | Some g when Index_engine.same_attained 0. (level_at g ~speed now) ->
      Heap.Scalar2.add g.members ~key:size ~aux1:arrival ~aux2:0. id
  | _ ->
      let g = setf_take_group s in
      g.lv.level <- 0.;
      g.lv.t_upd <- now;
      g.lv.grate <- 0.;
      g.prev <- None;
      g.next <- s.first;
      Heap.Scalar2.add g.members ~key:size ~aux1:arrival ~aux2:0. id;
      (match s.first with None -> () | Some old -> old.prev <- g.self);
      s.first <- g.self);
  s.setf_alive <- s.setf_alive + 1

(* Admit every pending job whose arrival is at or before [now]. *)
let admit_upto (st : state) =
  let r = st.pending and c = st.clk in
  while r.len > 0 && r.arrivals.(r.head) <= c.now do
    let arrival = r.arrivals.(r.head) and size = r.sizes.(r.head) in
    let id = st.submitted - r.len in
    ring_drop r;
    st.rates_dirty <- true;
    (match st.core with
    | Eq h -> Heap.Scalar2.add h ~key:(c.vsrv +. size) ~aux1:arrival ~aux2:size id
    | Idx i -> idx_admit st.machines i ~id ~arrival ~size
    | Setf s -> setf_admit ~speed:st.speed ~now:c.now s ~id ~arrival ~size
    | Cls e -> Class_engine.admit e ~id ~arrival ~size
    | Hyb h -> Hybrid_engine.admit h ~id ~arrival ~size
    | Bud b -> Budget_engine.admit b ~id ~arrival ~size);
    let a = alive_core st in
    if a > st.max_alive then st.max_alive <- a
  done

(* ------------------------------------------------------------------ *)
(* The incremental event loop                                          *)
(* ------------------------------------------------------------------ *)

(* Each [*_step] advances the state across one inter-event interval or up
   to [target], whichever comes first.  It returns [true] when a full
   event was processed (so the loop should continue) and [false] when the
   horizon was reached, and mirrors one iteration of the matching closed
   core's while loop. *)

let[@inline] eq_retire (t : t) h =
  let id = Heap.Scalar2.min_val_exn h in
  let arrival = Heap.Scalar2.min_aux1_exn h in
  ignore (Heap.Scalar2.pop_exn h : int);
  complete t ~id ~arrival

let eq_step (t : t) h ~target =
  let st = t.st in
  let c = st.clk in
  let n_alive = Heap.Scalar2.length h in
  let share = Floatx.fmin 1. (Float.of_int st.machines /. Float.of_int n_alive) in
  let rate = share *. st.speed in
  let t_complete = c.now +. ((Heap.Scalar2.min_key_exn h -. c.vsrv) /. rate) in
  let next_arrival = next_pending st in
  let is_completion = not (next_arrival < t_complete) in
  let t_next = if is_completion then t_complete else next_arrival in
  if t_next > target then begin
    (* Horizon splits the interval: advance the virtual clock to
       [target] and stop; no event fires. *)
    c.vsrv <- c.vsrv +. (rate *. (target -. c.now));
    c.now <- target;
    false
  end
  else begin
    bump_events st;
    c.vsrv <- c.vsrv +. (rate *. (t_next -. c.now));
    c.now <- t_next;
    if is_completion then eq_retire t h;
    while
      (not (Heap.Scalar2.is_empty h))
      && Heap.Scalar2.min_key_exn h -. c.vsrv <= threshold (Heap.Scalar2.min_aux2_exn h)
    do
      eq_retire t h
    done;
    admit_upto st;
    true
  end

let idx_step (t : t) (i : idx_state) ~target =
  let st = t.st in
  let c = st.clk in
  let speed = st.speed in
  let t_complete = ref Float.infinity in
  for x = 0 to i.n_run - 1 do
    let cand = c.now +. (i.r_remaining.(x) /. speed) in
    if cand < !t_complete then t_complete := cand
  done;
  let next_arrival = next_pending st in
  let t_next = if next_arrival < !t_complete then next_arrival else !t_complete in
  if t_next > target then begin
    let dt = target -. c.now in
    for x = 0 to i.n_run - 1 do
      i.r_remaining.(x) <- i.r_remaining.(x) -. (speed *. dt)
    done;
    c.now <- target;
    false
  end
  else begin
    bump_events st;
    let dt = t_next -. c.now in
    for x = 0 to i.n_run - 1 do
      i.r_remaining.(x) <- i.r_remaining.(x) -. (speed *. dt)
    done;
    c.now <- t_next;
    (* Retire finished slots (the last running slot moves into the
       retiring one, iterating downwards). *)
    for x = i.n_run - 1 downto 0 do
      if i.r_remaining.(x) <= threshold i.r_size.(x) then begin
        complete t ~id:i.r_id.(x) ~arrival:i.r_arrival.(x);
        i.n_run <- i.n_run - 1;
        let l = i.n_run in
        if x < l then
          fill i x ~id:i.r_id.(l) ~arrival:i.r_arrival.(l) ~size:i.r_size.(l)
            ~remaining:i.r_remaining.(l)
      end
    done;
    while i.n_run < st.machines && not (Heap.Scalar3.is_empty i.waiting) do
      idx_pop_into_free_slot i
    done;
    admit_upto st;
    true
  end

(* SETF water-filling from the front (mirrors setf_core's refill). *)
let setf_refill (st : state) (s : setf_state) =
  let speed = st.speed and now = st.clk.now in
  let left = ref (Float.of_int st.machines) in
  let cur = ref s.first in
  let walking = ref true in
  while !walking do
    match !cur with
    | None -> walking := false
    | Some g ->
        let lv = g.lv in
        lv.level <- level_at g ~speed now;
        lv.t_upd <- now;
        if !left > 0. then begin
          let cnt = Float.of_int (Heap.Scalar2.length g.members) in
          let r = Floatx.fmin 1. (!left /. cnt) in
          lv.grate <- r;
          left := if r < 1. then 0. else !left -. cnt;
          cur := g.next
        end
        else if lv.grate > 0. then begin
          lv.grate <- 0.;
          cur := g.next
        end
        else walking := false
  done

(* Earliest within-group completion or adjacent catch-up in the advancing
   prefix, into [clk.t_next]; [infinity] when nothing advances (empty
   system). *)
let setf_scan (st : state) (s : setf_state) =
  let speed = st.speed and now = st.clk.now in
  let t_next = ref Float.infinity in
  let cur = ref s.first in
  let walking = ref true in
  while !walking do
    match !cur with
    | Some g when g.lv.grate > 0. ->
        let cand =
          now +. ((Heap.Scalar2.min_key_exn g.members -. g.lv.level) /. (g.lv.grate *. speed))
        in
        if cand < !t_next then t_next := cand;
        (match g.next with
        | Some h ->
            let closing = (g.lv.grate -. h.lv.grate) *. speed in
            let gap = level_at h ~speed now -. g.lv.level in
            if closing > 0. && gap > 0. then begin
              let tc = now +. (gap /. closing) in
              if tc < !t_next then t_next := tc
            end
        | None -> ());
        cur := g.next
    | _ -> walking := false
  done;
  st.clk.t_next <- !t_next

let setf_step (t : t) (s : setf_state) ~target =
  let st = t.st in
  let c = st.clk in
  let speed = st.speed in
  (* Rates reflect the structure left by the previous event. *)
  setf_refill st s;
  setf_scan st s;
  let next_arrival = next_pending st in
  let t_next = if next_arrival < c.t_next then next_arrival else c.t_next in
  if t_next > target then begin
    (* Levels are lazy [(level, t_upd, grate)]; no event fires in
       (now, target], so moving the clock is the whole advance. *)
    c.now <- target;
    false
  end
  else begin
    bump_events st;
    let dt = t_next -. c.now in
    (* Advance the prefix to [t_next] (materializing levels there). *)
    let cur = ref s.first in
    let walking = ref true in
    while !walking do
      match !cur with
      | Some g when g.lv.grate > 0. ->
          g.lv.level <- g.lv.level +. (g.lv.grate *. speed *. dt);
          g.lv.t_upd <- t_next;
          cur := g.next
      | _ -> walking := false
    done;
    c.now <- t_next;
    (* Retire every member whose residual crossed the completion
       threshold — the cascade pops in (size, id) order. *)
    cur := s.first;
    walking := true;
    while !walking do
      match !cur with
      | Some g when g.lv.grate > 0. ->
          let nxt = g.next in
          while
            (not (Heap.Scalar2.is_empty g.members))
            && Heap.Scalar2.min_key_exn g.members -. g.lv.level
               <= threshold (Heap.Scalar2.min_key_exn g.members)
          do
            let arrival = Heap.Scalar2.min_aux1_exn g.members in
            let id = Heap.Scalar2.pop_exn g.members in
            complete t ~id ~arrival;
            s.setf_alive <- s.setf_alive - 1
          done;
          if Heap.Scalar2.is_empty g.members then setf_unlink s g;
          cur := nxt
      | _ -> walking := false
    done;
    (* Catch-ups: an advancing group that reached its neighbour's level
       merges into it, small heap into large. *)
    let now = c.now in
    cur := s.first;
    walking := true;
    while !walking do
      match !cur with
      | Some g when g.lv.grate > 0. -> (
          match g.next with
          | Some h when Index_engine.same_attained g.lv.level (level_at h ~speed now) ->
              let lvl = level_at h ~speed now in
              let into_h = Heap.Scalar2.length g.members <= Heap.Scalar2.length h.members in
              let src = if into_h then g else h and keep = if into_h then h else g in
              Heap.Scalar2.transfer ~src:src.members keep.members;
              keep.lv.level <- lvl;
              keep.lv.t_upd <- now;
              keep.lv.grate <- Floatx.fmax g.lv.grate h.lv.grate;
              setf_unlink s src;
              cur := keep.self
          | _ -> cur := g.next)
      | _ -> walking := false
    done;
    admit_upto st;
    true
  end

(* One step of a classified kernel, through the same primitives the
   closed {!Kernel} loop drives: refresh the cached decision only when
   the state changed since the last event (admission, settle, idle jump)
   — a pure horizon split keeps the rates, exactly like the general
   loop's allocate-once-per-event discipline.  The kernel's clock
   mirrors [now] around each call. *)
let kernel_step (type s) (t : t) (ops : s Kernel.ops) (core : s) ~target =
  let st = t.st in
  let c = st.clk in
  let clk = ops.clock_of core in
  clk.now <- c.now;
  if st.rates_dirty then begin
    ops.refresh core;
    st.rates_dirty <- false
  end;
  ops.next_internal core;
  let next_arrival = next_pending st in
  if next_arrival < clk.t_next then clk.t_next <- next_arrival;
  if clk.t_next > target then begin
    if target -. c.now > 0. then begin
      clk.t_next <- target;
      ops.advance core
    end;
    c.now <- target;
    false
  end
  else begin
    bump_events st;
    if clk.t_next -. c.now > 0. then ops.advance core;
    c.now <- clk.t_next;
    clk.now <- c.now;
    ops.settle core t.out;
    admit_upto st;
    st.rates_dirty <- true;
    true
  end

let step (t : t) ~target =
  let st = t.st in
  if alive_core st = 0 then begin
    let c = st.clk in
    let a = next_pending st in
    if st.pending.len > 0 && a <= target then begin
      (* Idle period: jump straight to the next arrival. *)
      bump_events st;
      c.now <- a;
      admit_upto st;
      true
    end
    else begin
      (* Idle through the whole horizon.  An infinite horizon (drain)
         leaves [now] at the makespan instead of consuming it. *)
      if Float.is_finite target && target > c.now then c.now <- target;
      false
    end
  end
  else
    match st.core with
    | Eq h -> eq_step t h ~target
    | Idx i -> idx_step t i ~target
    | Setf s -> setf_step t s ~target
    | Cls e -> kernel_step t Class_engine.ops e ~target
    | Hyb h -> kernel_step t Hybrid_engine.ops h ~target
    | Bud b -> kernel_step t Budget_engine.ops b ~target

let advance_until t ~target =
  while step t ~target do
    ()
  done

let advance t target =
  if Float.is_nan target then invalid_arg "Live.advance: time must not be NaN";
  if Float.is_finite target && target > t.st.clk.now then advance_until t ~target
(* A target at or before [now] is a no-op — time never rewinds.  An
   infinite target is treated as drain. *)
  else if target = Float.infinity then advance_until t ~target:Float.infinity

let drain t = advance_until t ~target:Float.infinity

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let query (t : t) =
  let st = t.st in
  let c = st.clk in
  let n = st.completed in
  let power_sum = Rr_util.Kahan.total st.ps in
  {
    submitted = st.submitted;
    completed = n;
    alive = alive_core st;
    pending = st.pending.len;
    now = c.now;
    events = st.events;
    makespan = c.makespan;
    max_alive = st.max_alive;
    mean_flow = Rr_util.Welford.mean st.moments;
    max_flow = c.max_flow;
    power_sum;
    norm = (if n = 0 then 0. else power_sum ** (1. /. Float.of_int st.k));
    p50 = Rr_util.P2.value st.p50;
    p90 = Rr_util.P2.value st.p90;
    p99 = Rr_util.P2.value st.p99;
  }

let now t = t.st.clk.now
let spec t = t.st.spec
let machines t = t.st.machines
let speed t = t.st.speed
let k t = t.st.k

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

(* [state] is closure-free, so Marshal round-trips it; the default flags
   keep sharing on, which is what resolves the SETF group list's
   prev/next cycles.  A snapshot stores the pending ring at exact size and
   no SETF free list, so idle capacity costs no bytes; both regrow on
   demand after a restore.  A short magic header versions the format so a
   junk file — or a snapshot of an older state layout — fails loudly
   instead of segfaulting the unmarshaller. *)

let snapshot_magic = "rr-live-snapshot-v4\n"

let to_bytes t =
  let st = t.st in
  let core = match st.core with Setf s -> Setf { s with spare = None } | core -> core in
  let st = { st with core; pending = ring_compact st.pending } in
  Bytes.cat (Bytes.of_string snapshot_magic) (Marshal.to_bytes st [])

let of_bytes ?sink b =
  let m = String.length snapshot_magic in
  if
    Bytes.length b < m
    || not (String.equal (Bytes.sub_string b 0 m) snapshot_magic)
  then failwith "Live.of_bytes: not a live-engine snapshot";
  let st : state = Marshal.from_bytes b m in
  wrap st sink

let save t path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc (to_bytes t))

let load ?sink path =
  In_channel.with_open_bin path (fun ic ->
      match In_channel.input_all ic with
      | s -> of_bytes ?sink (Bytes.of_string s))
