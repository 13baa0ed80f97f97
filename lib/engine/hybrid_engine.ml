(* Starvation-hybrid kernel: SRPT for "fresh" jobs, absolute FCFS
   priority for "starved" ones.  See hybrid_engine.mli.

   A job's starvation instant [starve = arrival + theta * size]
   ({!Policy_class.starve_time}) is fixed at admission, so the priority
   order is piecewise-static: between promotion instants the served set
   is the top-m under a two-tier static order (starved jobs by (arrival,
   id), then fresh jobs by (remaining, id), with remaining frozen while
   waiting).  The kernel therefore runs like a priority-index engine —
   <= m running slots plus binary heaps for the waiting jobs — with one
   extra event source: a promotion heap keyed by starvation instants.
   Promotions of *waiting* fresh jobs can preempt; promotions of
   *running* fresh jobs only improve their rank, but the mirror policy
   still re-evaluates at every starvation instant (its horizon is the
   minimum over all fresh jobs), so the kernel keeps those no-op events
   too and the two event sequences — hence the floats — coincide
   exactly.

   Per-job state lives in a pool of flat arrays indexed by a recycled
   slot (no hash table, no per-job record with boxed float fields).
   Heap entries carry the job id as the payload — the (key, id) order
   the mirror policy ranks by — and the pool slot as a satellite; an
   entry is live iff its slot still holds that id in that tier.  The
   check is by id, never by physical identity, so it survives a
   [Marshal] round trip of a live snapshot.  Entries go stale when a job
   is seated, promoted, or completed; stale tops are lazily popped (a
   job re-enters a heap with a key no larger than its old entries, so
   the live entry always surfaces first). *)

module Heap = Rr_util.Heap
module Source = Simulator.Source

(* [where] tags *)
let w_running = 0

let w_starved = 1

let w_fresh = 2

type scalars = { mutable horizon : float }

type state = {
  theta : float;
  machines : int;
  speed : float;
  clk : Kernel.clock;
  sc : scalars;
  (* The job pool, one entry per slot; [ids.(s) = -1] marks a free
     slot.  Arrays grow by doubling and free slots are reused. *)
  mutable ids : int array;
  mutable where : int array;
  mutable arrival : float array;
  mutable size : float array;
  mutable starve : float array;
  mutable remaining : float array;
  mutable free : int array;  (* stack of free slots *)
  mutable n_free : int;
  mutable alive : int;
  running : int array;  (* pool slot per machine; -1 when idle *)
  (* Heaps: val = job id, aux1 = pool slot (aux2 unused). *)
  starved : Heap.Scalar2.t;  (* waiting starved: key = arrival *)
  fresh : Heap.Scalar2.t;  (* waiting fresh: key = remaining at push *)
  promo : Heap.Scalar2.t;  (* pending promotions: key = starve *)
}

(* The three priority heaps may be caller-supplied (the closed core
   borrows them from the per-domain arena so back-to-back runs reuse
   their capacity); {!create} allocates fresh ones for long-lived states
   like {!Live}, which outlive any arena borrow. *)
let create_in ~starved ~fresh ~promo ~machines ~speed ~theta =
  if machines < 1 then invalid_arg "Hybrid_engine.create: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Hybrid_engine.create: speed must be finite and positive";
  (match Policy_class.validate (Policy_class.Starvation_hybrid { theta }) with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Hybrid_engine.create: " ^ msg));
  {
    theta;
    machines;
    speed;
    clk = Kernel.clock ();
    sc = { horizon = Float.infinity };
    ids = [||];
    where = [||];
    arrival = [||];
    size = [||];
    starve = [||];
    remaining = [||];
    free = [||];
    n_free = 0;
    alive = 0;
    running = Array.make machines (-1);
    starved;
    fresh;
    promo;
  }

let create ~machines ~speed ~theta =
  create_in
    ~starved:(Heap.Scalar2.create ())
    ~fresh:(Heap.Scalar2.create ())
    ~promo:(Heap.Scalar2.create ())
    ~machines ~speed ~theta

let alive st = st.alive
let clock st = st.clk

let[@inline] threshold size = 1e-9 *. (1. +. size)

(* Double the pool; the new slots go on the free stack, lowest on top. *)
let grow st =
  let cap = Array.length st.ids in
  let ncap = Int.max 16 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  st.ids <- extend st.ids (-1);
  st.where <- extend st.where 0;
  st.arrival <- extend st.arrival 0.;
  st.size <- extend st.size 0.;
  st.starve <- extend st.starve 0.;
  st.remaining <- extend st.remaining 0.;
  st.free <- extend st.free 0;
  for s = ncap - 1 downto cap do
    st.free.(st.n_free) <- s;
    st.n_free <- st.n_free + 1
  done

let[@inline] push heap ~key st slot =
  Heap.Scalar2.add heap ~key ~aux1:(Float.of_int slot) ~aux2:0. st.ids.(slot)

let[@inline] top_slot heap = int_of_float (Heap.Scalar2.min_aux1_exn heap)

let[@inline] admit_job st id arrival size =
  if st.n_free = 0 then grow st;
  st.n_free <- st.n_free - 1;
  let s = st.free.(st.n_free) in
  st.ids.(s) <- id;
  st.where.(s) <- w_fresh;
  st.arrival.(s) <- arrival;
  st.size.(s) <- size;
  st.starve.(s) <- Policy_class.starve_time ~theta:st.theta ~arrival ~size;
  st.remaining.(s) <- size;
  st.alive <- st.alive + 1;
  push st.fresh ~key:size st s;
  push st.promo ~key:st.starve.(s) st s

let admit st ~id ~arrival ~size = admit_job st id arrival size

let admit_head st src =
  admit_job st (Source.head_id src) (Source.head_arrival src) (Source.head_size src)

(* Strict two-tier order at [clk.now]: starved (arrival, id) before
   fresh (remaining, id) — the mirror policy's comparator — over pool
   slots [a] and [b]. *)
let beats st a b =
  let now = st.clk.now in
  let sa = now >= st.starve.(a) and sb = now >= st.starve.(b) in
  match (sa, sb) with
  | true, false -> true
  | false, true -> false
  | true, true ->
      st.arrival.(a) < st.arrival.(b)
      || (st.arrival.(a) = st.arrival.(b) && st.ids.(a) < st.ids.(b))
  | false, false ->
      st.remaining.(a) < st.remaining.(b)
      || (st.remaining.(a) = st.remaining.(b) && st.ids.(a) < st.ids.(b))

(* Is the heap's top entry the live one for its job in tier [which]? *)
let[@inline] top_live st heap which =
  let s = top_slot heap in
  st.ids.(s) = Heap.Scalar2.min_val_exn heap && st.where.(s) = which

let drain_stale st heap which =
  while Heap.Scalar2.length heap > 0 && not (top_live st heap which) do
    ignore (Heap.Scalar2.pop_exn heap : int)
  done

(* Pool slot of the best waiting job, starved tier first; -1 when all
   wait heaps are (effectively) empty. *)
let best_waiting st =
  drain_stale st st.starved w_starved;
  if Heap.Scalar2.length st.starved > 0 then top_slot st.starved
  else begin
    drain_stale st st.fresh w_fresh;
    if Heap.Scalar2.length st.fresh > 0 then top_slot st.fresh else -1
  end

let seat st m s =
  (* Pop the live heap entry (it is the top of its heap by
     construction: [best_waiting] drained the stale prefix). *)
  if st.where.(s) = w_starved then ignore (Heap.Scalar2.pop_exn st.starved : int)
  else ignore (Heap.Scalar2.pop_exn st.fresh : int);
  st.where.(s) <- w_running;
  st.running.(m) <- s

let unseat st m =
  let s = st.running.(m) in
  if s >= 0 then begin
    if st.clk.now >= st.starve.(s) then begin
      st.where.(s) <- w_starved;
      push st.starved ~key:st.arrival.(s) st s
    end
    else begin
      st.where.(s) <- w_fresh;
      push st.fresh ~key:st.remaining.(s) st s
    end;
    st.running.(m) <- -1
  end

(* Mirror of one [allocate] call at [clk.now]: process due promotions,
   then restore the running set to the top-m of the current order, then
   recompute the horizon (minimum starvation instant over still-fresh
   jobs). *)
let refresh st =
  let now = st.clk.now in
  while Heap.Scalar2.length st.promo > 0 && Heap.Scalar2.min_key_exn st.promo <= now do
    let s = top_slot st.promo in
    let live = st.ids.(s) = Heap.Scalar2.min_val_exn st.promo in
    ignore (Heap.Scalar2.pop_exn st.promo : int);
    (* A waiting job crossed its threshold: move it to the starved tier
       (its old fresh-heap entry goes stale).  Running jobs' rank only
       improves in place; completed jobs' entries are stale. *)
    if live && st.where.(s) = w_fresh then begin
      st.where.(s) <- w_starved;
      push st.starved ~key:st.arrival.(s) st s
    end
  done;
  (* Fill free machines best-first. *)
  for m = 0 to st.machines - 1 do
    if st.running.(m) < 0 then begin
      let w = best_waiting st in
      if w >= 0 then seat st m w
    end
  done;
  (* Preempt while some waiting job outranks the weakest incumbent. *)
  let continue = ref true in
  while !continue do
    let w = best_waiting st in
    if w < 0 then continue := false
    else begin
      let weakest = ref (-1) in
      for m = 0 to st.machines - 1 do
        let s = st.running.(m) in
        if s >= 0 && (!weakest < 0 || beats st st.running.(!weakest) s) then weakest := m
      done;
      if !weakest >= 0 && beats st w st.running.(!weakest) then begin
        unseat st !weakest;
        seat st !weakest w
      end
      else continue := false
    end
  done;
  (* Undrained promotion keys are strictly in the future and belong to
     still-fresh jobs — except entries of jobs that completed fresh,
     which the mirror policy no longer sees: lazily drop those. *)
  while
    Heap.Scalar2.length st.promo > 0
    && st.ids.(top_slot st.promo) <> Heap.Scalar2.min_val_exn st.promo
  do
    ignore (Heap.Scalar2.pop_exn st.promo : int)
  done;
  st.sc.horizon <-
    (if Heap.Scalar2.length st.promo > 0 then Heap.Scalar2.min_key_exn st.promo
     else Float.infinity)

let next_internal st =
  let now = st.clk.now in
  let t = ref st.sc.horizon in
  for m = 0 to st.machines - 1 do
    let s = st.running.(m) in
    if s >= 0 then begin
      let c = now +. (st.remaining.(s) /. st.speed) in
      if c < !t then t := c
    end
  done;
  st.clk.t_next <- !t

let advance st =
  let adv = st.speed *. (st.clk.t_next -. st.clk.now) in
  for m = 0 to st.machines - 1 do
    let s = st.running.(m) in
    if s >= 0 then st.remaining.(s) <- st.remaining.(s) -. adv
  done

let settle st out =
  for m = 0 to st.machines - 1 do
    let s = st.running.(m) in
    if s >= 0 && st.remaining.(s) <= threshold st.size.(s) then begin
      Kernel.emit st.clk out st.ids.(s) st.arrival.(s);
      st.ids.(s) <- -1;
      st.free.(st.n_free) <- s;
      st.n_free <- st.n_free + 1;
      st.alive <- st.alive - 1;
      st.running.(m) <- -1
    end
  done

let trace_entries st =
  let entries = Array.make st.alive { Trace.job = -1; arrival = 0.; rate = 0. } in
  let next = ref 0 in
  Array.iteri
    (fun s id ->
      if id >= 0 then begin
        let rate = if st.where.(s) = w_running then 1. else 0. in
        entries.(!next) <- { Trace.job = id; arrival = st.arrival.(s); rate };
        incr next
      end)
    st.ids;
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

let in_arena ~machines ~speed ~theta scratch =
  create_in
    ~starved:(Arena.scalar2_of scratch)
    ~fresh:(Arena.scalar2_of scratch)
    ~promo:(Arena.scalar2_of scratch)
    ~machines ~speed ~theta

let no_sink : Simulator.sink = fun ~id:_ ~arrival:_ ~flow:_ -> ()

let run ?(record_trace = false) ?(speed = 1.) ?(max_events = 10_000_000) ?(sink = no_sink)
    ~machines ~theta jobs =
  Kernel.run ~record_trace ~speed ~max_events ~sink ~machines
    (in_arena ~machines ~speed ~theta)
    ops jobs

let run_stream ?(speed = 1.) ?(max_events = 10_000_000) ~machines ~theta ~sink source =
  Kernel.run_stream ~speed ~max_events ~sink ~machines
    (in_arena ~machines ~speed ~theta)
    ops source
