(* Preemption-budget SRPT kernel ({!Policy_class.Preempt_budget}).  See
   budget_engine.mli.

   SRPT, except each job may be evicted from a machine at most [budget]
   times; an incumbent whose eviction count has reached the budget is
   immune and runs to completion.  The rule is history-dependent, so the
   kernel replays exactly the transitions the mirror policy makes, in
   the same order at every event:

     1. completed jobs leave their machines ([settle]),
     2. free machines are refilled from the *waiting* set, best
        (remaining, id) first — before any same-instant arrival is
        considered (completion beats arrival),
     3. fresh arrivals, in (arrival, id) order, take a free machine if
        any, else challenge the weakest evictable incumbent (max
        (remaining, id) among those under budget) and evict it — bumping
        its count — iff they beat it under (remaining, id).

   Waiting jobs never run, so their remaining work is frozen and the
   waiting heap needs no staleness handling: a job's entry is popped
   when it is seated and re-pushed (with its current remaining) when it
   is evicted.  A job's eviction count travels with it — a column of the
   running slots, a satellite of its waiting entry — so no side table is
   looked up per event.  Each event costs O(m + log alive). *)

module Heap = Rr_util.Heap
module Source = Simulator.Source

type state = {
  budget : int;
  machines : int;
  speed : float;
  clk : Kernel.clock;
  (* Running jobs, packed in [0, n_run), one column per field: flat
     arrays, so the per-event stores into [r_remaining] allocate
     nothing. *)
  r_id : int array;
  r_evictions : int array;
  r_arrival : float array;
  r_size : float array;
  r_remaining : float array;
  mutable n_run : int;
  waiting : Heap.Scalar3.t;
      (* key = remaining, val = id, aux1 = arrival, aux2 = size,
         aux3 = evictions so far *)
  (* Arrivals not yet processed by [refresh], in admission order. *)
  mutable f_id : int array;
  mutable f_arrival : float array;
  mutable f_size : float array;
  mutable n_fresh : int;
  mutable alive : int;
}

(* The waiting heap may be caller-supplied (the closed runs borrow it
   from the per-domain arena); {!create} allocates a fresh one for
   long-lived states like {!Live}. *)
let create_in ~waiting ~machines ~speed ~budget =
  if machines < 1 then invalid_arg "Budget_engine.create: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Budget_engine.create: speed must be finite and positive";
  (match Policy_class.validate (Policy_class.Preempt_budget { budget }) with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Budget_engine.create: " ^ msg));
  {
    budget;
    machines;
    speed;
    clk = Kernel.clock ();
    r_id = Array.make machines (-1);
    r_evictions = Array.make machines 0;
    r_arrival = Array.make machines 0.;
    r_size = Array.make machines 0.;
    r_remaining = Array.make machines 0.;
    n_run = 0;
    waiting;
    f_id = [||];
    f_arrival = [||];
    f_size = [||];
    n_fresh = 0;
    alive = 0;
  }

let create ~machines ~speed ~budget =
  create_in ~waiting:(Heap.Scalar3.create ()) ~machines ~speed ~budget

let alive st = st.alive
let clock st = st.clk

let[@inline] threshold size = 1e-9 *. (1. +. size)

let grow_fresh st =
  let cap = Array.length st.f_id in
  let ncap = Int.max 16 (2 * cap) in
  let f_id = Array.make ncap 0 and f_arrival = Array.make ncap 0. in
  let f_size = Array.make ncap 0. in
  Array.blit st.f_id 0 f_id 0 cap;
  Array.blit st.f_arrival 0 f_arrival 0 cap;
  Array.blit st.f_size 0 f_size 0 cap;
  st.f_id <- f_id;
  st.f_arrival <- f_arrival;
  st.f_size <- f_size

let[@inline] admit_job st id arrival size =
  if st.n_fresh = Array.length st.f_id then grow_fresh st;
  st.f_id.(st.n_fresh) <- id;
  st.f_arrival.(st.n_fresh) <- arrival;
  st.f_size.(st.n_fresh) <- size;
  st.n_fresh <- st.n_fresh + 1;
  st.alive <- st.alive + 1

let admit st ~id ~arrival ~size = admit_job st id arrival size

let admit_head st src =
  admit_job st (Source.head_id src) (Source.head_arrival src) (Source.head_size src)

let[@inline] seat st i ~id ~arrival ~size ~remaining ~evictions =
  st.r_id.(i) <- id;
  st.r_arrival.(i) <- arrival;
  st.r_size.(i) <- size;
  st.r_remaining.(i) <- remaining;
  st.r_evictions.(i) <- evictions

let pop_into_free_slot st =
  let w = st.waiting in
  let remaining = Heap.Scalar3.min_key_exn w in
  let arrival = Heap.Scalar3.min_aux1_exn w in
  let size = Heap.Scalar3.min_aux2_exn w in
  let evictions = int_of_float (Heap.Scalar3.min_aux3_exn w) in
  let id = Heap.Scalar3.pop_exn w in
  seat st st.n_run ~id ~arrival ~size ~remaining ~evictions;
  st.n_run <- st.n_run + 1

(* Mirror of one [allocate] call: refill from the waiting set, then
   process buffered arrivals in admission order. *)
let refresh st =
  while st.n_run < st.machines && Heap.Scalar3.length st.waiting > 0 do
    pop_into_free_slot st
  done;
  for f = 0 to st.n_fresh - 1 do
    let id = st.f_id.(f) and arrival = st.f_arrival.(f) and size = st.f_size.(f) in
    if st.n_run < st.machines then begin
      seat st st.n_run ~id ~arrival ~size ~remaining:size ~evictions:0;
      st.n_run <- st.n_run + 1
    end
    else begin
      (* Weakest evictable incumbent under (remaining, id). *)
      let weak = ref (-1) in
      for i = 0 to st.n_run - 1 do
        if st.r_evictions.(i) < st.budget then
          if
            !weak < 0
            || st.r_remaining.(i) > st.r_remaining.(!weak)
            || (st.r_remaining.(i) = st.r_remaining.(!weak) && st.r_id.(i) > st.r_id.(!weak))
          then weak := i
      done;
      let w = !weak in
      if w >= 0 && (size < st.r_remaining.(w) || (size = st.r_remaining.(w) && id < st.r_id.(w)))
      then begin
        Heap.Scalar3.add st.waiting ~key:st.r_remaining.(w) ~aux1:st.r_arrival.(w)
          ~aux2:st.r_size.(w)
          ~aux3:(Float.of_int (st.r_evictions.(w) + 1))
          st.r_id.(w);
        seat st w ~id ~arrival ~size ~remaining:size ~evictions:0
      end
      else Heap.Scalar3.add st.waiting ~key:size ~aux1:arrival ~aux2:size ~aux3:0. id
    end
  done;
  st.n_fresh <- 0

(* The policy never emits a horizon: internal events are completions of
   the running set (rate 1 each). *)
let next_internal st =
  let now = st.clk.now in
  let t = ref Float.infinity in
  for i = 0 to st.n_run - 1 do
    let c = now +. (st.r_remaining.(i) /. st.speed) in
    if c < !t then t := c
  done;
  st.clk.t_next <- !t

let advance st =
  let adv = st.speed *. (st.clk.t_next -. st.clk.now) in
  for i = 0 to st.n_run - 1 do
    st.r_remaining.(i) <- st.r_remaining.(i) -. adv
  done

let settle st out =
  for i = st.n_run - 1 downto 0 do
    if st.r_remaining.(i) <= threshold st.r_size.(i) then begin
      Kernel.emit st.clk out st.r_id.(i) st.r_arrival.(i);
      st.alive <- st.alive - 1;
      (* Pack the running prefix: the last slot moves into the retiring
         one.  Indices below [i] are untouched, so the downward sweep
         stays valid. *)
      let last = st.n_run - 1 in
      if i <> last then
        seat st i ~id:st.r_id.(last) ~arrival:st.r_arrival.(last) ~size:st.r_size.(last)
          ~remaining:st.r_remaining.(last) ~evictions:st.r_evictions.(last);
      st.n_run <- last
    end
  done

let trace_entries st =
  let entries = Array.make st.alive { Trace.job = -1; arrival = 0.; rate = 0. } in
  let next = ref 0 in
  let add id arrival rate =
    entries.(!next) <- { Trace.job = id; arrival; rate };
    incr next
  in
  for i = 0 to st.n_run - 1 do
    add st.r_id.(i) st.r_arrival.(i) 1.
  done;
  Heap.Scalar3.iter (fun _key id arrival _size _evictions -> add id arrival 0.) st.waiting;
  for f = 0 to st.n_fresh - 1 do
    add st.f_id.(f) st.f_arrival.(f) 0.
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

let in_arena ~machines ~speed ~budget scratch =
  create_in ~waiting:(Arena.scalar3_of scratch) ~machines ~speed ~budget

let no_sink : Simulator.sink = fun ~id:_ ~arrival:_ ~flow:_ -> ()

let run ?(record_trace = false) ?(speed = 1.) ?(max_events = 10_000_000) ?(sink = no_sink)
    ~machines ~budget jobs =
  Kernel.run ~record_trace ~speed ~max_events ~sink ~machines
    (in_arena ~machines ~speed ~budget)
    ops jobs

let run_stream ?(speed = 1.) ?(max_events = 10_000_000) ~machines ~budget ~sink source =
  Kernel.run_stream ~speed ~max_events ~sink ~machines
    (in_arena ~machines ~speed ~budget)
    ops source
