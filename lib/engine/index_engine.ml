(* Priority-index scheduling kernel: closed-form engines for the
   fixed-priority comparator policies (SRPT / SJF / FCFS) and a
   virtual-time cascade for SETF.  See index_engine.mli for the
   user-facing contract.

   The fixed-priority engines exploit that between events the served set
   is exactly the m alive jobs smallest under a per-job key that never
   crosses another job's key while both wait: remaining work only
   decreases for *served* jobs (SRPT), and size / arrival never change at
   all (SJF / FCFS).  So instead of re-sorting the alive set per event
   (the general loop's O(alive log alive) policy invocation), the engine
   keeps the <= m running jobs in a flat slot array scanned in O(m) and
   everything else in a binary heap ordered by (key, id) — each event
   costs O(m + log alive).

   Arithmetic is kept operation-for-operation identical to the general
   loop under rate 1 (completion candidate [now +. remaining /. speed],
   advance [remaining -. (speed *. dt)] since [1. *. x = x] exactly, the
   shared completion threshold, and the same completion-beats-arrival
   tie rule), so on the same event sequence the engines produce the same
   floats; the differential suite in test_simcore pins agreement to
   <= 1e-9 relative flow time. *)

module Heap = Rr_util.Heap
module Vec = Rr_util.Vec
module Source = Simulator.Source

type kind = Srpt | Sjf | Fcfs | Hdf of { alpha : float }

let kind_name = function Srpt -> "srpt" | Sjf -> "sjf" | Fcfs -> "fcfs" | Hdf _ -> "hdf"

let kind_of_key = function
  | Policy_class.Key_remaining -> Srpt
  | Policy_class.Key_size -> Sjf
  | Policy_class.Key_arrival -> Fcfs
  | Policy_class.Key_density { alpha } -> Hdf { alpha }

(* One expression per kind — the one {!Policy_class.static_key} computes
   for the kind's key, so both sides order jobs bit-identically — over a
   kind rather than a key descriptor (building [Hdf]'s descriptor would
   allocate one per call).  Closed and inlined, so the hot loops rank
   unboxed floats. *)
let[@inline] job_key kind ~arrival ~size ~remaining =
  match kind with
  | Srpt -> remaining
  | Sjf -> size
  | Fcfs -> arrival
  | Hdf { alpha } -> -.((size ** alpha) /. size)

let key_of_view kind (v : Policy.view) =
  match kind with
  | Srpt -> Policy.remaining_exn v
  | Sjf -> Policy.size_exn v
  | Fcfs -> v.Policy.arrival
  | Hdf { alpha } ->
      let size = Policy.size_exn v in
      -.((size ** alpha) /. size)

(* Shared with Rr_policies.Setf.same_group: attained-service levels within
   this (relative) tolerance count as one sharing group. *)
let[@inline] same_attained a b =
  Float.abs (a -. b) <= 1e-9 *. (1. +. Rr_util.Floatx.fmax a b)

let no_sink : Simulator.sink = fun ~id:_ ~arrival:_ ~flow:_ -> ()

(* ------------------------------------------------------------------ *)
(* Fixed-priority core (SRPT / SJF / FCFS / HDF)                       *)
(* ------------------------------------------------------------------ *)

(* The <= m running jobs sit in slot columns — one flat array per field,
   so the per-event stores into [remaining] allocate nothing — and are
   scanned linearly, so no heap discipline is needed where preemption
   decisions are made.

   Waiting-heap field layout, uniform across kinds (Scalar3): the
   priority key plus the full resume state

     key = job key, aux1 = arrival, aux2 = size, aux3 = remaining

   so adding a kind is a new [job_key] arm, not a new layout.  A waiting
   job is never served, so its key is frozen while in the heap — the
   heap order stays valid without any decrease-key, even for SRPT whose
   key is genuinely "remaining". *)

type slots = {
  r_id : int array;
  r_arrival : float array;
  r_size : float array;
  r_remaining : float array;
}

let[@inline] slot_key kind r i =
  job_key kind ~arrival:r.r_arrival.(i) ~size:r.r_size.(i) ~remaining:r.r_remaining.(i)

let[@inline] fill r i ~id ~arrival ~size ~remaining =
  r.r_id.(i) <- id;
  r.r_arrival.(i) <- arrival;
  r.r_size.(i) <- size;
  r.r_remaining.(i) <- remaining

let[@inline] push_waiting waiting kind ~id ~arrival ~size ~remaining =
  Heap.Scalar3.add waiting
    ~key:(job_key kind ~arrival ~size ~remaining)
    ~aux1:arrival ~aux2:size ~aux3:remaining id

(* Slot [i] takes the best waiting job. *)
let[@inline] pop_into r i waiting =
  let arrival = Heap.Scalar3.min_aux1_exn waiting in
  let size = Heap.Scalar3.min_aux2_exn waiting in
  let remaining = Heap.Scalar3.min_aux3_exn waiting in
  let id = Heap.Scalar3.pop_exn waiting in
  fill r i ~id ~arrival ~size ~remaining

(* Same float as Simulator.completion_threshold, inlined into the hot
   loops (the cross-module call is measurable at ~100 ns/event). *)
let[@inline] threshold size = 1e-9 *. (1. +. size)

let index_core ~record_trace ~speed ~max_events ~machines ~kind ~(source : Source.t)
    ~(out : Kernel.out) =
  if machines < 1 then invalid_arg "Index_engine.run: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Index_engine.run: speed must be finite and positive";
  let scratch = Arena.borrow () in
  Fun.protect ~finally:(fun () -> Arena.release scratch) @@ fun () ->
  let waiting = Arena.scalar3_of scratch in
  let clk = Kernel.clock () in
  let r =
    {
      r_id = Array.make machines (-1);
      r_arrival = Array.make machines 0.;
      r_size = Array.make machines 0.;
      r_remaining = Array.make machines 0.;
    }
  in
  let n_run = ref 0 in
  let max_alive = ref 0 in
  let events = ref 0 in
  let note_alive () =
    let alive = !n_run + Heap.Scalar3.length waiting in
    if alive > !max_alive then max_alive := alive
  in
  (* Admission of the source's buffered job, read through the raw head.
     A free machine always goes to the newcomer (the waiting heap is
     empty whenever a machine is idle — promotion below refills
     eagerly).  Otherwise the newcomer preempts the weakest running job
     iff it beats it under (key, id) — one comparison against an O(m)
     scan, which reproduces the general loop's full re-sort because at
     most one job changes per arrival (the tournament property). *)
  let admit () =
    let id = Source.head_id source in
    let arrival = Source.head_arrival source and size = Source.head_size source in
    if !n_run < machines then begin
      fill r !n_run ~id ~arrival ~size ~remaining:size;
      incr n_run
    end
    else begin
      let w = ref 0 in
      for i = 1 to machines - 1 do
        let ka = slot_key kind r i and kb = slot_key kind r !w in
        if ka > kb || (ka = kb && r.r_id.(i) > r.r_id.(!w)) then w := i
      done;
      let w = !w in
      let kj = job_key kind ~arrival ~size ~remaining:size in
      let ks = slot_key kind r w in
      if kj < ks || (kj = ks && id < r.r_id.(w)) then begin
        push_waiting waiting kind ~id:r.r_id.(w) ~arrival:r.r_arrival.(w) ~size:r.r_size.(w)
          ~remaining:r.r_remaining.(w);
        fill r w ~id ~arrival ~size ~remaining:size
      end
      else push_waiting waiting kind ~id ~arrival ~size ~remaining:size
    end;
    note_alive ()
  in
  let admit_upto () =
    while Source.has_more source && Source.head_arrival source <= clk.now do
      admit ();
      Source.advance source
    done
  in
  let trace_arena : Trace.segment Vec.t = Arena.segments_of scratch in
  let push_trace () =
    let entries =
      Array.make (!n_run + Heap.Scalar3.length waiting) { Trace.job = -1; arrival = 0.; rate = 0. }
    in
    for i = 0 to !n_run - 1 do
      entries.(i) <- { Trace.job = r.r_id.(i); arrival = r.r_arrival.(i); rate = 1. }
    done;
    let next = ref !n_run in
    Heap.Scalar3.iter
      (fun _key id arrival _size _remaining ->
        entries.(!next) <- { Trace.job = id; arrival; rate = 0. };
        incr next)
      waiting;
    Vec.push trace_arena { Trace.t0 = clk.now; t1 = clk.t_next; alive = entries }
  in
  clk.now <- (if Source.has_more source then Source.head_arrival source else 0.);
  admit_upto ();
  if machines = 1 then
    (* Single-machine specialization — the configuration every ratio run
       hits for its baselines.  The running set is one slot that never
       moves (retiring at m = 1 cannot swap), so the generic loop's
       per-event array scans collapse to direct accesses; the event
       semantics and arithmetic are identical to the generic path
       below. *)
    while !n_run > 0 || Source.has_more source do
      incr events;
      if !events > max_events then
        raise (Simulator.Event_limit_exceeded { limit = max_events; now = clk.now });
      if !n_run = 0 then begin
        clk.now <- Source.next_arrival source;
        admit_upto ()
      end
      else begin
        let c = clk.now +. (r.r_remaining.(0) /. speed) in
        let next_arrival = Source.next_arrival source in
        clk.t_next <- (if next_arrival < c then next_arrival else c);
        if record_trace then push_trace ();
        r.r_remaining.(0) <- r.r_remaining.(0) -. (speed *. (clk.t_next -. clk.now));
        clk.now <- clk.t_next;
        if r.r_remaining.(0) <= threshold r.r_size.(0) then begin
          Kernel.emit clk out r.r_id.(0) r.r_arrival.(0);
          if Heap.Scalar3.is_empty waiting then n_run := 0 else pop_into r 0 waiting
        end;
        admit_upto ()
      end
    done
  else
    while !n_run > 0 || Source.has_more source do
      incr events;
      if !events > max_events then
        raise (Simulator.Event_limit_exceeded { limit = max_events; now = clk.now });
      if !n_run = 0 then begin
        clk.now <- Source.next_arrival source;
        admit_upto ()
      end
      else begin
        (* Earliest completion among the running slots; same arithmetic
           as the general loop's [now + remaining / (rate * speed)] at
           rate 1. *)
        let now = clk.now in
        let t_next = ref Float.infinity in
        for i = 0 to !n_run - 1 do
          let c = now +. (r.r_remaining.(i) /. speed) in
          if c < !t_next then t_next := c
        done;
        let next_arrival = Source.next_arrival source in
        if next_arrival < !t_next then t_next := next_arrival;
        clk.t_next <- !t_next;
        let dt = !t_next -. now in
        assert (dt > 0.);
        if record_trace then push_trace ();
        for i = 0 to !n_run - 1 do
          r.r_remaining.(i) <- r.r_remaining.(i) -. (speed *. dt)
        done;
        clk.now <- !t_next;
        (* Retire finished slots (the last running slot moves into the
           retiring one, iterating downwards). *)
        for i = !n_run - 1 downto 0 do
          if r.r_remaining.(i) <= threshold r.r_size.(i) then begin
            Kernel.emit clk out r.r_id.(i) r.r_arrival.(i);
            decr n_run;
            let l = !n_run in
            if i < l then
              fill r i ~id:r.r_id.(l) ~arrival:r.r_arrival.(l) ~size:r.r_size.(l)
                ~remaining:r.r_remaining.(l)
          end
        done;
        (* Freed machines pull the best waiting jobs before new arrivals
           are admitted — at time [t] the running set must be the top-m
           of the jobs released strictly before any job arriving at [t]
           (completion beats arrival, as in the general loop). *)
        while !n_run < machines && not (Heap.Scalar3.is_empty waiting) do
          pop_into r !n_run waiting;
          incr n_run
        done;
        admit_upto ()
      end
    done;
  ( {
      Simulator.n = out.Kernel.completed;
      events = !events;
      machines;
      speed;
      makespan = clk.makespan;
      max_alive = !max_alive;
    },
    Vec.to_list trace_arena )

let run ?(record_trace = false) ?(speed = 1.) ?(max_events = 10_000_000) ?(sink = no_sink)
    ~machines ~kind jobs =
  Simulator.run_closed ~machines ~speed jobs (fun ~source ~completions ->
      index_core ~record_trace ~speed ~max_events ~machines ~kind ~source
        ~out:(Kernel.out ~completions sink))

let run_stream ?(speed = 1.) ?(max_events = 10_000_000) ~machines ~kind ~sink source =
  fst
    (index_core ~record_trace:false ~speed ~max_events ~machines ~kind ~source
       ~out:(Kernel.out sink))

(* ------------------------------------------------------------------ *)
(* SETF cascade                                                        *)
(* ------------------------------------------------------------------ *)

(* Alive jobs partition into groups of equal attained service, kept as a
   doubly-linked list sorted by level (ascending — least attained first).
   Water-filling gives rate 1 to a prefix of groups, a fractional rate to
   at most one marginal group, and rate 0 to the rest, so the advancing
   region is always a prefix of <= m+1 nodes: recomputing rates, finding
   the earliest completion, and finding the earliest catch-up are all
   O(m) walks from the front, never O(groups).  A group's level is stored
   lazily as [(level, t_upd, grate)] and materialized when the prefix
   advances; frozen groups carry exact levels by construction.  Catch-ups
   merge the faster group into its neighbour small-into-large, so each
   job changes heaps O(log n) times over a run.

   The per-group member heap is keyed by size (ties by id): equal
   attained service means the least size is also the least remaining, so
   within-group completions cascade in heap order exactly like the
   equal-share engine's deadline cascade.

   Allocation: a group's floats sit in their own all-float record, so the
   per-event level updates never box; each group carries its own [Some]
   cell ([self]) for linking, and emptied groups return to a spare pool
   with their member heaps, so in steady state opening a group
   allocates nothing. *)

type level = {
  mutable level : float;  (* attained service per member at [t_upd] *)
  mutable t_upd : float;
  mutable grate : float;  (* policy rate in [0, 1]; advance = grate * speed *)
}

type group = {
  lv : level;
  members : Heap.Scalar2.t;  (* key = size, val = id, aux1 = arrival *)
  mutable prev : group option;
  mutable next : group option;
  self : group option;  (* [Some] of this group, built once *)
}

let[@inline] level_at (g : group) ~speed now =
  g.lv.level +. (g.lv.grate *. speed *. (now -. g.lv.t_upd))

let setf_core ~record_trace ~speed ~max_events ~machines ~(source : Source.t)
    ~(out : Kernel.out) =
  if machines < 1 then invalid_arg "Index_engine.run_setf: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Index_engine.run_setf: speed must be finite and positive";
  let scratch = Arena.borrow () in
  Fun.protect ~finally:(fun () -> Arena.release scratch) @@ fun () ->
  let clk = Kernel.clock () in
  (* Spare groups; their member heaps come from the arena and keep their
     capacity across runs. *)
  let spare : group Vec.t = Vec.create () in
  let take_group () =
    let n = Vec.length spare in
    if n > 0 then begin
      let g = Vec.get spare (n - 1) in
      Vec.swap_remove spare (n - 1);
      g
    end
    else
      let rec g =
        {
          lv = { level = 0.; t_upd = 0.; grate = 0. };
          members = Arena.scalar2_of scratch;
          prev = None;
          next = None;
          self = Some g;
        }
      in
      g
  in
  let first : group option ref = ref None in
  let alive = ref 0 in
  let max_alive = ref 0 in
  let events = ref 0 in
  let unlink (g : group) =
    (match g.prev with None -> first := g.next | Some p -> p.next <- g.next);
    (match g.next with None -> () | Some nx -> nx.prev <- g.prev);
    Heap.Scalar2.clear g.members;
    Vec.push spare g
  in
  (* Water-filling from the front, identical arithmetic to the general
     SETF policy: rate min(1, left/count) per group, front first.  [left]
     stays an exact small integer while groups saturate, so the marginal
     group's fractional rate is the same float the policy computes; after
     the marginal group the remaining capacity is exactly zero (the
     policy's own subtraction may leave an ulp of dust there, feeding
     rates ~1e-18 to frozen groups — a difference absorbed by the 1e-9
     differential tolerance).  Rates are non-increasing along the list,
     so once a previously-frozen group is reached with nothing left, the
     walk can stop. *)
  let refill () =
    let now = clk.now in
    let left = ref (Float.of_int machines) in
    let cur = ref !first in
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
            let rate = Rr_util.Floatx.fmin 1. (!left /. cnt) in
            lv.grate <- rate;
            left := if rate < 1. then 0. else !left -. cnt;
            cur := g.next
          end
          else if lv.grate > 0. then begin
            lv.grate <- 0.;
            cur := g.next
          end
          else walking := false
    done
  in
  (* Earliest within-group completion or adjacent catch-up, both only in
     the advancing prefix, into [clk.t_next]. *)
  let scan () =
    let now = clk.now in
    let t_next = ref Float.infinity in
    let cur = ref !first in
    let walking = ref true in
    while !walking do
      match !cur with
      | Some g when g.lv.grate > 0. ->
          let c =
            now
            +. ((Heap.Scalar2.min_key_exn g.members -. g.lv.level) /. (g.lv.grate *. speed))
          in
          if c < !t_next then t_next := c;
          (match g.next with
          | Some h ->
              let closing = (g.lv.grate -. h.lv.grate) *. speed in
              let gap = level_at h ~speed now -. g.lv.level in
              if closing > 0. && gap > 0. then begin
                let t = now +. (gap /. closing) in
                if t < !t_next then t_next := t
              end
          | None -> ());
          cur := g.next
      | _ -> walking := false
    done;
    clk.t_next <- !t_next
  in
  (* Advance the prefix to [clk.t_next] (materializing levels there). *)
  let advance () =
    let dt = clk.t_next -. clk.now in
    let cur = ref !first in
    let walking = ref true in
    while !walking do
      match !cur with
      | Some g when g.lv.grate > 0. ->
          g.lv.level <- g.lv.level +. (g.lv.grate *. speed *. dt);
          g.lv.t_upd <- clk.t_next;
          cur := g.next
      | _ -> walking := false
    done
  in
  (* Retire every member whose residual [size - level] crossed the
     shared completion threshold — the cascade pops in (size, id)
     order. *)
  let retire () =
    let cur = ref !first in
    let walking = ref true in
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
            Kernel.emit clk out id arrival;
            decr alive
          done;
          if Heap.Scalar2.is_empty g.members then unlink g;
          cur := nxt
      | _ -> walking := false
    done
  in
  (* Catch-ups: an advancing group whose level reached its neighbour's
     (within the sharing tolerance) merges into it, small heap into
     large; the merged node keeps the neighbour region's level.  Only
     adjacent pairs in the advancing prefix can meet. *)
  let merge_pass () =
    let now = clk.now in
    let cur = ref !first in
    let walking = ref true in
    while !walking do
      match !cur with
      | Some g when g.lv.grate > 0. -> (
          match g.next with
          | Some h when same_attained g.lv.level (level_at h ~speed now) ->
              let lvl = level_at h ~speed now in
              let into_h = Heap.Scalar2.length g.members <= Heap.Scalar2.length h.members in
              let src = if into_h then g else h and keep = if into_h then h else g in
              Heap.Scalar2.transfer ~src:src.members keep.members;
              keep.lv.level <- lvl;
              keep.lv.t_upd <- now;
              keep.lv.grate <- Rr_util.Floatx.fmax g.lv.grate h.lv.grate;
              unlink src;
              cur := keep.self
          | _ -> cur := g.next)
      | _ -> walking := false
    done
  in
  (* A newcomer has attained 0: it joins the front group when that group's
     level is still within the sharing tolerance of 0 (the same
     [same_group] predicate the policy applies), otherwise it opens a new
     front group at level 0.  Its rate is set by the next [refill]. *)
  let admit () =
    let id = Source.head_id source in
    let arrival = Source.head_arrival source and size = Source.head_size source in
    (match !first with
    | Some g when same_attained 0. (level_at g ~speed clk.now) ->
        Heap.Scalar2.add g.members ~key:size ~aux1:arrival ~aux2:0. id
    | _ ->
        let g = take_group () in
        g.lv.level <- 0.;
        g.lv.t_upd <- clk.now;
        g.lv.grate <- 0.;
        g.prev <- None;
        g.next <- !first;
        Heap.Scalar2.add g.members ~key:size ~aux1:arrival ~aux2:0. id;
        (match !first with None -> () | Some old -> old.prev <- g.self);
        first := g.self);
    incr alive;
    if !alive > !max_alive then max_alive := !alive
  in
  let admit_upto () =
    while Source.has_more source && Source.head_arrival source <= clk.now do
      admit ();
      Source.advance source
    done
  in
  let trace_arena : Trace.segment Vec.t = Arena.segments_of scratch in
  let push_trace () =
    let entries = Array.make !alive { Trace.job = -1; arrival = 0.; rate = 0. } in
    let next = ref 0 in
    let rec go = function
      | None -> ()
      | Some (g : group) ->
          Heap.Scalar2.iter
            (fun _size id arrival _aux2 ->
              entries.(!next) <- { Trace.job = id; arrival; rate = g.lv.grate };
              incr next)
            g.members;
          go g.next
    in
    go !first;
    Vec.push trace_arena { Trace.t0 = clk.now; t1 = clk.t_next; alive = entries }
  in
  clk.now <- (if Source.has_more source then Source.head_arrival source else 0.);
  admit_upto ();
  while Option.is_some !first || Source.has_more source do
    incr events;
    if !events > max_events then
      raise (Simulator.Event_limit_exceeded { limit = max_events; now = clk.now });
    if Option.is_none !first then begin
      clk.now <- Source.next_arrival source;
      admit_upto ()
    end
    else begin
      (* Rates reflect the structure left by the previous event. *)
      refill ();
      (* Next event: earliest within-group completion, earliest adjacent
         catch-up, or next arrival — completion/catch-up beats an arrival
         tie, as everywhere. *)
      scan ();
      let next_arrival = Source.next_arrival source in
      if next_arrival < clk.t_next then clk.t_next <- next_arrival;
      if not (Float.is_finite clk.t_next) then
        raise
          (Simulator.Invalid_allocation
             "alive jobs receive no service and no arrival or horizon is pending");
      assert (clk.t_next -. clk.now > 0.);
      if record_trace then push_trace ();
      advance ();
      clk.now <- clk.t_next;
      retire ();
      merge_pass ();
      admit_upto ()
    end
  done;
  ( {
      Simulator.n = out.Kernel.completed;
      events = !events;
      machines;
      speed;
      makespan = clk.makespan;
      max_alive = !max_alive;
    },
    Vec.to_list trace_arena )

let run_setf ?(record_trace = false) ?(speed = 1.) ?(max_events = 10_000_000) ?(sink = no_sink)
    ~machines jobs =
  Simulator.run_closed ~machines ~speed jobs (fun ~source ~completions ->
      setf_core ~record_trace ~speed ~max_events ~machines ~source
        ~out:(Kernel.out ~completions sink))

let run_setf_stream ?(speed = 1.) ?(max_events = 10_000_000) ~machines ~sink source =
  fst
    (setf_core ~record_trace:false ~speed ~max_events ~machines ~source
       ~out:(Kernel.out sink))
