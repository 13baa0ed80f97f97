(** The closed event loop shared by the incremental class kernels
    ({!Class_engine}, {!Hybrid_engine}, {!Budget_engine}), plus the flat
    clock and completion target that every closed kernel writes.

    {b Hot-path rule.}  A kernel's per-event code allocates nothing:
    - no mutable float field in a record that also holds non-float
      fields (OCaml boxes every store into such a field) — per-job float
      state lives in all-float records or float arrays, and scalar loop
      state (clock, horizon) in an all-float record like {!clock};
    - no float [ref] captured by a closure (the ref cell then holds a
      boxed float, re-boxed on every update);
    - no closure, option or tuple built per event, and no float passed
      to or returned from a call that is not inlined.
    Per-job allocation (one record at admission) is allowed.

    A kernel is driven through {!ops}: every primitive takes only the
    state (and the completion target), and reads and writes times
    through the state's {!clock}, so the indirect calls of the shared
    loop box nothing. *)

type clock = {
  mutable now : float;  (** The simulated instant. *)
  mutable t_next : float;
      (** Event target: {!ops.next_internal} writes the earliest internal
          event here; the loop folds in the next arrival and
          {!ops.advance} serves every job from [now] to [t_next]. *)
  mutable makespan : float;  (** Last completion instant, [0.] before any. *)
}
(** All-float, hence flat: stores never allocate. *)

val clock : unit -> clock

type out = {
  completions : float array;  (** Indexed by job id; [\[||\]] when streaming. *)
  sink : Simulator.sink;
  mutable completed : int;
}
(** Where completions go: the materialized result's array (when
    non-empty) and the sink, called directly — no intermediate callback,
    so a completion costs one unknown call. *)

val out : ?completions:float array -> Simulator.sink -> out

val emit : clock -> out -> int -> float -> unit
(** [emit clk out id arrival] records job [id]'s completion at
    [clk.now]. *)

type 'st ops = {
  clock_of : 'st -> clock;
  alive : 'st -> int;
  admit_head : 'st -> Simulator.Source.t -> unit;
      (** Admit the source's buffered job (read through the raw head
          accessors; the loop consumes it afterwards). *)
  refresh : 'st -> unit;
      (** Recompute the cached decision at [now]: the mirror of one
          [allocate] call, run once per event. *)
  next_internal : 'st -> unit;
      (** Write the earliest internal event (analytic completion or
          decision horizon; [infinity] when none) to [t_next]. *)
  advance : 'st -> unit;
      (** Serve every job at its cached rate from [now] to [t_next]. *)
  settle : 'st -> out -> unit;  (** Retire the jobs complete at [now]. *)
  trace_entries : 'st -> Trace.entry array;  (** Every alive job and its rate. *)
}

val run :
  record_trace:bool ->
  speed:float ->
  max_events:int ->
  sink:Simulator.sink ->
  machines:int ->
  (Arena.t option -> 'st) ->
  'st ops ->
  Job.t list ->
  Simulator.result
(** Closed run over a finite job list with the {!Simulator.run}
    contract (validation, completion threshold, completion-beats-arrival
    tie rule, event accounting).  The state is built from the per-domain
    arena borrowed for the run. *)

val run_stream :
  speed:float ->
  max_events:int ->
  sink:Simulator.sink ->
  machines:int ->
  (Arena.t option -> 'st) ->
  'st ops ->
  Simulator.Source.t ->
  Simulator.summary
(** Streaming run: flows go to the sink only; live memory is O(alive). *)
