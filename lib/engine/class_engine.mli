(** Dense class kernels: specialised engines for the rate-vector policy
    classes — LAPS ({!Policy_class.Latest_fraction}), MLFQ
    ({!Policy_class.Level_ladder}), the weighted proportional shares
    ({!Policy_class.Aged_share}, {!Policy_class.Sized_share}), and
    discrete quantum round-robin ({!Policy_class.Quantum_cycle}).

    These classes give fractional rates to many jobs at once, so events
    still cost O(alive); the engines win by maintaining jobs in the
    order their class needs (no per-event sort, no view rebuild, no
    policy closure) and by calling the same shared numeric kernels as
    the mirror policies ({!Policy_class.capped_rates},
    {!Policy_class.ladder_level}, ...), so the two sides compute
    bit-identical floats on the same event sequence.  The differential
    suite pins agreement with the general loop to <= 1e-9 relative flow
    time. *)

type kind =
  | Laps of { beta : float }
  | Ladder of { base_quantum : float; factor : float; levels : int }
  | Aged of { k : int; refresh : float; offset : float }
  | Sized of { gamma : float }
  | Quantum of { quantum : float }

val kind_of_class : Policy_class.t -> kind option
(** The dense kernel serving a policy class, if any; [None] for the
    classes served by other engines (equal-share, the priority indexes,
    the SETF cascade, the hybrid and budget kernels). *)

val class_of_kind : kind -> Policy_class.t
(** Right inverse of {!kind_of_class}. *)

(** {2 Incremental primitives}

    The building blocks the {!Live} engine drives directly, through
    {!ops} and the state's {!Kernel.clock}: one [refresh] per event
    (never per split — cached rates are what keep WRR-age's drifting
    weights split-safe), [advance] for any prefix of the interval,
    [settle] + admissions after each event.  The closed {!run} /
    {!run_stream} below drive the same primitives through {!Kernel}.
    The state contains no closures, so live snapshots can [Marshal] it.

    The per-event primitives follow {!Kernel}'s hot-path rule: per-job
    state is an all-float record (the id rides along as a float), the
    ladder's thresholds are a table built by {!create}, and WRR-static's
    weight is computed once at admission. *)

type state

val create : machines:int -> speed:float -> kind -> state
(** @raise Invalid_argument on non-positive machines or speed, or
    out-of-range class parameters (see {!Policy_class.validate}). *)

val alive : state -> int

val admit : state -> id:int -> arrival:float -> size:float -> unit
(** Admit a released job.  Jobs must be admitted in (arrival asc,
    id asc) order — the order every {!Simulator.Source} produces. *)

val ops : state Kernel.ops

(** {2 Closed runs} *)

val run :
  ?record_trace:bool ->
  ?speed:float ->
  ?max_events:int ->
  ?sink:Simulator.sink ->
  machines:int ->
  kind:kind ->
  Job.t list ->
  Simulator.result
(** Closed-form run over a finite job list; same contract as
    {!Simulator.run} (validation, completion threshold,
    completion-beats-arrival tie rule, event accounting).
    @raise Simulator.Event_limit_exceeded like the general loop. *)

val run_stream :
  ?speed:float ->
  ?max_events:int ->
  machines:int ->
  kind:kind ->
  sink:Simulator.sink ->
  Simulator.Source.t ->
  Simulator.summary
(** Streaming run: jobs are pulled from the source on demand (in
    non-decreasing arrival order with distinct ids), flows go to the
    sink, and only O(alive) state plus O(1) aggregates stay resident. *)
