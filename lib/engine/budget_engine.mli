(** Preemption-budget SRPT kernel ({!Policy_class.Preempt_budget}):
    SRPT, except each job may be evicted from a machine at most [budget]
    times; an incumbent at its budget is immune and runs to completion.
    [budget = 0] is non-preemptive SRPT; a large budget is plain SRPT.

    The rule is history-dependent, so the kernel replays the mirror
    policy's transition order exactly (completions free machines, the
    waiting set refills them before same-instant arrivals are
    considered, arrivals challenge the weakest evictable incumbent).
    Each event costs O(m + log alive).  Per {!Kernel}'s hot-path rule
    the running slots are flat per-field arrays and a job's eviction
    count travels with it (no side table): an event allocates nothing. *)

(** {2 Incremental primitives}

    Driven by the {!Live} engine through {!ops} and the state's
    {!Kernel.clock}.  The state contains no closures, so snapshots can
    [Marshal] it. *)

type state

val create : machines:int -> speed:float -> budget:int -> state
(** @raise Invalid_argument on non-positive machines or speed, or a
    negative budget. *)

val alive : state -> int

val admit : state -> id:int -> arrival:float -> size:float -> unit
(** Buffer a released job (in non-decreasing arrival order, distinct
    ids); the next [refresh] processes it after refilling from the
    waiting set. *)

val ops : state Kernel.ops
(** [refresh] is the mirror of one [allocate] call.  Run exactly once
    per event, after [settle] and admissions. *)

(** {2 Closed runs} *)

val run :
  ?record_trace:bool ->
  ?speed:float ->
  ?max_events:int ->
  ?sink:Simulator.sink ->
  machines:int ->
  budget:int ->
  Job.t list ->
  Simulator.result
(** Same contract as {!Simulator.run}. *)

val run_stream :
  ?speed:float ->
  ?max_events:int ->
  machines:int ->
  budget:int ->
  sink:Simulator.sink ->
  Simulator.Source.t ->
  Simulator.summary
