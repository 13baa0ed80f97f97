(** Time-sliced Round Robin — the operating-systems textbook scheduler.

    The paper analyses the idealised fluid Round Robin in which all [n_t]
    alive jobs are processed simultaneously at rate [min(1, m/n_t)].  Real
    schedulers approximate this with a cyclic ready queue and a time
    quantum [q]: each of the [m] machines runs the job at the head of the
    queue exclusively for up to [q] time units (or until completion), then
    requeues it at the tail.  As [q -> 0] the time-sliced schedule
    converges to the fluid one; the ablation experiment T9 measures the
    convergence rate of the resulting flow-time norms.

    The policy is stateful (the closure owns the ready queue).  A value
    reused for another simulation notices the switch — the clock going
    backwards, or an alive job id it tracks reappearing with another
    arrival — and starts from a clean queue, so reuse gives the same
    schedule as a fresh value. *)

val policy : ?quantum:float -> unit -> Rr_engine.Policy.t
(** [policy ~quantum ()] with the time slice in simulated time units
    (default [1.0]).
    @raise Invalid_argument when [quantum <= 0.]. *)
