(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(** The online simulation loop.

    Runs one policy over one instance: jobs appear at their release times,
    completions free machines, and whenever a machine is free while some
    organization has a waiting job the policy is asked whom to serve
    (greediness is therefore enforced by construction — Section 2).  Events
    are processed in time order; nothing happens between events, so the loop
    is O(events), independent of the horizon length.

    The event loop itself — stream merging, within-instant phase order,
    checkpoints, instrumentation — lives in {!Kernel.Engine}; the driver is
    the grand-coalition instantiation: it owns the real cluster and the
    exact ψsp trackers and passes them to the policy through
    {!Algorithms.Policy.view}. *)

type result = {
  policy : string;
  instance : Instance.t;
  utilities_scaled : int array;  (** [2·ψsp(u)] at the horizon *)
  parts : int array;  (** executed unit parts per organization at horizon *)
  schedule : Schedule.t;  (** full recorded grand-coalition schedule *)
  events : int;  (** number of event instants processed *)
  wall_seconds : float;  (** wall-clock time of the simulation *)
  checkpoints : snapshot list;
      (** snapshots at the requested instants, ascending (empty unless
          requested) *)
  killed : int;  (** jobs killed by machine failures (0 without faults) *)
  abandoned : int;  (** jobs dropped after exhausting [max_restarts] *)
  wasted : int;  (** executed-then-discarded unit parts across kills *)
  stats : Kernel.Stats.t;
      (** kernel instrumentation: the driver loop's own counters plus the
          policy's internal ones ({!Algorithms.Policy.stats}), e.g. REF's
          sub-coalition simulations and event-heap pops *)
  metrics : Obs.Metrics.snapshot;
      (** process-wide {!Obs.Metrics} snapshot taken as the run ends: round
          latencies, job-wait distribution, heap ops, value-cache counters.
          Empty unless metrics collection was enabled
          ({!Obs.Metrics.set_enabled}); process-wide, so values aggregate
          over every run since the last {!Obs.Metrics.reset}. *)
}

and snapshot = {
  at : int;
  psi_scaled : int array;  (** [2·ψsp(u)] at [at] *)
  parts_at : int array;  (** executed unit parts per organization at [at] *)
}

val run :
  ?record:bool ->
  ?checkpoints:int list ->
  ?faults:Faults.Event.timed list ->
  ?federation:Federation.Event.timed list ->
  ?max_restarts:int ->
  instance:Instance.t ->
  rng:Fstats.Rng.t ->
  Algorithms.Policy.maker ->
  result
(** Simulate until every event before the horizon is processed.  [record]
    (default true) retains the placement list; disable for large sweeps
    where only utilities matter (the schedule in the result is then
    empty).  [checkpoints] asks for utility snapshots at the given instants
    (clamped to the horizon; Definition 3.2 makes fairness a property of
    {e every} time instant, and the timeline experiments track how
    unfairness accumulates).

    [faults] injects machine failures and recoveries (see {!Faults}): at a
    [Fail] instant the machine goes down and its running job — jobs are
    non-preemptible — is killed, its executed prefix discarded (it never
    enters any ψsp), and the job resubmitted at the head of its owner's
    queue; at [Recover] the machine rejoins the free pool.  Within an
    instant the order is completions, then faults, then releases, then the
    scheduling round.  [max_restarts] bounds resubmissions per job; once
    exceeded the job is abandoned (counted in the result).  An empty
    [faults] list (the default) leaves every code path and result
    bit-identical to a fault-free run.

    [federation] injects endowment events (see {!Federation}): consortium
    joins/leaves and machine lends/reclaims, applied within an instant
    after faults and before releases, so ψsp and every coalition value
    attribute capacity to the machine's {e current} owner and re-derive
    from the live org set k(t).  Policy construction happens in federated
    mode ({!Federation.Mode}) whenever the trace is non-empty.  An empty
    trace (the default) is bit-identical to the static consortium across
    all policies and worker counts.
    @raise Invalid_argument on an unsorted/out-of-range fault trace or an
    endowment trace that does not replay cleanly
    ({!Federation.Event.validate}). *)

val utilities : result -> float array
(** Unscaled ψsp per organization. *)

val total_parts : result -> int
val pp_result : Format.formatter -> result -> unit
