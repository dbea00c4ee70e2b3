(** Fairness and utilization under churn: the fault-injection study.

    The paper's evaluation (Section 7) assumes a fixed machine pool.  This
    study stress-tests the reproduction's fairness machinery when machines
    fail and recover: for a sweep of failure intensities, a seeded random
    fault trace ({!Faults.Model.random}) is generated per instance and the
    {e same} trace hits REF and every candidate algorithm, so Δψ/p_tot
    compares each algorithm to the fair schedule of the same degraded
    cluster.  Alongside fairness it reports

    - a utilization competitive ratio: useful busy time divided by the
      released-work upper bound {!Utility.Metrics.work_upper_bound} (the
      exact fault-aware optimum is exponential; the bound ignores downtime,
      so the ratio is conservative);
    - kill/abandon/waste counters, and the downtime fraction actually
      injected. *)

type config = {
  model : Workload.Traces.model;
  norgs : int;
  machines : int;
  horizon : int;
  instances : int;  (** random instances per intensity *)
  intensities : float list;
      (** failure-rate multipliers; [0.] means no faults (the control) *)
  mtbf : float;  (** per-machine mean time between failures at intensity 1 *)
  mttr : float;  (** per-machine mean time to repair *)
  max_restarts : int option;  (** kill budget per job; [None] = unbounded *)
  algorithms : (string * Algorithms.Policy.maker) list;
  seed : int;
}

val default_config :
  ?instances:int -> ?norgs:int -> ?machines:int -> ?horizon:int ->
  ?intensities:float list -> ?mtbf:float -> ?mttr:float ->
  ?max_restarts:int -> ?seed:int -> unit -> config
(** Small enough for interactive use: LPC-EGEE model, 3 organizations,
    8 machines, horizon 5000, intensities 0/0.5/1/2, MTBF 1000, MTTR 50. *)

type cell = { mean : float; stddev : float; n : int }

type row = {
  intensity : float;
  algorithm : string;  (** ["ref"] rows carry the reference run's stats *)
  unfairness : cell;  (** Δψ/p_tot against REF under the same faults *)
  util_ratio : cell;  (** busy time / released-work bound *)
  killed : cell;  (** jobs killed by failures, per run *)
  abandoned : cell;  (** jobs dropped after exhausting the restart budget *)
  wasted : cell;  (** executed-then-discarded unit parts *)
  downtime : cell;  (** machine-time fraction down (same for all rows) *)
  event_instants : cell;
      (** distinct event instants processed by the kernel per run *)
  rounds : cell;  (** scheduling rounds dispatched per run *)
  heap_pops : cell;
      (** REF event-heap pops per run (0 for single-loop policies) *)
}

type study = { config : config; rows : row list }

val run : ?progress:(string -> unit) -> ?workers:int -> config -> study
(** Instances run in parallel on [workers] domains
    ({!Core.Domain_pool.map}); results are deterministic in the config seed
    and independent of [workers]. *)

val pp : Format.formatter -> study -> unit
val to_csv : study -> string

val json : study -> Obs.Json.t
(** [{"rows": [...], "metrics": {...}}]: one object per row (same keys as
    the CSV header) plus the process-wide {!Obs.Metrics} snapshot (an empty
    object unless metrics collection is on). *)

val to_json : study -> string
(** {!json}, pretty-printed with a trailing newline. *)
