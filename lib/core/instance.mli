(** A complete scheduling problem: organizations with their machine
    endowments plus the job stream, and the evaluation horizon.

    Instances are immutable and validated on construction; every simulation
    component (driver, coalition simulators, fairness evaluation) consumes
    this one representation. *)

type t = private {
  machines : int array;
      (** [machines.(u)] = number of processors contributed by organization
          [u]; all entries >= 1 in the paper's model (an organization with no
          machines is allowed here, for adversarial gadgets). *)
  jobs : Job.t array;
      (** Sorted by {!Job.compare_release}; per-organization indices are
          contiguous from 0 in release order. *)
  horizon : int;
      (** Evaluation end time [t_end]; utilities and fairness are measured at
          this instant.  Jobs released at or after the horizon are rejected
          by {!make}. *)
  speeds : float array option;
      (** Related-machines extension (Section 2): [speeds.(i)] is the speed
          of machine [i] in the canonical flattened order (organization 0's
          machines first).  A job of size [p] occupies a machine of speed
          [s] for [ceil (p / s)] time units.  [None] means identical
          machines (speed 1). *)
}

val make : machines:int array -> jobs:Job.t list -> horizon:int -> t
(** Identical machines.  Sorts and re-indexes jobs (per organization, FIFO
    by release with the original order as tie-break).
    @raise Invalid_argument if an organization id is out of range, a machine
    count is negative, every machine count is zero, the horizon is
    non-positive, or a job is released at or after the horizon. *)

val make_related :
  speeds:float array -> machines:int array -> jobs:Job.t list -> horizon:int -> t
(** Related machines: like {!make} with per-machine speeds in the canonical
    flattened order.
    @raise Invalid_argument additionally if [speeds] has the wrong length or
    a non-positive entry. *)

val machine_speed : t -> int -> float
(** Speed of a machine in the canonical flattened order (1.0 when
    identical). *)

val speeds_of_org : t -> int -> float array
(** The speeds of one organization's machines (all 1.0 when identical). *)

val organizations : t -> int
(** Number of organizations [k]. *)

val total_machines : t -> int
val job_count : t -> int

val jobs_of_org : t -> int -> Job.t list
(** In FIFO order. *)

val total_work : t -> int
(** Sum of processing times of all jobs. *)

val share : t -> int -> float
(** [share t u] = fraction of the global pool contributed by [u] — the
    static target share used by the FAIRSHARE family. *)

val max_horizon : machines:int -> int
(** The largest horizon [h] with [2·machines·h·(h+1) <= max_int].  ψsp is
    kept as an exact ×2-scaled [int] and v(grand) grows like
    machines·horizon², so a longer horizon can wrap the utilities
    silently. *)

val check_horizon : machines:int -> horizon:int -> (unit, string) result
(** [Error] naming the bound when [horizon > max_horizon ~machines]. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: k, machines, jobs, horizon. *)

val pp_detailed : Format.formatter -> t -> unit
(** Full listing, for debugging small instances. *)
