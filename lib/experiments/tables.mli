(** Regeneration of Tables 1 and 2: average unfairness Δψ/p_tot per
    algorithm per workload.

    Paper protocol (Section 7.2/7.3): for each workload, draw random
    sub-trace instances (100 in the paper; configurable here because REF is
    exponential), run REF for the reference utility vector and every
    evaluated algorithm on the same instance, and report the mean and
    standard deviation of Δψ/p_tot over instances.  Table 1 uses horizon
    5·10⁴ s, Table 2 uses 5·10⁵ s. *)

type config = {
  horizon : int;
  instances : int;  (** random instances per cell *)
  norgs : int;
  machines : int;  (** scaled pool size (see DESIGN.md) *)
  endowment : Workload.Scenario.endowment;
  algorithms : (string * Algorithms.Policy.maker) list;
  models : Workload.Traces.model list;
  seed : int;
}

val table1_config : ?instances:int -> ?machines:int -> unit -> config
(** Horizon 5·10⁴, 5 organizations, the paper's algorithm line-up. *)

val table2_config : ?instances:int -> ?machines:int -> unit -> config
(** Horizon 5·10⁵. *)

type cell = { mean : float; stddev : float; n : int }

type table = {
  config : config;
  rows : (string * (string * cell) list) list;
      (** algorithm -> (model name -> cell) *)
}

val run : ?progress:(string -> unit) -> ?workers:int -> config -> table
(** Runs every (algorithm × model × instance) simulation; instances run in
    parallel on [workers] domains ({!Core.Domain_pool.map}, default: all
    available cores).  Results are deterministic and independent of
    [workers].  [progress] receives one line per completed model (for long
    runs). *)

val pp : Format.formatter -> table -> unit
(** Renders in the paper's layout: one row per algorithm, avg ± std per
    workload column. *)

val to_csv : table -> string
