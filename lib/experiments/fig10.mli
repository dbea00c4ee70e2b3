(** Regeneration of Figure 10: unfairness Δψ/p_tot as a function of the
    number of organizations (LPC-EGEE workload).

    The paper varies k from 2 to 10 and plots one curve per algorithm
    (ROUNDROBIN, CURRFAIRSHARE, FAIRSHARE, DIRECTCONTR, RAND-15); the
    unfairness of every algorithm grows with k, and the gaps widen.  REF's
    cost grows as 3^k, so the instance count and pool size shrink as k grows
    unless overridden. *)

type config = {
  org_counts : int list;
  instances : int;
  horizon : int;
  machines : int;
  algorithms : (string * Algorithms.Policy.maker) list;
  model : Workload.Traces.model;
  seed : int;
}

val default_config : ?instances:int -> ?horizon:int -> ?max_orgs:int -> unit -> config

type point = { norgs : int; mean : float; stddev : float }
type series = { algorithm : string; points : point list }
type figure = { config : config; series : series list }

val run : ?progress:(string -> unit) -> ?workers:int -> config -> figure
(** Instances run in parallel through {!Core.Domain_pool.map} (results
    independent of the worker count). *)

val pp : Format.formatter -> figure -> unit
(** Prints the series as aligned columns (one row per k). *)

val to_csv : figure -> string
