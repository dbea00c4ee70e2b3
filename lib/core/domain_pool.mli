(** Spreading independent tasks over OCaml 5 domains.

    The experiment sweeps (tables, Fig. 10, timelines, churn, federation,
    report) run many independent simulation instances; {!map} spreads them
    over freshly spawned domains.  Within one instance everything is
    sequential. *)

val recommended_workers : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1. *)

val map : ?workers:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot map for embarrassingly-parallel experiment sweeps: [map
    ~workers f tasks] applies [f] to every task using freshly spawned
    domains (default worker count {!recommended_workers}).  Results are in
    input order.  If any task raises, the first exception (in input order)
    is re-raised — with its original backtrace — after all workers finish.
    With [workers = 1] no domain is spawned (plain [List.map]). *)
