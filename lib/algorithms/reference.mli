(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(** Algorithm REF (Fig. 1, specialised to ψsp as in Fig. 3): the exponential
    fair reference algorithm.

    REF maintains a full greedy schedule for {e every} non-empty
    sub-coalition of the grand coalition, each built recursively by the same
    rule; at any decision point of coalition [C] it serves the waiting
    organization maximizing [φ(u) − ψ(u)], where the contribution [φ(u)] is
    the Shapley share of [v(C) = Σ ψsp] computed from the current values of
    all sub-coalition schedules (the [UpdateVals] weights
    [(s−1)!(k−s)!/k!]).

    Cost per decision instant is O(k·3^k) in the worst case plus the
    bookkeeping of 2^k − 1 concurrent simulations (Proposition 3.4) — FPT in
    the number of organizations, practical for k ≲ 12.  A deciding
    sub-coalition [C] computes only what its argmax compares: nothing when
    one member waits, otherwise (Shapley) [φ(u)] of each waiting member
    alone, 2^(|C|−1) terms apiece, bit-identical to the full vector's entry
    (DESIGN.md §8, "Per-member walk").  The top level and the Banzhaf
    concept walk the full vector, O(|C|·2^|C|).  The sub-coalition simulations
    advance in lockstep, in global event order and size-ascending within an
    instant, exactly like the [for s ← 1 to ‖C‖] loop of Fig. 1.

    The driver's own cluster plays the role of the grand coalition's
    schedule, so the utilities REF is fair about are the real ones.

    {b Engine.}  The advancement engine is event-driven and sequential: a
    global min-heap of (next-event-time, coalition) entries replaces the
    per-instant scan over all 2^k − 1 simulations, and within one instant
    the arrival/completion step runs first, then the scheduling rounds size
    class by size class; see DESIGN.md, "Performance engineering". *)

val reference : Policy.maker
(** The paper's REF under the name ["ref"]. *)

val banzhaf : Policy.maker
(** The paper's future-work question ("other game-theoretic notions of
    fairness"): the same algorithm with contributions given by the
    {e normalized Banzhaf value} instead of the Shapley value (uniform
    sub-coalition weights, rescaled to the coalition value since Banzhaf is
    not efficient).  Named ["ref-banzhaf"]; the fairness-concept ablation
    measures how far its schedules drift from the Shapley-fair ones. *)

type concept = Shapley_value | Banzhaf_value

val make :
  ?name:string -> ?concept:concept -> ?max_restarts:int ->
  ?value_cache:bool -> unit -> Policy.maker
(** [make ?name ?concept ()] builds a REF maker.

    [value_cache] (default [true]) enables the cross-instant coalition-value
    cache (DESIGN.md §13): between two events of a sub-coalition simulation
    its value 2·v(t) is an exact integer polynomial in [t], so REF caches
    the coefficients keyed by the simulation's state epoch and re-evaluates
    instead of re-folding the member trackers.  Values are exact integers
    either way, so schedules are bit-identical with the cache on or off;
    hit/miss counters surface as [ref.vcache_hits]/[ref.vcache_misses] in
    {!Obs.Metrics}.

    Machine faults delivered through {!Policy.t.on_fault} are mirrored into
    every sub-coalition simulation containing the machine's owner, so the
    what-if values REF is fair about track the time-varying capacity.
    [max_restarts] bounds resubmissions {e inside} those simulations
    (default unbounded, matching the driver's default). *)

(** {2 Introspection (for tests and the worked examples)} *)

type internals

val make_with_internals :
  ?name:string -> ?concept:concept -> ?max_restarts:int ->
  ?value_cache:bool -> unit -> Instance.t -> rng:Fstats.Rng.t ->
  Policy.t * internals

val contributions_scaled : internals -> view:Policy.view -> time:int -> float array
(** [2·φ(u)] of every organization in the grand coalition, at [time]
    (advances the sub-coalition simulations to [time] first). *)

val coalition_value_scaled : internals -> mask:Shapley.Coalition.t -> time:int -> int
(** [2·v(C)] of a proper sub-coalition's internal schedule at [time]. *)

val sub_contributions_scaled :
  internals -> mask:Shapley.Coalition.t -> time:int -> float array
(** [2·φ(u)] of every member of a proper sub-coalition [mask], from the
    values of its sub-coalition schedules at [time], by the full subset walk
    (the one the top level and the Banzhaf concept use); entries of
    non-members are 0.  Does not touch REF's memos. *)

val member_contribution_scaled :
  internals -> mask:Shapley.Coalition.t -> org:int -> time:int -> float
(** [2·φ(org)] within a proper sub-coalition [mask], by the per-member walk
    that REF's sub-coalition argmax uses under the Shapley concept.  It adds
    the same terms in the same order as the full walk, so with
    [Shapley_value] internals it is [Float.equal] to
    [(sub_contributions_scaled ~mask ~time).(org)]. *)
