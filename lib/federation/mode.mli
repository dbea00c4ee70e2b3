(** Domain-local federated-construction flag.

    The driver cannot pass a federation argument through
    [Algorithms.Policy.maker] (its signature is the registry's contract),
    so it raises this flag around policy construction when an endowment
    stream is in play.  Estimators that maintain internal sub-coalition
    simulations (REF, RAND) read it in their maker to build federated
    simulators — machine sets that follow the live ownership state — and
    to broadcast endowment events to them.  Scoped: the previous value is
    restored when {!with_enabled} returns. *)

val enabled : unit -> bool
(** [true] inside {!with_enabled}[ true] on the current domain. *)

val with_enabled : bool -> (unit -> 'a) -> 'a
