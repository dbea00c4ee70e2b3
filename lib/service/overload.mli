(** Overload detection for the daemon: queue depth + ack latency, with
    hysteresis.

    The server feeds two signals after every batch — admission-queue
    occupancy and the latency of each acknowledged feed — and reads back
    a binary {!level}.  The detector trips to [Overloaded] only after the
    pressure signal has been continuously high for [trip_ms], and drops
    back to [Normal] only after it has been continuously low for
    [recover_ms].  The dwell times are the hysteresis: a single burst or
    a single idle poll must not flap shedding on and off.  The level
    drives backpressure only (shedding and {!retry_after_ms}); the
    estimator never changes under load (DESIGN.md §14).

    Pure state machine over an injected millisecond clock — tests drive
    it with a counter; the server passes {!Obs.Clock} time. *)

type config = {
  queue_high : float;  (** occupancy fraction that counts as pressure *)
  queue_low : float;  (** occupancy fraction that counts as calm *)
  ack_high_ms : float;  (** ack-latency EWMA that counts as pressure *)
  ack_low_ms : float;
  alpha : float;  (** EWMA smoothing factor in (0, 1] *)
  trip_ms : float;  (** sustained pressure before tripping *)
  recover_ms : float;  (** sustained calm before recovering *)
}

val default : config
(** queue 0.8 / 0.3, ack 50 ms / 10 ms, alpha 0.2, trip 100 ms,
    recover 500 ms. *)

type level = Normal | Overloaded

type t

val create : ?config:config -> now_ms:(unit -> float) -> unit -> t
(** Starts [Normal] with an empty EWMA. *)

val observe_ack : t -> latency_ms:float -> unit
(** Fold one feed's submit-to-ack latency into the EWMA and re-evaluate. *)

val observe_queue : t -> depth:int -> cap:int -> unit
(** Report admission-queue occupancy and re-evaluate.  Call this every
    loop iteration, including idle ones — recovery is detected by
    observing calm, not by the absence of observations. *)

val level : t -> level

val worst : level list -> level
(** Roll per-shard levels up to one service health: [Overloaded] if any
    shard is. *)

val ack_ewma_ms : t -> float
(** Current EWMA; 0 before the first observation. *)

val retry_after_ms : t -> int
(** Suggested client back-off when shedding: scales with the smoothed
    ack latency, bounded to [25, 2000] ms. *)
