(** The scheduler daemon: a [select]-driven router in front of one
    {!Shard} per org-group.

    The service partitions along {!Partition}'s contiguous org-groups —
    the one boundary pooled scheduling does {e not} couple across (the
    paper's cooperative game is played within a consortium; separate
    groups are separate games).  Each group owns its own {!Online.t}
    engine, WAL segment, dedupe table, and overload detector; [shards]
    worker domains execute the groups (group [g] on worker [g mod W]).
    With one worker — the default — everything runs inline on the router
    thread and the daemon behaves exactly like the pre-sharding
    single-threaded server: requests are admitted in a single global
    arrival order per group, so each group's engine sees one canonical
    event stream regardless of how many clients race.

    Per iteration the router: accepts connections, reads available
    bytes, splits complete lines, and routes each feed to its org's
    group (bounded per-group admission — overflow is answered with a
    [backpressure] error, not dropped).  Control requests ([status],
    [psi], [drain]) are broadcast to every group and their
    parts merged: clocks by max, counters by sum, per-org arrays
    scattered back into global indexing.  Responses per connection are
    emitted in request order (a reorder buffer absorbs cross-shard
    completion races).  A line that does not decode is answered with
    {!Protocol.decode_request}'s typed error.

    Durability is per group: accepted feeds are appended to the group's
    WAL segment and their acks {e held} until the end of the pump, when
    one [fsync] covers every append the pump made.  No ack reaches a
    client before its record is durable: an acked submission survives
    [kill -9].  The WAL is the only durable state.

    Robustness (DESIGN.md §14) is per group: (cid, cseq) dedupe rebuilt
    from the WAL on recovery; overload detection driving shedding with
    [retry_after_ms] hints, so one hot org-group sheds while the others
    stay healthy.  The estimator never changes while serving.  Health is
    visible in [status] (estimator/shed/ack_ewma_ms/groups/shards/
    fsyncs) and in [Obs.Metrics] ([service.shed], [service.dup_acks],
    [service.wal_sync_failures], [service.fsync_total],
    [service.acks_total], [service.queue_depth], [service.ack_ewma_ms]).

    Descriptor exhaustion is a refusal, not a crash: the router holds
    one reserve descriptor, and when [accept] fails with [EMFILE] or
    [ENFILE] it frees the reserve, accepts, answers one [backpressure]
    error line carrying [retry_after_ms], closes, and re-takes the
    reserve.  An accepted descriptor at or above [FD_SETSIZE] (which
    [select] cannot watch) is refused the same way.

    Shutdown: a [drain] request or SIGTERM runs every group's engine to
    the horizon, answers pending clients after the commit that follows,
    flushes, and returns.  SIGKILL at any point is recoverable: restart
    with the same state dir and every segment replays its WAL (after any
    legacy snapshot) into a fresh engine, resuming bit-identically
    (kernel determinism; see DESIGN.md §12 and §15), then appends to it. *)

type config = {
  addr : Addr.t;
  service : Config.t;
      (** [service.groups] fixes the org-group partition — the semantic,
          durable part of sharding (it shapes the WAL layout).  [shards]
          below is pure execution and can change between runs. *)
  state_dir : string option;
      (** [None] = ephemeral (no durability).  Each group's WAL segment
          is only ever appended to; nothing compacts it. *)
  queue_cap : int;
      (** bound on queued submissions + faults, divided evenly across
          org-groups (each group's bound is [queue_cap / groups]) *)
  drain_batch : int;
      (** max {e feed} requests entering a group's engine per pump;
          rejects and control requests are answered without consuming
          the budget (shedding must stay cheap under the flood that
          caused it). *)
  overload : Overload.config;  (** detector thresholds and dwell times *)
  shards : int;
      (** worker domains executing the org-groups, clamped to
          [1 <= shards <= groups].  1 (the default) runs everything
          inline on the router thread — no domains, the pre-sharding
          behaviour.  Scheduling state is bit-identical across any
          [shards] value for a fixed [groups]: the partition, not the
          execution, decides which engine sees which event. *)
}

val make_config :
  ?state_dir:string ->
  ?queue_cap:int ->
  ?drain_batch:int ->
  ?overload:Overload.config ->
  ?shards:int ->
  addr:Addr.t ->
  service:Config.t ->
  unit ->
  config
(** Defaults: queue_cap 1024, drain_batch 256, {!Overload.default}
    thresholds, shards 1. *)

val run : ?ready:(unit -> unit) -> config -> (unit, string) result
(** Bind, recover, serve until drained.  [ready] fires once the socket
    is listening and recovery is complete (used by tests and by [serve]
    to print the listening line).  When the state dir holds a config
    from a previous life, the {e recovered} config wins over
    [config.service] — including its [groups] count, which also fixes
    the on-disk layout (flat for 1 group, [wal-<g>/] segments
    otherwise); a note goes to stderr when they differ.  Errors (bind
    failure, corrupt or inconsistent segments) come back as one-line
    messages. *)
