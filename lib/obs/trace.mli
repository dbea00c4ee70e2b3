(** Span-based tracing that emits Chrome trace-event JSON.

    The output of {!write} loads directly into Perfetto
    ({:https://ui.perfetto.dev}) or [chrome://tracing]: one [pid] for the
    process, one [tid] per OCaml domain, complete ([X]) events for spans
    and [i] events for instants.

    Recording is {b off by default} and costs one atomic load and a branch
    per {!span} while disabled, so instrumentation stays permanently in hot
    paths (kernel phases, REF size stages, shard workers).  While
    enabled, events go to per-domain ring buffers (no locking, no I/O on
    the hot path); when a ring overflows, the oldest events are dropped —
    spans are recorded at their {e end}, so long-running outer spans
    survive eviction. *)

val set_enabled : bool -> unit
(** Turning tracing on also (re)sets the trace epoch: timestamps in the
    dump are relative to this moment. *)

val enabled : unit -> bool

val set_capacity : int -> unit
(** Ring capacity per domain (default 65536 events), for rings created
    after the call.  @raise Invalid_argument on non-positive capacity. *)

val span : ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; while tracing is enabled it records a
    complete event covering the call (also when [f] raises).  [cat] is the
    Chrome trace category (default ["fairsched"]); [args] become the
    event's [args] object (e.g. the request's trace id). *)

val instant : ?cat:string -> ?args:(string * Json.t) list -> string -> unit
(** A zero-duration marker. *)

val set_pid : ?name:string -> int -> unit
(** Assign the {e calling domain}'s events to Chrome process lane [pid]
    (default lane is 1).  The sharded daemon gives the router and every
    shard worker a distinct lane, so a merged dump renders one swimlane
    group per shard.  [name] labels the lane via a [process_name]
    metadata event in the dump. *)

val reset : unit -> unit
(** Drop every recorded event (ring registrations survive). *)

type event = {
  name : string;
  cat : string;
  ph : char;  (** ['X'] complete span, ['i'] instant *)
  ts_ns : int64;  (** start, relative to the trace epoch *)
  dur_ns : int64;  (** 0 for instants *)
  pid : int;  (** Chrome process lane ({!set_pid}; 1 by default) *)
  tid : int;  (** OCaml domain id *)
  args : (string * Json.t) list;  (** the event's [args] payload *)
}

val events : unit -> event list
(** Everything currently buffered, merged across domains and sorted by
    start time (ties: longer spans first, so nesting renders correctly). *)

val dropped : unit -> int
(** Events lost to ring overflow since the last {!reset}. *)

val to_json : ?limit:int -> unit -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}] with timestamps in
    microseconds, as Chrome/Perfetto expect.  [limit] keeps only the most
    recent [limit] events (the live [ctl trace] scrape bounds its response
    to the wire's line limit this way); [process_name] metadata events for
    lanes named via {!set_pid} are always included. *)

val write : string -> int
(** Serialize {!to_json} to a file; returns the number of events written.
    @raise Sys_error when the path is unwritable. *)

(** {1 Validation} — the in-tree checker used by tests and
    [fairsched validate-trace] *)

type validation = {
  total_events : int;
  tids : int list;  (** distinct thread ids, sorted *)
  span_names : string list;  (** distinct names of [X]/[B] events, sorted *)
}

val validate : Json.t -> (validation, string) result
(** Accepts both the object form ([{"traceEvents": [...]}]) and a bare
    event array.  Checks per event: an object with a string [name], a
    known single-character [ph], numeric [ts]/[tid], non-negative [dur] on
    [X] events; per [tid]: timestamps non-decreasing in file order and
    [B]/[E] begin/end events balanced. *)

val validate_file : string -> (validation, string) result
(** Read, parse, and {!validate}; I/O and parse errors become [Error]. *)
