(** Structured, leveled logging for the daemon and the libraries under it.

    Every diagnostic the service layer used to [eprintf] goes through this
    module instead, which buys three properties:

    - {b machine-parseable}: with the [Ndjson] format each record is one
      JSON object per line ([ts_ns], [level], [component], [msg], plus any
      typed fields), so shard-worker death, segment recovery and resume
      warnings can be grepped and joined instead of read off an
      interleaved stderr;
    - {b domain-safe}: emission takes one mutex around a single
      [output_string] + flush, so records from racing shard domains never
      interleave mid-line;
    - {b clock-injected}: timestamps come from {!Clock}, so tests mock
      them like every other timing in the repository.

    The default sink is [Text] on stderr at level {!Warn} — exactly the
    visibility the old [eprintf] sites had.  [fairsched serve
    --log-level/--log-file] reconfigures it at startup. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val level_of_string : string -> (level, string) result
(** Accepts ["debug"], ["info"], ["warn"]/["warning"], ["error"]. *)

val set_level : level -> unit
(** Records below the threshold are dropped before formatting. *)

val level : unit -> level
val enabled : level -> bool

type format = Text | Ndjson

val set_sink : ?format:format -> out_channel -> unit
(** Route records to [oc] (default format [Text]).  The channel is not
    closed by this module; {!open_file} manages its own. *)

val open_file : ?format:format -> string -> (unit, string) result
(** Open [path] for append and make it the sink (default format
    [Ndjson] — a log {e file} is for machines).  Closes a previously
    {!open_file}d sink.  Errors are one-line messages. *)

val render :
  format -> ts_ns:int64 -> level -> component:string ->
  fields:(string * Json.t) list -> string -> string
(** The pure record formatter (no trailing newline) — exposed so tests
    can pin the schema without capturing a channel. *)

val log :
  level -> component:string -> ?fields:(string * Json.t) list ->
  ('a, Format.formatter, unit, unit) format4 -> 'a
(** [log lvl ~component ~fields fmt ...] formats and emits one record if
    [lvl] passes the threshold.  [component] tags the subsystem
    (["server"], ["shard"], ["wal"], ["chaos"]); [fields] carry
    the typed payload. *)

val debug :
  component:string -> ?fields:(string * Json.t) list ->
  ('a, Format.formatter, unit, unit) format4 -> 'a

val info :
  component:string -> ?fields:(string * Json.t) list ->
  ('a, Format.formatter, unit, unit) format4 -> 'a

val warn :
  component:string -> ?fields:(string * Json.t) list ->
  ('a, Format.formatter, unit, unit) format4 -> 'a

val error :
  component:string -> ?fields:(string * Json.t) list ->
  ('a, Format.formatter, unit, unit) format4 -> 'a
