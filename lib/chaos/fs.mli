(** Deterministic fault injection for the service layer's filesystem I/O.

    Every durability-critical syscall in {!Service.Wal} goes through this
    module instead of calling [Unix]
    directly.  With no plan armed the shims are plain passthroughs (one
    branch on an empty list); with a plan armed, individual calls can be
    made to fail with a chosen [Unix.error] (ENOSPC, EIO, ...), to write
    short, to tear mid-write and die, or to kill the process at a named
    {e crash-point} between syscalls — which makes every crash window of
    the WAL protocol reachable deterministically, in-process,
    without root, loop devices, or LD_PRELOAD.

    {b Sites} name instrumented operations (["wal-append"],
    ["wal-fsync"], ["snap-rename"], ...); {b crash-points} name the gaps
    between them (["after-wal-append"], ["before-snapshot-rename"], ...).
    A {!rule} matches one site or point by name and fires on its [nth]
    hit; [Crash] and [Torn] simulate [kill -9] via [Unix._exit 137] — no
    [at_exit], no buffer flushing, exactly the sudden-death the WAL must
    survive.

    Arming is per-process and is how the chaos campaign drives a forked
    daemon: the child arms a plan (or [fairsched serve --chaos SPEC]
    does), the parent watches it die with status 137 and then verifies
    recovery. *)

type action =
  | Fail of Unix.error
      (** Raise [Unix.Unix_error] instead of performing the operation.
          Meaningless at a crash-point (points separate syscalls; only
          syscalls fail). *)
  | Short of int
      (** Perform a write of at most this many bytes and return the
          (legitimate) short count.  Only meaningful at a write site. *)
  | Torn of int
      (** Write at most this many bytes, then [_exit 137]: a torn write
          followed by sudden death.  Only meaningful at a write site. *)
  | Crash  (** [_exit 137] before performing the operation. *)

type rule = {
  target : string;  (** site or crash-point name; ["*"] matches any *)
  nth : int;  (** fire on the [nth] matching hit (1-based) *)
  sticky : bool;  (** keep firing on every later hit too (ENOSPC stays) *)
  action : action;
}

(** {2 Arming} *)

val arm : rule list -> unit
(** Install a plan, resetting all hit counters.  Replaces any previous
    plan. *)

val disarm : unit -> unit
val armed : unit -> bool

val injected : unit -> int
(** Faults injected ([Fail]/[Short] fired) since the last {!arm}. *)

val hits : string -> int
(** Times the named site/point has been reached since the last {!arm}. *)

(** {2 Plan syntax}

    Comma-separated clauses, each [ACTION\@TARGET]:
    - [crash\@POINT] or [crash\@POINT:N] — die at the Nth hit;
    - [enospc\@SITE[:N][+]] / [eio\@SITE[:N][+]] — fail with ENOSPC/EIO;
      a trailing [+] makes the failure sticky (the disk stays full);
    - [short\@SITE[:N]=BYTES] — one short write of at most BYTES;
    - [torn\@SITE[:N]=BYTES] — write BYTES then die.

    Example: ["torn\@wal-append:3=10,crash\@before-snapshot-rename"]. *)

val of_string : string -> (rule list, string) result
val to_string : rule list -> string

val exit_code : int
(** The status a [Crash]/[Torn] death exits with (137, mimicking
    SIGKILL). *)

(** {2 Instrumented operations}

    Passthroughs to [Unix] when no rule matches.  [write] retries EINTR
    internally; the others surface it (callers treat it like any other
    [Unix_error]). *)

val point : string -> unit
(** Declare a crash-point.  No-op unless a [Crash] rule matches. *)

val openfile :
  site:string -> string -> Unix.open_flag list -> int -> Unix.file_descr

val write : site:string -> Unix.file_descr -> bytes -> int -> int -> int
val fsync : site:string -> Unix.file_descr -> unit
val rename : site:string -> string -> string -> unit
val ftruncate : site:string -> Unix.file_descr -> int -> unit
