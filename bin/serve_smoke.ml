(* End-to-end smoke for the service layer, driven through the REAL
   `fairsched` binary (argv.(1)):

   1. crash recovery — start `fairsched serve` with a state dir, submit
      a third of a golden instance over the socket, SIGKILL the daemon,
      restart it on the same state dir (which replays the WAL and
      appends to it), submit the next third, SIGKILL it again, restart,
      submit the rest, drain, and check ψsp and kernel stats
      bit-identical to the batch Sim.Driver.run of the full instance;
   2. CLI clients — `fairsched submit`, `status`, and `ctl psi` against
      a live daemon must exit 0;
   3. throughput — Loadgen against an ephemeral daemon must sustain the
      acceptance floor of 1000 submissions/s and report ack-latency
      percentiles.

   Any argv after the exe path is passed through to every `serve`
   invocation — `serve_smoke fairsched --groups 2 --shards 2` re-runs
   the whole gauntlet against a sharded daemon.  The smoke parses
   --groups/--shards out of the passthrough to shape its expectations:
   with groups > 1 the golden ψsp/stats come from per-group batch-
   equivalent engines over Partition.sub_config (grouping changes the
   game — each consortium pools only its own machines), loadgen mirrors
   the partition with one pipelined connection per group against a
   durable daemon, and that daemon must report fewer fsyncs than acks
   (one fsync per pump covers many acks).

   Exit 0 on success, 1 with a one-line reason on any failure. *)

open Smoke

(* Parsed back out of [extra_serve_args] to shape expectations. *)
let groups = ref 1
let shards = ref 1

(* --- phase 1: crash recovery --------------------------------------------- *)

(* The golden outcome the daemon must reproduce.  Unsharded, that is the
   batch Sim.Driver.run of the full instance.  With --groups G > 1 the
   daemon plays G independent games (each group pools only its own
   machine block), so the golden ψsp/stats come from one batch-equivalent
   Online engine per group over Partition.sub_config, fed the same jobs
   with org ids localized — scattered and summed back to global shape. *)
let expected_outcome ~service ~algorithm ~seed instance =
  if !groups = 1 then
    let batch =
      Sim.Driver.run ~instance
        ~rng:(Fstats.Rng.create ~seed)
        (Algorithms.Registry.find_exn algorithm)
    in
    (batch.Sim.Driver.utilities_scaled, batch.Sim.Driver.stats)
  else begin
    let p = Service.Partition.make service in
    let sessions =
      Array.init !groups (fun g ->
          Service.Online.create (Service.Partition.sub_config p g))
    in
    Array.iter
      (fun (j : Core.Job.t) ->
        let g = Service.Partition.group_of_org p j.Core.Job.org in
        match
          Service.Online.submit sessions.(g)
            ~org:(Service.Partition.local_org p j.Core.Job.org)
            ~user:j.Core.Job.user ~size:j.Core.Job.size
            ~release:j.Core.Job.release ()
        with
        | Ok _ -> ()
        | Error e ->
            fatal "grouped golden submit: %s" (Service.Online.error_to_string e))
      instance.Core.Instance.jobs;
    Array.iter Service.Online.drain sessions;
    let psi =
      Service.Partition.scatter_int p (fun g ->
          Service.Online.psi_scaled sessions.(g))
    in
    let stats =
      Kernel.Stats.total
        (Array.to_list (Array.map Service.Online.stats sessions))
    in
    (psi, stats)
  end

let crash_recovery_phase dir =
  let seed = 2013 and horizon = 20_000 and norgs = 3 and machines = 6 in
  let norgs = if !groups > norgs then !groups else norgs in
  let algorithm = "fairshare" in
  let spec =
    Workload.Scenario.default ~norgs ~machines ~horizon
      Workload.Traces.lpc_egee
  in
  let instance = Workload.Scenario.instance spec ~seed in
  let service =
    match
      Service.Config.make ~groups:!groups
        ~machines:(fst (Workload.Scenario.split_and_map spec ~seed))
        ~horizon ~algorithm ~seed ()
    with
    | Ok c -> c
    | Error msg -> fatal "config: %s" msg
  in
  let expected_psi, expected_stats =
    expected_outcome ~service ~algorithm ~seed instance
  in
  let jobs = instance.Core.Instance.jobs in
  let third = Array.length jobs / 3 in
  if third < 3 then fatal "golden instance too small (%d jobs)" (Array.length jobs);
  let sock = Filename.concat dir "smoke.sock" in
  let state = Filename.concat dir "state" in
  let addr = Service.Addr.Unix_sock sock in
  let serve_args =
    [
      "--listen"; "unix:" ^ sock; "--state"; state;
      "--algorithm"; algorithm; "--orgs"; string_of_int norgs;
      "--machines"; string_of_int machines;
      "--horizon"; string_of_int horizon; "--seed"; string_of_int seed;
    ]
  in
  (* Life k surfaces every acked submission of the lives before it, then
     appends the next third of the stream (the rest, in the last life) to
     the log it replayed. *)
  let life k =
    let pid = spawn_serve serve_args in
    let client = connect_retry addr in
    (match request client Service.Protocol.Status with
    | Service.Protocol.Status_ok st ->
        if st.Service.Protocol.accepted <> k * third then
          fail "recovered %d acked submissions, expected %d"
            st.Service.Protocol.accepted (k * third)
    | _ -> fatal "status: unexpected response");
    Array.iteri
      (fun i j ->
        if i >= k * third && (k = 2 || i < (k + 1) * third) then
          submit_job client j)
      jobs;
    (pid, client)
  in
  (* The first two lives end in kill -9; the finished third must match
     the uninterrupted batch bit for bit. *)
  List.iter
    (fun k ->
      let pid, client = life k in
      kill9 pid;
      Service.Client.close client)
    [ 0; 1 ];
  let pid, client = life 2 in
  (* The CLI clients against the live daemon. *)
  (let code = run_cli [ "status"; "--to"; sock ] in
   if code <> 0 then fail "`fairsched status` exited %d" code);
  (let code = run_cli [ "ctl"; "psi"; "--to"; sock ] in
   if code <> 0 then fail "`fairsched ctl psi` exited %d" code);
  (* Offline durability inspection of the live state dir (flat, or one
     wal-<g>/ segment per group under sharding). *)
  (let code = run_cli [ "ctl"; "wal-check"; state ] in
   if code <> 0 then fail "`fairsched ctl wal-check` exited %d" code);
  (match request client (Service.Protocol.Drain { detail = false }) with
  | Service.Protocol.Drain_ok r ->
      if r.Service.Protocol.d_psi_scaled <> expected_psi then
        fail "psi after crash differs from batch";
      if
        Kernel.Stats.to_json r.Service.Protocol.d_stats
        <> Kernel.Stats.to_json expected_stats
      then fail "kernel stats after crash differ from batch"
  | _ -> fatal "drain: unexpected response");
  Service.Client.close client;
  (match reap pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> fail "drained daemon exited %d" c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> fail "drained daemon was signaled");
  if !failures = 0 then
    Format.printf
      "serve-smoke: crash recovery OK (%d jobs, killed after %d and %d)@."
      (Array.length jobs) third (2 * third)

(* --- phase 2: submit via CLI against an ephemeral daemon ------------------ *)

let cli_submit_phase dir =
  let sock = Filename.concat dir "cli.sock" in
  let pid =
    spawn_serve
      [
        "--listen"; sock; "--orgs"; "2"; "--machines"; "4";
        "--horizon"; "1000"; "--algorithm"; "fifo";
      ]
  in
  Fun.protect
    ~finally:(fun () -> kill9 pid)
    (fun () ->
      Service.Client.close (connect_retry (Service.Addr.Unix_sock sock));
      let code =
        run_cli [ "submit"; "--to"; sock; "--org"; "1"; "--size"; "5" ]
      in
      if code <> 0 then fail "`fairsched submit` exited %d" code;
      let code = run_cli [ "ctl"; "drain"; "--to"; sock ] in
      if code <> 0 then fail "`fairsched ctl drain` exited %d" code)

(* --- phase 3: loadgen throughput ----------------------------------------- *)

let loadgen_phase dir =
  let seed = 9 and count = 2_000 in
  let spec =
    Workload.Scenario.default ~norgs:3 ~machines:8 ~horizon:1_000_000
      Workload.Traces.lpc_egee
  in
  let sock = Filename.concat dir "load.sock" in
  let pid =
    spawn_serve
      ([
         "--listen"; sock; "--orgs"; "3"; "--machines"; "8";
         "--horizon"; "1000000"; "--seed"; string_of_int seed;
         "--algorithm"; "fairshare";
       ]
      @
      (* A sharded run also checks fsync amortization, so give the
         daemon a state dir (otherwise stay ephemeral, the classic
         throughput floor). *)
      if !groups > 1 then [ "--state"; Filename.concat dir "load-state" ]
      else [])
  in
  Fun.protect
    ~finally:(fun () -> kill9 pid)
    (fun () ->
      let addr = Service.Addr.Unix_sock sock in
      Service.Client.close (connect_retry addr);
      (* Mirror the daemon's shape: one connection per org-group, and —
         when sharded — a pipelined window so one fsync can cover many
         acks. *)
      let window = if !groups > 1 then 32 else 1 in
      let report =
        match
          Service.Loadgen.run
            {
              Service.Loadgen.addr;
              spec;
              seed;
              rate = 0.;
              count;
              drain = false;
              policy = Service.Retry.default;
              timeout_s = 5.0;
              connections = !groups;
              groups = !groups;
              window;
            }
        with
        | Ok r -> r
        | Error msg -> fatal "loadgen: %s" msg
      in
      Format.printf "serve-smoke: loadgen %a@." Service.Loadgen.pp_report
        report;
      if report.Service.Loadgen.accepted <> count then
        fail "loadgen accepted %d of %d" report.Service.Loadgen.accepted count;
      if report.Service.Loadgen.errors <> 0 then
        fail "loadgen transport errors: %d" report.Service.Loadgen.errors;
      if report.Service.Loadgen.ack_latency.Obs.Metrics.count <> count then
        fail "ack-latency histogram incomplete";
      (* The acceptance floor: >= 1000 sustained submissions per second. *)
      if report.Service.Loadgen.achieved_rate < 1000. then
        fail "throughput %.0f/s below the 1000/s floor"
          report.Service.Loadgen.achieved_rate;
      (* The daemon's own view: the partition it reported must be the one
         we asked for, and a sharded run must have amortized fsyncs. *)
      let client = connect_retry addr in
      (match request client Service.Protocol.Status with
      | Service.Protocol.Status_ok st ->
          if st.Service.Protocol.groups <> !groups then
            fail "daemon reports %d groups, expected %d"
              st.Service.Protocol.groups !groups;
          let w = if !shards < !groups then !shards else !groups in
          let w = if w < 1 then 1 else w in
          if st.Service.Protocol.shards <> w then
            fail "daemon reports %d shards, expected %d"
              st.Service.Protocol.shards w;
          if
            !groups > 1
            && st.Service.Protocol.fsyncs >= st.Service.Protocol.accepted
          then
            fail "fsyncs did not amortize: %d fsyncs for %d accepted"
              st.Service.Protocol.fsyncs st.Service.Protocol.accepted
      | _ -> fatal "status: unexpected response");
      (match request client (Service.Protocol.Drain { detail = false }) with
      | Service.Protocol.Drain_ok _ -> ()
      | _ -> fatal "drain: unexpected response");
      Service.Client.close client)

let () =
  init ~name:"serve-smoke" ~usage:"serve_smoke FAIRSCHED_EXE [SERVE_ARGS...]";
  (let rec scan = function
     | "--groups" :: v :: rest ->
         groups := int_of_string v;
         scan rest
     | "--shards" :: v :: rest ->
         shards := int_of_string v;
         scan rest
     | _ :: rest -> scan rest
     | [] -> ()
   in
   try scan !extra_serve_args
   with Failure _ -> fatal "bad --groups/--shards value");
  with_tmpdir (fun dir ->
      crash_recovery_phase dir;
      cli_submit_phase dir;
      loadgen_phase dir);
  finish ()
