(* End-to-end smoke for the federation subsystem, driven through the REAL
   `fairsched` binary (argv.(1)):

   one endowment script — lend/reclaim cycles between adjacent orgs plus a
   full leave/rejoin — is played twice against the same workload:

   1. batch: `Sim.Driver.run ~federation` over the full instance (the
      study path `fairsched federation` builds on);
   2. served: a federated daemon (`serve --federation`) fed the same jobs
      and endow events interleaved in global time order over the socket,
      SIGKILLed mid-churn (after the leave/rejoin, with half the lend
      cycles still ahead), restarted on its state dir, fed the rest, and
      drained.

   The final ψsp vector and kernel counters must agree bit for bit —
   endowment churn is input, the WAL stores it, so replay is complete.

   Any argv after the exe path is passed through to the `serve`
   invocation — `federation_smoke fairsched --groups 2 --shards 2` runs
   the gauntlet against a sharded daemon.  As in serve_smoke, grouping
   changes the game (each group pools only its own machines), so with
   --groups G > 1 the golden outcome comes from one batch-equivalent
   Online engine per group fed the same localized stream; the endowment
   script only ever names orgs from the same half of the consortium, so
   it stays group-local for G in {1, 2}.

   Exit 0 on success, 1 with a one-line reason on any failure. *)

open Smoke

let groups = ref 1

let send_endow client ({ Federation.Event.time; event } : Federation.Event.timed)
    =
  match
    request client
      (Service.Protocol.Endow { time; event; cid = 0; cseq = 0; trace = 0 })
  with
  | Service.Protocol.Endow_ok _ -> ()
  | Service.Protocol.Error { msg; _ } ->
      fatal "endow %a rejected: %s" Federation.Event.pp event msg
  | _ -> fatal "endow: unexpected response"

(* --- the endowment script ------------------------------------------------- *)

(* Built from the daemon's own machine split (split_and_map, same spec and
   seed), so the global machine ids below are exactly the ids the served
   cluster uses.  Events pair adjacent orgs — (0,1) and (2,3) — so the
   script is group-local under --groups 2's contiguous blocks. *)
let script_of_split (machines_per_org : int array) =
  let start u =
    let s = ref 0 in
    for v = 0 to u - 1 do
      s := !s + machines_per_org.(v)
    done;
    !s
  in
  let last u = start u + machines_per_org.(u) - 1 in
  let ev time event = { Federation.Event.time; event } in
  [
    ev 1_500 (Federation.Event.Lend { org = 1; to_org = 0; machines = [ last 1 ] });
    ev 4_000 (Federation.Event.Leave { org = 3 });
    ev 4_500 (Federation.Event.Reclaim { org = 1; machines = [ last 1 ] });
    ev 7_000 (Federation.Event.Join { org = 3; machines = [] });
    ev 9_000 (Federation.Event.Lend { org = 2; to_org = 3; machines = [ last 2 ] });
    ev 12_000 (Federation.Event.Reclaim { org = 2; machines = [ last 2 ] });
    ev 15_000 (Federation.Event.Lend { org = 0; to_org = 1; machines = [ last 0 ] });
    ev 17_500 (Federation.Event.Reclaim { org = 0; machines = [ last 0 ] });
  ]

(* Jobs and endow events merged in global time order (endows first at
   ties), which is the only order a live daemon accepts: an endow at time
   T advances the admission frontier to T, so every later submission must
   carry release >= T.  Per-group subsequences of a globally ordered
   stream are ordered too, so the same merge feeds any --groups shape. *)
type feed = Job of Core.Job.t | Endow of Federation.Event.timed

let merge_feeds (jobs : Core.Job.t array) script =
  let rec go acc jobs script =
    match (jobs, script) with
    | [], [] -> List.rev acc
    | [], e :: rest -> go (Endow e :: acc) [] rest
    | j :: rest, [] -> go (Job j :: acc) rest []
    | j :: jrest, e :: erest ->
        if e.Federation.Event.time <= j.Core.Job.release then
          go (Endow e :: acc) jobs erest
        else go (Job j :: acc) jrest script
  in
  go [] (Array.to_list jobs) script

(* --- golden outcome ------------------------------------------------------- *)

let local_endow p event =
  let lorg o = Service.Partition.local_org p o in
  let lmachs ms = List.map (Service.Partition.local_machine p) ms in
  match event with
  | Federation.Event.Join { org; machines } ->
      Federation.Event.Join { org = lorg org; machines = lmachs machines }
  | Federation.Event.Leave { org } -> Federation.Event.Leave { org = lorg org }
  | Federation.Event.Lend { org; to_org; machines } ->
      Federation.Event.Lend
        { org = lorg org; to_org = lorg to_org; machines = lmachs machines }
  | Federation.Event.Reclaim { org; machines } ->
      Federation.Event.Reclaim { org = lorg org; machines = lmachs machines }

(* Unsharded, the golden outcome is the batch Sim.Driver.run of the full
   instance with the full script — the ISSUE's headline equivalence.
   With --groups G > 1 the daemon plays G independent games, so the
   golden comes from one Online engine per group over
   Partition.sub_config, fed the same merged stream with org and machine
   ids localized. *)
let expected_outcome ~service ~algorithm ~seed ~federation instance feeds =
  if !groups = 1 then
    let batch =
      Sim.Driver.run ~instance ~federation
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
    List.iter
      (function
        | Job (j : Core.Job.t) -> (
            let g = Service.Partition.group_of_org p j.Core.Job.org in
            match
              Service.Online.submit sessions.(g)
                ~org:(Service.Partition.local_org p j.Core.Job.org)
                ~user:j.Core.Job.user ~size:j.Core.Job.size
                ~release:j.Core.Job.release ()
            with
            | Ok _ -> ()
            | Error e ->
                fatal "grouped golden submit: %s"
                  (Service.Online.error_to_string e))
        | Endow { Federation.Event.time; event } -> (
            let g =
              Service.Partition.group_of_org p (Federation.Event.org event)
            in
            match
              Service.Online.endow sessions.(g) ~time (local_endow p event)
            with
            | Ok () -> ()
            | Error e ->
                fatal "grouped golden endow: %s"
                  (Service.Online.error_to_string e)))
      feeds;
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

(* --- the gauntlet --------------------------------------------------------- *)

let churn_phase dir =
  let seed = 2013 and horizon = 20_000 and norgs = 4 and machines = 8 in
  let algorithm = "ref" in
  let spec =
    Workload.Scenario.default ~norgs ~machines ~horizon
      Workload.Traces.lpc_egee
  in
  let instance = Workload.Scenario.instance spec ~seed in
  let machines_per_org = fst (Workload.Scenario.split_and_map spec ~seed) in
  let script = script_of_split machines_per_org in
  let homes =
    Array.concat
      (List.mapi
         (fun u n -> Array.make n u)
         (Array.to_list machines_per_org))
  in
  (match Federation.Event.validate ~orgs:norgs ~homes script with
  | Ok () -> ()
  | Error msg -> fatal "script invalid: %s" msg);
  let service =
    match
      Service.Config.make ~groups:!groups ~federated:true
        ~machines:machines_per_org ~horizon ~algorithm ~seed ()
    with
    | Ok c -> c
    | Error msg -> fatal "config: %s" msg
  in
  let feeds = merge_feeds instance.Core.Instance.jobs script in
  let expected_psi, expected_stats =
    expected_outcome ~service ~algorithm ~seed ~federation:script instance
      feeds
  in
  (* Kill mid-churn: right after the org-3 rejoin (the 4th endow event),
     with both remaining lend/reclaim cycles still ahead of the WAL. *)
  let cut =
    let rec go i endows = function
      | [] -> fatal "script never reached the 4th endow"
      | Endow _ :: rest ->
          if endows + 1 = 4 then i + 1 else go (i + 1) (endows + 1) rest
      | Job _ :: rest -> go (i + 1) endows rest
    in
    go 0 0 feeds
  in
  let before = List.filteri (fun i _ -> i < cut) feeds in
  let after = List.filteri (fun i _ -> i >= cut) feeds in
  let sock = Filename.concat dir "fed.sock" in
  let state = Filename.concat dir "state" in
  let addr = Service.Addr.Unix_sock sock in
  let serve_args =
    [
      "--listen"; "unix:" ^ sock; "--state"; state;
      "--algorithm"; algorithm; "--orgs"; string_of_int norgs;
      "--machines"; string_of_int machines;
      "--horizon"; string_of_int horizon; "--seed"; string_of_int seed;
      "--federation";
    ]
  in
  let feed_one client = function
    | Job j -> submit_job client j
    | Endow e -> send_endow client e
  in
  (* First life: jobs and churn up to the rejoin, then kill -9, so
     recovery replays submissions AND endow records from the WAL. *)
  let pid = spawn_serve serve_args in
  let client = connect_retry addr in
  List.iter (feed_one client) before;
  kill9 pid;
  Service.Client.close client;
  (* Second life: every acked record — endow events included — must
     resurface, then the finished run must match the golden bit for
     bit. *)
  let pid = spawn_serve serve_args in
  let client = connect_retry addr in
  (match request client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      if st.Service.Protocol.accepted <> cut then
        fail "recovered %d acked records, expected %d"
          st.Service.Protocol.accepted cut
  | _ -> fatal "status: unexpected response");
  List.iter (feed_one client) after;
  (match request client (Service.Protocol.Drain { detail = false }) with
  | Service.Protocol.Drain_ok r ->
      if r.Service.Protocol.d_psi_scaled <> expected_psi then
        fail "served psi differs from the batch run of the same script";
      if
        Kernel.Stats.to_json r.Service.Protocol.d_stats
        <> Kernel.Stats.to_json expected_stats
      then fail "served kernel stats differ from the batch run"
  | _ -> fatal "drain: unexpected response");
  Service.Client.close client;
  (match reap pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> fail "drained daemon exited %d" c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> fail "drained daemon was signaled");
  if !failures = 0 then
    Format.printf
      "federation-smoke: churn equivalence OK (%d jobs + %d endow events, \
       kill -9 after %d records, groups %d)@."
      (Array.length instance.Core.Instance.jobs)
      (List.length script) cut !groups

let () =
  init ~name:"federation-smoke"
    ~usage:"federation_smoke FAIRSCHED_EXE [SERVE_ARGS...]";
  (let rec scan = function
     | "--groups" :: v :: rest ->
         groups := int_of_string v;
         scan rest
     | _ :: rest -> scan rest
     | [] -> ()
   in
   try scan !extra_serve_args with Failure _ -> fatal "bad --groups value");
  with_tmpdir churn_phase;
  finish ()
