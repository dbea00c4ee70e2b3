(* Tests for the online scheduler daemon (lib/service): config and wire
   round-trips, WAL durability semantics, the batch/served equivalence
   contract, backpressure, and crash recovery with a real kill -9. *)

let ( let@ ) f x = f x
let with_tmpdir = Support.with_tmpdir

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* --- Config ----------------------------------------------------------------- *)

let mk_config ?speeds ?max_restarts ?groups
    ?(machines = [| 2; 1; 1 |]) ?(horizon = 60) ?(algorithm = "fifo")
    ?(seed = 7) () =
  match
    Service.Config.make ?speeds ?max_restarts ?groups ~machines
      ~horizon ~algorithm ~seed ()
  with
  | Ok c -> c
  | Error msg -> Alcotest.failf "config rejected: %s" msg

let test_config_roundtrip () =
  let check c =
    match Service.Config.of_json (Service.Config.to_json c) with
    | Ok c' ->
        Alcotest.(check bool) "round-trips" true (Service.Config.equal c c')
    | Error msg -> Alcotest.failf "of_json: %s" msg
  in
  check (mk_config ());
  check (mk_config ~algorithm:"ref" ~max_restarts:3 ());
  check (mk_config ~machines:[| 1; 1 |] ~speeds:[| 2.0; 0.5 |] ());
  (* WAL headers and snapshots written by older daemons may carry a
     "workers" member; it must be ignored, not rejected. *)
  let c = mk_config ~algorithm:"ref" ~max_restarts:3 () in
  match Service.Config.to_json c with
  | Obs.Json.Obj members -> (
      match
        Service.Config.of_json
          (Obs.Json.Obj (members @ [ ("workers", Obs.Json.Int 2) ]))
      with
      | Ok c' ->
          Alcotest.(check bool) "old \"workers\" member ignored" true
            (Service.Config.equal c c')
      | Error msg -> Alcotest.failf "of_json with workers: %s" msg)
  | _ -> Alcotest.fail "config JSON is not an object"

let test_config_validation () =
  let reject ?speeds ?max_restarts ?(machines = [| 1 |]) ?(horizon = 10)
      ?(algorithm = "fifo") label =
    match
      Service.Config.make ?speeds ?max_restarts ~machines ~horizon ~algorithm
        ~seed:0 ()
    with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error _ -> ()
  in
  reject "empty" ~machines:[||];
  reject "negative" ~machines:[| 2; -1 |];
  reject "all zero" ~machines:[| 0; 0 |];
  reject "bad horizon" ~horizon:0;
  reject "unknown algorithm" ~algorithm:"nosuchalgo";
  reject "bad restarts" ~max_restarts:(-1);
  reject "speeds length" ~speeds:[| 1.0; 1.0 |];
  reject "zero speed" ~speeds:[| 0.0 |]

(* ψsp is an exact ×2-scaled int: at the largest horizon Config accepts,
   every machine busy from 0 to the horizon still drains with ψsp >= 0,
   and one step past it is refused with an error naming the bound. *)
let range_bound_qcheck =
  QCheck.Test.make ~count:12 ~name:"largest accepted horizon drains with psi >= 0"
    QCheck.(pair (int_range 1 3) (int_range 1 4))
    (fun (orgs, per) ->
      let machines = Array.make orgs per in
      let horizon = Core.Instance.max_horizon ~machines:(orgs * per) in
      let make horizon =
        Service.Config.make ~machines ~horizon ~algorithm:"fairshare" ~seed:1 ()
      in
      (match make (horizon + 1) with
      | Ok _ -> QCheck.Test.fail_reportf "horizon %d accepted" (horizon + 1)
      | Error msg ->
          if not (contains msg "max_int") then
            QCheck.Test.fail_reportf "error does not name the bound: %s" msg);
      match make horizon with
      | Error msg -> QCheck.Test.fail_reportf "horizon %d refused: %s" horizon msg
      | Ok config ->
          let online = Service.Online.create config in
          for org = 0 to orgs - 1 do
            for _ = 1 to per do
              match
                Service.Online.submit online ~org ~size:horizon ~release:0 ()
              with
              | Ok _ -> ()
              | Error e ->
                  QCheck.Test.fail_report (Service.Online.error_to_string e)
            done
          done;
          Service.Online.drain online;
          let psi = Service.Online.psi_scaled online in
          Array.for_all (fun v -> v > 0) psi)

(* --- Addr ------------------------------------------------------------------- *)

let test_addr () =
  let ok s expect =
    match Service.Addr.of_string s with
    | Ok a -> Alcotest.(check string) s expect (Service.Addr.to_string a)
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok "/tmp/x.sock" "unix:/tmp/x.sock";
  ok "tcp:127.0.0.1:9000" "tcp:127.0.0.1:9000";
  ok "tcp:localhost:80" "tcp:localhost:80";
  let bad s =
    match Service.Addr.of_string s with
    | Ok _ -> Alcotest.failf "%s accepted" s
    | Error _ -> ()
  in
  bad "";
  bad "unix:";
  bad "tcp:host";
  bad "tcp:host:0";
  bad "tcp:host:99999";
  bad "tcp::123";
  bad "nonsense"

(* --- Protocol --------------------------------------------------------------- *)

let test_protocol_requests () =
  let roundtrip r =
    let line = Service.Protocol.request_to_line r in
    match Service.Protocol.request_of_line (String.trim line) with
    | Ok r' -> Alcotest.(check bool) line true (r = r')
    | Error msg -> Alcotest.failf "%s: %s" line msg
  in
  roundtrip
    (Service.Protocol.Submit
       { org = 1; user = 3; release = 5; size = 2; cid = 0; cseq = 0; trace = 0 });
  roundtrip
    (Service.Protocol.Submit
       { org = 1; user = 3; release = 5; size = 2; cid = 71; cseq = 4; trace = 9 });
  roundtrip
    (Service.Protocol.Fault
       { time = 9; event = Faults.Event.Fail 2; cid = 0; cseq = 0; trace = 0 });
  roundtrip
    (Service.Protocol.Fault
       { time = 12; event = Faults.Event.Recover 2; cid = 3; cseq = 9; trace = 5 });
  roundtrip Service.Protocol.Status;
  roundtrip Service.Protocol.Psi;
  roundtrip (Service.Protocol.Drain { detail = true });
  (match Service.Protocol.request_of_line "{\"op\":\"nosuch\"}" with
  | Ok _ -> Alcotest.fail "unknown op accepted"
  | Error _ -> ());
  (* The daemon answers a line it cannot take with the code
     [decode_request] gives it: an unknown op is a parse error, while
     [snapshot] — served by older daemons, gone now that the WAL is the
     only durable state — is a bad request that says why. *)
  (match Service.Protocol.decode_request {|{"op":"nosuch"}|} with
  | Error (Service.Protocol.Parse, _) -> ()
  | _ -> Alcotest.fail "unknown op: expected a parse error");
  (match Service.Protocol.decode_request {|{"op":"snapshot"}|} with
  | Error (Service.Protocol.Bad_request, msg) ->
      Alcotest.(check bool) ("snapshot refusal says why: " ^ msg) true
        (contains msg "WAL")
  | _ -> Alcotest.fail "snapshot op: expected a typed bad request");
  (match Service.Protocol.request_of_line {|{"op":"snapshot"}|} with
  | Ok _ -> Alcotest.fail "snapshot op accepted"
  | Error _ -> ());
  match Service.Protocol.request_of_line "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

(* Fixed wire bytes, one line per feed kind with and without the optional
   client fields.  Round-tripping a value cannot catch a field renamed in
   both encoder and decoder; decoding these lines and re-encoding them
   byte for byte can. *)
let test_protocol_golden () =
  List.iter
    (fun line ->
      match Service.Protocol.request_of_line line with
      | Ok r ->
          Alcotest.(check string) line (line ^ "\n")
            (Service.Protocol.request_to_line r)
      | Error msg -> Alcotest.failf "%s: %s" line msg)
    [
      {|{"op":"submit","org":1,"user":3,"release":5,"size":2}|};
      {|{"op":"submit","org":1,"user":3,"release":5,"size":2,"cid":71,"cseq":4,"trace":9}|};
      {|{"op":"fault","time":9,"kind":"fail","machine":2}|};
      {|{"op":"fault","time":12,"kind":"recover","machine":2,"cid":3,"cseq":9,"trace":5}|};
      {|{"op":"endow","time":4,"kind":"join","org":1}|};
      {|{"op":"endow","time":5,"kind":"leave","org":2,"cid":8,"cseq":1}|};
      {|{"op":"endow","time":6,"kind":"lend","org":0,"to_org":1,"machines":[0,1],"cid":8,"cseq":2,"trace":3}|};
      {|{"op":"endow","time":7,"kind":"reclaim","org":0,"machines":[1]}|};
    ]

let test_protocol_responses () =
  let roundtrip r =
    let line = Service.Protocol.response_to_line r in
    match Service.Protocol.response_of_line (String.trim line) with
    | Ok r' -> Alcotest.(check bool) line true (r = r')
    | Error msg -> Alcotest.failf "%s: %s" line msg
  in
  roundtrip (Service.Protocol.Submit_ok { seq = 4; org = 1; index = 0; now = 3 });
  roundtrip (Service.Protocol.Fault_ok { seq = 5; now = 9 });
  roundtrip
    (Service.Protocol.Psi_ok
       { now = 7; psi_scaled = [| 4; 0; 9 |]; parts = [| 2; 0; 3 |] });
  roundtrip
    (Service.Protocol.Error
       {
         code = Service.Protocol.Backpressure;
         msg = "queue full";
         retry_after_ms = None;
       });
  roundtrip
    (Service.Protocol.Error
       {
         code = Service.Protocol.Backpressure;
         msg = "shedding load";
         retry_after_ms = Some 120;
       });
  let stats = Kernel.Stats.create () in
  stats.Kernel.Stats.instants <- 42;
  stats.Kernel.Stats.starts <- 7;
  roundtrip
    (Service.Protocol.Status_ok
       {
         Service.Protocol.now = 10;
         frontier = 12;
         horizon = 100;
         orgs = 3;
         machines = 4;
         accepted = 20;
         rejected = 2;
         queue_depth = 1;
         queue_cap = 1024;
         draining = false;
         waiting = [| 1; 0; 2 |];
         stats;
         job_wait =
           Some { Obs.Metrics.count = 5; p50 = 1.; p90 = 2.; p99 = 4.; max = 4. };
         estimator = "rand:0.1,0.9";
         shed = 17;
         ack_ewma_ms = 3.5;
         groups = 2;
         shards = 2;
         fsyncs = 9;
       });
  (* Daemons that still switched estimators under overload sent a
     "degraded" member; it must be ignored, not rejected. *)
  let old_line =
    {|{"ok":true,"op":"status","now":10,"frontier":12,"horizon":100,"orgs":1,"machines":2,"accepted":3,"rejected":0,"queue_depth":0,"queue_cap":8,"draining":false,"waiting":[0],"stats":|}
    ^ Obs.Json.to_string (Kernel.Stats.json stats)
    ^ {|,"estimator":"ref","degraded":true,"shed":4}|}
  in
  (match Service.Protocol.response_of_line old_line with
  | Ok (Service.Protocol.Status_ok st) ->
      Alcotest.(check string) "estimator kept" "ref" st.Service.Protocol.estimator;
      Alcotest.(check int) "shed kept" 4 st.Service.Protocol.shed
  | Ok _ -> Alcotest.fail "old status line decoded as another response"
  | Error msg -> Alcotest.failf "old status line refused: %s" msg);
  roundtrip
    (Service.Protocol.Drain_ok
       {
         Service.Protocol.d_now = 99;
         d_psi_scaled = [| 10; 20 |];
         d_parts = [| 5; 6 |];
         d_stats = stats;
         d_schedule = Some [ (0, 0, 1, 2, 3); (1, 0, 4, 0, 2) ];
       })

(* --- WAL -------------------------------------------------------------------- *)

let sample_records =
  [
    Service.Wal.Submit
      { seq = 1; org = 0; user = 2; release = 0; size = 3; cid = 0; cseq = 0 };
    Service.Wal.Fault
      { seq = 2; time = 1; event = Faults.Event.Fail 0; cid = 12; cseq = 1 };
    Service.Wal.Submit
      { seq = 3; org = 1; user = 0; release = 2; size = 1; cid = 12; cseq = 2 };
    Service.Wal.Fault
      { seq = 4; time = 3; event = Faults.Event.Recover 0; cid = 0; cseq = 0 };
  ]

let test_wal_roundtrip () =
  let@ dir = with_tmpdir in
  let config = mk_config () in
  let w =
    match Service.Wal.create ~dir ~config () with
    | Ok w -> w
    | Error msg -> Alcotest.failf "create: %s" msg
  in
  List.iter (Service.Wal.append w) sample_records;
  (match Service.Wal.sync w with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "sync: %s" msg);
  Service.Wal.close w;
  match Service.Wal.recover ~dir with
  | Error e ->
      Alcotest.failf "recover: %s" (Service.Wal.boot_error_to_string e)
  | Ok r ->
      Alcotest.(check bool)
        "config recovered" true
        (match r.Service.Wal.r_config with
        | Some c -> Service.Config.equal c config
        | None -> false);
      Alcotest.(check bool)
        "records recovered" true
        (r.Service.Wal.r_records = sample_records);
      Alcotest.(check int) "last seq" 4 r.Service.Wal.r_last_seq

(* Fixed on-disk bytes, one line per record kind with and without the
   optional client fields: existing state dirs hold exactly these lines,
   so each must decode and re-encode byte for byte. *)
let test_wal_golden () =
  List.iter
    (fun line ->
      match
        Result.bind (Obs.Json.of_string line) Service.Wal.record_of_json
      with
      | Ok r ->
          Alcotest.(check string) line line
            (Obs.Json.to_string (Service.Wal.record_to_json r))
      | Error msg -> Alcotest.failf "%s: %s" line msg)
    [
      {|{"rec":"submit","seq":1,"org":0,"user":2,"release":0,"size":3}|};
      {|{"rec":"submit","seq":3,"org":1,"user":0,"release":2,"size":1,"cid":12,"cseq":2}|};
      {|{"rec":"fault","seq":2,"time":1,"kind":"fail","machine":0}|};
      {|{"rec":"fault","seq":4,"time":3,"kind":"recover","machine":0,"cid":12,"cseq":3}|};
      {|{"rec":"endow","seq":5,"time":4,"kind":"join","org":1,"machines":[2,3]}|};
      {|{"rec":"endow","seq":6,"time":5,"kind":"lend","org":0,"to_org":1,"machines":[1],"cid":9,"cseq":1}|};
      {|{"rec":"mode","seq":7,"estimator":"rand:0.1,0.95"}|};
    ]

let test_wal_torn_tail () =
  let@ dir = with_tmpdir in
  let config = mk_config () in
  let w =
    match Service.Wal.create ~dir ~config () with
    | Ok w -> w
    | Error msg -> Alcotest.failf "create: %s" msg
  in
  List.iter (Service.Wal.append w) sample_records;
  ignore (Service.Wal.sync w);
  Service.Wal.close w;
  (* Simulate a crash mid-append: a half-written record on the last line. *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Service.Wal.wal_path ~dir)
  in
  output_string oc "{\"rec\":\"submit\",\"seq\":5,\"or";
  close_out oc;
  (match Service.Wal.recover ~dir with
  | Error e ->
      Alcotest.failf "torn tail should recover: %s"
        (Service.Wal.boot_error_to_string e)
  | Ok r ->
      Alcotest.(check int) "torn line dropped" 4 r.Service.Wal.r_last_seq);
  (* A corrupt line in the MIDDLE means damage, not a torn append. *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Service.Wal.wal_path ~dir)
  in
  output_string oc "nsense\n";
  output_string oc
    "{\"rec\":\"submit\",\"seq\":6,\"org\":0,\"user\":0,\"release\":9,\"size\":1}\n";
  close_out oc;
  match Service.Wal.recover ~dir with
  | Ok _ -> Alcotest.fail "corrupt middle line accepted"
  | Error _ -> ()

let test_wal_snapshot_dedupe () =
  let@ dir = with_tmpdir in
  let config = mk_config () in
  (* Legacy snapshot covering seqs 1-2; WAL holding 1-4 (as an older
     daemon left it after a crash between snapshot rename and WAL
     truncation): recovery must not replay 1-2 twice. *)
  let snap_records = [ List.nth sample_records 0; List.nth sample_records 1 ] in
  (match
     Service.Wal.write_snapshot ~dir
       { Service.Wal.config; last_seq = 2; records = snap_records }
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "write_snapshot: %s" msg);
  let w =
    match Service.Wal.create ~dir ~config () with
    | Ok w -> w
    | Error msg -> Alcotest.failf "create: %s" msg
  in
  List.iter (Service.Wal.append w) sample_records;
  ignore (Service.Wal.sync w);
  Service.Wal.close w;
  match Service.Wal.recover ~dir with
  | Error e ->
      Alcotest.failf "recover: %s" (Service.Wal.boot_error_to_string e)
  | Ok r ->
      Alcotest.(check bool)
        "seq-deduped" true
        (r.Service.Wal.r_records = sample_records);
      Alcotest.(check int) "last seq" 4 r.Service.Wal.r_last_seq

(* A failed sync (ENOSPC here, via the chaos shim) must leave the batch
   pending and the file repairable: the retried sync lands every record
   exactly once, with no interleaved half-records. *)
let test_wal_sync_repair () =
  let@ dir = with_tmpdir in
  let config = mk_config () in
  Fun.protect ~finally:Chaos.Fs.disarm @@ fun () ->
  let w =
    match Service.Wal.create ~dir ~config () with
    | Ok w -> w
    | Error msg -> Alcotest.failf "create: %s" msg
  in
  Service.Wal.append w (List.nth sample_records 0);
  Service.Wal.append w (List.nth sample_records 1);
  Chaos.Fs.arm
    [
      {
        Chaos.Fs.target = "wal-fsync";
        nth = 1;
        sticky = false;
        action = Chaos.Fs.Fail Unix.ENOSPC;
      };
    ];
  (match Service.Wal.sync w with
  | Ok () -> Alcotest.fail "sync must surface ENOSPC"
  | Error _ -> ());
  Alcotest.(check bool) "batch still pending" true (Service.Wal.pending w);
  Chaos.Fs.disarm ();
  (* Space comes back; a later append joins the retried batch in order. *)
  Service.Wal.append w (List.nth sample_records 2);
  (match Service.Wal.sync w with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "retried sync: %s" msg);
  Alcotest.(check bool) "nothing pending" false (Service.Wal.pending w);
  Service.Wal.close w;
  match Service.Wal.recover ~dir with
  | Error e ->
      Alcotest.failf "recover: %s" (Service.Wal.boot_error_to_string e)
  | Ok r ->
      Alcotest.(check bool)
        "each record exactly once, in order" true
        (r.Service.Wal.r_records
        = [
            List.nth sample_records 0;
            List.nth sample_records 1;
            List.nth sample_records 2;
          ])

(* --- Retry policy ------------------------------------------------------------ *)

let test_retry_backoff () =
  let rng = Fstats.Rng.create ~seed:1 in
  let p =
    Service.Retry.policy ~max_attempts:5 ~base_delay_ms:10. ~max_delay_ms:40.
      ~multiplier:2. ~jitter:0. ~budget_ms:0. ()
  in
  let delay ?retry_after_ms attempt =
    match
      Service.Retry.next p ~rng ~attempt ~elapsed_ms:0. ~retry_after_ms
    with
    | Service.Retry.Sleep d -> d
    | Service.Retry.Give_up -> Alcotest.failf "gave up at attempt %d" attempt
  in
  Alcotest.(check (float 0.001)) "attempt 1" 10. (delay 1);
  Alcotest.(check (float 0.001)) "attempt 2 doubles" 20. (delay 2);
  Alcotest.(check (float 0.001)) "attempt 3 doubles" 40. (delay 3);
  Alcotest.(check (float 0.001)) "attempt 4 capped" 40. (delay 4);
  (match
     Service.Retry.next p ~rng ~attempt:5 ~elapsed_ms:0. ~retry_after_ms:None
   with
  | Service.Retry.Give_up -> ()
  | Service.Retry.Sleep _ -> Alcotest.fail "attempt = max_attempts must give up");
  (* The server's hint is a floor, never a cap. *)
  Alcotest.(check (float 0.001))
    "hint raises the delay" 500.
    (delay ~retry_after_ms:500 1);
  Alcotest.(check (float 0.001))
    "hint below backoff is ignored" 20.
    (delay ~retry_after_ms:5 2)

let test_retry_budget_and_jitter () =
  let rng = Fstats.Rng.create ~seed:2 in
  let p =
    Service.Retry.policy ~max_attempts:100 ~base_delay_ms:100. ~jitter:0.
      ~budget_ms:250. ()
  in
  (* Better to fail now than to sleep into certain failure. *)
  (match
     Service.Retry.next p ~rng ~attempt:1 ~elapsed_ms:200. ~retry_after_ms:None
   with
  | Service.Retry.Sleep _ -> Alcotest.fail "slept past the budget"
  | Service.Retry.Give_up -> ());
  (match
     Service.Retry.next p ~rng ~attempt:1 ~elapsed_ms:100. ~retry_after_ms:None
   with
  | Service.Retry.Sleep d ->
      Alcotest.(check (float 0.001)) "within budget" 100. d
  | Service.Retry.Give_up -> Alcotest.fail "budget not yet exhausted");
  let pj =
    Service.Retry.policy ~max_attempts:10 ~base_delay_ms:100. ~max_delay_ms:100.
      ~jitter:0.25 ~budget_ms:0. ()
  in
  for _ = 1 to 200 do
    match
      Service.Retry.next pj ~rng ~attempt:1 ~elapsed_ms:0. ~retry_after_ms:None
    with
    | Service.Retry.Sleep d ->
        if d < 74.999 || d > 125.001 then
          Alcotest.failf "jittered delay %g outside [75, 125]" d
    | Service.Retry.Give_up -> Alcotest.fail "gave up under no budget"
  done

(* --- Overload detector ------------------------------------------------------- *)

let overload_cfg =
  {
    Service.Overload.default with
    queue_high = 0.8;
    queue_low = 0.3;
    ack_high_ms = 1e9;
    (* occupancy alone drives these tests *)
    ack_low_ms = 1e9;
    trip_ms = 100.;
    recover_ms = 200.;
  }

let test_overload_dwell () =
  let now = ref 0.0 in
  let d =
    Service.Overload.create ~config:overload_cfg ~now_ms:(fun () -> !now) ()
  in
  let obs ~t ~depth =
    now := t;
    Service.Overload.observe_queue d ~depth ~cap:10
  in
  let expect label lvl =
    Alcotest.(check bool) label true (Service.Overload.level d = lvl)
  in
  obs ~t:0. ~depth:9;
  expect "high, dwell just started" Service.Overload.Normal;
  obs ~t:50. ~depth:9;
  expect "still within trip dwell" Service.Overload.Normal;
  obs ~t:100. ~depth:9;
  expect "tripped after sustained pressure" Service.Overload.Overloaded;
  (* Calm must also dwell before recovery. *)
  obs ~t:200. ~depth:0;
  obs ~t:350. ~depth:0;
  expect "calm dwell not elapsed" Service.Overload.Overloaded;
  obs ~t:400. ~depth:0;
  expect "recovered after sustained calm" Service.Overload.Normal

let test_overload_no_flap () =
  let now = ref 0.0 in
  let d =
    Service.Overload.create ~config:overload_cfg ~now_ms:(fun () -> !now) ()
  in
  let obs ~t ~depth =
    now := t;
    Service.Overload.observe_queue d ~depth ~cap:10
  in
  (* A burst interrupted by an in-between observation resets the dwell
     clock: pressure must be continuous to trip. *)
  obs ~t:0. ~depth:9;
  obs ~t:90. ~depth:5;
  obs ~t:95. ~depth:9;
  obs ~t:180. ~depth:9;
  Alcotest.(check bool)
    "interrupted pressure does not trip" true
    (Service.Overload.level d = Service.Overload.Normal);
  obs ~t:400. ~depth:9;
  Alcotest.(check bool)
    "re-sustained pressure trips" true
    (Service.Overload.level d = Service.Overload.Overloaded)

let test_overload_ack_signal () =
  let now = ref 0.0 in
  let cfg =
    {
      overload_cfg with
      ack_high_ms = 50.;
      ack_low_ms = 10.;
      alpha = 1.0 (* EWMA = last observation: exact assertions *);
    }
  in
  let d = Service.Overload.create ~config:cfg ~now_ms:(fun () -> !now) () in
  Alcotest.(check int)
    "hint floor before any ack" 25
    (Service.Overload.retry_after_ms d);
  Service.Overload.observe_ack d ~latency_ms:100.;
  now := 150.;
  Service.Overload.observe_ack d ~latency_ms:100.;
  Alcotest.(check bool)
    "ack latency alone trips" true
    (Service.Overload.level d = Service.Overload.Overloaded);
  Alcotest.(check (float 0.001))
    "ewma tracks" 100.
    (Service.Overload.ack_ewma_ms d);
  Alcotest.(check int)
    "hint scales with ewma" 400
    (Service.Overload.retry_after_ms d)

(* --- Online: batch/fed equivalence ------------------------------------------ *)

let spec =
  Workload.Scenario.default ~norgs:3 ~machines:6 ~horizon:5_000 ~users:12
    Workload.Traces.lpc_egee

let batch_result ~algorithm ~seed ?faults instance =
  Sim.Driver.run ?faults ~instance ~rng:(Fstats.Rng.create ~seed)
    (Algorithms.Registry.find_exn algorithm)

let stats_string st = Kernel.Stats.to_json st

let placements_repr schedule =
  Core.Schedule.placements schedule
  |> List.map (fun (p : Core.Schedule.placement) ->
         Printf.sprintf "%d.%d@%d m%d d%d" p.Core.Schedule.job.Core.Job.org
           p.Core.Schedule.job.Core.Job.index p.Core.Schedule.start
           p.Core.Schedule.machine p.Core.Schedule.duration)
  |> String.concat ";"

(* Feed a batch instance's jobs (and optionally a fault trace) one by one
   into an Online.t and check every observable against the closed-loop
   Driver.run on the same instance: schedule, ψsp, parts, kernel stats. *)
let check_equivalence ~algorithm ?(faults = []) instance =
  let seed = 5 in
  let config =
    match
      Service.Config.make
        ~machines:(Array.copy instance.Core.Instance.machines)
        ~horizon:instance.Core.Instance.horizon ~algorithm ~seed ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "config: %s" msg
  in
  let batch =
    batch_result ~algorithm ~seed
      ?faults:(if faults = [] then None else Some faults)
      instance
  in
  let online = Service.Online.create config in
  (* Merge jobs and faults in time order; ties resolved either way (the
     kernel phase order is per-instant, not per-push). *)
  let jobs = Array.to_list instance.Core.Instance.jobs in
  let rec feed jobs faults =
    match (jobs, faults) with
    | [], [] -> ()
    | j :: js, f :: _ when j.Core.Job.release <= f.Faults.Event.time ->
        submit j;
        feed js faults
    | j :: js, [] ->
        submit j;
        feed js faults
    | _, f :: fs ->
        (match Service.Online.fault online ~time:f.Faults.Event.time
                 f.Faults.Event.event
         with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "fault rejected: %s"
              (Service.Online.error_to_string e));
        feed jobs fs
  and submit (j : Core.Job.t) =
    match
      Service.Online.submit online ~org:j.Core.Job.org ~user:j.Core.Job.user
        ~size:j.Core.Job.size ~release:j.Core.Job.release ()
    with
    | Ok index ->
        Alcotest.(check int) "arrival rank matches batch index"
          j.Core.Job.index index
    | Error e ->
        Alcotest.failf "submit rejected: %s" (Service.Online.error_to_string e)
  in
  feed jobs faults;
  Service.Online.drain online;
  Alcotest.(check (array int))
    (algorithm ^ ": psi identical") batch.Sim.Driver.utilities_scaled
    (Service.Online.psi_scaled online);
  Alcotest.(check (array int))
    (algorithm ^ ": parts identical") batch.Sim.Driver.parts
    (Service.Online.parts online);
  Alcotest.(check string)
    (algorithm ^ ": schedule identical")
    (placements_repr batch.Sim.Driver.schedule)
    (placements_repr (Service.Online.schedule online));
  Alcotest.(check string)
    (algorithm ^ ": kernel stats identical")
    (stats_string batch.Sim.Driver.stats)
    (stats_string (Service.Online.stats online))

let test_equivalence_fifo () =
  check_equivalence ~algorithm:"fifo" (Workload.Scenario.instance spec ~seed:11)

let test_equivalence_random () =
  check_equivalence ~algorithm:"random"
    (Workload.Scenario.instance spec ~seed:12)

let test_equivalence_ref () =
  (* REF is exponential in organizations: keep the instance small. *)
  let small =
    Workload.Scenario.default ~norgs:3 ~machines:4 ~horizon:10_000 ~users:6
      Workload.Traces.lpc_egee
  in
  check_equivalence ~algorithm:"ref" (Workload.Scenario.instance small ~seed:3)

let test_equivalence_faults () =
  let instance = Workload.Scenario.instance spec ~seed:13 in
  let faults =
    [
      { Faults.Event.time = 20; event = Faults.Event.Fail 0 };
      { Faults.Event.time = 45; event = Faults.Event.Recover 0 };
      { Faults.Event.time = 50; event = Faults.Event.Fail 2 };
      { Faults.Event.time = 80; event = Faults.Event.Recover 2 };
    ]
  in
  check_equivalence ~algorithm:"fairshare" ~faults instance

let test_online_admission () =
  let config = mk_config ~machines:[| 1; 1 |] ~horizon:50 () in
  let online = Service.Online.create config in
  let expect_err label r =
    match r with
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  expect_err "bad org"
    (Service.Online.submit online ~org:2 ~size:1 ~release:0 ());
  expect_err "bad size"
    (Service.Online.submit online ~org:0 ~size:0 ~release:0 ());
  expect_err "past horizon"
    (Service.Online.submit online ~org:0 ~size:1 ~release:50 ());
  (match Service.Online.submit online ~org:0 ~size:2 ~release:10 () with
  | Ok 0 -> ()
  | Ok i -> Alcotest.failf "first rank %d" i
  | Error e -> Alcotest.failf "rejected: %s" (Service.Online.error_to_string e));
  expect_err "release regression"
    (Service.Online.submit online ~org:0 ~size:1 ~release:5 ());
  expect_err "bad machine"
    (Service.Online.fault online ~time:10 (Faults.Event.Fail 7));
  expect_err "fault time regression"
    (Service.Online.fault online ~time:3 (Faults.Event.Fail 0));
  Service.Online.drain online;
  expect_err "drained"
    (Service.Online.submit online ~org:0 ~size:1 ~release:20 ());
  Alcotest.(check bool) "drain idempotent" true
    (Service.Online.drained online);
  Service.Online.drain online

(* --- Socket-level tests ------------------------------------------------------ *)

(* Fork a daemon and wait for readiness via the ready-pipe trick:
   [true] once it reports ready, [false] if it died first. *)
let spawn_server ?state_dir ?(queue_cap = 1024) ?(drain_batch = 256) ?shards
    ?chaos ~service addr =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (match chaos with
      | None -> ()
      | Some spec -> (
          match Chaos.Fs.of_string spec with
          | Ok rules -> Chaos.Fs.arm rules
          | Error msg ->
              Printf.eprintf "chaos: %s\n%!" msg;
              Stdlib.exit 1));
      let cfg =
        Service.Server.make_config ?state_dir ~queue_cap ~drain_batch ?shards
          ~addr ~service ()
      in
      let ready () =
        ignore (Unix.write w (Bytes.of_string "R") 0 1);
        Unix.close w
      in
      let code =
        match Service.Server.run ~ready cfg with
        | Ok () -> 0
        | Error msg ->
            Printf.eprintf "server: %s\n%!" msg;
            1
      in
      Stdlib.exit code
  | pid ->
      Unix.close w;
      let buf = Bytes.create 1 in
      let got = try Unix.read r buf 0 1 with Unix.Unix_error _ -> 0 in
      Unix.close r;
      (pid, got > 0)

(* [spawn_server], run [f], then terminate the child.  [f] gets the
   server's pid so crash tests can SIGKILL it. *)
let with_server ?state_dir ?queue_cap ?drain_batch ?shards ?chaos ~service
    addr f =
  match
    spawn_server ?state_dir ?queue_cap ?drain_batch ?shards ?chaos ~service
      addr
  with
  | pid, false ->
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "server died before becoming ready"
  | pid, true ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () -> f pid)

let connect_retry addr =
  let rec go n =
    match Service.Client.connect addr with
    | Ok c -> c
    | Error e ->
        if n = 0 then
          Alcotest.failf "connect: %s" (Service.Client.error_to_string e)
        else begin
          Unix.sleepf 0.05;
          go (n - 1)
        end
  in
  go 100

let request_ok client req =
  match Service.Client.request client req with
  | Ok resp -> resp
  | Error e ->
      Alcotest.failf "request: %s" (Service.Client.error_to_string e)

let submit_job client (j : Core.Job.t) =
  match
    request_ok client
      (Service.Protocol.Submit
         {
           org = j.Core.Job.org;
           user = j.Core.Job.user;
           release = j.Core.Job.release;
           size = j.Core.Job.size;
           cid = 0;
           cseq = 0;
           trace = 0;
         })
  with
  | Service.Protocol.Submit_ok { index; _ } ->
      Alcotest.(check int) "served rank = batch rank" j.Core.Job.index index
  | Service.Protocol.Error { msg; _ } -> Alcotest.failf "submit: %s" msg
  | _ -> Alcotest.fail "submit: unexpected response"

(* Satellite (c): the golden instance fed through the socket one submission
   at a time must match Sim.Driver.run bit for bit. *)
let test_served_equivalence () =
  let@ dir = with_tmpdir in
  let algorithm = "fairshare" and seed = 5 in
  let instance = Workload.Scenario.instance spec ~seed:21 in
  let batch = batch_result ~algorithm ~seed instance in
  let service =
    match
      Service.Config.make
        ~machines:(Array.copy instance.Core.Instance.machines)
        ~horizon:instance.Core.Instance.horizon ~algorithm ~seed ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "config: %s" msg
  in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let@ _pid = with_server ~service addr in
  let client = connect_retry addr in
  Array.iter (submit_job client) instance.Core.Instance.jobs;
  (match request_ok client (Service.Protocol.Drain { detail = true }) with
  | Service.Protocol.Drain_ok r ->
      Alcotest.(check (array int)) "psi identical"
        batch.Sim.Driver.utilities_scaled r.Service.Protocol.d_psi_scaled;
      Alcotest.(check (array int)) "parts identical" batch.Sim.Driver.parts
        r.Service.Protocol.d_parts;
      Alcotest.(check string) "stats identical"
        (stats_string batch.Sim.Driver.stats)
        (stats_string r.Service.Protocol.d_stats);
      let batch_rows =
        Core.Schedule.placements batch.Sim.Driver.schedule
        |> List.map (fun (p : Core.Schedule.placement) ->
               ( p.Core.Schedule.job.Core.Job.org,
                 p.Core.Schedule.job.Core.Job.index,
                 p.Core.Schedule.start,
                 p.Core.Schedule.machine,
                 p.Core.Schedule.duration ))
      in
      Alcotest.(check bool) "schedule identical" true
        (r.Service.Protocol.d_schedule = Some batch_rows)
  | _ -> Alcotest.fail "drain: unexpected response");
  Service.Client.close client

(* The headline durability property: SIGKILL the daemon mid-stream,
   restart on the same state dir, feed the rest — the outcome is
   bit-identical to the uninterrupted batch run.  Only acked submissions
   count: the WAL is fsynced before every ack. *)
let test_crash_recovery () =
  let@ dir = with_tmpdir in
  let state_dir = Filename.concat dir "state" in
  let algorithm = "fairshare" and seed = 5 in
  let instance = Workload.Scenario.instance spec ~seed:22 in
  let batch = batch_result ~algorithm ~seed instance in
  let service =
    match
      Service.Config.make
        ~machines:(Array.copy instance.Core.Instance.machines)
        ~horizon:instance.Core.Instance.horizon ~algorithm ~seed ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "config: %s" msg
  in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let jobs = instance.Core.Instance.jobs in
  let split = Array.length jobs / 2 in
  Alcotest.(check bool) "instance non-trivial" true (split > 2);
  (* First life: submit the first half, then SIGKILL — no drain, no
     graceful anything. *)
  (let@ pid = with_server ~state_dir ~service addr in
   let client = connect_retry addr in
   Array.iteri (fun i j -> if i < split then submit_job client j) jobs;
   Unix.kill pid Sys.sigkill;
   ignore (Unix.waitpid [] pid);
   Service.Client.close client);
  (* Second life: recovery replays the WAL; the daemon resumes exactly
     where the acked stream left off. *)
  let@ _pid = with_server ~state_dir ~service addr in
  let client = connect_retry addr in
  (match request_ok client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      Alcotest.(check int) "all acked submissions recovered" split
        st.Service.Protocol.accepted
  | _ -> Alcotest.fail "status: unexpected response");
  Array.iteri (fun i j -> if i >= split then submit_job client j) jobs;
  (match request_ok client (Service.Protocol.Drain { detail = false }) with
  | Service.Protocol.Drain_ok r ->
      Alcotest.(check (array int)) "psi identical after crash"
        batch.Sim.Driver.utilities_scaled r.Service.Protocol.d_psi_scaled;
      Alcotest.(check string) "stats identical after crash"
        (stats_string batch.Sim.Driver.stats)
        (stats_string r.Service.Protocol.d_stats)
  | _ -> Alcotest.fail "drain: unexpected response");
  Service.Client.close client

(* Job sizes are bounded like horizons: past Core.Instance.max_horizon a
   start plus the size wraps, and a daemon that accepted one completed it
   at a wrapped instant with parts and ψsp in the 10^18.  One past the
   bound is refused with a typed error naming it; one at the bound runs
   until the horizon cuts it and drains with ψsp >= 0. *)
let test_size_bound () =
  let@ dir = with_tmpdir in
  let horizon = 1000 in
  let service =
    mk_config ~machines:[| 1; 1 |] ~horizon ~algorithm:"fairshare" ()
  in
  let bound = Core.Instance.max_horizon ~machines:2 in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let@ _pid = with_server ~service addr in
  let client = connect_retry addr in
  let submit size =
    request_ok client
      (Service.Protocol.Submit
         { org = 0; user = 0; release = 9; size; cid = 0; cseq = 0; trace = 0 })
  in
  (match submit (bound + 1) with
  | Service.Protocol.Error { code = Service.Protocol.Bad_request; msg; _ } ->
      Alcotest.(check bool) ("refusal names the bound: " ^ msg) true
        (contains msg (string_of_int bound))
  | _ -> Alcotest.fail "size one past the bound was not refused");
  (match submit bound with
  | Service.Protocol.Submit_ok _ -> ()
  | _ -> Alcotest.fail "size at the bound was refused");
  (match request_ok client (Service.Protocol.Drain { detail = false }) with
  | Service.Protocol.Drain_ok r ->
      Alcotest.(check int) "the job runs until the horizon" (horizon - 9)
        r.Service.Protocol.d_parts.(0);
      Alcotest.(check bool) "drained within the horizon" true
        (r.Service.Protocol.d_now <= horizon);
      Alcotest.(check bool) "psi >= 0" true
        (Array.for_all (fun v -> v >= 0) r.Service.Protocol.d_psi_scaled)
  | _ -> Alcotest.fail "drain: unexpected response");
  Service.Client.close client

(* --- Legacy Mode records ------------------------------------------------------
   Daemons that switched estimators under overload logged each switch as
   a Mode record.  A state dir whose last switch returned to the
   configured algorithm boots exactly as if the switches were absent; one
   left on another estimator is refused, never replayed under it. *)

let legacy_state_dir ~state_dir ~service instance ~modes =
  Unix.mkdir state_dir 0o755;
  let w =
    match Service.Wal.create ~dir:state_dir ~config:service () with
    | Ok w -> w
    | Error msg -> Alcotest.failf "wal create: %s" msg
  in
  let seq = ref 0 in
  let next () =
    incr seq;
    !seq
  in
  let jobs = instance.Core.Instance.jobs in
  (* the switches land before job n/3, then 2n/3 *)
  let switch_at =
    List.mapi (fun k m -> ((k + 1) * Array.length jobs / 3, m)) modes
  in
  Array.iteri
    (fun i (j : Core.Job.t) ->
      Option.iter
        (fun estimator ->
          Service.Wal.append w (Service.Wal.Mode { seq = next (); estimator }))
        (List.assoc_opt i switch_at);
      Service.Wal.append w
        (Service.Wal.Submit
           {
             seq = next ();
             org = j.Core.Job.org;
             user = j.Core.Job.user;
             release = j.Core.Job.release;
             size = j.Core.Job.size;
             cid = 0;
             cseq = 0;
           }))
    jobs;
  (match Service.Wal.sync w with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "wal sync: %s" msg);
  Service.Wal.close w

let legacy_setup dir =
  let algorithm = "fairshare" and seed = 5 in
  let instance = Workload.Scenario.instance spec ~seed:23 in
  let service =
    match
      Service.Config.make
        ~machines:(Array.copy instance.Core.Instance.machines)
        ~horizon:instance.Core.Instance.horizon ~algorithm ~seed ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "config: %s" msg
  in
  ( instance,
    service,
    Filename.concat dir "state",
    Service.Addr.Unix_sock (Filename.concat dir "d.sock") )

let test_boot_mode_back_to_base () =
  let@ dir = with_tmpdir in
  let instance, service, state_dir, addr = legacy_setup dir in
  legacy_state_dir ~state_dir ~service instance
    ~modes:[ "rand:0.25,0.5"; service.Service.Config.algorithm ];
  let batch = batch_result ~algorithm:"fairshare" ~seed:5 instance in
  let@ _pid = with_server ~state_dir ~service addr in
  let client = connect_retry addr in
  (match request_ok client (Service.Protocol.Drain { detail = false }) with
  | Service.Protocol.Drain_ok r ->
      Alcotest.(check (array int)) "psi identical to batch"
        batch.Sim.Driver.utilities_scaled r.Service.Protocol.d_psi_scaled
  | _ -> Alcotest.fail "drain: unexpected response");
  Service.Client.close client

let test_boot_mode_refused () =
  let@ dir = with_tmpdir in
  let instance, service, state_dir, addr = legacy_setup dir in
  legacy_state_dir ~state_dir ~service instance ~modes:[ "rand:0.25,0.5" ];
  (* Boot in a child: a daemon that (wrongly) comes up would serve
     forever, so the parent reads the outcome from a pipe and kills it. *)
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let say s = ignore (Unix.write_substring w s 0 (String.length s)) in
      let cfg = Service.Server.make_config ~state_dir ~addr ~service () in
      (match Service.Server.run ~ready:(fun () -> say "READY") cfg with
      | Ok () -> ()
      | Error msg -> say msg);
      Stdlib.exit 0
  | pid ->
      Unix.close w;
      let buf = Buffer.create 256 and chunk = Bytes.create 256 in
      let rec read_all () =
        match Unix.read r chunk 0 256 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            if Buffer.contents buf <> "READY" then read_all ()
      in
      read_all ();
      Unix.close r;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      let msg = Buffer.contents buf in
      let has = contains msg in
      (* the one switch is logged just before job n/3, as record n/3 + 1 *)
      let mode_seq = 1 + (Array.length instance.Core.Instance.jobs / 3) in
      Alcotest.(check bool) ("refused: " ^ msg) true
        (msg <> "READY"
        && has "segment 0"
        && has (Printf.sprintf "Mode record %d" mode_seq)
        && has "rand:0.25,0.5")

let test_backpressure () =
  let@ dir = with_tmpdir in
  let service = mk_config ~machines:[| 2; 2 |] ~horizon:100_000 () in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let@ _pid = with_server ~queue_cap:2 ~drain_batch:1 ~service addr in
  (* Blast a pipelined burst without reading: the bounded admission queue
     must reject some with a typed backpressure error, never drop or
     crash. *)
  let client = connect_retry addr in
  let n = 64 in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Service.Addr.to_sockaddr addr);
  let burst = Buffer.create 4096 in
  for i = 1 to n do
    Buffer.add_string burst
      (Service.Protocol.request_to_line
         (Service.Protocol.Submit
            { org = 0; user = 0; release = i; size = 1; cid = 0; cseq = 0; trace = 0 }))
  done;
  let payload = Buffer.contents burst in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  (* Read n newline-terminated responses back. *)
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let count_lines () =
    String.fold_left
      (fun acc c -> if c = '\n' then acc + 1 else acc)
      0 (Buffer.contents buf)
  in
  while count_lines () < n do
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Alcotest.fail "server closed mid-burst"
    | k -> Buffer.add_subbytes buf chunk 0 k
  done;
  Unix.close fd;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one response per request" n (List.length lines);
  let ok, backpressure, other =
    List.fold_left
      (fun (ok, bp, other) line ->
        match Service.Protocol.response_of_line line with
        | Ok (Service.Protocol.Submit_ok _) -> (ok + 1, bp, other)
        | Ok
            (Service.Protocol.Error
               {
                 code = Service.Protocol.Backpressure;
                 retry_after_ms = Some ms;
                 _;
               })
          when ms > 0 ->
            (* Every shed carries a back-off hint for the retry loop. *)
            (ok, bp + 1, other)
        | _ -> (ok, bp, other + 1))
      (0, 0, 0) lines
  in
  Alcotest.(check int) "no other outcome" 0 other;
  Alcotest.(check bool) "some accepted" true (ok > 0);
  Alcotest.(check bool) "some backpressured" true (backpressure > 0);
  (* The daemon is still healthy afterwards. *)
  (match request_ok client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      Alcotest.(check int) "accepted = acked" ok st.Service.Protocol.accepted
  | _ -> Alcotest.fail "status after burst");
  Service.Client.close client

(* At-most-once retransmission: a (cid, cseq)-stamped feed re-sent after
   its ack was lost must come back from the dedupe cache — applied once,
   counted once — and the table must survive a kill -9 (it is rebuilt
   from the WAL): every feed kind's retransmission then gets exactly the
   pre-crash ack, [seq] and [now] included. *)
let test_dedupe () =
  let@ dir = with_tmpdir in
  let state_dir = Filename.concat dir "state" in
  let service =
    match
      Service.Config.make ~federated:true ~machines:[| 2; 2 |]
        ~horizon:100_000 ~algorithm:"fifo" ~seed:7 ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "config rejected: %s" msg
  in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let submit client ~release ~cseq =
    request_ok client
      (Service.Protocol.Submit
         { org = 0; user = 0; release; size = 1; cid = 7; cseq; trace = 0 })
  in
  (* one cid per kind: the cache keeps only the last cseq of each cid *)
  let fault client =
    request_ok client
      (Service.Protocol.Fault
         { time = 3; event = Faults.Event.Fail 3; cid = 8; cseq = 1; trace = 0 })
  in
  let endow client =
    request_ok client
      (Service.Protocol.Endow
         {
           time = 4;
           event = Federation.Event.Leave { org = 1 };
           cid = 9;
           cseq = 1;
           trace = 0;
         })
  in
  let status_accepted client =
    match request_ok client Service.Protocol.Status with
    | Service.Protocol.Status_ok st -> st.Service.Protocol.accepted
    | _ -> Alcotest.fail "status"
  in
  let resp =
    Alcotest.testable
      (fun ppf r -> Fmt.string ppf (Service.Protocol.response_to_line r))
      ( = )
  in
  let second, fault_ack, endow_ack =
    let@ pid = with_server ~state_dir ~service addr in
    let client = connect_retry addr in
    let first = submit client ~release:1 ~cseq:1 in
    (match first with
    | Service.Protocol.Submit_ok { index = 0; _ } -> ()
    | _ -> Alcotest.fail "first submit");
    Alcotest.check resp "retransmission answered from the cache" first
      (submit client ~release:1 ~cseq:1);
    Alcotest.(check int) "applied once" 1 (status_accepted client);
    let second = submit client ~release:2 ~cseq:2 in
    (match second with
    | Service.Protocol.Submit_ok { index = 1; _ } -> ()
    | _ -> Alcotest.fail "second submit");
    (* A regressed cseq is a client bug, not a retry: typed rejection. *)
    (match submit client ~release:3 ~cseq:1 with
    | Service.Protocol.Error { code = Service.Protocol.Bad_request; _ } -> ()
    | _ -> Alcotest.fail "stale cseq must be rejected");
    let fault_ack = fault client in
    (match fault_ack with
    | Service.Protocol.Fault_ok _ -> ()
    | _ -> Alcotest.fail "fault");
    let endow_ack = endow client in
    (match endow_ack with
    | Service.Protocol.Endow_ok _ -> ()
    | _ -> Alcotest.fail "endow");
    Service.Client.close client;
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    (second, fault_ack, endow_ack)
  in
  let@ _pid = with_server ~state_dir ~service addr in
  let client = connect_retry addr in
  Alcotest.check resp "post-crash submit retransmission" second
    (submit client ~release:2 ~cseq:2);
  Alcotest.check resp "post-crash fault retransmission" fault_ack
    (fault client);
  Alcotest.check resp "post-crash endow retransmission" endow_ack
    (endow client);
  Alcotest.(check int) "still applied once each" 4 (status_accepted client);
  Service.Client.close client

(* Resilient stamps feeds once, before the first attempt, so any manual
   re-send of the same stamp is deduped server-side. *)
let test_resilient_stamping () =
  let@ dir = with_tmpdir in
  let service = mk_config ~machines:[| 2; 2 |] ~horizon:100_000 () in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let@ _pid = with_server ~service addr in
  Service.Client.close (connect_retry addr);
  let conn =
    Service.Client.Resilient.create ~cid:42
      ~rng:(Fstats.Rng.create ~seed:3)
      addr
  in
  let submit release =
    match
      Service.Client.Resilient.call conn
        (Service.Protocol.Submit
           { org = 0; user = 0; release; size = 1; cid = 0; cseq = 0; trace = 0 })
    with
    | Ok (Service.Protocol.Submit_ok { index; _ }) -> index
    | Ok _ -> Alcotest.fail "unexpected response"
    | Error e ->
        Alcotest.failf "call: %s" (Service.Client.error_to_string e)
  in
  Alcotest.(check int) "first" 0 (submit 1);
  Alcotest.(check int) "second" 1 (submit 2);
  let client = connect_retry addr in
  (match
     request_ok client
       (Service.Protocol.Submit
          { org = 0; user = 0; release = 2; size = 1; cid = 42; cseq = 2; trace = 0 })
   with
  | Service.Protocol.Submit_ok { index = 1; _ } -> ()
  | _ -> Alcotest.fail "re-send of the resilient stamp not deduped");
  (match request_ok client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      Alcotest.(check int) "applied once each" 2 st.Service.Protocol.accepted
  | _ -> Alcotest.fail "status");
  let st = Service.Client.Resilient.stats conn in
  Alcotest.(check int)
    "healthy server needs no retries" 0
    st.Service.Client.Resilient.retries;
  Service.Client.Resilient.close conn;
  Service.Client.close client

(* Deadlines: a mute server turns into a typed Timeout, an absent one
   into Refused — never an indefinite block. *)
let test_client_timeout () =
  let@ dir = with_tmpdir in
  let path = Filename.concat dir "mute.sock" in
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 8;
  (* Listening but never accepting: connect lands in the backlog, the
     response never comes. *)
  (match Service.Client.connect ~timeout_s:1.0 (Service.Addr.Unix_sock path) with
  | Error e -> Alcotest.failf "connect: %s" (Service.Client.error_to_string e)
  | Ok c -> (
      (match Service.Client.request ~timeout_s:0.2 c Service.Protocol.Status with
      | Error (Service.Client.Timeout _) -> ()
      | Ok _ -> Alcotest.fail "mute server answered"
      | Error e ->
          Alcotest.failf "expected timeout, got %s"
            (Service.Client.error_to_string e));
      Service.Client.close c));
  Unix.close srv;
  match
    Service.Client.connect ~timeout_s:0.5
      (Service.Addr.Unix_sock (Filename.concat dir "absent.sock"))
  with
  | Error (Service.Client.Refused _) -> ()
  | Ok _ -> Alcotest.fail "connected to nothing"
  | Error e ->
      Alcotest.failf "expected refused, got %s"
        (Service.Client.error_to_string e)

let test_malformed_lines () =
  let@ dir = with_tmpdir in
  let service = mk_config () in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let@ _pid = with_server ~service addr in
  let client = connect_retry addr in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Service.Addr.to_sockaddr addr);
  let payload = "}{ garbage \n{\"op\":\"warp\"}\n{\"op\":\"status\"}\n" in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 1024 in
  let count_lines () =
    String.fold_left
      (fun acc c -> if c = '\n' then acc + 1 else acc)
      0 (Buffer.contents buf)
  in
  while count_lines () < 3 do
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Alcotest.fail "server closed on garbage"
    | k -> Buffer.add_subbytes buf chunk 0 k
  done;
  Unix.close fd;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  (match List.map Service.Protocol.response_of_line lines with
  | [ Ok (Service.Protocol.Error { code = Service.Protocol.Parse; _ });
      Ok (Service.Protocol.Error { code = Service.Protocol.Parse; _ });
      Ok (Service.Protocol.Status_ok _) ] ->
      ()
  | _ -> Alcotest.fail "expected parse, parse, status responses");
  (* And the daemon survives to serve the well-behaved client. *)
  (match request_ok client Service.Protocol.Psi with
  | Service.Protocol.Psi_ok _ -> ()
  | _ -> Alcotest.fail "psi after garbage");
  Service.Client.close client

let test_loadgen () =
  let@ dir = with_tmpdir in
  let lspec =
    Workload.Scenario.default ~norgs:3 ~machines:8 ~horizon:100_000 ~users:12
      Workload.Traces.lpc_egee
  in
  let seed = 9 in
  let machines, _ = Workload.Scenario.split_and_map lspec ~seed in
  let service =
    match
      Service.Config.make ~machines ~horizon:lspec.Workload.Scenario.horizon
        ~algorithm:"fairshare" ~seed ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "config: %s" msg
  in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let@ _pid = with_server ~service addr in
  (* Wait for readiness through a throwaway connection. *)
  Service.Client.close (connect_retry addr);
  let report =
    match
      Service.Loadgen.run
        {
          Service.Loadgen.addr;
          spec = lspec;
          seed;
          rate = 0.;
          count = 200;
          drain = true;
          policy = Service.Retry.default;
          timeout_s = 5.0;
          connections = 1;
          groups = 1;
          window = 1;
        }
    with
    | Ok r -> r
    | Error msg -> Alcotest.failf "loadgen: %s" msg
  in
  Alcotest.(check int) "all submitted" 200 report.Service.Loadgen.submitted;
  Alcotest.(check int) "all accepted" 200 report.Service.Loadgen.accepted;
  Alcotest.(check int) "no rejections" 0 report.Service.Loadgen.rejected;
  Alcotest.(check int) "no transport errors" 0 report.Service.Loadgen.errors;
  Alcotest.(check int) "latency histogram complete" 200
    report.Service.Loadgen.ack_latency.Obs.Metrics.count

(* A stub daemon on a unix socket: acks every submit at once except the
   very first, which it holds for [hold_s]; every other request gets an
   [Bad_request] error.  Connections are served one after another. *)
let with_stall_stub ~hold_s addr f =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Service.Addr.to_sockaddr addr);
  Unix.listen sock 8;
  match Unix.fork () with
  | 0 ->
      let held = ref false in
      let rec serve () =
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (try
           while true do
             let resp =
               match Service.Protocol.request_of_line (input_line ic) with
               | Ok (Service.Protocol.Submit { org; _ }) ->
                   if not !held then begin
                     held := true;
                     Unix.sleepf hold_s
                   end;
                   Service.Protocol.Submit_ok { seq = 0; org; index = 0; now = 0 }
               | Ok _ | Error _ ->
                   Service.Protocol.Error
                     {
                       code = Service.Protocol.Bad_request;
                       msg = "stub";
                       retry_after_ms = None;
                     }
             in
             output_string oc (Service.Protocol.response_to_line resp);
             flush oc
           done
         with End_of_file | Sys_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        serve ()
      in
      serve ()
  | pid ->
      Unix.close sock;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        f

(* Paced load has no coordinated omission: with the first ack held for
   100 ms and 20 requests due 1 ms apart, every request fell due during
   the stall, so each is charged at least 100 - 19 ms even though the
   closed loop only sent it once the stall was over.  Timed from the
   send, only the first request would see the stall and the median would
   read well under a millisecond. *)
let test_loadgen_paced_stall () =
  let@ dir = with_tmpdir in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "stub.sock") in
  let hold_s = 0.1 and count = 20 in
  let@ () = with_stall_stub ~hold_s addr in
  Obs.Metrics.reset ();
  let report =
    Fun.protect ~finally:Obs.Metrics.reset (fun () ->
        match
          Service.Loadgen.run
            {
              Service.Loadgen.addr;
              spec =
                Workload.Scenario.default ~norgs:2 ~machines:4
                  ~horizon:100_000 ~users:4 Workload.Traces.lpc_egee;
              seed = 3;
              rate = 1000.;
              count;
              drain = false;
              policy = Service.Retry.default;
              timeout_s = 5.0;
              connections = 1;
              groups = 1;
              window = 1;
            }
        with
        | Ok r -> r
        | Error msg -> Alcotest.failf "loadgen: %s" msg)
  in
  Alcotest.(check int) "all accepted" count report.Service.Loadgen.accepted;
  let lat = report.Service.Loadgen.ack_latency in
  Alcotest.(check int) "every ack timed" count lat.Obs.Metrics.count;
  let hold_us = hold_s *. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "max %.0f us covers the %.0f us hold" lat.Obs.Metrics.max
       hold_us)
    true
    (lat.Obs.Metrics.max >= hold_us);
  Alcotest.(check bool)
    (Printf.sprintf "median %.0f us: the stall counts against most requests"
       lat.Obs.Metrics.p50)
    true
    (lat.Obs.Metrics.p50 >= hold_us /. 2.)

(* --- Sharding: org-group partition, group commit, fault isolation ----------- *)

(* The partition is a pure function of the durable config: contiguous
   balanced org blocks, each owning exactly the machines its orgs endow. *)
let test_partition_groups () =
  (match
     Service.Config.make ~groups:3 ~machines:[| 1; 1 |] ~horizon:10
       ~algorithm:"fifo" ~seed:1 ()
   with
  | Ok _ -> Alcotest.fail "groups > orgs accepted"
  | Error _ -> ());
  (match
     Service.Config.make ~groups:2 ~machines:[| 0; 1 |] ~horizon:10
       ~algorithm:"fifo" ~seed:1 ()
   with
  | Ok _ -> Alcotest.fail "machine-less group accepted"
  | Error _ -> ());
  let config = mk_config ~groups:2 ~machines:[| 2; 1; 1; 3 |] ~horizon:60 () in
  (match Service.Config.of_json (Service.Config.to_json config) with
  | Ok c ->
      Alcotest.(check bool) "grouped config round-trips" true
        (Service.Config.equal config c)
  | Error msg -> Alcotest.failf "of_json: %s" msg);
  let p = Service.Partition.make config in
  Alcotest.(check int) "groups" 2 (Service.Partition.groups p);
  Alcotest.(check (pair int int)) "org block 0" (0, 2)
    (Service.Partition.org_range p 0);
  Alcotest.(check (pair int int)) "org block 1" (2, 4)
    (Service.Partition.org_range p 1);
  Alcotest.(check (pair int int)) "machine block 0" (0, 3)
    (Service.Partition.machine_range p 0);
  Alcotest.(check (pair int int)) "machine block 1" (3, 7)
    (Service.Partition.machine_range p 1);
  for org = 0 to 3 do
    let g = Service.Partition.group_of_org p org in
    Alcotest.(check int) "org local/global round-trip" org
      (Service.Partition.global_org p ~group:g
         (Service.Partition.local_org p org))
  done;
  for m = 0 to 6 do
    let g = Service.Partition.group_of_machine p m in
    Alcotest.(check int) "machine local/global round-trip" m
      (Service.Partition.global_machine p ~group:g
         (Service.Partition.local_machine p m))
  done;
  let sub1 = Service.Partition.sub_config p 1 in
  Alcotest.(check (array int)) "sub-config machines" [| 1; 3 |]
    sub1.Service.Config.machines;
  Alcotest.(check int) "sub-config is single-group" 1
    sub1.Service.Config.groups;
  Alcotest.(check (array int)) "scatter reassembles blocks" [| 10; 11; 20; 21 |]
    (Service.Partition.scatter_int p (fun g ->
         if g = 0 then [| 10; 11 |] else [| 20; 21 |]))

(* Golden outcome of a grouped daemon: one batch Sim.Driver.run per
   org-group over the Partition.sub_config sub-instance, scattered and
   summed back into global shape. *)
let grouped_golden ~config instance =
  let p = Service.Partition.make config in
  let runs =
    Array.init (Service.Partition.groups p) (fun grp ->
        let sub = Service.Partition.sub_config p grp in
        let lo, _ = Service.Partition.org_range p grp in
        let sub_jobs =
          Array.to_list instance.Core.Instance.jobs
          |> List.filter_map (fun (j : Core.Job.t) ->
                 if Service.Partition.group_of_org p j.Core.Job.org = grp then
                   Some
                     (Core.Job.make ~org:(j.Core.Job.org - lo) ~index:0
                        ~user:j.Core.Job.user ~release:j.Core.Job.release
                        ~size:j.Core.Job.size ())
                 else None)
        in
        let sub_instance =
          Core.Instance.make ~machines:sub.Service.Config.machines
            ~jobs:sub_jobs ~horizon:sub.Service.Config.horizon
        in
        Sim.Driver.run ~instance:sub_instance
          ~rng:(Fstats.Rng.create ~seed:sub.Service.Config.seed)
          (Algorithms.Registry.find_exn sub.Service.Config.algorithm))
  in
  let psi =
    Service.Partition.scatter_int p (fun g ->
        runs.(g).Sim.Driver.utilities_scaled)
  in
  let parts = Service.Partition.scatter_int p (fun g -> runs.(g).Sim.Driver.parts) in
  let stats =
    Kernel.Stats.total
      (Array.to_list (Array.map (fun r -> r.Sim.Driver.stats) runs))
  in
  (psi, parts, stats)

(* The differential the refactor hangs on: for a fixed --groups, the
   worker-domain count is pure execution — ψsp, parts, and kernel stats
   from a served run are bit-identical across --shards 1, 2, 4, and all
   equal the per-group batch runs. *)
let sharded_differential_qcheck =
  let gen =
    QCheck.Gen.(
      let* njobs = int_range 8 30 in
      list_size (return njobs)
        (let* org = int_range 0 3 in
         let* user = int_range 0 7 in
         let* release = int_range 0 280 in
         let* size = int_range 1 5 in
         return (org, user, release, size)))
  in
  let arb =
    QCheck.make
      ~print:(fun raw ->
        String.concat ";"
          (List.map
             (fun (o, u, r, s) -> Printf.sprintf "J(o%d,u%d,r%d,s%d)" o u r s)
             raw))
      gen
  in
  QCheck.Test.make ~name:"psi bit-identical across shards 1|2|4" ~count:4 arb
    (fun raw ->
      let machines = [| 2; 2; 2; 2 |] and horizon = 300 in
      let jobs =
        List.map
          (fun (org, user, release, size) ->
            Core.Job.make ~org ~index:0 ~user ~release ~size ())
          raw
      in
      let instance = Core.Instance.make ~machines ~jobs ~horizon in
      let config =
        mk_config ~groups:4 ~machines ~horizon ~algorithm:"fairshare" ~seed:5
          ()
      in
      let golden_psi, golden_parts, golden_stats =
        grouped_golden ~config instance
      in
      List.iter
        (fun shards ->
          let@ dir = with_tmpdir in
          let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
          let@ _pid = with_server ~shards ~service:config addr in
          let client = connect_retry addr in
          Array.iter (submit_job client) instance.Core.Instance.jobs;
          (match
             request_ok client (Service.Protocol.Drain { detail = false })
           with
          | Service.Protocol.Drain_ok r ->
              if r.Service.Protocol.d_psi_scaled <> golden_psi then
                QCheck.Test.fail_reportf "shards=%d: psi diverged" shards;
              if r.Service.Protocol.d_parts <> golden_parts then
                QCheck.Test.fail_reportf "shards=%d: parts diverged" shards;
              if
                stats_string r.Service.Protocol.d_stats
                <> stats_string golden_stats
              then QCheck.Test.fail_reportf "shards=%d: stats diverged" shards
          | _ -> QCheck.Test.fail_reportf "shards=%d: drain failed" shards);
          Service.Client.close client)
        [ 1; 2; 4 ];
      true)

(* Batched commit and the long-WAL path: a pipelined stream longer than
   4096 records per group is acked with far fewer fsyncs than acks (one
   fsync per pump covers every append the pump made), flat, grouped
   inline and grouped threaded alike.  Nothing compacts the log: before
   the kill -9 no segment holds a snapshot and each WAL holds every acked
   record.  After the restart every acked submission is back, each WAL
   still holds every record (boot reopens it, it does not rewrite it),
   and the drained ψsp equals the per-group batch runs. *)
let test_group_commit_recovery () =
  List.iter
    (fun (groups, shards) ->
      let@ dir = with_tmpdir in
      let state_dir = Filename.concat dir "state" in
      let service =
        mk_config ~groups ~machines:[| 2; 2 |] ~horizon:100_000
          ~algorithm:"fairshare" ()
      in
      let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
      let ctx = Printf.sprintf "groups=%d shards=%d" groups shards in
      let n = 8400 in
      let jobs =
        List.init n (fun i ->
            Core.Job.make ~org:(i land 1) ~index:0 ~user:0 ~release:(i + 1)
              ~size:1 ())
      in
      let golden_psi, _, _ =
        grouped_golden ~config:service
          (Core.Instance.make ~machines:service.Service.Config.machines ~jobs
             ~horizon:service.Service.Config.horizon)
      in
      let seg_dirs =
        if groups = 1 then [ state_dir ]
        else
          List.init groups (fun group ->
              Service.Wal.segment_dir ~dir:state_dir ~group)
      in
      let check_file path =
        match Service.Wal.check path with
        | Ok r -> r
        | Error e ->
            Alcotest.failf "%s: %s: %s" ctx path
              (Service.Wal.boot_error_to_string e)
      in
      let per_group = n / groups in
      (let@ pid = with_server ~state_dir ~shards ~service addr in
       (* Pipeline the stream on a raw socket, one window at a time (the
          window stays under the per-group admission bound). *)
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Unix.connect fd (Service.Addr.to_sockaddr addr);
       let lines =
         Array.of_list
           (List.map
              (fun (j : Core.Job.t) ->
                Service.Protocol.request_to_line
                  (Service.Protocol.Submit
                     {
                       org = j.Core.Job.org;
                       user = j.Core.Job.user;
                       release = j.Core.Job.release;
                       size = j.Core.Job.size;
                       cid = 0;
                       cseq = 0;
                       trace = 0;
                     }))
              jobs)
       in
       let buf = Buffer.create 65536 in
       let chunk = Bytes.create 65536 in
       let count_lines () =
         String.fold_left
           (fun acc c -> if c = '\n' then acc + 1 else acc)
           0 (Buffer.contents buf)
       in
       let sent = ref 0 in
       while !sent < n do
         let k = min 256 (n - !sent) in
         let payload = String.concat "" (Array.to_list (Array.sub lines !sent k)) in
         ignore (Unix.write_substring fd payload 0 (String.length payload));
         Buffer.clear buf;
         while count_lines () < k do
           match Unix.read fd chunk 0 (Bytes.length chunk) with
           | 0 -> Alcotest.fail "server closed mid-burst"
           | r -> Buffer.add_subbytes buf chunk 0 r
         done;
         String.split_on_char '\n' (Buffer.contents buf)
         |> List.filter (fun l -> l <> "")
         |> List.iter (fun line ->
                match Service.Protocol.response_of_line line with
                | Ok (Service.Protocol.Submit_ok _) -> ()
                | _ -> Alcotest.failf "burst response not an ack: %s" line);
         sent := !sent + k
       done;
       Unix.close fd;
       let client = connect_retry addr in
       (match request_ok client Service.Protocol.Status with
       | Service.Protocol.Status_ok st ->
           Alcotest.(check int) "groups" groups st.Service.Protocol.groups;
           Alcotest.(check int) "shards" shards st.Service.Protocol.shards;
           Alcotest.(check int) "all acked" n st.Service.Protocol.accepted;
           Alcotest.(check bool) "acks were fsynced" true
             (st.Service.Protocol.fsyncs > 0);
           Alcotest.(check bool)
             (Printf.sprintf "%s: fsyncs amortized (%d fsyncs / %d acks)" ctx
                st.Service.Protocol.fsyncs n)
             true
             (st.Service.Protocol.fsyncs < n)
       | _ -> Alcotest.fail "status: unexpected response");
       Service.Client.close client;
       List.iter
         (fun seg ->
           Alcotest.(check bool)
             (Printf.sprintf "%s: no snapshot before drain in %s" ctx seg)
             false
             (Sys.file_exists (Service.Wal.snapshot_path ~dir:seg));
           let wal = check_file (Service.Wal.wal_path ~dir:seg) in
           Alcotest.(check int)
             (ctx ^ ": the WAL holds every acked record")
             per_group wal.Service.Wal.ck_submits;
           Alcotest.(check int) (ctx ^ ": WAL last seq") per_group
             wal.Service.Wal.ck_last_seq)
         seg_dirs;
       Unix.kill pid Sys.sigkill;
       ignore (Unix.waitpid [] pid));
      (* Second life: every acked submission must come back. *)
      let@ _pid = with_server ~state_dir ~shards ~service addr in
      let client = connect_retry addr in
      (match request_ok client Service.Protocol.Status with
      | Service.Protocol.Status_ok st ->
          Alcotest.(check int) "acked stream recovered" n
            st.Service.Protocol.accepted
      | _ -> Alcotest.fail "status: unexpected response");
      List.iter
        (fun seg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: boot wrote no snapshot in %s" ctx seg)
            false
            (Sys.file_exists (Service.Wal.snapshot_path ~dir:seg));
          let wal = check_file (Service.Wal.wal_path ~dir:seg) in
          Alcotest.(check int)
            (ctx ^ ": the WAL still holds every record after the restart")
            per_group wal.Service.Wal.ck_submits;
          Alcotest.(check int) (ctx ^ ": WAL last seq after the restart")
            per_group wal.Service.Wal.ck_last_seq)
        seg_dirs;
      (match request_ok client (Service.Protocol.Drain { detail = false }) with
      | Service.Protocol.Drain_ok r ->
          Alcotest.(check (array int))
            (ctx ^ ": psi identical to batch after crash")
            golden_psi r.Service.Protocol.d_psi_scaled
      | _ -> Alcotest.fail "drain: unexpected response");
      Service.Client.close client)
    [ (1, 1); (2, 1); (2, 2) ]

(* A restarted daemon reports every acked record of its earlier lives. *)
let expect_accepted ~ctx client k =
  match request_ok client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      Alcotest.(check int) (ctx ^ ": acked records recovered") k
        st.Service.Protocol.accepted
  | _ -> Alcotest.fail "status: unexpected response"

(* The WAL is the only durable state: boot replays a segment's log and
   appends to the same file.  Three lives per (groups, shards): acks then
   kill -9; half a record appended to every WAL (a torn tail); more acks
   then kill -9; the rest and a drain.  ψsp and kernel stats equal the
   per-group batch runs, every WAL is intact with strictly increasing
   seqs (the second life cut the torn tail on its first sync), and no
   snapshot is ever written. *)
let test_reopen_torn_tail () =
  List.iter
    (fun (groups, shards) ->
      let@ dir = with_tmpdir in
      let state_dir = Filename.concat dir "state" in
      let ctx = Printf.sprintf "groups=%d shards=%d" groups shards in
      let machines = [| 2; 2 |] and horizon = 300 in
      let service =
        mk_config ~groups ~machines ~horizon ~algorithm:"fairshare" ()
      in
      let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
      let n = 60 in
      let jobs =
        Array.init n (fun i ->
            Core.Job.make ~org:(i mod 2) ~index:0 ~user:(i mod 3)
              ~release:((i / 3) + 1)
              ~size:(1 + (i * 7 mod 11))
              ())
      in
      let golden_psi, _, golden_stats =
        grouped_golden ~config:service
          (Core.Instance.make ~machines ~jobs:(Array.to_list jobs) ~horizon)
      in
      let seg_dirs =
        if groups = 1 then [ state_dir ]
        else
          List.init groups (fun group ->
              Service.Wal.segment_dir ~dir:state_dir ~group)
      in
      let submit client lo hi =
        for i = lo to hi - 1 do
          let j = jobs.(i) in
          match
            request_ok client
              (Service.Protocol.Submit
                 {
                   org = j.Core.Job.org;
                   user = j.Core.Job.user;
                   release = j.Core.Job.release;
                   size = j.Core.Job.size;
                   cid = 0;
                   cseq = 0;
                   trace = 0;
                 })
          with
          | Service.Protocol.Submit_ok _ -> ()
          | _ -> Alcotest.failf "%s: submit %d not acked" ctx i
        done
      in
      (* Each segment's WAL: intact (Wal.check refuses a corrupt line or
         a seq that does not strictly increase), no torn tail, no gap,
         [acked] records (the orgs alternate, so the groups split them
         evenly), and no snapshot beside it. *)
      let check_wals ~acked =
        List.iter
          (fun seg ->
            Alcotest.(check bool) (ctx ^ ": no snapshot in " ^ seg) false
              (Sys.file_exists (Service.Wal.snapshot_path ~dir:seg));
            match Service.Wal.check (Service.Wal.wal_path ~dir:seg) with
            | Error e ->
                Alcotest.failf "%s: %s" ctx (Service.Wal.boot_error_to_string e)
            | Ok r ->
                Alcotest.(check bool) (ctx ^ ": no torn tail") true
                  (r.Service.Wal.ck_torn = None);
                Alcotest.(check bool) (ctx ^ ": no seq gap") true
                  (r.Service.Wal.ck_gaps = []);
                Alcotest.(check int) (ctx ^ ": records in the WAL")
                  (acked / groups) r.Service.Wal.ck_submits)
          seg_dirs
      in
      let third = n / 3 in
      (let@ pid = with_server ~state_dir ~shards ~service addr in
       let client = connect_retry addr in
       submit client 0 third;
       Unix.kill pid Sys.sigkill;
       ignore (Unix.waitpid [] pid);
       Service.Client.close client);
      List.iter
        (fun seg ->
          let oc =
            open_out_gen [ Open_append ] 0o644 (Service.Wal.wal_path ~dir:seg)
          in
          output_string oc {|{"rec":"submit","seq":|};
          close_out oc)
        seg_dirs;
      (let@ pid = with_server ~state_dir ~shards ~service addr in
       let client = connect_retry addr in
       expect_accepted ~ctx client third;
       submit client third (2 * third);
       Unix.kill pid Sys.sigkill;
       ignore (Unix.waitpid [] pid);
       Service.Client.close client);
      check_wals ~acked:(2 * third);
      (let@ _pid = with_server ~state_dir ~shards ~service addr in
       let client = connect_retry addr in
       expect_accepted ~ctx client (2 * third);
       submit client (2 * third) n;
       (match request_ok client (Service.Protocol.Drain { detail = false }) with
       | Service.Protocol.Drain_ok r ->
           Alcotest.(check (array int))
             (ctx ^ ": psi identical to batch across two restarts")
             golden_psi r.Service.Protocol.d_psi_scaled;
           Alcotest.(check string)
             (ctx ^ ": kernel stats identical to batch")
             (stats_string golden_stats)
             (stats_string r.Service.Protocol.d_stats)
       | _ -> Alcotest.fail "drain: unexpected response");
       Service.Client.close client);
      check_wals ~acked:n)
    [ (1, 1); (2, 1); (2, 2) ]

(* A life that dies between a batch's write and its fsync leaves records
   the next boot reads back from the page cache and answers
   retransmissions of from the dedupe table, without a sync of its own.
   Boot must fsync the reopened WAL before it serves: a plan that crashes
   at the first wal-fsync kills the second life before it is ready, with
   no request sent to it. *)
let test_reopen_fsyncs_before_serving () =
  let@ dir = with_tmpdir in
  let state_dir = Filename.concat dir "state" in
  let service = mk_config ~machines:[| 1; 1 |] ~horizon:1000 () in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  (let@ pid = with_server ~state_dir ~service addr in
   let client = connect_retry addr in
   for release = 1 to 3 do
     match
       request_ok client
         (Service.Protocol.Submit
            { org = 0; user = 0; release; size = 1; cid = 4; cseq = release;
              trace = 0 })
     with
     | Service.Protocol.Submit_ok _ -> ()
     | _ -> Alcotest.fail "submit not acked"
   done;
   Unix.kill pid Sys.sigkill;
   ignore (Unix.waitpid [] pid);
   Service.Client.close client);
  match spawn_server ~state_dir ~chaos:"crash@wal-fsync:1" ~service addr with
  | pid, true ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "the restarted life served before fsyncing its WAL"
  | pid, false -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED c when c = Chaos.Fs.exit_code -> ()
      | _ -> Alcotest.fail "the restarted life died, but not at wal-fsync")

(* A state dir written by an older daemon: a snapshot covering seqs 1..k
   and a WAL still holding 1..k+j (that daemon crashed between the
   snapshot's rename and the WAL's truncation).  It boots, acks more,
   restarts and drains equal to the batch run; the snapshot is read,
   never rewritten. *)
let test_legacy_snapshot_dir () =
  let@ dir = with_tmpdir in
  let algorithm = "fairshare" and seed = 5 in
  let instance = Workload.Scenario.instance spec ~seed:24 in
  let batch = batch_result ~algorithm ~seed instance in
  let service =
    match
      Service.Config.make
        ~machines:(Array.copy instance.Core.Instance.machines)
        ~horizon:instance.Core.Instance.horizon ~algorithm ~seed ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "config: %s" msg
  in
  let state_dir = Filename.concat dir "state" in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let jobs = instance.Core.Instance.jobs in
  let n = Array.length jobs in
  let k = n / 4 and logged = n / 2 and third_life = 3 * n / 4 in
  Alcotest.(check bool) "instance non-trivial" true (k > 2);
  let records =
    List.init logged (fun i ->
        let j = jobs.(i) in
        Service.Wal.Submit
          {
            seq = i + 1;
            org = j.Core.Job.org;
            user = j.Core.Job.user;
            release = j.Core.Job.release;
            size = j.Core.Job.size;
            cid = 0;
            cseq = 0;
          })
  in
  Unix.mkdir state_dir 0o755;
  (match
     Service.Wal.write_snapshot ~dir:state_dir
       {
         Service.Wal.config = service;
         last_seq = k;
         records = List.filteri (fun i _ -> i < k) records;
       }
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "write_snapshot: %s" msg);
  (match Service.Wal.create ~dir:state_dir ~config:service () with
  | Ok w ->
      List.iter (Service.Wal.append w) records;
      (match Service.Wal.sync w with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "wal sync: %s" msg);
      Service.Wal.close w
  | Error msg -> Alcotest.failf "wal create: %s" msg);
  let snap_path = Service.Wal.snapshot_path ~dir:state_dir in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let snap_bytes = read snap_path in
  (let@ pid = with_server ~state_dir ~service addr in
   let client = connect_retry addr in
   expect_accepted ~ctx:"legacy" client logged;
   Array.iteri
     (fun i j -> if i >= logged && i < third_life then submit_job client j)
     jobs;
   Unix.kill pid Sys.sigkill;
   ignore (Unix.waitpid [] pid);
   Service.Client.close client);
  (let@ _pid = with_server ~state_dir ~service addr in
   let client = connect_retry addr in
   expect_accepted ~ctx:"legacy" client third_life;
   Array.iteri (fun i j -> if i >= third_life then submit_job client j) jobs;
   (match request_ok client (Service.Protocol.Drain { detail = false }) with
   | Service.Protocol.Drain_ok r ->
       Alcotest.(check (array int)) "psi identical to batch"
         batch.Sim.Driver.utilities_scaled r.Service.Protocol.d_psi_scaled;
       Alcotest.(check string) "stats identical to batch"
         (stats_string batch.Sim.Driver.stats)
         (stats_string r.Service.Protocol.d_stats)
   | _ -> Alcotest.fail "drain: unexpected response");
   Service.Client.close client);
  Alcotest.(check bool) "snapshot.json byte-identical" true
    (read snap_path = snap_bytes);
  match Service.Wal.check (Service.Wal.wal_path ~dir:state_dir) with
  | Ok r ->
      Alcotest.(check int) "the WAL holds every record" n
        r.Service.Wal.ck_submits;
      Alcotest.(check (pair int int)) "WAL seq range" (1, n)
        (r.Service.Wal.ck_first_seq, r.Service.Wal.ck_last_seq)
  | Error e -> Alcotest.fail (Service.Wal.boot_error_to_string e)

(* Fault isolation: a chaos plan targeting one segment's fsyncs
   (site prefix g1/) turns that group's submissions into wal-errors while
   the other group keeps acking — the blast radius of a sick WAL is one
   org-group, not the daemon.  (:2+ skips the segment's header fsync at
   boot.) *)
let test_shard_chaos_isolation () =
  let@ dir = with_tmpdir in
  let state_dir = Filename.concat dir "state" in
  let service =
    mk_config ~groups:2 ~machines:[| 2; 2 |] ~horizon:100_000 ()
  in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let submit client ~org ~release =
    request_ok client
      (Service.Protocol.Submit
         { org; user = 0; release; size = 1; cid = 0; cseq = 0; trace = 0 })
  in
  let@ _pid =
    with_server ~state_dir ~chaos:"eio@g1/wal-fsync:2+" ~service addr
  in
  let client = connect_retry addr in
  (match submit client ~org:0 ~release:1 with
  | Service.Protocol.Submit_ok _ -> ()
  | _ -> Alcotest.fail "healthy group rejected a submission");
  (match submit client ~org:1 ~release:1 with
  | Service.Protocol.Error { code = Service.Protocol.Wal_error; _ } -> ()
  | Service.Protocol.Submit_ok _ ->
      Alcotest.fail "sick group acked without a durable record"
  | _ -> Alcotest.fail "sick group: unexpected response");
  (* The healthy group is unaffected by its neighbour's sick disk. *)
  (match submit client ~org:0 ~release:2 with
  | Service.Protocol.Submit_ok _ -> ()
  | _ -> Alcotest.fail "healthy group stopped acking");
  (match request_ok client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      (* The wal-errored feed stays admitted (its record is pending until
         a later sync repairs it) — same books as the pre-sharding server
         kept under a sick disk. *)
      Alcotest.(check int) "admitted feeds counted" 3
        st.Service.Protocol.accepted
  | _ -> Alcotest.fail "status: unexpected response");
  Service.Client.close client

let () =
  Random.self_init ();
  Alcotest.run "service"
    [
      ( "config",
        [
          Alcotest.test_case "roundtrip" `Quick test_config_roundtrip;
          Alcotest.test_case "validation" `Quick test_config_validation;
          QCheck_alcotest.to_alcotest range_bound_qcheck;
        ] );
      ("addr", [ Alcotest.test_case "parse" `Quick test_addr ]);
      ( "protocol",
        [
          Alcotest.test_case "requests" `Quick test_protocol_requests;
          Alcotest.test_case "golden-lines" `Quick test_protocol_golden;
          Alcotest.test_case "responses" `Quick test_protocol_responses;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "golden-lines" `Quick test_wal_golden;
          Alcotest.test_case "torn-tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "snapshot-dedupe" `Quick test_wal_snapshot_dedupe;
          Alcotest.test_case "sync-repair" `Quick test_wal_sync_repair;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff" `Quick test_retry_backoff;
          Alcotest.test_case "budget-and-jitter" `Quick
            test_retry_budget_and_jitter;
        ] );
      ( "overload",
        [
          Alcotest.test_case "dwell" `Quick test_overload_dwell;
          Alcotest.test_case "no-flap" `Quick test_overload_no_flap;
          Alcotest.test_case "ack-signal" `Quick test_overload_ack_signal;
        ] );
      ( "online",
        [
          Alcotest.test_case "equivalence-fifo" `Quick test_equivalence_fifo;
          Alcotest.test_case "equivalence-random" `Quick
            test_equivalence_random;
          Alcotest.test_case "equivalence-ref" `Quick test_equivalence_ref;
          Alcotest.test_case "equivalence-faults" `Quick
            test_equivalence_faults;
          Alcotest.test_case "admission" `Quick test_online_admission;
        ] );
      ( "server",
        [
          Alcotest.test_case "served-equivalence" `Quick
            test_served_equivalence;
          Alcotest.test_case "crash-recovery" `Quick test_crash_recovery;
          Alcotest.test_case "legacy-snapshot-dir" `Quick
            test_legacy_snapshot_dir;
          Alcotest.test_case "size-bound" `Quick test_size_bound;
          Alcotest.test_case "boot-mode-back-to-base" `Quick
            test_boot_mode_back_to_base;
          Alcotest.test_case "boot-mode-refused" `Quick test_boot_mode_refused;
          Alcotest.test_case "backpressure" `Quick test_backpressure;
          Alcotest.test_case "dedupe" `Quick test_dedupe;
          Alcotest.test_case "resilient-stamping" `Quick
            test_resilient_stamping;
          Alcotest.test_case "client-timeout" `Quick test_client_timeout;
          Alcotest.test_case "malformed-lines" `Quick test_malformed_lines;
          Alcotest.test_case "loadgen" `Quick test_loadgen;
          Alcotest.test_case "loadgen-paced-stall" `Quick
            test_loadgen_paced_stall;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "partition" `Quick test_partition_groups;
          QCheck_alcotest.to_alcotest sharded_differential_qcheck;
          Alcotest.test_case "group-commit-recovery" `Quick
            test_group_commit_recovery;
          Alcotest.test_case "reopen-torn-tail" `Quick test_reopen_torn_tail;
          Alcotest.test_case "reopen-fsyncs-before-serving" `Quick
            test_reopen_fsyncs_before_serving;
          Alcotest.test_case "chaos-isolation" `Quick
            test_shard_chaos_isolation;
        ] );
    ]
