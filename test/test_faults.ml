(* Tests for the fault-injection subsystem: the failure models, the
   kill/resubmit semantics of the cluster and driver, and the differential
   guards (empty trace is bit-identical). *)

open Core

let run ?(record = true) ?(faults = []) ?max_restarts ~instance ~seed name =
  Sim.Driver.run ~record ~faults ?max_restarts ~instance
    ~rng:(Fstats.Rng.create ~seed)
    (Algorithms.Registry.find_exn name)

let mk_jobs specs =
  List.map
    (fun (org, release, size) -> Job.make ~org ~index:0 ~release ~size ())
    specs

(* --- Model ------------------------------------------------------------- *)

let test_scripted () =
  let trace =
    Faults.Model.scripted
      [
        { Faults.Model.machine = 1; down_at = 5; up_at = 7 };
        { Faults.Model.machine = 0; down_at = 5; up_at = 6 };
      ]
  in
  let show ev =
    Format.asprintf "%a" Faults.Event.pp_timed ev
  in
  Alcotest.(check (list string))
    "canonical order"
    [ "t=5 fail(m0)"; "t=5 fail(m1)"; "t=6 recover(m0)"; "t=7 recover(m1)" ]
    (List.map show trace);
  Alcotest.(check bool) "validates" true
    (Result.is_ok (Faults.Event.validate ~machines:2 trace))

let test_scripted_rejects () =
  Alcotest.check_raises "empty window"
    (Invalid_argument "Faults.Model.scripted: up_at <= down_at")
    (fun () ->
      ignore
        (Faults.Model.scripted
           [ { Faults.Model.machine = 0; down_at = 4; up_at = 4 } ]))

let test_random_trace () =
  let mk seed =
    Faults.Model.random
      ~rng:(Fstats.Rng.create ~seed)
      ~machines:4 ~horizon:1_000
      ~mtbf:(Faults.Model.Exponential { mean = 100. })
      ~mttr:(Faults.Model.Exponential { mean = 10. })
      ()
  in
  let trace = mk 42 in
  Alcotest.(check bool) "deterministic in the seed" true (mk 42 = trace);
  Alcotest.(check bool) "validates" true
    (Result.is_ok (Faults.Event.validate ~machines:4 trace));
  Alcotest.(check bool) "non-empty at this intensity" true (trace <> []);
  List.iter
    (fun (ev : Faults.Event.timed) ->
      Alcotest.(check bool) "events before horizon" true
        (ev.Faults.Event.time < 1_000))
    trace;
  let fails, recovers = Faults.Model.count_kind trace in
  Alcotest.(check bool) "each recovery has a failure" true (fails >= recovers)

let test_downtime () =
  let trace =
    Faults.Model.scripted
      [
        { Faults.Model.machine = 0; down_at = 2; up_at = 5 };
        { Faults.Model.machine = 1; down_at = 8; up_at = 40 };
      ]
  in
  (* Machine 0 loses [2,5) = 3; machine 1 is still down at the horizon:
     [8,10) = 2. *)
  Alcotest.(check int) "clipped at horizon" 5
    (Faults.Model.downtime ~machines:2 ~horizon:10 trace)

let test_sample () =
  let rng = Fstats.Rng.create ~seed:1 in
  Alcotest.(check (float 1e-9)) "fixed" 3.
    (Faults.Model.sample (Faults.Model.Fixed 3.) rng);
  Alcotest.(check bool) "exponential positive" true
    (Faults.Model.sample (Faults.Model.Exponential { mean = 5. }) rng > 0.)

(* --- Kill / resubmit semantics ----------------------------------------- *)

(* One machine, one job of size 5 released at 0.  The machine fails at 2
   (killing the job after 2 executed parts) and recovers at 3; the job
   restarts from scratch at 3 and completes at 8.  ψsp at the horizon sees
   only the completed piece: 5·(10 − 3 − 2) = 25, scaled 50. *)
let test_kill_restart () =
  let instance =
    Instance.make ~machines:[| 1 |] ~jobs:(mk_jobs [ (0, 0, 5) ]) ~horizon:10
  in
  let faults =
    Faults.Model.scripted [ { Faults.Model.machine = 0; down_at = 2; up_at = 3 } ]
  in
  let r = run ~instance ~faults ~seed:1 "fifo" in
  Alcotest.(check (array int)) "killed work counts for nobody" [| 50 |]
    r.Sim.Driver.utilities_scaled;
  Alcotest.(check int) "parts" 5 (Sim.Driver.total_parts r);
  Alcotest.(check int) "one kill" 1 r.Sim.Driver.killed;
  Alcotest.(check int) "no abandonment" 0 r.Sim.Driver.abandoned;
  Alcotest.(check int) "two parts wasted" 2 r.Sim.Driver.wasted;
  (match Schedule.placements r.Sim.Driver.schedule with
  | [ p ] -> Alcotest.(check int) "restart at recovery" 3 p.Schedule.start
  | ps -> Alcotest.failf "expected one completed placement, got %d"
            (List.length ps));
  (match Schedule.killed r.Sim.Driver.schedule with
  | [ k ] ->
      Alcotest.(check int) "killed segment start" 0 k.Schedule.start;
      Alcotest.(check int) "killed segment truncated" 2 k.Schedule.duration
  | ks -> Alcotest.failf "expected one killed segment, got %d"
            (List.length ks));
  Alcotest.(check int) "schedule wasted time" 2
    (Schedule.wasted_time r.Sim.Driver.schedule ~upto:10)

let test_restart_budget_exhausted () =
  let instance =
    Instance.make ~machines:[| 1 |] ~jobs:(mk_jobs [ (0, 0, 5) ]) ~horizon:10
  in
  let faults =
    Faults.Model.scripted [ { Faults.Model.machine = 0; down_at = 2; up_at = 3 } ]
  in
  let r = run ~instance ~faults ~max_restarts:0 ~seed:1 "fifo" in
  Alcotest.(check int) "abandoned" 1 r.Sim.Driver.abandoned;
  Alcotest.(check (array int)) "no utility" [| 0 |]
    r.Sim.Driver.utilities_scaled;
  Alcotest.(check int) "no parts" 0 (Sim.Driver.total_parts r);
  Alcotest.(check int) "nothing completes" 0
    (Schedule.job_count r.Sim.Driver.schedule)

let test_down_machine_blocks () =
  (* The machine fails before the job is released: the job waits for the
     recovery, then runs 4..6. *)
  let instance =
    Instance.make ~machines:[| 1 |] ~jobs:(mk_jobs [ (0, 1, 2) ]) ~horizon:10
  in
  let faults =
    Faults.Model.scripted [ { Faults.Model.machine = 0; down_at = 0; up_at = 4 } ]
  in
  let r = run ~instance ~faults ~seed:1 "fifo" in
  Alcotest.(check int) "no kill (job never started)" 0 r.Sim.Driver.killed;
  (match Schedule.placements r.Sim.Driver.schedule with
  | [ p ] -> Alcotest.(check int) "starts at recovery" 4 p.Schedule.start
  | _ -> Alcotest.fail "expected one placement");
  (* ψsp: 2·(10 − 4 − 0.5) = 11, scaled 22. *)
  Alcotest.(check (array int)) "utility" [| 22 |]
    r.Sim.Driver.utilities_scaled

let test_redundant_events_are_noops () =
  (* A second failure of a down machine and a second recovery of an up
     machine change nothing. *)
  let instance =
    Instance.make ~machines:[| 1 |] ~jobs:(mk_jobs [ (0, 0, 5) ]) ~horizon:12
  in
  let faults =
    [
      { Faults.Event.time = 1; event = Faults.Event.Fail 0 };
      { Faults.Event.time = 2; event = Faults.Event.Fail 0 };
      { Faults.Event.time = 3; event = Faults.Event.Recover 0 };
      { Faults.Event.time = 4; event = Faults.Event.Recover 0 };
    ]
  in
  let r = run ~instance ~faults ~seed:1 "fifo" in
  Alcotest.(check int) "one kill" 1 r.Sim.Driver.killed;
  (match Schedule.placements r.Sim.Driver.schedule with
  | [ p ] -> Alcotest.(check int) "restart at first recovery" 3 p.Schedule.start
  | _ -> Alcotest.fail "expected one placement")

let test_invalid_trace_rejected () =
  let instance =
    Instance.make ~machines:[| 1 |] ~jobs:(mk_jobs [ (0, 0, 1) ]) ~horizon:5
  in
  let bad = [ { Faults.Event.time = 0; event = Faults.Event.Fail 7 } ] in
  match run ~instance ~faults:bad ~seed:1 "fifo" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for out-of-range machine"

(* --- Differential guards ----------------------------------------------- *)

let small_instance seed =
  Workload.Scenario.instance
    (Workload.Scenario.default ~norgs:3 ~machines:5 ~horizon:3_000
       Workload.Traces.lpc_egee)
    ~seed

let test_empty_trace_bit_identical () =
  let instance = small_instance 11 in
  List.iter
    (fun name ->
      let a = run ~instance ~seed:3 name in
      let b = run ~instance ~faults:[] ~max_restarts:4 ~seed:3 name in
      Alcotest.(check (array int))
        (name ^ ": utilities identical")
        a.Sim.Driver.utilities_scaled b.Sim.Driver.utilities_scaled;
      Alcotest.(check bool)
        (name ^ ": placements identical")
        true
        (Schedule.placements a.Sim.Driver.schedule
        = Schedule.placements b.Sim.Driver.schedule);
      Alcotest.(check int) (name ^ ": no kills") 0 b.Sim.Driver.killed)
    [ "fifo"; "roundrobin"; "fairshare"; "directcontr"; "rand-15"; "ref" ]

(* --- Properties --------------------------------------------------------- *)

(* Random small instance + random fault trace. *)
let churn_case_gen =
  let gen =
    QCheck.Gen.(
      let* norgs = int_range 1 3 in
      let* machines = array_size (return norgs) (int_range 1 2) in
      let* njobs = int_range 0 10 in
      let* jobs =
        list_size (return njobs)
          (let* org = int_range 0 (norgs - 1) in
           let* release = int_range 0 12 in
           let* size = int_range 1 6 in
           return (org, release, size))
      in
      let* fault_seed = int_range 0 10_000 in
      return (machines, jobs, fault_seed))
  in
  let make (machines, jobs, fault_seed) =
    let instance =
      Instance.make ~machines
        ~jobs:
          (List.map
             (fun (org, release, size) ->
               Job.make ~org ~index:0 ~release ~size ())
             jobs)
        ~horizon:40
    in
    let faults =
      Faults.Model.random
        ~rng:(Fstats.Rng.create ~seed:fault_seed)
        ~machines:(Instance.total_machines instance)
        ~horizon:40
        ~mtbf:(Faults.Model.Exponential { mean = 15. })
        ~mttr:(Faults.Model.Exponential { mean = 5. })
        ()
    in
    (instance, faults)
  in
  let arb =
    QCheck.make
      ~print:(fun (machines, jobs, fault_seed) ->
        let instance, faults = make (machines, jobs, fault_seed) in
        Format.asprintf "%a@.faults: %a" Instance.pp_detailed instance
          (Format.pp_print_list ~pp_sep:Format.pp_print_space
             Faults.Event.pp_timed)
          faults)
      gen
  in
  (arb, make)

(* [0, horizon)-clipped down intervals per machine. *)
let down_intervals ~machines ~horizon trace =
  let down_since = Array.make machines (-1) in
  let intervals = Array.make machines [] in
  List.iter
    (fun (ev : Faults.Event.timed) ->
      match ev.Faults.Event.event with
      | Faults.Event.Fail m ->
          if down_since.(m) < 0 then down_since.(m) <- ev.Faults.Event.time
      | Faults.Event.Recover m ->
          if down_since.(m) >= 0 then begin
            intervals.(m) <- (down_since.(m), ev.Faults.Event.time) :: intervals.(m);
            down_since.(m) <- -1
          end)
    trace;
  Array.iteri
    (fun m since -> if since >= 0 then intervals.(m) <- (since, horizon) :: intervals.(m))
    down_since;
  intervals

let prop_no_job_on_down_machine name =
  let arb, make = churn_case_gen in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: no job runs on a down machine" name) ~count:80
    arb
    (fun raw ->
      let instance, faults = make raw in
      let r = run ~instance ~faults ~seed:7 name in
      let intervals =
        down_intervals
          ~machines:(Instance.total_machines instance)
          ~horizon:instance.Instance.horizon faults
      in
      List.for_all
        (fun (p : Schedule.placement) ->
          List.for_all
            (fun (a, b) ->
              p.Schedule.start >= b || p.Schedule.start + p.Schedule.duration <= a)
            intervals.(p.Schedule.machine))
        (Schedule.placements r.Sim.Driver.schedule))

let prop_complete_at_most_once name =
  let arb, make = churn_case_gen in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: non-abandoned jobs complete at most once" name)
    ~count:80 arb
    (fun raw ->
      let instance, faults = make raw in
      let r = run ~instance ~faults ~seed:9 name in
      let completed =
        List.map
          (fun (p : Schedule.placement) -> Job.id p.Schedule.job)
          (Schedule.placements r.Sim.Driver.schedule)
      in
      let distinct = List.sort_uniq Stdlib.compare completed in
      List.length distinct = List.length completed
      && List.length completed + r.Sim.Driver.abandoned
         <= Array.length instance.Instance.jobs)

let prop_trackers_match_schedule name =
  (* Under churn the incremental trackers (with on_abort retractions) must
     still equal ψsp recomputed from the recorded completed placements. *)
  let arb, make = churn_case_gen in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: utilities match schedule under churn" name)
    ~count:60 arb
    (fun raw ->
      let instance, faults = make raw in
      let r = run ~instance ~faults ~seed:13 name in
      let at = instance.Instance.horizon in
      let expected =
        Array.make (Instance.organizations instance) 0
      in
      List.iter
        (fun (p : Schedule.placement) ->
          let s = p.Schedule.start and q = p.Schedule.duration in
          let executed = Stdlib.min q (Stdlib.max 0 (at - s)) in
          (* scaled ψsp of one piece truncated at the horizon *)
          let v =
            if s + q <= at then q * ((2 * at) - (2 * s) - q + 1)
            else executed * (executed + 1)
          in
          expected.(p.Schedule.job.Job.org) <-
            expected.(p.Schedule.job.Job.org) + v)
        (Schedule.placements r.Sim.Driver.schedule);
      r.Sim.Driver.utilities_scaled = expected)

let churn_props =
  List.concat_map
    (fun name ->
      [
        prop_no_job_on_down_machine name;
        prop_complete_at_most_once name;
        prop_trackers_match_schedule name;
      ])
    [ "fifo"; "roundrobin"; "fairshare"; "directcontr"; "ref" ]

let () =
  Alcotest.run "faults"
    [
      ( "model",
        [
          Alcotest.test_case "scripted" `Quick test_scripted;
          Alcotest.test_case "scripted rejects" `Quick test_scripted_rejects;
          Alcotest.test_case "random trace" `Quick test_random_trace;
          Alcotest.test_case "downtime" `Quick test_downtime;
          Alcotest.test_case "sample" `Quick test_sample;
        ] );
      ( "kill-resubmit",
        [
          Alcotest.test_case "kill and restart" `Quick test_kill_restart;
          Alcotest.test_case "restart budget" `Quick
            test_restart_budget_exhausted;
          Alcotest.test_case "down machine blocks" `Quick
            test_down_machine_blocks;
          Alcotest.test_case "redundant events" `Quick
            test_redundant_events_are_noops;
          Alcotest.test_case "invalid trace" `Quick test_invalid_trace_rejected;
        ] );
      ( "differential",
        [
          Alcotest.test_case "empty trace bit-identical" `Quick
            test_empty_trace_bit_identical;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest churn_props);
    ]
