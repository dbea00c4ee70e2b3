(* Tests for the federation subsystem: endowment-event semantics (lend,
   reclaim, leave, join), the ownership replay state, the peak-offloading
   generator, and the differential guards — capacity conservation under
   endowment churn, no job outside the consortium, and empty-stream
   bit-identity with the static consortium across policies and worker
   counts. *)

open Core
module FE = Federation.Event
module FM = Federation.Model

let run ?(record = true) ?(federation = []) ?(faults = []) ?max_restarts
    ~instance ~seed name =
  Sim.Driver.run ~record ~federation ~faults ?max_restarts ~instance
    ~rng:(Fstats.Rng.create ~seed)
    (Algorithms.Registry.find_exn name)

let mk_jobs specs =
  List.map
    (fun (org, index, release, size) -> Job.make ~org ~index ~release ~size ())
    specs

let ev time event = { FE.time; event }

(* --- Event and ownership semantics -------------------------------------- *)

let test_scripted_order () =
  let trace =
    FM.scripted
      [
        ev 7 (FE.Reclaim { org = 0; machines = [ 1 ] });
        ev 3 (FE.Lend { org = 0; to_org = 1; machines = [ 1 ] });
        ev 3 (FE.Leave { org = 2 });
      ]
  in
  let show e = Format.asprintf "%a" FE.pp_timed e in
  Alcotest.(check (list string))
    "canonical order"
    [ "t=3 lend(o0->o1 [m1])"; "t=3 leave(o2)"; "t=7 reclaim(o0 [m1])" ]
    (List.map show trace)

let homes_of machines_per_org =
  Array.concat
    (List.init (Array.length machines_per_org) (fun u ->
         Array.make machines_per_org.(u) u))

let test_ownership_lend_reclaim () =
  let own = FE.Ownership.create ~homes:(homes_of [| 2; 1 |]) ~orgs:2 in
  (match FE.Ownership.apply own (FE.Lend { org = 0; to_org = 1; machines = [ 1 ] }) with
  | Ok [ FE.Ownership.Transfer { machine = 1; org = 1 } ] -> ()
  | Ok cs -> Alcotest.failf "unexpected changes (%d)" (List.length cs)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "owner moved" 1 (FE.Ownership.owner own 1);
  Alcotest.(check int) "home fixed" 0 (FE.Ownership.home own 1);
  Alcotest.(check int) "borrower counts it" 2 (FE.Ownership.owned_count own 1);
  Alcotest.(check int) "lender lent one" 1 (FE.Ownership.lent_out own 0);
  (* Lending a machine one no longer owns is rejected, state untouched. *)
  (match FE.Ownership.apply own (FE.Lend { org = 0; to_org = 1; machines = [ 1 ] }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "re-lending someone else's machine must fail");
  (match FE.Ownership.apply own (FE.Reclaim { org = 0; machines = [ 1 ] }) with
  | Ok [ FE.Ownership.Transfer { machine = 1; org = 0 } ] -> ()
  | _ -> Alcotest.fail "reclaim transfers back");
  Alcotest.(check int) "owner restored" 0 (FE.Ownership.owner own 1)

let test_ownership_leave_join () =
  let own = FE.Ownership.create ~homes:(homes_of [| 2; 1 |]) ~orgs:2 in
  (* Org 0 lends m1 to org 1, then leaves: its home machines (m0, m1 —
     wherever lent) retire; nothing was borrowed.  Rejoining with [] brings
     every absent home machine back under its ownership. *)
  (match FE.Ownership.apply own (FE.Lend { org = 0; to_org = 1; machines = [ 1 ] }) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match FE.Ownership.apply own (FE.Leave { org = 0 }) with
  | Ok [ FE.Ownership.Deactivate 0; FE.Ownership.Retire 0; FE.Ownership.Retire 1 ]
    -> ()
  | Ok cs ->
      Alcotest.failf "unexpected leave changes: %d" (List.length cs)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "m1 absent" false (FE.Ownership.present own 1);
  Alcotest.(check int) "k(t) shrank" 1 (FE.Ownership.orgs_active own);
  Alcotest.(check int) "only org1's machine left" 1
    (FE.Ownership.present_count own);
  (match FE.Ownership.apply own (FE.Join { org = 0; machines = [] }) with
  | Ok
      [
        FE.Ownership.Activate 0;
        FE.Ownership.Admit { machine = 0; org = 0 };
        FE.Ownership.Admit { machine = 1; org = 0 };
      ] ->
      ()
  | Ok cs -> Alcotest.failf "unexpected join changes: %d" (List.length cs)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "endowment restored" 2 (FE.Ownership.owned_count own 0)

let test_leave_reverts_borrowed () =
  let own = FE.Ownership.create ~homes:(homes_of [| 1; 1 |]) ~orgs:2 in
  (match FE.Ownership.apply own (FE.Lend { org = 0; to_org = 1; machines = [ 0 ] }) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* The borrower leaves: the borrowed machine reverts to its home owner
     and stays present; the borrower's own machine retires. *)
  (match FE.Ownership.apply own (FE.Leave { org = 1 }) with
  | Ok
      [
        FE.Ownership.Deactivate 1;
        FE.Ownership.Transfer { machine = 0; org = 0 };
        FE.Ownership.Retire 1;
      ] ->
      ()
  | Ok cs -> Alcotest.failf "unexpected changes: %d" (List.length cs)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "m0 still present" true (FE.Ownership.present own 0);
  Alcotest.(check int) "m0 back home" 0 (FE.Ownership.owner own 0)

let test_validate () =
  let homes = homes_of [| 1; 1 |] in
  Alcotest.(check bool) "good trace" true
    (Result.is_ok
       (FE.validate ~orgs:2 ~homes
          [
            ev 2 (FE.Lend { org = 0; to_org = 1; machines = [ 0 ] });
            ev 5 (FE.Reclaim { org = 0; machines = [ 0 ] });
          ]));
  Alcotest.(check bool) "unsorted rejected" true
    (Result.is_error
       (FE.validate ~orgs:2 ~homes
          [
            ev 5 (FE.Reclaim { org = 0; machines = [ 0 ] });
            ev 2 (FE.Lend { org = 0; to_org = 1; machines = [ 0 ] });
          ]));
  Alcotest.(check bool) "lending an unowned machine rejected" true
    (Result.is_error
       (FE.validate ~orgs:2 ~homes
          [ ev 0 (FE.Lend { org = 0; to_org = 1; machines = [ 1 ] }) ]))

let test_model_random () =
  let mk seed =
    FM.random
      ~rng:(Fstats.Rng.create ~seed)
      ~machines_per_org:[| 3; 3; 2 |] ~horizon:2_000 ~spec:FM.default_spec ()
  in
  let trace = mk 42 in
  Alcotest.(check bool) "deterministic in the seed" true (mk 42 = trace);
  Alcotest.(check bool) "non-empty" true (trace <> []);
  Alcotest.(check bool) "validates" true
    (Result.is_ok (FE.validate ~orgs:3 ~homes:(homes_of [| 3; 3; 2 |]) trace));
  let _, _, lends, reclaims = FM.count_kind trace in
  Alcotest.(check bool) "each reclaim has a lend" true (lends >= reclaims)

let test_script_parse () =
  match
    FM.script_of_lines
      [
        "# peak handoff";
        "10 lend 0 1 2 3";
        "";
        "40 reclaim 0 2 3";
        "50 leave 1";
        "60 join 1";
      ]
  with
  | Error e -> Alcotest.fail e
  | Ok trace ->
      let joins, leaves, lends, reclaims = FM.count_kind trace in
      Alcotest.(check (list int)) "counts" [ 1; 1; 1; 1 ]
        [ joins; leaves; lends; reclaims ];
      Alcotest.(check bool) "machines parsed" true
        (List.exists
           (fun e -> FE.machines e.FE.event = [ 2; 3 ])
           trace)

let test_spec_parse () =
  (match FM.spec_of_string "period:100,lend:2,correlation:0.5" with
  | Ok s ->
      Alcotest.(check int) "period" 100 s.FM.period;
      Alcotest.(check int) "lend" 2 s.FM.lend;
      Alcotest.(check (float 1e-9)) "correlation" 0.5 s.FM.correlation
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "junk rejected" true
    (Result.is_error (FM.spec_of_string "period:banana"))

(* --- Semantics through the driver ---------------------------------------- *)

(* The consortium pools every present machine for scheduling; a Lend moves
   ψsp capacity {e attribution} (coalition values, gauges), never the
   placement of jobs.  Two orgs, one home machine each, org 1 with two
   size-5 jobs at t = 0: the jobs run in parallel with or without the
   lend, bit-identically. *)
let test_lend_is_placement_neutral () =
  let instance =
    Instance.make ~machines:[| 1; 1 |]
      ~jobs:(mk_jobs [ (1, 0, 0, 5); (1, 1, 0, 5) ])
      ~horizon:20
  in
  let base = run ~instance ~seed:1 "fifo" in
  Alcotest.(check (array int)) "pooled: parallel" [| 0; 360 |]
    base.Sim.Driver.utilities_scaled;
  let federation = [ ev 0 (FE.Lend { org = 0; to_org = 1; machines = [ 0 ] }) ] in
  let r = run ~instance ~federation ~seed:1 "fifo" in
  Alcotest.(check (array int)) "transfer changes nothing for the schedule"
    base.Sim.Driver.utilities_scaled r.Sim.Driver.utilities_scaled;
  Alcotest.(check bool) "placements identical" true
    (Schedule.placements base.Sim.Driver.schedule
    = Schedule.placements r.Sim.Driver.schedule);
  Alcotest.(check int) "one endow event" 1
    r.Sim.Driver.stats.Kernel.Stats.endow_events

(* A Leave retires the departing org's machines: org 1's two jobs, parallel
   on the pooled pair above, serialize on its own machine once org 0 leaves
   at t = 0 — capacity really left the consortium. *)
let test_leave_removes_capacity () =
  let instance =
    Instance.make ~machines:[| 1; 1 |]
      ~jobs:(mk_jobs [ (1, 0, 0, 5); (1, 1, 0, 5) ])
      ~horizon:20
  in
  let federation = [ ev 0 (FE.Leave { org = 0 }) ] in
  let r = run ~instance ~federation ~seed:1 "fifo" in
  Alcotest.(check (array int)) "serialized on the remaining machine"
    [| 0; 310 |] r.Sim.Driver.utilities_scaled;
  Alcotest.(check int) "nothing was running to kill" 0 r.Sim.Driver.killed

(* Ownership transfers never disturb a running job: org 1 borrows org 0's
   only machine, its size-6 job starts at t = 0, and the reclaim at t = 3
   passes through silently — the job completes at 6. *)
let test_reclaim_keeps_running_job () =
  let instance =
    Instance.make ~machines:[| 1; 0 |]
      ~jobs:(mk_jobs [ (1, 0, 0, 6) ])
      ~horizon:20
  in
  let federation =
    [
      ev 0 (FE.Lend { org = 0; to_org = 1; machines = [ 0 ] });
      ev 3 (FE.Reclaim { org = 0; machines = [ 0 ] });
    ]
  in
  let r = run ~instance ~federation ~seed:1 "fifo" in
  Alcotest.(check int) "no kill" 0 r.Sim.Driver.killed;
  Alcotest.(check (array int)) "job completes undisturbed" [| 0; 210 |]
    r.Sim.Driver.utilities_scaled;
  Alcotest.(check int) "two endow events" 2
    r.Sim.Driver.stats.Kernel.Stats.endow_events

(* A single org leaves at t = 2 (killing its running job) and rejoins at
   t = 10; the job released at t = 6 while suspended waits and starts at the
   rejoin. *)
let test_leave_join_roundtrip () =
  let instance =
    Instance.make ~machines:[| 1 |]
      ~jobs:(mk_jobs [ (0, 0, 0, 5); (0, 1, 6, 4) ])
      ~horizon:20
  in
  let federation =
    [ ev 2 (FE.Leave { org = 0 }); ev 10 (FE.Join { org = 0; machines = [] }) ]
  in
  let r = run ~instance ~federation ~seed:1 "fifo" in
  Alcotest.(check int) "first job killed by retirement" 1 r.Sim.Driver.killed;
  match Schedule.placements r.Sim.Driver.schedule with
  | [ p1; p2 ] ->
      (* The killed job resubmits at the head of the queue and restarts at
         the rejoin, ahead of the job released during the suspension. *)
      Alcotest.(check int) "resubmitted job restarts at rejoin" 10
        p1.Schedule.start;
      Alcotest.(check int) "suspended-release job follows" 15 p2.Schedule.start
  | ps -> Alcotest.failf "expected two placements, got %d" (List.length ps)

let test_bad_trace_rejected () =
  let instance =
    Instance.make ~machines:[| 1; 1 |]
      ~jobs:(mk_jobs [ (0, 0, 0, 1) ])
      ~horizon:5
  in
  let federation = [ ev 0 (FE.Reclaim { org = 0; machines = [ 0 ] }) ] in
  match run ~instance ~federation ~seed:1 "fifo" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for reclaiming an owned machine"

(* --- Differential guards ------------------------------------------------- *)

let small_instance seed =
  Workload.Scenario.instance
    (Workload.Scenario.default ~norgs:3 ~machines:5 ~horizon:3_000
       Workload.Traces.lpc_egee)
    ~seed

let test_empty_stream_bit_identical () =
  let instance = small_instance 11 in
  List.iter
    (fun name ->
      let a = run ~instance ~seed:3 name in
      let b = run ~instance ~federation:[] ~seed:3 name in
      Alcotest.(check (array int))
        (name ^ ": utilities identical")
        a.Sim.Driver.utilities_scaled b.Sim.Driver.utilities_scaled;
      Alcotest.(check bool)
        (name ^ ": placements identical")
        true
        (Schedule.placements a.Sim.Driver.schedule
        = Schedule.placements b.Sim.Driver.schedule))
    [ "fifo"; "roundrobin"; "fairshare"; "directcontr"; "rand-15"; "ref" ]

(* Federated *construction* with an empty stream: REF/RAND build federated
   sub-coalition simulators (full machine universe, presence masks, sims
   even for machine-less coalitions) yet must reproduce the static results
   exactly when no event ever arrives. *)
let test_federated_construction_bit_identical () =
  let instance = small_instance 19 in
  List.iter
    (fun name ->
      let maker = Algorithms.Registry.find_exn name in
      let fed_maker instance ~rng =
        Federation.Mode.with_enabled true (fun () -> maker instance ~rng)
      in
      let a =
        Sim.Driver.run ~instance ~rng:(Fstats.Rng.create ~seed:3) maker
      in
      let b =
        Sim.Driver.run ~instance ~rng:(Fstats.Rng.create ~seed:3) fed_maker
      in
      Alcotest.(check (array int))
        (name ^ ": federated construction identical")
        a.Sim.Driver.utilities_scaled b.Sim.Driver.utilities_scaled)
    [ "rand-15"; "ref" ]

(* --- Properties ---------------------------------------------------------- *)

(* Random small instance + random endowment trace (+ faults for the
   owned-and-up property). *)
let churn_case_gen =
  let gen =
    QCheck.Gen.(
      let* norgs = int_range 2 3 in
      let* machines = array_size (return norgs) (int_range 1 2) in
      let* njobs = int_range 0 10 in
      let* jobs =
        list_size (return njobs)
          (let* org = int_range 0 (norgs - 1) in
           let* release = int_range 0 25 in
           let* size = int_range 1 6 in
           return (org, release, size))
      in
      let* endow_seed = int_range 0 10_000 in
      let* fault_seed = int_range 0 10_000 in
      let* with_faults = bool in
      return (machines, jobs, endow_seed, fault_seed, with_faults))
  in
  let make (machines, jobs, endow_seed, fault_seed, with_faults) =
    let jobs =
      List.mapi
        (fun index (org, release, size) ->
          Job.make ~org ~index ~release ~size ())
        jobs
    in
    let instance = Instance.make ~machines ~jobs ~horizon:60 in
    let federation =
      FM.random
        ~rng:(Fstats.Rng.create ~seed:endow_seed)
        ~machines_per_org:machines ~horizon:60
        ~spec:{ FM.period = 16; lend = 1; correlation = 0.; jitter = 0.3 }
        ()
    in
    let faults =
      if not with_faults then []
      else
        Faults.Model.random
          ~rng:(Fstats.Rng.create ~seed:fault_seed)
          ~machines:(Instance.total_machines instance)
          ~horizon:60
          ~mtbf:(Faults.Model.Exponential { mean = 30. })
          ~mttr:(Faults.Model.Exponential { mean = 8. })
          ()
    in
    (instance, federation, faults)
  in
  let arb =
    QCheck.make
      ~print:(fun raw ->
        let instance, federation, faults = make raw in
        Format.asprintf "%a@.endow: %a@.faults: %a" Instance.pp_detailed
          instance
          (Format.pp_print_list ~pp_sep:Format.pp_print_space FE.pp_timed)
          federation
          (Format.pp_print_list ~pp_sep:Format.pp_print_space
             Faults.Event.pp_timed)
          faults)
      gen
  in
  (arb, make)

(* [0, horizon)-clipped present intervals per machine, from replaying the
   endowment trace through the shared ownership state. *)
let present_intervals ~machines_per_org ~horizon trace =
  let homes = homes_of machines_per_org in
  let own =
    FE.Ownership.create ~homes ~orgs:(Array.length machines_per_org)
  in
  let m = Array.length homes in
  let since = Array.make m 0 in
  let intervals = Array.make m [] in
  List.iter
    (fun (e : FE.timed) ->
      match FE.Ownership.apply own e.FE.event with
      | Error msg -> Alcotest.fail msg
      | Ok changes ->
          List.iter
            (function
              | FE.Ownership.Retire mach ->
                  intervals.(mach) <- (since.(mach), e.FE.time) :: intervals.(mach);
                  since.(mach) <- -1
              | FE.Ownership.Admit { machine = mach; _ } -> since.(mach) <- e.FE.time
              | FE.Ownership.Transfer _ | FE.Ownership.Activate _
              | FE.Ownership.Deactivate _ ->
                  ())
            changes)
    trace;
  Array.iteri
    (fun mach s -> if s >= 0 then intervals.(mach) <- (s, horizon) :: intervals.(mach))
    since;
  intervals

let down_intervals ~machines ~horizon trace =
  let down_since = Array.make machines (-1) in
  let intervals = Array.make machines [] in
  List.iter
    (fun (e : Faults.Event.timed) ->
      match e.Faults.Event.event with
      | Faults.Event.Fail m ->
          if down_since.(m) < 0 then down_since.(m) <- e.Faults.Event.time
      | Faults.Event.Recover m ->
          if down_since.(m) >= 0 then begin
            intervals.(m) <-
              (down_since.(m), e.Faults.Event.time) :: intervals.(m);
            down_since.(m) <- -1
          end)
    trace;
  Array.iteri
    (fun m since ->
      if since >= 0 then intervals.(m) <- (since, horizon) :: intervals.(m))
    down_since;
  intervals

(* Capacity conservation: every executed machine-second of every surviving
   placement falls inside an interval where its machine was both inside the
   consortium (present) and up, and the parts total equals the executed
   seconds of the recorded schedule — work never runs on capacity the
   consortium does not own. *)
let prop_owned_and_up name =
  let arb, make = churn_case_gen in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: executed parts = owned-and-up machine-seconds" name)
    ~count:60 arb
    (fun raw ->
      let instance, federation, faults = make raw in
      let r = run ~instance ~federation ~faults ~seed:7 name in
      let horizon = instance.Instance.horizon in
      let present =
        present_intervals ~machines_per_org:instance.Instance.machines
          ~horizon federation
      in
      let down =
        down_intervals
          ~machines:(Instance.total_machines instance)
          ~horizon faults
      in
      let inside (a, b) (s, f) = s >= a && f <= b in
      let disjoint (a, b) (s, f) = f <= a || s >= b in
      let executed = ref 0 in
      let ok =
        List.for_all
          (fun (p : Schedule.placement) ->
            let span = (p.Schedule.start, p.Schedule.start + p.Schedule.duration) in
            executed :=
              !executed
              + Stdlib.min p.Schedule.duration (horizon - p.Schedule.start);
            List.exists (fun iv -> inside iv span) present.(p.Schedule.machine)
            && List.for_all (fun iv -> disjoint iv span) down.(p.Schedule.machine))
          (Schedule.placements r.Sim.Driver.schedule)
      in
      ok && Sim.Driver.total_parts r = !executed)

(* No job ever runs on a machine outside the consortium, and no suspended
   organization's job starts while it is out. *)
let prop_member_machines_only name =
  let arb, make = churn_case_gen in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: no job outside the consortium" name) ~count:60
    arb
    (fun raw ->
      let instance, federation, faults = make raw in
      let r = run ~instance ~federation ~faults ~seed:9 name in
      (* Replay org activity windows. *)
      let norgs = Instance.organizations instance in
      let out_since = Array.make norgs (-1) in
      let out = Array.make norgs [] in
      List.iter
        (fun (e : FE.timed) ->
          match e.FE.event with
          | FE.Leave { org } -> out_since.(org) <- e.FE.time
          | FE.Join { org; _ } ->
              if out_since.(org) >= 0 then begin
                out.(org) <- (out_since.(org), e.FE.time) :: out.(org);
                out_since.(org) <- -1
              end
          | FE.Lend _ | FE.Reclaim _ -> ())
        federation;
      Array.iteri
        (fun org since ->
          if since >= 0 then
            out.(org) <- (since, instance.Instance.horizon) :: out.(org))
        out_since;
      List.for_all
        (fun (p : Schedule.placement) ->
          List.for_all
            (fun (a, b) -> p.Schedule.start < a || p.Schedule.start >= b)
            out.(p.Schedule.job.Job.org))
        (Schedule.placements r.Sim.Driver.schedule))

(* Under endowment churn the incremental trackers (with on_abort
   retractions for retired machines) must still equal ψsp recomputed from
   the recorded completed placements. *)
let prop_trackers_match_schedule name =
  let arb, make = churn_case_gen in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: utilities match schedule under churn" name)
    ~count:40 arb
    (fun raw ->
      let instance, federation, faults = make raw in
      let r = run ~instance ~federation ~faults ~seed:13 name in
      let at = instance.Instance.horizon in
      let expected = Array.make (Instance.organizations instance) 0 in
      List.iter
        (fun (p : Schedule.placement) ->
          let s = p.Schedule.start and q = p.Schedule.duration in
          let executed = Stdlib.min q (Stdlib.max 0 (at - s)) in
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
        prop_owned_and_up name;
        prop_member_machines_only name;
        prop_trackers_match_schedule name;
      ])
    [ "fifo"; "fairshare"; "ref" ]

let () =
  Alcotest.run "federation"
    [
      ( "events",
        [
          Alcotest.test_case "scripted order" `Quick test_scripted_order;
          Alcotest.test_case "lend/reclaim ownership" `Quick
            test_ownership_lend_reclaim;
          Alcotest.test_case "leave/join ownership" `Quick
            test_ownership_leave_join;
          Alcotest.test_case "leave reverts borrowed" `Quick
            test_leave_reverts_borrowed;
          Alcotest.test_case "validate" `Quick test_validate;
        ] );
      ( "model",
        [
          Alcotest.test_case "random trace" `Quick test_model_random;
          Alcotest.test_case "script parse" `Quick test_script_parse;
          Alcotest.test_case "spec parse" `Quick test_spec_parse;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "lend is placement-neutral" `Quick
            test_lend_is_placement_neutral;
          Alcotest.test_case "leave removes capacity" `Quick
            test_leave_removes_capacity;
          Alcotest.test_case "reclaim keeps running job" `Quick
            test_reclaim_keeps_running_job;
          Alcotest.test_case "leave/join roundtrip" `Quick
            test_leave_join_roundtrip;
          Alcotest.test_case "bad trace rejected" `Quick test_bad_trace_rejected;
        ] );
      ( "differential",
        [
          Alcotest.test_case "empty stream bit-identical" `Quick
            test_empty_stream_bit_identical;
          Alcotest.test_case "federated construction bit-identical" `Quick
            test_federated_construction_bit_identical;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest churn_props);
    ]
