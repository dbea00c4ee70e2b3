(* Tests for the scheduling algorithms: structural invariants for every
   policy, the paper's propositions (5.4, 5.6), REF's game-theoretic
   properties, and the supporting machinery (Instant, Coalition_sim). *)

open Core

let run ?(record = true) ~instance ~seed name =
  Sim.Driver.run ~record ~instance ~rng:(Fstats.Rng.create ~seed)
    (Algorithms.Registry.find_exn name)

(* Random small instances for property tests. *)
let instance_gen =
  let gen =
    QCheck.Gen.(
      let* norgs = int_range 2 4 in
      let* machines = array_size (return norgs) (int_range 1 3) in
      let* njobs = int_range 1 25 in
      let* jobs =
        list_size (return njobs)
          (let* org = int_range 0 (norgs - 1) in
           let* release = int_range 0 30 in
           let* size = int_range 1 8 in
           return (org, release, size))
      in
      return (machines, jobs))
  in
  let make (machines, jobs) =
    let jobs =
      List.map
        (fun (org, release, size) ->
          Job.make ~org ~index:0 ~release ~size ())
        jobs
    in
    Instance.make ~machines ~jobs ~horizon:100
  in
  let arb =
    QCheck.make
      ~print:(fun (machines, jobs) ->
        Format.asprintf "%a" Instance.pp_detailed (make (machines, jobs)))
      gen
  in
  (arb, make)

let structural_property name =
  let arb, make = instance_gen in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s produces feasible FIFO greedy schedules" name)
    ~count:60 arb
    (fun raw ->
      let instance = make raw in
      let result = run ~instance ~seed:7 name in
      let sched = result.Sim.Driver.schedule in
      let all_jobs = Array.to_list instance.Instance.jobs in
      Result.is_ok (Schedule.check_feasible sched)
      && Result.is_ok (Schedule.check_fifo sched)
      && Result.is_ok
           (Schedule.check_greedy sched ~all_jobs
              ~upto:instance.Instance.horizon))

let structural_tests =
  List.map structural_property
    [
      "ref"; "ref-banzhaf"; "rand-15"; "directcontr"; "fairshare";
      "utfairshare"; "currfairshare"; "roundrobin"; "fifo"; "random";
      "longest-queue"; "fairshare-decay"; "directcontr-decay";
    ]

(* Driver utilities must equal ψsp recomputed from the recorded schedule —
   ties the incremental trackers to the closed form end-to-end. *)
let consistency_property name =
  let arb, make = instance_gen in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s utilities match schedule recomputation" name)
    ~count:40 arb
    (fun raw ->
      let instance = make raw in
      let result = run ~instance ~seed:13 name in
      let sched = result.Sim.Driver.schedule in
      let at = instance.Instance.horizon in
      Array.to_list result.Sim.Driver.utilities_scaled
      |> List.mapi (fun org v ->
             v = Utility.Psp.of_schedule_scaled sched ~org ~at)
      |> List.for_all Fun.id)

let consistency_tests =
  List.map consistency_property [ "ref"; "rand-15"; "fairshare"; "roundrobin" ]

let test_determinism () =
  let instance =
    Workload.Scenario.instance
      (Workload.Scenario.default ~norgs:4 ~machines:8 ~horizon:20_000
         Workload.Traces.lpc_egee)
      ~seed:5
  in
  List.iter
    (fun name ->
      let a = run ~record:false ~instance ~seed:99 name in
      let b = run ~record:false ~instance ~seed:99 name in
      Alcotest.(check (array int))
        (name ^ " deterministic") a.Sim.Driver.utilities_scaled
        b.Sim.Driver.utilities_scaled)
    [ "ref"; "rand-15"; "directcontr"; "fairshare"; "random" ]

(* --- Proposition 5.4: unit jobs → value independent of the greedy rule --- *)

let unit_instance_gen =
  let gen =
    QCheck.Gen.(
      let* norgs = int_range 2 4 in
      let* machines = array_size (return norgs) (int_range 1 2) in
      let* jobs =
        list_size (int_range 1 30)
          (let* org = int_range 0 (norgs - 1) in
           let* release = int_range 0 20 in
           return (org, release))
      in
      return (machines, jobs))
  in
  let make (machines, jobs) =
    let jobs =
      List.map
        (fun (org, release) -> Job.make ~org ~index:0 ~release ~size:1 ())
        jobs
    in
    Instance.make ~machines ~jobs ~horizon:60
  in
  (QCheck.make gen, make)

let qcheck_prop54 =
  let arb, make = unit_instance_gen in
  QCheck.Test.make ~name:"prop 5.4: unit jobs, equal coalition value" ~count:80
    arb
    (fun raw ->
      let instance = make raw in
      let total name =
        let r = run ~record:false ~instance ~seed:3 name in
        Array.fold_left ( + ) 0 r.Sim.Driver.utilities_scaled
      in
      let reference = total "fifo" in
      List.for_all
        (fun name -> total name = reference)
        [ "roundrobin"; "random"; "longest-queue"; "fairshare"; "ref" ])

(* --- Theorem 5.6 flavour: RAND tracks REF closely on unit jobs ----------- *)

let test_rand_close_to_ref_unit_jobs () =
  let rng = Fstats.Rng.create ~seed:41 in
  let jobs =
    List.init 60 (fun _ ->
        Job.make
          ~org:(Fstats.Rng.int rng 3)
          ~index:0
          ~release:(Fstats.Rng.int rng 25)
          ~size:1 ())
  in
  let instance = Instance.make ~machines:[| 1; 1; 1 |] ~jobs ~horizon:80 in
  let ref_r = run ~record:false ~instance ~seed:1 "ref" in
  let rand_r = run ~record:false ~instance ~seed:1 "rand-75" in
  let v_ref =
    float_of_int (Array.fold_left ( + ) 0 ref_r.Sim.Driver.utilities_scaled)
  in
  let delta =
    Array.to_list
      (Array.mapi
         (fun u v -> abs (v - rand_r.Sim.Driver.utilities_scaled.(u)))
         ref_r.Sim.Driver.utilities_scaled)
    |> List.fold_left ( + ) 0
  in
  (* ε = 0.1-ish: the utility vectors differ by well under 10% of v. *)
  Alcotest.(check bool)
    (Printf.sprintf "Δψ = %d vs v = %.0f" delta v_ref)
    true
    (float_of_int delta < 0.1 *. v_ref)

(* --- REF: game-theoretic sanity ------------------------------------------- *)

let test_ref_symmetry () =
  (* Two identical organizations must end with identical utilities when
     their job streams and machines are mirror images. *)
  let jobs =
    List.concat_map
      (fun org ->
        List.init 6 (fun i ->
            Job.make ~org ~index:i ~release:(3 * i) ~size:4 ()))
      [ 0; 1 ]
  in
  let instance = Instance.make ~machines:[| 1; 1 |] ~jobs ~horizon:60 in
  let r = run ~instance ~seed:2 "ref" in
  let u = r.Sim.Driver.utilities_scaled in
  Alcotest.(check bool)
    (Printf.sprintf "|ψ0 − ψ1| small: %d vs %d" u.(0) u.(1))
    true
    (abs (u.(0) - u.(1)) <= 2 * 8)
  (* one job-start granularity of slack *)

let test_ref_contributions_efficiency () =
  (* The REF-computed contributions must satisfy the efficiency axiom:
     Σ_u φ(u) = v(grand) at the evaluation time. *)
  let jobs =
    [
      Job.make ~org:0 ~index:0 ~release:0 ~size:4 ();
      Job.make ~org:0 ~index:1 ~release:1 ~size:3 ();
      Job.make ~org:1 ~index:0 ~release:0 ~size:5 ();
      Job.make ~org:2 ~index:0 ~release:2 ~size:2 ();
    ]
  in
  let instance = Instance.make ~machines:[| 1; 1; 1 |] ~jobs ~horizon:20 in
  let policy, internals =
    Algorithms.Reference.make_with_internals () instance
      ~rng:(Fstats.Rng.create ~seed:1)
  in
  ignore policy;
  (* Drive the real schedule with a fresh REF policy (the one above is only
     used for its internals; both see the same releases). *)
  let rng = Fstats.Rng.create ~seed:1 in
  let result =
    Sim.Driver.run ~instance ~rng (fun _instance ~rng:_ -> policy)
  in
  let trackers =
    Array.init 3 (fun _ -> Utility.Tracker.create ())
  in
  (* Rebuild trackers from the recorded schedule to construct a view. *)
  List.iter
    (fun (p : Schedule.placement) ->
      Utility.Tracker.on_start
        trackers.(p.Schedule.job.Job.org)
        ~key:p.Schedule.job.Job.index ~start:p.Schedule.start;
      if p.Schedule.start + p.Schedule.job.Job.size <= 20 then
        Utility.Tracker.on_complete
          trackers.(p.Schedule.job.Job.org)
          ~key:p.Schedule.job.Job.index ~size:p.Schedule.job.Job.size)
    (Schedule.placements result.Sim.Driver.schedule);
  let cluster =
    Cluster.create ~machine_owners:[| 0; 1; 2 |] ~norgs:3 ()
  in
  let view = { Algorithms.Policy.instance; cluster; trackers } in
  let phi2 =
    Algorithms.Reference.contributions_scaled internals ~view ~time:20
  in
  let v2 =
    Array.fold_left ( + ) 0 result.Sim.Driver.utilities_scaled
  in
  let total_phi2 = Array.fold_left ( +. ) 0. phi2 in
  Alcotest.(check bool)
    (Printf.sprintf "Σφ = %.1f vs v = %d" total_phi2 v2)
    true
    (Float.abs (total_phi2 -. float_of_int v2) < 1e-6)

let test_ref_dummy_org () =
  (* An organization with no jobs and no machines contributes nothing and
     receives nothing. *)
  let jobs =
    [
      Job.make ~org:0 ~index:0 ~release:0 ~size:3 ();
      Job.make ~org:1 ~index:0 ~release:0 ~size:3 ();
    ]
  in
  let instance = Instance.make ~machines:[| 1; 1; 0 |] ~jobs ~horizon:20 in
  let r = run ~instance ~seed:1 "ref" in
  Alcotest.(check int) "dummy utility 0" 0 r.Sim.Driver.utilities_scaled.(2)

let test_ref_rich_org_priority () =
  (* One org contributes 3 machines, the other 1; both flood the system at
     t=0.  The Shapley-fair split should give the rich org clearly more
     utility. *)
  let jobs =
    List.concat_map
      (fun org ->
        List.init 20 (fun i -> Job.make ~org ~index:i ~release:0 ~size:5 ()))
      [ 0; 1 ]
  in
  let instance = Instance.make ~machines:[| 3; 1 |] ~jobs ~horizon:40 in
  let r = run ~instance ~seed:1 "ref" in
  let u = Sim.Driver.utilities r in
  Alcotest.(check bool)
    (Printf.sprintf "rich org ahead: %.0f vs %.0f" u.(0) u.(1))
    true
    (u.(0) > 1.5 *. u.(1))

(* REF's sub-coalition argmax computes 2·φ(u) only for the waiting members,
   each by its own subset walk.  That walk must reproduce the full walk's
   entry bit for bit (same terms, same summation order), not just closely:
   checked for every proper sub-coalition and member at every decision
   instant of random runs with up to 6 organizations. *)
let qcheck_ref_member_walk =
  let gen =
    QCheck.Gen.(
      let* norgs = int_range 3 6 in
      let* machines = array_size (return norgs) (int_range 1 2) in
      let* jobs =
        list_size (int_range 5 40)
          (let* org = int_range 0 (norgs - 1) in
           let* release = int_range 0 40 in
           let* size = int_range 1 10 in
           return (org, release, size))
      in
      return (machines, jobs))
  in
  let make (machines, jobs) =
    Instance.make ~machines
      ~jobs:
        (List.map
           (fun (org, release, size) ->
             Job.make ~org ~index:0 ~release ~size ())
           jobs)
      ~horizon:120
  in
  QCheck.Test.make ~name:"ref: per-member φ walk equals the full walk"
    ~count:40
    (QCheck.make
       ~print:(fun raw -> Format.asprintf "%a" Instance.pp_detailed (make raw))
       gen)
    (fun raw ->
      let instance = make raw in
      let grand =
        Shapley.Coalition.grand ~players:(Instance.organizations instance)
      in
      let mismatches = ref 0 in
      let maker instance ~rng =
        let policy, internals =
          Algorithms.Reference.make_with_internals () instance ~rng
        in
        let check ~time =
          for mask = 1 to grand - 1 do
            let full =
              Algorithms.Reference.sub_contributions_scaled internals ~mask
                ~time
            in
            Shapley.Coalition.iter_members
              (fun org ->
                let one =
                  Algorithms.Reference.member_contribution_scaled internals
                    ~mask ~org ~time
                in
                if not (Float.equal one full.(org)) then incr mismatches)
              mask
          done
        in
        {
          policy with
          Algorithms.Policy.select =
            (fun view ~time ->
              check ~time;
              policy.Algorithms.Policy.select view ~time);
        }
      in
      ignore
        (Sim.Driver.run ~record:false ~instance
           ~rng:(Fstats.Rng.create ~seed:5)
           maker);
      !mismatches = 0)

(* --- Coalition_sim --------------------------------------------------------- *)

let test_coalition_sim_matches_driver () =
  (* A grand-coalition Coalition_sim with the FIFO rule must produce exactly
     the utilities of the driver running the fifo policy. *)
  let instance =
    Workload.Scenario.instance
      (Workload.Scenario.default ~norgs:3 ~machines:6 ~horizon:10_000
         Workload.Traces.lpc_egee)
      ~seed:9
  in
  let driver_result = run ~record:false ~instance ~seed:1 "fifo" in
  let sim =
    Algorithms.Coalition_sim.create ~instance
      ~members:(Shapley.Coalition.grand ~players:3) ()
  in
  Array.iter (Algorithms.Coalition_sim.add_release sim) instance.Instance.jobs;
  Algorithms.Coalition_sim.advance_to sim ~time:(instance.Instance.horizon - 1)
    ~select:Algorithms.Baselines.fifo_select_sim;
  for org = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "org %d utility" org)
      driver_result.Sim.Driver.utilities_scaled.(org)
      (Algorithms.Coalition_sim.utility_scaled sim ~org
         ~at:instance.Instance.horizon)
  done

let test_coalition_sim_errors () =
  let instance =
    Instance.make ~machines:[| 1; 1 |]
      ~jobs:[ Job.make ~org:0 ~index:0 ~release:0 ~size:1 () ]
      ~horizon:10
  in
  Alcotest.check_raises "empty coalition"
    (Invalid_argument "Coalition_sim.create: empty coalition") (fun () ->
      ignore
        (Algorithms.Coalition_sim.create ~instance
           ~members:Shapley.Coalition.empty ()));
  let sim =
    Algorithms.Coalition_sim.create ~instance
      ~members:(Shapley.Coalition.singleton 1) ()
  in
  Alcotest.check_raises "non-member job"
    (Invalid_argument "Coalition_sim.add_release: job of a non-member")
    (fun () ->
      Algorithms.Coalition_sim.add_release sim
        (Job.make ~org:0 ~index:0 ~release:0 ~size:1 ()))

(* --- Instant counters ------------------------------------------------------- *)

let test_instant () =
  let c = Algorithms.Instant.create ~norgs:3 in
  Algorithms.Instant.bump c ~time:5 ~org:1;
  Algorithms.Instant.bump c ~time:5 ~org:1;
  Alcotest.(check int) "counts within instant" 2
    (Algorithms.Instant.get c ~time:5 ~org:1);
  Alcotest.(check int) "other org zero" 0
    (Algorithms.Instant.get c ~time:5 ~org:0);
  Alcotest.(check int) "resets on new instant" 0
    (Algorithms.Instant.get c ~time:6 ~org:1)

(* --- Fair share behaviour ----------------------------------------------------- *)

let test_fairshare_saturated_shares () =
  (* Under permanent backlog, FAIRSHARE should allocate CPU time roughly in
     proportion to the machine shares (3:1). *)
  let jobs =
    List.concat_map
      (fun org ->
        List.init 80 (fun i -> Job.make ~org ~index:i ~release:0 ~size:5 ()))
      [ 0; 1 ]
  in
  let instance = Instance.make ~machines:[| 3; 1 |] ~jobs ~horizon:100 in
  let r = run ~instance ~seed:1 "fairshare" in
  let parts = r.Sim.Driver.parts in
  let ratio = float_of_int parts.(0) /. float_of_int parts.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "parts ratio %.2f ≈ 3" ratio)
    true
    (ratio > 2.2 && ratio < 3.8)

let test_roundrobin_alternates () =
  (* With one machine and two saturated orgs, round robin alternates. *)
  let jobs =
    List.concat_map
      (fun org ->
        List.init 5 (fun i -> Job.make ~org ~index:i ~release:0 ~size:1 ()))
      [ 0; 1 ]
  in
  let instance = Instance.make ~machines:[| 1; 0 |] ~jobs ~horizon:20 in
  let r = run ~instance ~seed:1 "roundrobin" in
  let starts =
    List.sort
      (fun (a, _) (b, _) -> Stdlib.compare a b)
      (List.map
         (fun (p : Schedule.placement) -> (p.Schedule.start, p.Schedule.job.Job.org))
         (Schedule.placements r.Sim.Driver.schedule))
  in
  let orgs = List.map snd starts in
  Alcotest.(check (list int))
    "alternating orgs" [ 0; 1; 0; 1; 0; 1; 0; 1; 0; 1 ]
    orgs

(* --- REF golden fixture ------------------------------------------------------

   The utility vectors of REF and REF-Banzhaf at k = 6 and k = 8 — plain,
   under machine faults and under endowment churn — compared byte-for-byte
   against a fixture.  At these sizes the sub-coalition argmax picks among
   several waiting organizations, so any change to how contributions are
   computed or compared shows here (the kernel fixture's k = 3 instance
   schedules REF exactly like FIFO).

   Regenerate (only when a semantic change is intended and understood):

     dune exec test/test_algorithms.exe -- capture > test/fixtures/ref_golden.csv
*)

let ref_golden_cases () =
  let horizon = 20_000 in
  List.concat_map
    (fun k ->
      let instance =
        Workload.Scenario.instance
          (Workload.Scenario.default ~norgs:k ~machines:(2 * k) ~horizon
             ~load:1.0 Workload.Traces.lpc_egee)
          ~seed:(2013 + k)
      in
      let faults =
        Faults.Model.random
          ~rng:(Fstats.Rng.create ~seed:(k lxor 0xfa017))
          ~machines:(Instance.total_machines instance)
          ~horizon
          ~mtbf:(Faults.Model.Exponential { mean = 2_000. })
          ~mttr:(Faults.Model.Exponential { mean = 200. })
          ()
      in
      (* The richest organization lends its last machine to its successor
         for a while, and a third organization leaves and rejoins: both
         the sub-coalition values and the top-level player set move. *)
      let federation =
        let machines = instance.Instance.machines in
        let rich = ref 0 in
        Array.iteri
          (fun u n -> if n > machines.(!rich) then rich := u)
          machines;
        let rich = !rich in
        (* global ids are org-contiguous: the last id of [rich]'s block *)
        let lent =
          Array.fold_left ( + ) 0 (Array.sub machines 0 (rich + 1)) - 1
        in
        let leaver = (rich + 2) mod k in
        let ev time event = { Federation.Event.time; event } in
        Federation.Model.scripted
          [
            ev 3_000
              (Lend
                 { org = rich; to_org = (rich + 1) mod k; machines = [ lent ] });
            ev 5_000 (Leave { org = leaver });
            ev 9_000 (Reclaim { org = rich; machines = [ lent ] });
            ev 12_000 (Join { org = leaver; machines = [] });
          ]
      in
      let name suffix = Printf.sprintf "k%d%s" k suffix in
      [
        (name "", instance, [], []);
        (name "-faults", instance, faults, []);
        (name "-federation", instance, [], federation);
      ])
    [ 6; 8 ]

let ref_golden_lines () =
  List.concat_map
    (fun (case, instance, faults, federation) ->
      List.map
        (fun name ->
          let r =
            Sim.Driver.run ~record:false ~faults ~federation ~instance
              ~rng:(Fstats.Rng.create ~seed:77)
              (Algorithms.Registry.find_exn name)
          in
          Printf.sprintf "%s,%s,%s" case name
            (String.concat ";"
               (List.map string_of_int
                  (Array.to_list r.Sim.Driver.utilities_scaled))))
        [ "ref"; "ref-banzhaf" ])
    (ref_golden_cases ())

let ref_golden_path = "fixtures/ref_golden.csv"

let test_ref_golden () =
  let expected =
    In_channel.with_open_text ref_golden_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let got = ref_golden_lines () in
  Alcotest.(check int) "fixture covers every case" (List.length expected)
    (List.length got);
  List.iter2
    (fun e g ->
      let key l =
        match String.split_on_char ',' l with
        | case :: name :: _ -> case ^ "/" ^ name
        | _ -> l
      in
      Alcotest.(check string) (key e) e g)
    expected got

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "capture" then begin
    List.iter print_endline (ref_golden_lines ());
    exit 0
  end;
  Alcotest.run "algorithms"
    [
      ("structural", List.map QCheck_alcotest.to_alcotest structural_tests);
      ("consistency", List.map QCheck_alcotest.to_alcotest consistency_tests);
      ( "determinism",
        [ Alcotest.test_case "same seed same result" `Quick test_determinism ]
      );
      ( "propositions",
        [
          QCheck_alcotest.to_alcotest qcheck_prop54;
          Alcotest.test_case "rand ≈ ref on unit jobs" `Quick
            test_rand_close_to_ref_unit_jobs;
        ] );
      ( "ref",
        [
          Alcotest.test_case "symmetry" `Quick test_ref_symmetry;
          Alcotest.test_case "contributions efficiency" `Quick
            test_ref_contributions_efficiency;
          Alcotest.test_case "dummy organization" `Quick test_ref_dummy_org;
          Alcotest.test_case "rich org priority" `Quick
            test_ref_rich_org_priority;
          QCheck_alcotest.to_alcotest qcheck_ref_member_walk;
        ] );
      ( "ref-golden",
        [
          Alcotest.test_case "k=6/8 utilities, plain/faults/federation" `Slow
            test_ref_golden;
        ] );
      ( "coalition-sim",
        [
          Alcotest.test_case "matches driver" `Quick
            test_coalition_sim_matches_driver;
          Alcotest.test_case "errors" `Quick test_coalition_sim_errors;
        ] );
      ("instant", [ Alcotest.test_case "counters" `Quick test_instant ]);
      ( "behaviour",
        [
          Alcotest.test_case "fairshare saturated shares" `Quick
            test_fairshare_saturated_shares;
          Alcotest.test_case "roundrobin alternates" `Quick
            test_roundrobin_alternates;
        ] );
    ]
