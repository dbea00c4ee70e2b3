(* Tests for the experiment harnesses: the worked examples against the
   paper's numbers, and smoke runs of the table/figure pipelines. *)

module WE = Experiments.Worked_examples

let test_figure2_matches_paper () =
  let f = WE.figure2 () in
  Alcotest.(check (float 1e-9)) "psi at 13" 262. f.WE.psi_o1_at_13;
  Alcotest.(check (float 1e-9)) "psi at 14" 297. f.WE.psi_o1_at_14;
  Alcotest.(check int) "flow time" 70 f.WE.flow_time_at_14;
  Alcotest.(check (float 1e-9)) "gain without J(2)1" 4.
    f.WE.gain_without_competitor;
  Alcotest.(check (float 1e-9)) "loss delaying J6" 6. f.WE.loss_delaying_j6;
  Alcotest.(check (float 1e-9)) "loss dropping J9" 10. f.WE.loss_dropping_j9

let test_utilization_rows () =
  List.iter
    (fun (r : WE.utilization_row) ->
      Alcotest.(check (float 1e-9)) "worst is 3/4" 0.75 r.WE.greedy_worst;
      Alcotest.(check (float 1e-9)) "best is optimal" 1.0 r.WE.greedy_best;
      Alcotest.(check (float 1e-9)) "optimum saturates" 1.0 r.WE.optimal;
      Alcotest.(check (float 1e-9)) "tight ratio" 0.75 r.WE.ratio)
    (WE.utilization_sweep [ (2, 2); (4, 3) ])

let test_prop55 () =
  let values = WE.prop55_values () in
  let v mask = List.assoc mask values in
  let c = Shapley.Coalition.add in
  let e = Shapley.Coalition.empty in
  Alcotest.(check (float 1e-9)) "v(a,c)" 4. (v (c (c e 0) 2));
  Alcotest.(check (float 1e-9)) "v(b,c)" 4. (v (c (c e 1) 2));
  Alcotest.(check (float 1e-9)) "v(abc)" 7. (v (c (c (c e 0) 1) 2));
  Alcotest.(check (float 1e-9)) "v(c)" 0. (v (c e 2));
  Alcotest.(check bool) "not supermodular" false (WE.prop55_is_supermodular ())

let tiny_table_config =
  {
    Experiments.Tables.horizon = 5_000;
    instances = 2;
    norgs = 3;
    machines = 6;
    endowment = Workload.Scenario.Uniform;
    algorithms =
      [
        ("rand-15", Algorithms.Rand.rand15);
        ("roundrobin", Algorithms.Baselines.round_robin);
      ];
    models = [ Workload.Traces.ricc ];
    seed = 5;
  }

let test_tables_pipeline () =
  let table = Experiments.Tables.run tiny_table_config in
  Alcotest.(check int) "two rows" 2 (List.length table.Experiments.Tables.rows);
  List.iter
    (fun (_, cells) ->
      Alcotest.(check int) "one model" 1 (List.length cells);
      List.iter
        (fun (_, (cell : Experiments.Tables.cell)) ->
          Alcotest.(check int) "two instances" 2 cell.Experiments.Tables.n;
          Alcotest.(check bool) "ratio non-negative" true
            (cell.Experiments.Tables.mean >= 0.))
        cells)
    table.Experiments.Tables.rows;
  (* CSV has a header plus one line per (algorithm, model). *)
  let csv = Experiments.Tables.to_csv table in
  Alcotest.(check int) "csv lines" 3
    (List.length
       (List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' csv)))

let test_fig10_pipeline () =
  let config =
    {
      (Experiments.Fig10.default_config ~instances:1 ~horizon:5_000
         ~max_orgs:3 ())
      with
      Experiments.Fig10.machines = 6;
      algorithms =
        [
          ("fairshare", Algorithms.Fair_share.fair_share);
          ("roundrobin", Algorithms.Baselines.round_robin);
        ];
    }
  in
  let figure = Experiments.Fig10.run config in
  Alcotest.(check int) "two series" 2
    (List.length figure.Experiments.Fig10.series);
  List.iter
    (fun (s : Experiments.Fig10.series) ->
      Alcotest.(check (list int)) "k = 2, 3"
        [ 2; 3 ]
        (List.map (fun (p : Experiments.Fig10.point) -> p.Experiments.Fig10.norgs)
           s.Experiments.Fig10.points))
    figure.Experiments.Fig10.series

let test_ablations_pipeline () =
  let rows =
    Experiments.Ablations.rand_sample_sweep ~samples:[ 5 ] ~instances:1
      ~horizon:5_000 ~seed:3 ()
  in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let row = List.hd rows in
  Alcotest.(check string) "label" "N=5" row.Experiments.Ablations.label;
  Alcotest.(check int) "one algorithm" 1
    (List.length row.Experiments.Ablations.per_algorithm)

let test_hardness_gadget () =
  (* Theorem 5.1's dichotomy holds under REF for every subset of S, and the
     proof's counting comparison answers SUBSETSUM. *)
  let elements = [ 1; 2; 4 ] in
  List.iter
    (fun x ->
      Alcotest.(check bool)
        (Printf.sprintf "dichotomy at x=%d" x)
        true
        (Experiments.Hardness.all_consistent ~elements ~x))
    [ 2; 3 ];
  List.iter
    (fun (x, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "subsetsum x=%d" x)
        expected
        (Experiments.Hardness.subset_sum_exists ~elements ~x);
      Alcotest.(check bool)
        (Printf.sprintf "counting comparison x=%d" x)
        expected
        (Experiments.Hardness.subsets_below ~elements ~x:(x + 1)
        > Experiments.Hardness.subsets_below ~elements ~x))
    [ (3, true); (7, true); (8, false); (6, true); (9, false) ]

let test_decay_sweep () =
  let rows =
    Experiments.Ablations.decay_sweep ~half_lives:[ 1_000. ] ~instances:1
      ~horizon:20_000 ~seed:4 ()
  in
  Alcotest.(check int) "baseline + one half-life" 2 (List.length rows);
  List.iter
    (fun (row : Experiments.Ablations.row) ->
      Alcotest.(check int) "two algorithms" 2
        (List.length row.Experiments.Ablations.per_algorithm))
    rows

let test_estimator_study () =
  let rows =
    Experiments.Estimator_study.run
      (Experiments.Estimator_study.default_config ~trials:60 ())
  in
  Alcotest.(check int) "sweep + hoeffding" 4 (List.length rows);
  let errors = List.map (fun (r : Experiments.Estimator_study.row) -> r.Experiments.Estimator_study.mean_max_abs_err) rows in
  (* Error decreases monotonically in N on this sweep. *)
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "error decreases with N" true (decreasing errors);
  (* The Hoeffding-sized estimator respects the theorem's failure rate. *)
  let hoeffding = List.nth rows 3 in
  Alcotest.(check bool) "violation rate within bound" true
    (float_of_int hoeffding.Experiments.Estimator_study.violations
     /. float_of_int hoeffding.Experiments.Estimator_study.trials
    <= hoeffding.Experiments.Estimator_study.allowed_rate)

let test_stability () =
  let reports = Experiments.Stability.demo ~norgs:3 ~seed:11 () in
  Alcotest.(check int) "four policies" 4 (List.length reports);
  List.iter
    (fun (r : Experiments.Stability.report) ->
      Alcotest.(check int) "2^3 - 2 proper coalitions" 6
        r.Experiments.Stability.coalitions;
      (* Secession can never gain more than the standalone value itself. *)
      Alcotest.(check bool) "excess ratio sane" true
        (r.Experiments.Stability.max_excess_ratio < 1.))
    reports

let test_manipulation_ablation () =
  match Experiments.Ablations.manipulation_sweep () with
  | [ psp; flow ] ->
      Alcotest.(check bool) "splitting futile under psp-fairness" false
        psp.Experiments.Ablations.splitting_pays;
      Alcotest.(check bool) "splitting pays under flow-fairness" true
        flow.Experiments.Ablations.splitting_pays
  | _ -> Alcotest.fail "expected two schedulers"

let () =
  Alcotest.run "experiments"
    [
      ( "worked-examples",
        [
          Alcotest.test_case "figure 2" `Quick test_figure2_matches_paper;
          Alcotest.test_case "utilization rows" `Quick test_utilization_rows;
          Alcotest.test_case "prop 5.5" `Quick test_prop55;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "tables" `Quick test_tables_pipeline;
          Alcotest.test_case "fig10" `Quick test_fig10_pipeline;
          Alcotest.test_case "ablations" `Quick test_ablations_pipeline;
        ] );
      ( "hardness",
        [ Alcotest.test_case "theorem 5.1 gadget" `Quick test_hardness_gadget ]
      );
      ( "manipulation",
        [
          Alcotest.test_case "flow-fairness invites splitting" `Quick
            test_manipulation_ablation;
          Alcotest.test_case "decay sweep" `Quick test_decay_sweep;
          Alcotest.test_case "estimator study (thm 5.6)" `Slow
            test_estimator_study;
          Alcotest.test_case "coalition stability" `Quick test_stability;
        ] );
    ]
