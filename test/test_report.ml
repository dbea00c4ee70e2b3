(* Tests for the reporting stack: driver checkpoints, fairness timelines,
   the domain pool, trace analysis, SVG charts and the HTML report. *)

open Core

(* --- Driver checkpoints ----------------------------------------------------- *)

let test_checkpoints () =
  let jobs =
    [
      Job.make ~org:0 ~index:0 ~release:0 ~size:4 ();
      Job.make ~org:1 ~index:0 ~release:2 ~size:3 ();
    ]
  in
  let instance = Instance.make ~machines:[| 1; 1 |] ~jobs ~horizon:20 in
  let r =
    Sim.Driver.run ~checkpoints:[ 3; 10; 50 ] ~instance
      ~rng:(Fstats.Rng.create ~seed:1)
      (Algorithms.Registry.find_exn "fifo")
  in
  (match r.Sim.Driver.checkpoints with
  | [ c3; c10; c_end ] ->
      Alcotest.(check int) "first at 3" 3 c3.Sim.Driver.at;
      (* org0's job ran slots 0,1,2 by t=3: ψ2 = 2(3+2+1) = 12. *)
      Alcotest.(check int) "psi org0 at 3" 12 c3.Sim.Driver.psi_scaled.(0);
      (* org1's job started at 2: one part by 3. *)
      Alcotest.(check int) "psi org1 at 3" 2 c3.Sim.Driver.psi_scaled.(1);
      Alcotest.(check (array int)) "parts at 3" [| 3; 1 |] c3.Sim.Driver.parts_at;
      Alcotest.(check int) "clamped to horizon" 20 c_end.Sim.Driver.at;
      (* At 10 everything completed: utilities match the final values at 10. *)
      Alcotest.(check int) "psi org0 at 10"
        (Utility.Psp.of_schedule_scaled r.Sim.Driver.schedule ~org:0 ~at:10)
        c10.Sim.Driver.psi_scaled.(0)
  | l -> Alcotest.failf "expected 3 checkpoints, got %d" (List.length l));
  (* Checkpoint snapshots agree with a direct run evaluated at that horizon. *)
  let shorter = Instance.make ~machines:[| 1; 1 |] ~jobs ~horizon:10 in
  let r10 =
    Sim.Driver.run ~instance:shorter
      ~rng:(Fstats.Rng.create ~seed:1)
      (Algorithms.Registry.find_exn "fifo")
  in
  let c10 = List.nth r.Sim.Driver.checkpoints 1 in
  Alcotest.(check (array int))
    "snapshot = shorter-horizon run" r10.Sim.Driver.utilities_scaled
    c10.Sim.Driver.psi_scaled

(* --- Fairness timelines ------------------------------------------------------- *)

let test_timelines () =
  let instance =
    Workload.Scenario.instance
      (Workload.Scenario.default ~norgs:3 ~machines:6 ~horizon:20_000
         Workload.Traces.ricc)
      ~seed:5
  in
  let tls =
    Sim.Fairness.timelines ~instance ~seed:9
      ~checkpoints:[ 5_000; 10_000; 15_000; 20_000 ]
      [
        Algorithms.Registry.find_exn "ref";
        Algorithms.Registry.find_exn "roundrobin";
      ]
  in
  match tls with
  | [ ref_tl; rr_tl ] ->
      Alcotest.(check int) "four points" 4 (List.length rr_tl.Sim.Fairness.points);
      List.iter
        (fun (_, v) ->
          Alcotest.(check (float 1e-9)) "ref vs itself is 0 at every t" 0. v)
        ref_tl.Sim.Fairness.points;
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool) "ratios non-negative" true (v >= 0.))
        rr_tl.Sim.Fairness.points
  | _ -> Alcotest.fail "expected two timelines"

(* --- Pool ---------------------------------------------------------------------- *)

let test_pool_experiments_deterministic () =
  let config =
    {
      (Experiments.Tables.table1_config ~instances:2 ~machines:6 ()) with
      Experiments.Tables.horizon = 5_000;
      norgs = 3;
      models = [ Workload.Traces.lpc_egee ];
      algorithms = [ ("roundrobin", Algorithms.Baselines.round_robin) ];
    }
  in
  let means t =
    List.map
      (fun (_, cells) ->
        List.map (fun (_, c) -> c.Experiments.Tables.mean) cells)
      t.Experiments.Tables.rows
  in
  let a = Experiments.Tables.run ~workers:1 config in
  let b = Experiments.Tables.run ~workers:3 config in
  Alcotest.(check (list (list (float 1e-9))))
    "workers do not change results" (means a) (means b)

(* --- Analysis ------------------------------------------------------------------- *)

let test_analysis () =
  let entries =
    [
      { Workload.Swf.job_id = 1; submit = 0; run_time = 100; processors = 1; user = 1 };
      { Workload.Swf.job_id = 2; submit = 3_600; run_time = 200; processors = 2; user = 1 };
      { Workload.Swf.job_id = 3; submit = 7_200; run_time = 300; processors = 1; user = 2 };
    ]
  in
  let a = Workload.Analysis.of_entries ~machines:4 entries in
  Alcotest.(check int) "jobs" 3 a.Workload.Analysis.jobs;
  Alcotest.(check int) "users" 2 a.Workload.Analysis.users;
  Alcotest.(check int) "total work (sequentialized)" (100 + 400 + 300)
    a.Workload.Analysis.total_work;
  Alcotest.(check (float 1e-9)) "median" 200. a.Workload.Analysis.median_size;
  Alcotest.(check int) "span" 7_201 a.Workload.Analysis.span;
  Alcotest.(check (float 1e-6)) "top user share" (2. /. 3.)
    a.Workload.Analysis.top_user_share;
  Alcotest.(check int) "hour bin 0" 1 a.Workload.Analysis.hourly_arrivals.(0);
  Alcotest.(check int) "hour bin 1" 1 a.Workload.Analysis.hourly_arrivals.(1);
  Alcotest.(check int) "hour bin 2" 1 a.Workload.Analysis.hourly_arrivals.(2);
  Alcotest.check_raises "empty" (Invalid_argument "Analysis: empty trace")
    (fun () -> ignore (Workload.Analysis.of_entries ~machines:1 []))

let test_analysis_of_generated () =
  (* Synthetic models should land near their calibration targets. *)
  List.iter
    (fun model ->
      let entries =
        Workload.Traces.generate model
          ~rng:(Fstats.Rng.create ~seed:77)
          ~machines:32 ~duration:200_000 ()
      in
      let a = Workload.Analysis.of_entries ~machines:32 entries in
      let target = model.Workload.Traces.load in
      Alcotest.(check bool)
        (Printf.sprintf "%s load %.2f near target %.2f"
           model.Workload.Traces.name a.Workload.Analysis.offered_load target)
        true
        (a.Workload.Analysis.offered_load > 0.3 *. target
        && a.Workload.Analysis.offered_load < 3. *. target))
    Workload.Traces.all

(* --- SVG -------------------------------------------------------------------------- *)

let assert_svg name s =
  Alcotest.(check bool) (name ^ " opens") true
    (String.length s > 10 && String.sub s 0 4 = "<svg");
  Alcotest.(check bool) (name ^ " closes") true
    (let tail = String.sub s (String.length s - 7) 7 in
     String.trim tail = "</svg>");
  Alcotest.(check bool) (name ^ " no nan") false
    (let lower = String.lowercase_ascii s in
     let contains sub =
       let n = String.length lower and m = String.length sub in
       let rec go i = i + m <= n && (String.sub lower i m = sub || go (i + 1)) in
       go 0
     in
     contains "nan" || contains "inf")

let test_svg_line () =
  let chart =
    Report.Svg.line_chart ~title:"t" ~x_label:"x" ~y_label:"y"
      [
        { Report.Svg.label = "a"; points = [ (0., 1.); (1., 5.); (2., 3.) ] };
        { Report.Svg.label = "b"; points = [ (0., 2.); (2., 0.) ] };
      ]
  in
  assert_svg "line" chart;
  let log =
    Report.Svg.line_chart ~log_y:true ~title:"t" ~x_label:"x" ~y_label:"y"
      [ { Report.Svg.label = "a"; points = [ (0., 0.); (1., 1000.) ] } ]
  in
  assert_svg "log line (zero clamped)" log;
  Alcotest.check_raises "no data" (Invalid_argument "Svg.line_chart: no data")
    (fun () ->
      ignore
        (Report.Svg.line_chart ~title:"t" ~x_label:"x" ~y_label:"y"
           [ { Report.Svg.label = "a"; points = [] } ]))

let test_svg_bar () =
  let chart =
    Report.Svg.bar_chart ~title:"t" ~y_label:"y"
      [
        { Report.Svg.group = "g1"; bars = [ ("a", 3.); ("b", 1.) ] };
        { Report.Svg.group = "g2"; bars = [ ("a", 0.); ("b", 10.) ] };
      ]
  in
  assert_svg "bar" chart;
  assert_svg "bar log"
    (Report.Svg.bar_chart ~log_y:true ~title:"t" ~y_label:"y"
       [ { Report.Svg.group = "g"; bars = [ ("a", 100.) ] } ])

let test_svg_escape () =
  Alcotest.(check string)
    "escapes" "a&lt;b&gt;&amp;&quot;c"
    (Report.Svg.escape "a<b>&\"c")

let qcheck_svg_never_crashes =
  QCheck.Test.make ~name:"line_chart total on random data" ~count:100
    QCheck.(
      small_list
        (pair (float_range (-1000.) 1000.) (float_range (-1000.) 1000.)))
    (fun points ->
      QCheck.assume (points <> []);
      let s =
        Report.Svg.line_chart ~title:"q" ~x_label:"x" ~y_label:"y"
          [ { Report.Svg.label = "s"; points } ]
      in
      String.length s > 0)

(* --- Report builder ------------------------------------------------------------------ *)

let test_report_builds () =
  let config =
    {
      Report.Builder.table_instances = 1;
      table2_instances = 0;
      fig10_instances = 1;
      fig10_max_orgs = 3;
      timeline_instances = 1;
      workers = Some 1;
    }
  in
  (* table2_instances = 0 would make summaries empty; use 1. *)
  let config = { config with Report.Builder.table2_instances = 1 } in
  let html = Report.Builder.build config in
  Alcotest.(check bool) "html document" true
    (String.length html > 1000
    && String.sub html 0 15 = "<!DOCTYPE html>");
  let count sub =
    let n = String.length html and m = String.length sub in
    let rec go i acc =
      if i + m > n then acc
      else if String.sub html i m = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "six charts" 6 (count "<svg");
  Alcotest.(check bool) "has tables" true (count "<table" >= 2)

let () =
  Alcotest.run "report"
    [
      ( "driver-checkpoints",
        [ Alcotest.test_case "snapshots" `Quick test_checkpoints ] );
      ("timelines", [ Alcotest.test_case "series" `Quick test_timelines ]);
      ( "pool",
        [
          Alcotest.test_case "experiments deterministic across workers" `Quick
            test_pool_experiments_deterministic;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "hand-built trace" `Quick test_analysis;
          Alcotest.test_case "generated traces near targets" `Quick
            test_analysis_of_generated;
        ] );
      ( "svg",
        [
          Alcotest.test_case "line chart" `Quick test_svg_line;
          Alcotest.test_case "bar chart" `Quick test_svg_bar;
          Alcotest.test_case "escape" `Quick test_svg_escape;
          QCheck_alcotest.to_alcotest qcheck_svg_never_crashes;
        ] );
      ( "builder",
        [ Alcotest.test_case "assembles html" `Slow test_report_builds ] );
    ]
