(* The benchmark's entry point:

     bench --workload NAME --seed N --seconds S --trace 0|1 [--fairsched EXE]

   run from the root of a fairsched checkout (perfbench/run.sh builds it
   and passes the daemon binary).  BENCHMARK.json at the root names the
   workloads and the metrics: with --trace 0 the run measures the
   end-to-end metrics with tracing off; with --trace 1 it makes the
   traced run that yields the per-layer metrics and writes its spans.
   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Exit 1 on any
   correctness mismatch, 2 on a usage or run error. *)

type workload =
  | Sim of Sim_workload.spec
  | Serve of Serve_workload.spec

let workloads =
  [
    ("sim-ref", Sim { algorithm = "ref"; norgs = 8; machines = 32 });
    ("sim-rand", Sim { algorithm = "rand-15"; norgs = 16; machines = 64 });
    ("serve-submit", Serve { phases = [ Paced 5_000; Piped 20_000 ]; restart = false });
    ("serve-longrun", Serve { phases = [ Paced 10_000; Piped 150_000 ]; restart = true });
  ]

let die fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "perfbench: %s@." msg;
      Serve_workload.stop_all ();
      exit 2)
    fmt

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  fairsched : string;
}

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 10 in
  let trace = ref "0" and fairsched = ref "_build/default/bin/fairsched.exe" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_string trace, "0|1 traced per-layer run");
      ("--fairsched", Arg.Set_string fairsched, "EXE the daemon binary");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) "bench [options]";
  let seed = match !seed with Some s -> s | None -> die "--seed is required" in
  let trace =
    match !trace with "0" -> false | "1" -> true | t -> die "--trace must be 0 or 1, got %S" t
  in
  if !seconds < 1 then die "--seconds must be >= 1";
  { workload = !workload; seed; seconds = !seconds; trace; fairsched = !fairsched }

(* BENCHMARK.json: the workloads' reasons and the metric names a run must
   produce. *)
let manifest () =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error msg -> die "cannot read BENCHMARK.json: %s" msg
  in
  match Obs.Json.of_string text with
  | Error msg -> die "BENCHMARK.json: %s" msg
  | Ok j ->
      let list key =
        match Option.bind (Obs.Json.member j key) Obs.Json.get_list with
        | Some l -> l
        | None -> die "BENCHMARK.json: no %S list" key
      in
      let field key o =
        match Option.bind (Obs.Json.member o key) Obs.Json.get_string with
        | Some s -> s
        | None -> die "BENCHMARK.json: entry without %S" key
      in
      let names key = List.map (field "name") (list key) in
      let whys = List.map (fun o -> (field "name" o, field "why" o)) (list "workloads") in
      (whys, names "end_to_end", names "per_layer")

let result_line r names =
  let metric name =
    match Hashtbl.find_opt r.Report.metrics name with
    | Some (v, unit) when Float.is_finite v ->
        (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit) ])
    | Some _ -> die "metric %s is not a finite number" name
    | None -> die "metric %s was not produced" name
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool (Report.correct r));
         ("attempted", Obs.Json.Int r.Report.attempted);
         ("failed", Obs.Json.Int r.Report.failed);
         ("metrics", Obs.Json.Obj (List.map metric names));
       ])

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Serve_workload.stop_all;
  (* a killed benchmark still stops its daemons *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let a = parse_args () in
  if not (Sys.file_exists "dune-project" && Sys.file_exists "lib") then
    die "run from the root of a fairsched checkout";
  let whys, end_to_end, per_layer = manifest () in
  let why =
    match List.assoc_opt a.workload whys with
    | Some w -> w
    | None -> die "unknown workload %S (BENCHMARK.json has: %s)" a.workload
                (String.concat ", " (List.map fst whys))
  in
  let workload =
    match List.assoc_opt a.workload workloads with
    | Some w -> w
    | None -> die "workload %S has no definition in perfbench" a.workload
  in
  let dir = Measure.fresh_dir (Filename.concat ".perfbench" a.workload) in
  Format.printf "env %s@."
    (Obs.Json.to_string
       (Envinfo.json ~workload:a.workload ~why ~seed:a.seed ~seconds:a.seconds
          ~trace:a.trace ~dir));
  let daemon () =
    let exe =
      if Filename.is_relative a.fairsched then Filename.concat (Sys.getcwd ()) a.fairsched
      else a.fairsched
    in
    if Sys.file_exists exe then exe else die "no daemon binary at %s" exe
  in
  let r = Report.create () in
  let spans = Spans.create () in
  (try
     match (workload, a.trace) with
     | Sim spec, false -> Sim_workload.end_to_end spec ~seed:a.seed ~seconds:a.seconds r
     | Sim spec, true ->
         Sim_workload.per_layer spec ~seed:a.seed r spans;
         Layers.idle r
     | Serve spec, false ->
         Serve_workload.end_to_end spec ~seed:a.seed ~seconds:a.seconds ~exe:(daemon ()) ~dir r
     | Serve spec, true -> Serve_workload.per_layer spec ~seed:a.seed ~exe:(daemon ()) ~dir r spans
   with
  | Failure msg -> die "%s: %s" a.workload msg
  | Unix.Unix_error (e, fn, arg) ->
      die "%s: %s(%s): %s" a.workload fn arg (Unix.error_message e));
  if a.trace then begin
    let path = Filename.concat dir (Printf.sprintf "spans-seed%d.ndjson" a.seed) in
    let dropped = Spans.write spans path in
    Report.note "spans: %d recorded, %d written to %s" (Spans.count spans)
      (Spans.count spans - dropped) path;
    Report.metric r "trace.spans" "count" (float_of_int (Spans.count spans))
  end;
  print_endline (result_line r (if a.trace then per_layer else end_to_end));
  exit (if Report.correct r then 0 else 1)
