(* The sim-* workloads: whole instances through [Sim.Driver.run], one
   after another until the run's time is spent.  Instance [i] of seed [s]
   is generated from sub-seed [s * 1000 + i], so a seed fixes the inputs
   and a faster program just simulates more of the same sequence. *)

open Measure

type spec = { algorithm : string; norgs : int; machines : int }

let horizon = 20_000

(* instances of a traced run: a fixed count, so its counts repeat *)
let traced_instances = 3

let sub_seed ~seed i = (seed * 1000) + i

let generate spec ~seed i =
  let t0 = now_ns () in
  let scenario =
    Workload.Scenario.default ~norgs:spec.norgs ~machines:spec.machines
      ~horizon Workload.Traces.lpc_egee
  in
  let instance = Workload.Scenario.instance scenario ~seed:(sub_seed ~seed i) in
  (instance, since_s t0)

(* The greediness property of [Core.Schedule.check_greedy] — at no
   release or completion instant before [upto] is a machine idle while
   some organization's FIFO-front unstarted job is released — checked by
   one sweep: O((n + events) log n + events * k) instead of the library
   check's repeated scans, which take seconds on a thousand-job instance. *)
let check_greedy sched ~(jobs : Core.Job.t array) ~upto =
  let open Core in
  let placements = Array.of_list (Schedule.placements sched) in
  let starts = Array.map (fun p -> p.Schedule.start) placements in
  let ends = Array.map Schedule.completion placements in
  Array.sort compare starts;
  Array.sort compare ends;
  let start_of = Hashtbl.create (Array.length placements) in
  Array.iter
    (fun p -> Hashtbl.replace start_of (Job.id p.Schedule.job) p.Schedule.start)
    placements;
  let norgs = Array.fold_left (fun m (j : Job.t) -> max m (j.Job.org + 1)) 0 jobs in
  (* per organization, its jobs by FIFO rank, and the time each stops
     being unstarted *)
  let by_org = Array.make norgs [] in
  Array.iter (fun (j : Job.t) -> by_org.(j.Job.org) <- j :: by_org.(j.Job.org)) jobs;
  let by_org =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort (fun (x : Job.t) y -> compare x.Job.index y.Job.index) a;
        a)
      by_org
  in
  let leaves (j : Job.t) =
    Option.value (Hashtbl.find_opt start_of (Job.id j)) ~default:max_int
  in
  let front = Array.make norgs 0 in
  let events =
    List.sort_uniq compare
      (0
      :: (Array.to_list (Array.map (fun (j : Job.t) -> j.Job.release) jobs)
         @ Array.to_list ends))
    |> List.filter (fun e -> e < upto)
  in
  let si = ref 0 and ei = ref 0 in
  let machines = Schedule.machines sched in
  let rec sweep = function
    | [] -> Ok ()
    | e :: rest ->
        while !si < Array.length starts && starts.(!si) <= e do incr si done;
        while !ei < Array.length ends && ends.(!ei) <= e do incr ei done;
        let idle = machines - (!si - !ei) in
        let waiting = ref None in
        Array.iteri
          (fun o a ->
            while front.(o) < Array.length a && leaves a.(front.(o)) <= e do
              front.(o) <- front.(o) + 1
            done;
            if front.(o) < Array.length a && a.(front.(o)).Job.release <= e then
              waiting := Some a.(front.(o)))
          by_org;
        (match (!waiting, idle > 0) with
        | Some j, true ->
            Error
              (Format.asprintf "non-greedy: at t=%d, %d machine(s) idle while %a waits"
                 e idle Job.pp j)
        | _ -> sweep rest)
  in
  sweep events

(* The batch-run invariants: a feasible, FIFO, greedy schedule whose ψsp,
   recomputed from the placements, equals the driver's trackers. *)
let check r (res : Sim.Driver.result) =
  let inst = res.Sim.Driver.instance in
  let sched = res.Sim.Driver.schedule in
  let horizon = inst.Core.Instance.horizon in
  let fail what = function
    | Ok () -> ()
    | Error msg -> Report.mismatch r "%s: %s" what msg
  in
  fail "check_feasible" (Core.Schedule.check_feasible sched);
  fail "check_fifo" (Core.Schedule.check_fifo sched);
  fail "check_greedy" (check_greedy sched ~jobs:inst.Core.Instance.jobs ~upto:horizon);
  Array.iteri
    (fun org u ->
      let v = Utility.Psp.of_schedule_scaled sched ~org ~at:horizon in
      if v <> u then
        Report.mismatch r "org %d: psi from schedule %d <> driver %d" org v u)
    res.Sim.Driver.utilities_scaled

(* A maker whose construction time is measured, and whose callbacks stamp
   the wall clock at the first callback of every event instant.  The gap
   to the next instant's first stamp is the time the scheduler took over
   that instant; it is kept for decision instants, those in which
   [select] ran — REF's and RAND's cost per decision instant.  One clock
   read per callback; no spans. *)
let ticking ~decisions ~construct_s maker : Algorithms.Policy.maker =
 fun instance ~rng ->
  let t0 = now_ns () in
  let p = maker instance ~rng in
  construct_s := since_s t0;
  let last = ref (-1) and started = ref 0 and decided = ref false in
  let tick time =
    if time <> !last then begin
      let now = now_ns () in
      if !decided then Samples.add decisions (us_of_ns (now - !started));
      started := now;
      last := time;
      decided := false
    end
  in
  {
    p with
    Algorithms.Policy.select =
      (fun v ~time ->
        tick time;
        decided := true;
        p.Algorithms.Policy.select v ~time);
    on_release =
      (fun v ~time j ->
        tick time;
        p.Algorithms.Policy.on_release v ~time j);
    on_start =
      (fun v ~time pl ->
        tick time;
        p.Algorithms.Policy.on_start v ~time pl);
    on_complete =
      (fun v ~time c ->
        tick time;
        p.Algorithms.Policy.on_complete v ~time c);
  }

type pass = {
  jobs : int;
  run_s : float;  (** per instance the median of its repetitions, summed *)
  setups : float list;
  decisions : Samples.t;
  results : Sim.Driver.result list;  (** first repetition, instance order *)
}

let repetitions = 3

(* Instances [0, 1, ...] until [seconds] are spent, or exactly [count] of
   them; each simulated [repetitions] times, untraced.  The first
   repetition is checked and the others must reproduce its ψsp. *)
let untraced_pass spec ~seed ?seconds ?count r =
  let t_start = now_ns () in
  let decisions = Samples.create () in
  let maker = Algorithms.Registry.find_exn spec.algorithm in
  let simulate instance i =
    let construct_s = ref 0. in
    let t0 = now_ns () in
    let res =
      Sim.Driver.run ~instance
        ~rng:(Fstats.Rng.create ~seed:(sub_seed ~seed i))
        (ticking ~decisions ~construct_s maker)
    in
    (res, since_s t0 -. !construct_s, !construct_s)
  in
  let rec go i jobs run_s setups results =
    (* another instance only while it is expected to end within [seconds] *)
    let more =
      match (seconds, count) with
      | _, Some c -> i < c
      | Some s, None ->
          i = 0 || since_s t_start *. float_of_int (i + 1) /. float_of_int i <= float_of_int s
      | None, None -> i = 0
    in
    if not more then { jobs; run_s; setups; decisions; results = List.rev results }
    else begin
      let instance, gen_s = generate spec ~seed i in
      let reps = List.init repetitions (fun _ -> simulate instance i) in
      let first, _, _ = List.hd reps in
      check r first;
      List.iter
        (fun (res, _, _) ->
          if res.Sim.Driver.utilities_scaled <> first.Sim.Driver.utilities_scaled then
            Report.mismatch r "instance %d: repeated runs disagree on psi" i)
        reps;
      let n = Array.length instance.Core.Instance.jobs in
      go (i + 1) (jobs + n)
        (run_s +. median_list (List.map (fun (_, t, _) -> t) reps))
        (List.map (fun (_, _, c) -> gen_s +. c) reps @ setups)
        (first :: results)
    end
  in
  go 0 0 0. [] []

let end_to_end spec ~seed ~seconds r =
  let p = untraced_pass spec ~seed ~seconds r in
  r.Report.attempted <- repetitions * p.jobs;
  let lat = summarize p.decisions in
  Report.note "sim %s: %d instances, %d jobs in %.3f s (median of %d runs each), \
               decision-instant latency %a (us)"
    spec.algorithm (List.length p.results) p.jobs p.run_s repetitions pp_summary lat;
  if not (p99_ok lat) then
    Report.mismatch r "only %d decision-latency samples (< 1000)" lat.n;
  let rate = float_of_int p.jobs /. p.run_s in
  Report.metric r "setup_s" "s" (median_list p.setups);
  Report.metric r "jobs_per_s" "1/s" rate;
  Report.metric r "rss_mb" "MB" (proc_mb "VmHWM");
  (* printed, not gated *)
  Report.metric r "sim_jobs_per_s" "1/s" rate;
  Report.metric r "decision_p50_us" "us" lat.p50;
  Report.metric r "decision_p90_us" "us" lat.p90;
  Report.metric r "decision_p99_us" "us" lat.p99;
  Report.metric r "failed_frac" "ratio" 0.

(* --- traced run: spans around every policy callback -------------------- *)

let hook_names =
  [
    "algorithms.on_release"; "algorithms.on_start"; "algorithms.on_complete";
    "algorithms.pick_machine"; "algorithms.on_kill"; "algorithms.on_fault";
    "algorithms.on_endow";
  ]

let traced_maker spans maker : Algorithms.Policy.maker =
 fun instance ~rng ->
  let p =
    Spans.with_span spans "algorithms.construct" (fun () -> maker instance ~rng)
  in
  let span name f = Spans.with_span spans name f in
  let open Algorithms.Policy in
  {
    p with
    select = (fun v ~time -> span "algorithms.select" (fun () -> p.select v ~time));
    pick_machine =
      (fun v ~time ~org ->
        span "algorithms.pick_machine" (fun () -> p.pick_machine v ~time ~org));
    on_release =
      (fun v ~time j -> span "algorithms.on_release" (fun () -> p.on_release v ~time j));
    on_start =
      (fun v ~time pl -> span "algorithms.on_start" (fun () -> p.on_start v ~time pl));
    on_complete =
      (fun v ~time c ->
        span "algorithms.on_complete" (fun () -> p.on_complete v ~time c));
    on_kill =
      (fun v ~time k -> span "algorithms.on_kill" (fun () -> p.on_kill v ~time k));
    on_fault =
      (fun v ~time e -> span "algorithms.on_fault" (fun () -> p.on_fault v ~time e));
    on_endow =
      (fun v ~time e -> span "algorithms.on_endow" (fun () -> p.on_endow v ~time e));
  }

(* [Sim.Driver.run] under a root span, each policy callback in its own. *)
let traced_run spans ?record ~instance ~rng maker =
  Spans.with_span spans "sim.driver.run" (fun () ->
      Sim.Driver.run ?record ~instance ~rng (traced_maker spans maker))

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* The algorithm, kernel and driver layers of the traced driver runs:
   self-time shares of the root span (they sum to 1), call latencies,
   cache and sampling counters, and exact kernel counts. *)
let algorithm_layers r spans (results : Sim.Driver.result list) =
  let root_s =
    let d = Spans.durations spans "sim.driver.run" in
    Samples.sum d *. 1e-6
  in
  let share name = Spans.self_s spans name /. root_s in
  let hooks = List.fold_left (fun acc n -> acc +. share n) 0. hook_names in
  let select = summarize (Spans.durations spans "algorithms.select") in
  let driver_self = share "sim.driver.run" in
  let construct = share "algorithms.construct" in
  Report.note "layer self-time shares add up to %.6f of %.3f s driver wall"
    (driver_self +. share "algorithms.select" +. hooks +. construct)
    root_s;
  Report.metric r "algorithms.select_us_p50" "us" select.p50;
  Report.metric r "algorithms.select_us_p99" "us" select.p99;
  Report.metric r "algorithms.select_calls" "count" (float_of_int select.n);
  Report.metric r "algorithms.select_share" "ratio" (share "algorithms.select");
  Report.metric r "algorithms.hooks_share" "ratio" hooks;
  Report.metric r "algorithms.construct_share" "ratio" construct;
  Report.metric r "sim.driver_self_share" "ratio" driver_self;
  let hits = counter "ref.vcache_hits" + counter "rand.vcache_hits" in
  let misses = counter "ref.vcache_misses" + counter "rand.vcache_misses" in
  Report.metric r "algorithms.vcache_hit_ratio" "ratio"
    (if hits + misses = 0 then 0.
     else float_of_int hits /. float_of_int (hits + misses));
  Report.metric r "algorithms.orders_sampled" "count"
    (float_of_int (counter "rand.orders_sampled"));
  let k =
    Kernel.Stats.total (List.map (fun res -> res.Sim.Driver.stats) results)
  in
  Report.metric r "kernel.instants" "count" (float_of_int k.Kernel.Stats.instants);
  Report.metric r "kernel.rounds" "count" (float_of_int k.Kernel.Stats.rounds);
  Report.metric r "kernel.starts" "count" (float_of_int k.Kernel.Stats.starts);
  Report.metric r "kernel.heap_pops" "count" (float_of_int k.Kernel.Stats.heap_pops);
  Report.metric r "core.pool_batches" "count" (float_of_int (counter "pool.batches"))

let per_layer spec ~seed r spans =
  let count = traced_instances in
  let plain = untraced_pass spec ~seed ~count r in
  r.Report.attempted <- (repetitions + 1) * plain.jobs;
  let plain_rate = float_of_int plain.jobs /. plain.run_s in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let results =
    List.init count (fun i ->
        let instance, _ = generate spec ~seed i in
        let res =
          traced_run spans ~instance
            ~rng:(Fstats.Rng.create ~seed:(sub_seed ~seed i))
            (Algorithms.Registry.find_exn spec.algorithm)
        in
        check r res;
        res)
  in
  Obs.Metrics.set_enabled false;
  (* Traced and untraced passes ran the same instances: the results must
     agree, and the rate difference is the cost of tracing. *)
  List.iter2
    (fun (a : Sim.Driver.result) (b : Sim.Driver.result) ->
      if a.Sim.Driver.utilities_scaled <> b.Sim.Driver.utilities_scaled then
        Report.mismatch r "traced and untraced runs disagree on psi")
    results plain.results;
  let traced_s =
    List.fold_left
      (fun acc res -> acc +. res.Sim.Driver.wall_seconds)
      0. results
    -. Spans.self_s spans "algorithms.construct"
  in
  let traced_rate = float_of_int plain.jobs /. traced_s in
  Report.note "tracing: %.1f jobs/s traced vs %.1f untraced" traced_rate plain_rate;
  Report.metric r "trace.jobs_per_s_delta" "1/s" (traced_rate -. plain_rate);
  algorithm_layers r spans results
