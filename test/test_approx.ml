(* The approximation tier (DESIGN.md §13), differentially tested:

   - the sampled RAND estimator's deviation from the exact Shapley value
     stays within the Theorem 5.6 tolerance ε/k·v(grand) at small k, at the
     rate the confidence parameter promises (checked across many seeds: the
     bound is probabilistic, so single runs may violate it — the *rate*
     must not exceed 1 − confidence, with binomial slack);

   - the cross-instant coalition-value cache is a pure optimization: REF
     and RAND schedules are BIT-identical with the cache on and off, for
     random instances (the cached value is
     an exact integer polynomial — Tracker.coeffs_scaled — so this is an
     identity, not a tolerance). *)

open Core

(* --- Hoeffding bound across seeds -------------------------------------- *)

let test_bound_across_seeds () =
  let epsilon = 0.5 and confidence = 0.9 in
  let seeds = 30 in
  let violations = ref 0 and checked = ref 0 in
  List.iter
    (fun k ->
      for seed = 1 to seeds do
        let r =
          Experiments.Approx.audit_one ~k ~jobs_per_org:6 ~at:10 ~epsilon
            ~confidence ~seed:(seed * 7919)
        in
        incr checked;
        if not r.Experiments.Approx.within_bound then incr violations
      done)
    [ 4; 5; 6 ];
  (* Violation probability per audit is at most 1 − confidence = 0.1; allow
     the binomial mean plus 4σ so the test only fires on a genuinely broken
     estimator, never on sampling luck. *)
  let n = float_of_int !checked in
  let p = 1. -. confidence in
  let limit = (n *. p) +. (4. *. sqrt (n *. p *. (1. -. p))) in
  if float_of_int !violations > limit then
    Alcotest.failf "bound violated %d/%d times (allowed ~%.0f)" !violations
      !checked limit

(* --- cache on/off bit-identity ----------------------------------------- *)

(* Random small instances. *)
let instance_gen =
  let gen =
    QCheck.Gen.(
      let* norgs = int_range 2 6 in
      let* machines = array_size (return norgs) (int_range 1 2) in
      let* njobs = int_range 1 20 in
      let* jobs =
        list_size (return njobs)
          (let* org = int_range 0 (norgs - 1) in
           let* release = int_range 0 40 in
           let* size = int_range 1 6 in
           return (org, release, size))
      in
      return (machines, jobs))
  in
  let make (machines, jobs) =
    let jobs =
      List.map
        (fun (org, release, size) -> Job.make ~org ~index:0 ~release ~size ())
        jobs
    in
    Instance.make ~machines ~jobs ~horizon:120
  in
  let arb =
    QCheck.make
      ~print:(fun raw -> Format.asprintf "%a" Instance.pp_detailed (make raw))
      gen
  in
  (arb, make)

let identical a b =
  a.Sim.Driver.utilities_scaled = b.Sim.Driver.utilities_scaled
  && a.Sim.Driver.parts = b.Sim.Driver.parts
  && a.Sim.Driver.events = b.Sim.Driver.events
  && Schedule.placements a.Sim.Driver.schedule
     = Schedule.placements b.Sim.Driver.schedule

let run_ref ~value_cache instance =
  Sim.Driver.run ~instance
    ~rng:(Fstats.Rng.create ~seed:3)
    (Algorithms.Reference.make ~value_cache ())

let run_rand ~value_cache instance =
  Sim.Driver.run ~instance
    ~rng:(Fstats.Rng.create ~seed:3)
    (Algorithms.Rand.rand ~value_cache ~n:15)

let qcheck_ref_cache_identity =
  let arb, make = instance_gen in
  QCheck.Test.make ~count:40
    ~name:"REF value-cache on/off bit-identical" arb (fun raw ->
      let instance = make raw in
      identical
        (run_ref ~value_cache:true instance)
        (run_ref ~value_cache:false instance))

let qcheck_rand_cache_identity =
  let arb, make = instance_gen in
  QCheck.Test.make ~count:40 ~name:"RAND value-cache on/off bit-identical" arb
    (fun raw ->
      let instance = make raw in
      identical
        (run_rand ~value_cache:true instance)
        (run_rand ~value_cache:false instance))

(* The polynomial evaluated by the cache must agree with the direct tracker
   fold at every query instant, not just end-to-end: check Coalition_sim's
   coefficients directly on a stepped simulation. *)
let test_coeffs_agree () =
  let jobs =
    List.concat_map
      (fun org ->
        List.init 5 (fun i ->
            Job.make ~org ~index:i ~release:(2 * i) ~size:(1 + (i mod 3)) ()))
      [ 0; 1; 2 ]
  in
  let instance = Instance.make ~machines:[| 1; 1; 1 |] ~jobs ~horizon:40 in
  let sim = Algorithms.Coalition_sim.create ~instance ~members:0b111 () in
  List.iter (Algorithms.Coalition_sim.add_release sim) jobs;
  let last_epoch = ref (-1) in
  for t = 0 to 30 do
    Algorithms.Coalition_sim.advance_to sim ~time:t
      ~select:Algorithms.Baselines.fifo_select_sim;
    let a, b, c = Algorithms.Coalition_sim.value_coeffs sim in
    let e = Algorithms.Coalition_sim.epoch sim in
    Alcotest.(check int)
      (Printf.sprintf "polynomial = value_scaled at t=%d" t)
      (Algorithms.Coalition_sim.value_scaled sim ~at:t)
      ((((a * t) + b) * t) + c);
    Alcotest.(check bool) "epoch monotone" true (e >= !last_epoch);
    last_epoch := e
  done

let () =
  Alcotest.run "approx"
    [
      ( "hoeffding",
        [
          Alcotest.test_case "sampled error within bound across seeds" `Quick
            test_bound_across_seeds;
        ] );
      ( "value-cache",
        [
          QCheck_alcotest.to_alcotest qcheck_ref_cache_identity;
          QCheck_alcotest.to_alcotest qcheck_rand_cache_identity;
          Alcotest.test_case "coefficients match value_scaled" `Quick
            test_coeffs_agree;
        ] );
    ]
