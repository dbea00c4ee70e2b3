(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

type result = {
  policy : string;
  instance : Instance.t;
  utilities_scaled : int array;
  parts : int array;
  schedule : Schedule.t;
  events : int;
  wall_seconds : float;
  checkpoints : snapshot list;
  killed : int;
  abandoned : int;
  wasted : int;
  stats : Kernel.Stats.t;
  metrics : Obs.Metrics.snapshot;
}

and snapshot = { at : int; psi_scaled : int array; parts_at : int array }

let run ?(record = true) ?(checkpoints = []) ?(faults = [])
    ?(federation = []) ?max_restarts ~instance ~rng
    (maker : Algorithms.Policy.maker) =
  Obs.Trace.span ~cat:"sim" "driver.run" @@ fun () ->
  let t0 = Obs.Clock.now_ns () in
  let horizon = instance.Instance.horizon in
  let session =
    Session.create ~record ~checkpoints ~faults
      ~endowments:federation ?max_restarts ~instance ~rng maker
  in
  (* Checkpoint snapshots: the kernel fires [on_checkpoint ~at:c] once every
     event strictly before [c] has been processed (tracker queries are exact
     at any time between events). *)
  let snapshots = ref [] in
  let on_checkpoint ~at =
    snapshots :=
      {
        at;
        psi_scaled = Session.psi_scaled session ~at;
        parts_at = Session.parts_at session ~at;
      }
      :: !snapshots
  in
  Session.run_to_horizon session ~on_checkpoint ();
  let cluster = Session.cluster session in
  {
    policy = Session.policy_name session;
    instance;
    utilities_scaled = Session.psi_scaled session ~at:horizon;
    parts = Session.parts_at session ~at:horizon;
    schedule =
      (if record then Session.schedule session
       else Schedule.of_placements ~machines:(Cluster.machines cluster) []);
    events = (Session.engine_stats session).Kernel.Stats.instants;
    wall_seconds = Obs.Clock.elapsed t0;
    checkpoints = List.rev !snapshots;
    killed = Cluster.killed_count cluster;
    abandoned = Cluster.abandoned_count cluster;
    wasted = Session.wasted_total session;
    stats = Session.stats session;
    metrics = Obs.Metrics.snapshot ();
  }

let utilities r = Array.map (fun v -> float_of_int v /. 2.) r.utilities_scaled
let total_parts r = Array.fold_left ( + ) 0 r.parts

let pp_result ppf r =
  Format.fprintf ppf "%-14s events=%-7d parts=%-8d psi=[%a]" r.policy r.events
    (total_parts r)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf v -> Format.fprintf ppf "%.1f" v))
    (Array.to_list (utilities r))
