(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core
module Coalition = Shapley.Coalition

type gsim = {
  mask : Coalition.t;
  cluster : Cluster.t;
  local_of_global : int array;  (* global machine id -> local id, or -1 *)
  engine : Job.t Kernel.Engine.t;
  model : Job.t Kernel.Engine.model;
  (* The scheduling round needs the whole [state] (it reads every smaller
     coalition's schedule), which does not exist yet when the sims are
     built; wired after construction. *)
  mutable round_body : time:int -> int;
}

type state = {
  k : int;
  grand : Coalition.t;
  utility : Utility.Functions.t;
  sims : gsim option array;  (* indexed by mask; None for grand/machine-less *)
  by_size : int array array;
      (* by_size.(s-1): simulated masks of size s, ascending — grouped at
         construction so the staged loops iterate without list allocation *)
  all_masks : int array;  (* simulated masks, ascending *)
}

let machine_owners_of instance mask =
  Coalition.fold
    (fun u acc ->
      List.rev_append
        (List.init instance.Instance.machines.(u) (fun _ -> u))
        acc)
    mask []
  |> List.rev |> Array.of_list

(* Same org-contiguous global->local machine translation as Coalition_sim. *)
let local_of_global_of instance mask =
  let k = Instance.organizations instance in
  let nglobal = Array.fold_left ( + ) 0 instance.Instance.machines in
  let tbl = Array.make nglobal (-1) in
  let next_local = ref 0 and next_global = ref 0 in
  for u = 0 to k - 1 do
    let c = instance.Instance.machines.(u) in
    if Coalition.mem mask u then begin
      for s = 0 to c - 1 do
        tbl.(!next_global + s) <- !next_local + s
      done;
      next_local := !next_local + c
    end;
    next_global := !next_global + c
  done;
  tbl

let create_state ~utility ?max_restarts instance =
  let k = Instance.organizations instance in
  if k > 8 then
    invalid_arg
      "Ref_generic: the general algorithm recomputes utilities over 3^k \
       schedules; use k <= 8 (or Reference for psp)";
  let grand = Coalition.grand ~players:k in
  let sims = Array.make (grand + 1) None in
  for mask = 1 to grand - 1 do
    let owners = machine_owners_of instance mask in
    if Array.length owners > 0 then begin
      let rec sim =
        {
          mask;
          cluster =
            Cluster.create ~record:true ?max_restarts ~machine_owners:owners
              ~norgs:k ();
          local_of_global = local_of_global_of instance mask;
          engine =
            Kernel.Engine.create
              ~release_time:(fun (j : Job.t) -> j.Job.release)
              [||];
          model =
            {
              Kernel.Engine.next_completion =
                (fun () -> Cluster.next_completion sim.cluster);
              pop_completion =
                (fun ~time ->
                  Option.is_some (Cluster.pop_completion_le sim.cluster time));
              apply_fault =
                (fun ~time ev ->
                  (* The cluster excises a killed attempt's placement, so
                     the recorded schedule — and hence the generic ψ
                     evaluation — only ever counts surviving work. *)
                  match ev with
                  | Faults.Event.Fail m -> (
                      match Cluster.fail_machine sim.cluster ~time m with
                      | Some kill ->
                          Kernel.Engine.Killed
                            {
                              wasted = kill.Cluster.k_wasted;
                              resubmitted = kill.Cluster.k_resubmitted;
                            }
                      | None -> Kernel.Engine.Applied)
                  | Faults.Event.Recover m ->
                      ignore (Cluster.recover_machine sim.cluster m);
                      Kernel.Engine.Applied);
              (* The generic REF engine predates the federation layer and
                 keeps the static consortium. *)
              apply_endow = (fun ~time:_ _ -> Kernel.Engine.no_endow_effect);
              admit = (fun ~time:_ job -> Cluster.release sim.cluster job);
              round = (fun ~time -> sim.round_body ~time);
            };
          round_body =
            (fun ~time:_ ->
              invalid_arg "Ref_generic: scheduling round before wiring");
        }
      in
      sims.(mask) <- Some sim
    end
  done;
  let masks_of_size s =
    let acc = ref [] in
    for mask = grand - 1 downto 1 do
      if sims.(mask) <> None && Coalition.size mask = s then acc := mask :: !acc
    done;
    Array.of_list !acc
  in
  let by_size = Array.init k (fun i -> masks_of_size (i + 1)) in
  let all_masks = Array.concat (Array.to_list by_size) in
  Array.sort Stdlib.compare all_masks;
  { k; grand; utility; sims; by_size; all_masks }

let schedule_of_sim sim =
  Schedule.of_placements
    ~machines:(Cluster.machines sim.cluster)
    (Cluster.placements sim.cluster)

let empty_schedule = Schedule.of_placements ~machines:1 []

(* ψ(C, u, t) read off the coalition's recorded schedule. *)
let psi_of st ~schedule_of ~mask ~org ~at =
  ignore st;
  st.utility.Utility.Functions.eval (schedule_of mask) ~org ~at

(* UpdateVals (Fig. 1): Shapley contributions of the members of [mask] from
   the current values of all its sub-coalition schedules. *)
let contributions st ~schedule_of ~mask ~at =
  let size_mask = Coalition.size mask in
  let phi = Array.make st.k 0. in
  Coalition.iter_subsets mask (fun sub ->
      if sub <> Coalition.empty then begin
        let w =
          Numeric.Combinatorics.shapley_weight_float ~players:size_mask
            ~subset:(Coalition.size sub - 1)
        in
        let v c =
          Coalition.fold
            (fun u acc -> acc +. psi_of st ~schedule_of ~mask:c ~org:u ~at)
            c 0.
        in
        let v_sub = v sub in
        Coalition.iter_members
          (fun u ->
            phi.(u) <- phi.(u) +. (w *. (v_sub -. v (Coalition.remove sub u))))
          sub
      end);
  phi

(* Distance (Fig. 1): the L1 gap between contributions and utilities if the
   front job of [org] were started now.  Δψ is evaluated at [at+1]: at [at]
   a just-started job has no executed part yet (see DESIGN.md). *)
let distance st ~schedule_of ~mask ~phi ~at ~org ~front_start_added =
  let size_mask = Coalition.size mask in
  let delta =
    st.utility.Utility.Functions.eval front_start_added ~org ~at:(at + 1)
    -. psi_of st ~schedule_of ~mask ~org ~at:(at + 1)
  in
  let spread = delta /. float_of_int size_mask in
  Coalition.fold
    (fun u acc ->
      let psi_u = psi_of st ~schedule_of ~mask ~org:u ~at in
      let adjusted_psi = if u = org then psi_u +. delta else psi_u in
      acc +. Float.abs (phi.(u) +. spread -. adjusted_psi))
    mask 0.

let with_tentative_start schedule (job : Job.t) ~at =
  (* The tentative machine id does not matter for envy-free utilities; use
     machine 0 (always valid: the schedule has >= 1 machine). *)
  Schedule.of_placements
    ~machines:(Schedule.machines schedule)
    (Schedule.placement ~job ~start:at ~machine:0 ()
     :: Schedule.placements schedule)

let select_in st ~schedule_of ~mask ~waiting ~front ~at =
  let phi = contributions st ~schedule_of ~mask ~at in
  let score u =
    match front u with
    | None -> infinity
    | Some job ->
        let tentative = with_tentative_start (schedule_of mask) job ~at in
        distance st ~schedule_of ~mask ~phi ~at ~org:u
          ~front_start_added:tentative
  in
  match List.map (fun u -> (score u, u)) waiting with
  | [] -> invalid_arg "ref-generic: nothing waiting"
  | first :: rest ->
      snd
        (List.fold_left
           (fun (bs, bu) (s, u) -> if s < bs then (s, u) else (bs, bu))
           first rest)

(* The per-sim scheduling round reads every smaller coalition's schedule
   through the shared [state], so it can only be built once the state
   exists. *)
let wire_rounds st =
  let schedule_of mask =
    if mask = Coalition.empty then empty_schedule
    else
      match st.sims.(mask) with
      | Some sim -> schedule_of_sim sim
      | None -> empty_schedule
  in
  Array.iter
    (fun mask ->
      match st.sims.(mask) with
      | None -> ()
      | Some sim ->
          sim.round_body <-
            (fun ~time ->
              let n = ref 0 in
              while
                Cluster.free_count sim.cluster > 0
                && Cluster.has_waiting sim.cluster
              do
                let org =
                  select_in st ~schedule_of ~mask:sim.mask
                    ~waiting:(Cluster.waiting_orgs sim.cluster)
                    ~front:(Cluster.front sim.cluster)
                    ~at:time
                in
                ignore (Cluster.start_front sim.cluster ~org ~time ());
                incr n
              done;
              !n))
    st.all_masks

(* Lockstep advance of all sub-coalition simulations, exactly like
   [Reference.advance_all] but with recorded schedules and the generic
   selection rule.  Each sim is a {!Kernel.Engine} instance; the
   arrival/completion phases ([drain_events]) run first, then the
   scheduling rounds size class by size class, as in {!Reference}: the
   round of a coalition only reads the schedules of strictly smaller ones
   (frozen within the instant).  The k <= 8 cap keeps the O(2^k)
   earliest-event fold trivial (<= 255 sims), so unlike {!Reference} no
   event heap is needed here. *)
let advance_all st ~time =
  let earliest () =
    Array.fold_left
      (fun acc mask ->
        match st.sims.(mask) with
        | None -> acc
        | Some sim -> (
            match Kernel.Engine.next_event sim.engine sim.model with
            | None -> acc
            | Some tau -> Stdlib.min acc tau))
      max_int st.all_masks
  in
  let iter_masks masks f =
    Array.iter
      (fun mask -> match st.sims.(mask) with None -> () | Some sim -> f sim)
      masks
  in
  let rec loop () =
    let tau = earliest () in
    if tau <= time then begin
      iter_masks st.all_masks (fun sim ->
          Kernel.Engine.drain_events sim.engine sim.model ~time:tau);
      for s = 1 to st.k - 1 do
        iter_masks st.by_size.(s - 1) (fun sim ->
            Kernel.Engine.run_round sim.engine sim.model ~time:tau)
      done;
      loop ()
    end
  in
  loop ()

let make ~utility ?name ?max_restarts () instance ~rng:_ =
  let st = create_state ~utility ?max_restarts instance in
  wire_rounds st;
  let name =
    Option.value name
      ~default:("ref-generic-" ^ utility.Utility.Functions.name)
  in
  Policy.make ~name
    ~on_release:(fun _view ~time:_ job ->
      Array.iter
        (fun mask ->
          if Coalition.mem mask job.Job.org then
            match st.sims.(mask) with
            | Some sim -> Kernel.Engine.push_job sim.engine job
            | None -> ())
        st.all_masks)
    ~on_fault:(fun _view ~time event ->
      Array.iter
        (fun mask ->
          match st.sims.(mask) with
          | Some sim ->
              let g = Faults.Event.machine event in
              let m = sim.local_of_global.(g) in
              if m >= 0 then
                let event =
                  match event with
                  | Faults.Event.Fail _ -> Faults.Event.Fail m
                  | Faults.Event.Recover _ -> Faults.Event.Recover m
                in
                Kernel.Engine.push_fault sim.engine { Faults.Event.time; event }
          | None -> ())
        st.all_masks)
    ~stats:(fun () ->
      Kernel.Stats.total
        (Array.fold_left
           (fun acc mask ->
             match st.sims.(mask) with
             | Some sim -> Kernel.Engine.stats sim.engine :: acc
             | None -> acc)
           [] st.all_masks))
    ~select:(fun view ~time ->
      advance_all st ~time;
      let schedule_of mask =
        if mask = st.grand then
          Schedule.of_placements
            ~machines:(Cluster.machines view.Policy.cluster)
            (Cluster.placements view.Policy.cluster)
        else if mask = Coalition.empty then empty_schedule
        else
          match st.sims.(mask) with
          | Some sim -> schedule_of_sim sim
          | None -> empty_schedule
      in
      select_in st ~schedule_of ~mask:st.grand
        ~waiting:(Cluster.waiting_orgs view.Policy.cluster)
        ~front:(Cluster.front view.Policy.cluster)
        ~at:time)
    ()

let make_with utility_of ?name ?max_restarts () instance ~rng =
  make ~utility:(utility_of instance) ?name ?max_restarts () instance ~rng

let ref_psp instance ~rng =
  make ~utility:Utility.Functions.psp ~name:"ref-generic-psp" () instance ~rng
