(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core
module Coalition = Shapley.Coalition

type concept = Shapley_value | Banzhaf_value

(* The REF advancement engine.

   Four optimizations over the straightforward Fig. 1 transcription (see
   DESIGN.md, "Performance engineering"):

   - a global event heap of (next-event-time, mask) entries replaces the
     O(2^k) fold that recomputed the earliest pending sub-coalition event
     at every instant.  Entries are lower bounds, lazily re-keyed on pop;
     only sub-coalitions that actually have an event at an instant are
     stepped (a coalition cannot start a job between its own events: its
     machines stay saturated-or-drained until a completion or release of
     its own).

   - per-instant work is staged: arrivals/completions of every sim with
     an event first, then the scheduling rounds size class by size class
     s = 1..k-1 (Fig. 1's [for s <- 1 to ||C||] loop).  The round of a
     coalition only reads the (frozen-within-the-instant) values of
     strictly smaller coalitions.

   - the inner Shapley sum is allocation-free: weight tables are hoisted
     into per-size float arrays at construction, popcounts come from a
     precomputed table, and the subset walks are inline submask loops
     instead of closure-based iterators.

   - a sub-coalition's argmax only computes what it compares: with one
     waiting member it returns that member without any φ, and under the
     Shapley concept it computes φ_u for the waiting members only, each by
     the walk over the subsets containing u, in the full walk's order, so
     every entry is bit-identical to the full vector's.  Entries are
     memoized per (mask, instant) with a bitmask of the members done. *)

type internals = {
  concept : concept;
  k : int;
  vc_on : bool;  (* cross-instant coalition-value cache enabled *)
  federated : bool;
      (* endowment churn in play (Federation.Mode at construction): sims
         exist for every mask, events are broadcast, and the top-level value
         is computed over the live consortium instead of the grand mask *)
  mutable consortium : Coalition.t;
      (* the currently active organizations k(t); equals [grand] until a
         Leave arrives.  Only mutated by the on_endow handler. *)
  grand : Coalition.t;
  sims : Coalition_sim.t option array;
      (* indexed by mask; None for the grand coalition (the driver's own
         cluster plays that role), the empty mask, and — in static mode —
         machine-less coalitions (their value is identically 0: nothing
         ever runs).  Federated mode keeps sims for every proper mask: a
         lend can endow a machine-less coalition at any instant. *)
  all_masks : int array;  (* simulated masks, ascending *)
  size_tbl : int array;  (* popcount per mask *)
  weights : float array array;
      (* weights.(n).(s-1): marginal weight of a size-s subset inside a
         size-n coalition — Shapley (s-1)!(n-s)!/n! or Banzhaf 1/2^(n-1) *)
  v2_val : int array;
  v2_stamp : int array;  (* instant at which v2_val was computed *)
  vc_a : int array;  (* cached coalition-value polynomial 2·v(t) = a·t²+b·t+c *)
  vc_b : int array;
  vc_c : int array;
  vc_epoch : int array;
      (* Coalition_sim epoch at which the polynomial was extracted; min_int
         = never.  Unchanged epoch ⇒ the sim had no event since, so the
         cached coefficients are still exact (DESIGN.md §13). *)
  phi2_val : float array array;
      (* preallocated per simulated mask (and the grand coalition) at
         construction and filled in place — no per-instant allocation *)
  phi2_stamp : int array;  (* instant at which phi2_val was computed *)
  phi2_done : int array;
      (* per-member memo (Shapley sub-coalitions): the members whose
         phi2_val entry is current for the phi2_stamp instant *)
  m_owner : int array;  (* global machine id -> owning organization *)
  heap : int Heap.t;  (* global event queue: prio = time, value = mask *)
  heap_key : int array;
      (* smallest key of a live heap entry per mask (max_int if unknown):
         lets releases skip pushing when an earlier entry already covers
         the sim, keeping the heap near one entry per active mask *)
  gathered : int array;  (* instant at which the mask was last gathered *)
  active_buf : int array;  (* scratch: masks with an event at the instant *)
  stage_buf : int array;  (* scratch: the size-class slice of active_buf *)
  pending : Instant.t;  (* grand-coalition pending starts *)
  own_stats : Kernel.Stats.t;
      (* engine-level counters not owned by any one sim's kernel: the
         global event-heap pops *)
}

let create_internals ?(concept = Shapley_value) ?max_restarts
    ?(value_cache = true) instance =
  let k = Instance.organizations instance in
  if k > 16 then
    invalid_arg "Reference: more than 16 organizations is impractical (2^k \
                 schedules)";
  let federated = Federation.Mode.enabled () in
  let grand = Coalition.grand ~players:k in
  let nmasks = grand + 1 in
  let size_tbl = Array.make nmasks 0 in
  for mask = 1 to nmasks - 1 do
    size_tbl.(mask) <- size_tbl.(mask lsr 1) + (mask land 1)
  done;
  let has_machines mask =
    Coalition.fold (fun u acc -> acc + instance.Instance.machines.(u)) mask 0
    > 0
  in
  let sims = Array.make nmasks None in
  let n_sims = ref 0 in
  for mask = 1 to grand - 1 do
    if federated || has_machines mask then begin
      sims.(mask) <-
        Some
          (Coalition_sim.create ?max_restarts ~federated ~instance
             ~members:mask ());
      incr n_sims
    end
  done;
  let all_masks = Array.make !n_sims 0 in
  let pos = ref 0 in
  for mask = 1 to grand - 1 do
    if sims.(mask) <> None then begin
      all_masks.(!pos) <- mask;
      incr pos
    end
  done;
  let weights = Array.make (k + 1) [||] in
  for n = 1 to k do
    weights.(n) <-
      Array.init n (fun s ->
          match concept with
          | Shapley_value ->
              Numeric.Combinatorics.shapley_weight_float ~players:n ~subset:s
          | Banzhaf_value -> 1. /. float_of_int (1 lsl (n - 1)))
  done;
  (* Grand-coalition machine layout: org-contiguous ascending (the driver's
     convention); used to route machine faults to the affected masks. *)
  let m_owner =
    Array.concat
      (List.init k (fun u ->
           Array.make instance.Instance.machines.(u) u))
  in
  let phi2_val = Array.make nmasks [||] in
  Array.iter (fun mask -> phi2_val.(mask) <- Array.make k 0.) all_masks;
  phi2_val.(grand) <- Array.make k 0.;
  {
    concept;
    k;
    vc_on = value_cache;
    federated;
    consortium = grand;
    grand;
    sims;
    all_masks;
    size_tbl;
    weights;
    m_owner;
    v2_val = Array.make nmasks 0;
    v2_stamp = Array.make nmasks min_int;
    vc_a = Array.make nmasks 0;
    vc_b = Array.make nmasks 0;
    vc_c = Array.make nmasks 0;
    vc_epoch = Array.make nmasks min_int;
    phi2_val;
    phi2_stamp = Array.make nmasks min_int;
    phi2_done = Array.make nmasks 0;
    heap = Heap.create ();
    heap_key = Array.make nmasks max_int;
    gathered = Array.make nmasks min_int;
    active_buf = Array.make (Stdlib.max 1 !n_sims) 0;
    stage_buf = Array.make (Stdlib.max 1 !n_sims) 0;
    pending = Instant.create ~norgs:k;
    own_stats = Kernel.Stats.create ();
  }

(* Cross-instant coalition-value cache: between two events of a sim its
   2·v(t) is an exact integer polynomial a·t² + b·t + c (Tracker.coeffs);
   re-extracting the coefficients is only needed when the sim's epoch moved.
   Hit = polynomial evaluation, miss = one fold over the members' trackers —
   either way bit-identical to Coalition_sim.value_scaled. *)
let m_vcache_hits = Obs.Metrics.counter "ref.vcache_hits"
let m_vcache_misses = Obs.Metrics.counter "ref.vcache_misses"

let compute_v2 st sim ~mask ~time =
  if not st.vc_on then Coalition_sim.value_scaled sim ~at:time
  else begin
    let e = Coalition_sim.epoch sim in
    if st.vc_epoch.(mask) = e then Obs.Metrics.incr m_vcache_hits
    else begin
      Obs.Metrics.incr m_vcache_misses;
      let a, b, c = Coalition_sim.value_coeffs sim in
      st.vc_a.(mask) <- a;
      st.vc_b.(mask) <- b;
      st.vc_c.(mask) <- c;
      st.vc_epoch.(mask) <- e
    end;
    ((st.vc_a.(mask) * time) + st.vc_b.(mask)) * time + st.vc_c.(mask)
  end

(* 2·v(mask) at [time] for simulated masks; machine-less or empty masks are
   identically 0.  Memoized per instant: coalition values do not change
   within an instant. *)
let v2_sim st ~mask ~time =
  if mask = Coalition.empty then 0
  else
    match st.sims.(mask) with
    | None -> 0
    | Some sim ->
        if st.v2_stamp.(mask) <> time then begin
          st.v2_val.(mask) <- compute_v2 st sim ~mask ~time;
          st.v2_stamp.(mask) <- time
        end;
        st.v2_val.(mask)

(* Shapley/Banzhaf contributions (×2) of the members of [mask], from the
   current sub-coalition values, written into [phi]; [v2_top] supplies v2
   of [mask] itself (for the top-level call it comes from the driver's
   trackers, not a sim).  The walk visits the non-empty subsets in the
   canonical order — the mask itself, then the decreasing submask walk —
   that {!phi2_member} replays per member.
   Allocation-free inner loop: no closures per subset, weights and
   popcounts from tables. *)
let phi2_of st ~phi ~mask ~time ~v2_top =
  Array.fill phi 0 st.k 0.;
  let w_tbl = st.weights.(st.size_tbl.(mask)) in
  let add_subset sub =
    let w = w_tbl.(st.size_tbl.(sub) - 1) in
    let v_sub = if sub = mask then v2_top else v2_sim st ~mask:sub ~time in
    (* members of [sub] ascending, like Coalition.iter_members *)
    let rem = ref sub and u = ref 0 in
    while !rem <> 0 do
      if !rem land 1 <> 0 then begin
        let v_without = v2_sim st ~mask:(sub land lnot (1 lsl !u)) ~time in
        phi.(!u) <- phi.(!u) +. (w *. float_of_int (v_sub - v_without))
      end;
      rem := !rem lsr 1;
      incr u
    done
  in
  let sub = ref mask in
  while !sub <> 0 do
    add_subset !sub;
    sub := (!sub - 1) land mask
  done;
  (* The Banzhaf value is not efficient; normalize the members' shares to
     the coalition value so the (φ − ψ) comparisons stay on one scale. *)
  (match st.concept with
  | Shapley_value -> ()
  | Banzhaf_value ->
      let total = Coalition.fold (fun u acc -> acc +. phi.(u)) mask 0. in
      if total <> 0. then begin
        let factor = float_of_int v2_top /. total in
        Coalition.iter_members (fun u -> phi.(u) <- phi.(u) *. factor) mask
      end)

(* φ2 arrays are memoized per (mask, instant): coalition values do not
   change within an instant (a job started now has no executed part yet).
   [slot] picks the memo array; it differs from [mask] only for the
   federated top-level computation, which runs over the live consortium but
   must not clobber that mask's own sim-side memo (their v2_top differ: the
   real cluster's value vs the what-if schedule's). *)
let phi2_cached st ?slot ~mask ~time ~v2_top () =
  let slot = Option.value slot ~default:mask in
  if st.phi2_stamp.(slot) <> time then begin
    phi2_of st ~phi:st.phi2_val.(slot) ~mask ~time ~v2_top;
    st.phi2_stamp.(slot) <- time
  end;
  st.phi2_val.(slot)

(* 2·φ(u) in the simulated coalition [mask], alone: the terms the full walk
   adds to phi.(u) are those of the subsets containing u, i.e. [rest ∪ {u}]
   for each submask [rest] of [mask \ {u}].  Walking [rest] downward from
   [mask \ {u}] to the empty set visits them in the full walk's order (a
   fixed extra bit preserves the ordering), so the float sum is the same
   sequence of additions and the result is bit-identical to the full
   vector's entry.  O(2^(s-1)) instead of O(s·2^s) for a size-s mask. *)
let phi2_member st ~mask ~time u =
  let w_tbl = st.weights.(st.size_tbl.(mask)) in
  let bit = 1 lsl u in
  let others = mask land lnot bit in
  let acc = ref 0. in
  let rest = ref others in
  let more = ref true in
  while !more do
    let sub = !rest lor bit in
    let w = w_tbl.(st.size_tbl.(sub) - 1) in
    let v_sub = v2_sim st ~mask:sub ~time in
    let v_without = v2_sim st ~mask:!rest ~time in
    acc := !acc +. (w *. float_of_int (v_sub - v_without));
    if !rest = 0 then more := false else rest := (!rest - 1) land others
  done;
  !acc

(* [phi2_member], memoized per (mask, instant) in the mask's φ2 array: within
   one round the waiting set only shrinks, so later selections of the same
   instant reuse the entries already computed. *)
let phi2_member_cached st ~mask ~time u =
  if st.phi2_stamp.(mask) <> time then begin
    st.phi2_stamp.(mask) <- time;
    st.phi2_done.(mask) <- 0
  end;
  let phi = st.phi2_val.(mask) in
  let bit = 1 lsl u in
  if st.phi2_done.(mask) land bit = 0 then begin
    phi.(u) <- phi2_member st ~mask ~time u;
    st.phi2_done.(mask) <- st.phi2_done.(mask) lor bit
  end;
  phi.(u)

(* Selection rule inside a simulated coalition: argmax (φ − ψ) among waiting
   members, ψ evaluated with the pending (+1 per started part) convention.
   A lone waiting member wins without any φ.  Shapley shares are computed
   for the compared members only; the Banzhaf normalization sums over all
   members, so that concept keeps the full vector. *)
let select_in_sim st ~mask sim ~time =
  match Coalition_sim.waiting_orgs sim with
  | [] -> invalid_arg "reference: nothing waiting in sub-coalition"
  | [ u ] -> u
  | first :: rest ->
      let phi2 =
        match st.concept with
        | Shapley_value -> phi2_member_cached st ~mask ~time
        | Banzhaf_value ->
            let phi =
              phi2_cached st ~mask ~time ~v2_top:(v2_sim st ~mask ~time) ()
            in
            Array.get phi
      in
      let score u =
        let psi2 =
          Coalition_sim.utility_scaled sim ~org:u ~at:time
          + (2 * Instant.get (Coalition_sim.pending sim) ~time ~org:u)
        in
        phi2 u -. float_of_int psi2
      in
      List.fold_left
        (fun best u -> if score u > score best then u else best)
        first rest

(* --- the global event heap ---------------------------------------------- *)

(* Invariant: every sim with a pending event at time t has a live heap entry
   with key <= t.  Keys may undershoot (a release pushed while an earlier
   completion was pending keeps both entries); stale entries are re-keyed or
   dropped when popped.  [heap_key] tracks the smallest live key per mask so
   releases can skip pushing when already covered. *)
(* Process-wide heap-op counters, distinct from the per-run
   [Kernel.Stats.heap_pops]: these aggregate across runs and domains and
   surface through [Obs.Metrics] when `--metrics` is on. *)
let m_heap_pushes = Obs.Metrics.counter "ref.heap_pushes"
let m_heap_pops = Obs.Metrics.counter "ref.heap_pops"

let heap_push st ~time mask =
  if time < st.heap_key.(mask) then begin
    Obs.Metrics.incr m_heap_pushes;
    Heap.add st.heap ~prio:time mask;
    st.heap_key.(mask) <- time
  end

let note_popped st ~key mask =
  if st.heap_key.(mask) = key then st.heap_key.(mask) <- max_int

let reschedule st mask =
  match st.sims.(mask) with
  | None -> ()
  | Some sim -> (
      match Coalition_sim.next_event sim with
      | Some t -> heap_push st ~time:t mask
      | None -> ())

(* Pop every entry due at [tau] and collect the masks that genuinely have an
   event there into [active_buf] (deduplicated via the [gathered] stamps);
   stale entries are dropped or re-keyed.  Returns the number gathered. *)
let gather st ~tau =
  let count = ref 0 in
  let rec go () =
    match Heap.pop_le st.heap tau with
    | None -> ()
    | Some (key, mask) ->
        st.own_stats.Kernel.Stats.heap_pops <-
          st.own_stats.Kernel.Stats.heap_pops + 1;
        Obs.Metrics.incr m_heap_pops;
        note_popped st ~key mask;
        (match st.sims.(mask) with
        | None -> ()
        | Some sim ->
            if st.gathered.(mask) <> tau then (
              match Coalition_sim.next_event sim with
              | None -> ()
              | Some t when t > tau -> heap_push st ~time:t mask
              | Some _ ->
                  st.gathered.(mask) <- tau;
                  st.active_buf.(!count) <- mask;
                  incr count));
        go ()
  in
  go ();
  !count

(* --- per-instant processing --------------------------------------------- *)

let process_instant st ~tau ~n_active =
  let active = st.active_buf in
  (* Stage 1: arrivals and completions. *)
  for i = 0 to n_active - 1 do
    match st.sims.(active.(i)) with
    | Some sim -> Coalition_sim.step_releases_and_completions sim ~time:tau
    | None -> ()
  done;
  let need_round = ref false in
  for i = 0 to n_active - 1 do
    match st.sims.(active.(i)) with
    | Some sim ->
        if Coalition_sim.free_count sim > 0 && Coalition_sim.has_waiting sim
        then need_round := true
    | None -> ()
  done;
  if !need_round then
    (* Stage 2: scheduling rounds, size-ascending (Fig. 1's [for s <- 1 to
       ||C||]): a round reads the values of strictly smaller coalitions. *)
    for s = 1 to st.k - 1 do
      let stage = st.stage_buf in
      let m = ref 0 in
      for i = 0 to n_active - 1 do
        let mask = active.(i) in
        if st.size_tbl.(mask) = s then begin
          stage.(!m) <- mask;
          incr m
        end
      done;
      if !m > 0 then begin
        let run_stage () =
          for i = 0 to !m - 1 do
            let mask = stage.(i) in
            match st.sims.(mask) with
            | Some sim ->
                Coalition_sim.schedule_round sim ~time:tau
                  ~select:(fun sim ~time -> select_in_sim st ~mask sim ~time)
            | None -> ()
          done
        in
        if Obs.Trace.enabled () then
          Obs.Trace.span ~cat:"ref"
            ("ref.stage.s" ^ string_of_int s)
            run_stage
        else run_stage ()
      end
    done;
  (* Stage 3: re-key the processed sims. *)
  for i = 0 to n_active - 1 do
    reschedule st active.(i)
  done

(* Advance every simulated sub-coalition through all events at instants
   <= [time], in global event order.  The heap minimum is a lower bound on
   the true next instant: a gather that comes up empty has corrected the
   stale keys, so the loop makes progress either way. *)
let advance_all st ~time =
  let rec loop () =
    match Heap.min_prio st.heap with
    | Some t0 when t0 <= time ->
        let n_active = gather st ~tau:t0 in
        if n_active > 0 then process_instant st ~tau:t0 ~n_active;
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let grand_v2 (view : Policy.view) ~time =
  Array.fold_left
    (fun acc tracker -> acc + Utility.Tracker.value_scaled tracker ~at:time)
    0 view.Policy.trackers

(* The top of the recursion: in static mode the grand coalition, in
   federated mode the live consortium k(t) — suspended organizations drop
   out of the player set, so both the characteristic values and the weight
   tables re-derive from the active org count.  Its value comes from the
   real cluster's trackers (Fig. 1 uses the actual schedule for the
   deciding coalition), restricted to the active members. *)
let top_v2 st (view : Policy.view) ~time =
  if st.consortium = st.grand then grand_v2 view ~time
  else
    Coalition.fold
      (fun u acc ->
        acc + Utility.Tracker.value_scaled view.Policy.trackers.(u) ~at:time)
      st.consortium 0

let top_phi2 st ~view ~time =
  phi2_cached st ~slot:st.grand ~mask:st.consortium ~time
    ~v2_top:(top_v2 st view ~time)
    ()

let contributions_scaled st ~view ~time =
  advance_all st ~time;
  top_phi2 st ~view ~time

let coalition_value_scaled st ~mask ~time =
  advance_all st ~time;
  v2_sim st ~mask ~time

let sub_contributions_scaled st ~mask ~time =
  advance_all st ~time;
  let phi = Array.make st.k 0. in
  phi2_of st ~phi ~mask ~time ~v2_top:(v2_sim st ~mask ~time);
  phi

let member_contribution_scaled st ~mask ~org ~time =
  advance_all st ~time;
  phi2_member st ~mask ~time org

let make_with_internals ?(name = "ref") ?concept ?max_restarts ?value_cache
    () instance ~rng:_ =
  let st = create_internals ?concept ?max_restarts ?value_cache instance in
  let policy =
    Policy.make ~name
      ~on_release:(fun _view ~time:_ job ->
        let org = job.Job.org in
        Array.iter
          (fun mask ->
            if Coalition.mem mask org then
              match st.sims.(mask) with
              | Some sim ->
                  Coalition_sim.add_release sim job;
                  heap_push st
                    ~time:
                      (Stdlib.max job.Job.release (Coalition_sim.now sim))
                    mask
              | None -> ())
          st.all_masks)
      ~on_fault:(fun _view ~time event ->
        (* Mirror the capacity change into every what-if schedule whose
           coalition includes the machine's owner; others are unaffected
           (they never had the machine).  Under endowment churn the owner
           is time-varying and differs per sim, so the static home map
           cannot route: broadcast, and let each sim's own ownership state
           decide whether the machine is visible. *)
        let owner = st.m_owner.(Faults.Event.machine event) in
        Array.iter
          (fun mask ->
            if st.federated || Coalition.mem mask owner then
              match st.sims.(mask) with
              | Some sim ->
                  Coalition_sim.add_fault sim { Faults.Event.time; event };
                  heap_push st ~time:(Stdlib.max time (Coalition_sim.now sim))
                    mask
              | None -> ())
          st.all_masks)
      ~on_endow:(fun _view ~time event ->
        if st.federated then begin
          (match event with
          | Federation.Event.Join { org; _ } ->
              st.consortium <- Coalition.add st.consortium org
          | Federation.Event.Leave { org } ->
              st.consortium <- Coalition.remove st.consortium org
          | Federation.Event.Lend _ | Federation.Event.Reclaim _ -> ());
          (* The event can retire machines and kill their jobs at this very
             instant, and it may change the consortium mask the top-level φ
             walks over; drop the per-instant memo stamps so every value is
             re-derived after the sims replay the event.  Recomputation is
             bit-exact (the epoch-keyed polynomial cache still short-cuts
             unchanged sims), so this only costs time, and endowments are
             rare next to completions. *)
          Array.fill st.v2_stamp 0 (Array.length st.v2_stamp) min_int;
          Array.fill st.phi2_stamp 0 (Array.length st.phi2_stamp) min_int;
          Array.iter
            (fun mask ->
              match st.sims.(mask) with
              | Some sim ->
                  Coalition_sim.add_endow sim { Federation.Event.time; event };
                  heap_push st ~time:(Stdlib.max time (Coalition_sim.now sim))
                    mask
              | None -> ())
            st.all_masks
        end)
      ~on_start:(fun _view ~time p ->
        Instant.bump st.pending ~time ~org:p.Schedule.job.Job.org)
      ~stats:(fun () ->
        Kernel.Stats.total
          (Array.fold_left
             (fun acc mask ->
               match st.sims.(mask) with
               | Some sim -> Coalition_sim.stats sim :: acc
               | None -> acc)
             [ st.own_stats ] st.all_masks))
      ~select:(fun view ~time ->
        advance_all st ~time;
        let phi2 = top_phi2 st ~view ~time in
        let score u =
          let psi2 =
            Policy.utility_plus_pending_scaled view ~pending:st.pending
              ~org:u ~time
          in
          phi2.(u) -. float_of_int psi2
        in
        match Cluster.waiting_orgs view.Policy.cluster with
        | [] -> invalid_arg "reference: nothing waiting"
        | first :: rest ->
            List.fold_left
              (fun best u -> if score u > score best then u else best)
              first rest)
      ()
  in
  (policy, st)

let make ?name ?concept ?max_restarts ?value_cache () instance ~rng =
  fst
    (make_with_internals ?name ?concept ?max_restarts ?value_cache () instance
       ~rng)

let reference instance ~rng = make () instance ~rng

let banzhaf instance ~rng =
  fst
    (make_with_internals ~name:"ref-banzhaf" ~concept:Banzhaf_value ()
       instance ~rng)
