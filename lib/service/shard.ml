(* One org-group's scheduling domain: its engine, WAL segment, dedupe
   table, overload detector, and held-ack buffer — everything the
   old single-threaded server owned, minus the sockets.  The router
   (Server) feeds it messages through a mailbox and receives
   completions; in single-shard mode the same code runs inline on the
   router thread.  See DESIGN.md §15. *)

(* Per-service counters aggregated across shards; no-ops unless the
   process enables Obs.Metrics.  [service.shed] lives in Server — the
   router sheds before a feed ever reaches a shard. *)
(* Live consortium membership (federated daemons): [fed.orgs_active] is
   the global k(t) summed over every group's contribution — groups
   publish from their own worker domains, so contributions live in a
   mutex-protected table and each publish re-sums it. *)
let g_fed_orgs_active = Obs.Metrics.gauge "fed.orgs_active"
let fed_active_lock = Mutex.create ()
let fed_active : (int, int) Hashtbl.t = Hashtbl.create 8

let m_dup_acks = Obs.Metrics.counter "service.dup_acks"
let m_wal_sync_failures = Obs.Metrics.counter "service.wal_sync_failures"
let m_fsync = Obs.Metrics.counter "service.fsync_total"
let m_acks = Obs.Metrics.counter "service.acks_total"
let g_queue_depth = Obs.Metrics.gauge "service.queue_depth"
let g_ack_ewma = Obs.Metrics.gauge "service.ack_ewma_ms"

(* Durability latency instruments (DESIGN.md §16): how long one WAL
   fsync takes, and how long an accepted feed's ack was held before the
   commit covering it released it. *)
let h_fsync_us = Obs.Metrics.histogram "service.fsync_us"
let h_commit_hold_us = Obs.Metrics.histogram "service.commit_hold_us"

(* --- Mailbox -------------------------------------------------------------
   A mutex-protected queue with a pipe for readiness: the producer writes
   one wake byte on the empty->non-empty transition, the consumer selects
   on the read end (a timed wait — OCaml's Condition has no timeout, and
   the idle worker wakes once a second for overload recovery).  Single
   producer (the router), single consumer (one worker domain), but safe
   for any number. *)
module Mailbox = struct
  type 'a t = {
    q : 'a Queue.t;
    m : Mutex.t;
    rd : Unix.file_descr;
    wr : Unix.file_descr;
  }

  let create () =
    let rd, wr = Unix.pipe () in
    Unix.set_nonblock rd;
    Unix.set_nonblock wr;
    { q = Queue.create (); m = Mutex.create (); rd; wr }

  let push t x =
    let was_empty =
      Mutex.protect t.m (fun () ->
          let e = Queue.is_empty t.q in
          Queue.push x t.q;
          e)
    in
    if was_empty then
      try ignore (Unix.write t.wr (Bytes.make 1 'x') 0 1)
      with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        (* pipe full = consumer already has pending wakeups *)
        ()

  let drain t =
    let buf = Bytes.create 64 in
    (try
       while Unix.read t.rd buf 0 64 > 0 do
         ()
       done
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ());
    Mutex.protect t.m (fun () ->
        let xs = List.of_seq (Queue.to_seq t.q) in
        Queue.clear t.q;
        xs)

  let is_empty t = Mutex.protect t.m (fun () -> Queue.is_empty t.q)
  let wait_fd t = t.rd

  let close t =
    (try Unix.close t.rd with Unix.Unix_error _ -> ());
    try Unix.close t.wr with Unix.Unix_error _ -> ()
end

(* --- Messages ------------------------------------------------------------ *)

type query = Q_status | Q_psi | Q_drain of { detail : bool }

type 'tok msg =
  | Feed of { tok : 'tok; req : Protocol.request; t_enq : float }
  | Query of { tok : 'tok; q : query }
  | Tick  (* wake only: stop checks *)

(* Per-shard slices of the aggregated control responses.  Arrays are
   local to the group's org block; the router scatters them into global
   vectors by the partition's offsets. *)
type status_part = {
  st_now : int;
  st_frontier : int;
  st_accepted : int;
  st_rejected : int;
  st_waiting : int array;
  st_stats : Kernel.Stats.t;
  st_ewma : float;
  st_fsyncs : int;
}

type psi_part = { ps_now : int; ps_psi : int array; ps_parts : int array }

type drain_part = {
  dr_now : int;
  dr_psi : int array;
  dr_parts : int array;
  dr_stats : Kernel.Stats.t;
  dr_schedule : (int * int * int * int * int) list option;
      (* rows already translated to global org/machine ids *)
}

type part =
  | P_status of status_part
  | P_psi of psi_part
  | P_drain of drain_part

type 'tok completion =
  | Ack of { tok : 'tok; resp : Protocol.response }
  | Part of { tok : 'tok; group : int; part : part }

(* --- Shard state --------------------------------------------------------- *)

type 'tok t = {
  group : int;
  part : Partition.t;
  sub : Config.t;  (* this group's induced config (drives the engine) *)
  online : Online.t;
  writer : Wal.writer option;
  mutable seq : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable draining : bool;
  dedupe : (int, int * Protocol.response) Hashtbl.t;
  detector : Overload.t;
  (* acks awaiting the fsync that covers their records *)
  mutable held : ('tok * Protocol.response * float) list;  (* newest first *)
  mutable held_n : int;
  mutable fsyncs : int;
  (* published for the router's routing/shedding decisions *)
  pub_overloaded : bool Atomic.t;
  pub_retry_ms : int Atomic.t;
  depth : int Atomic.t;  (* mailbox+backlog feeds: router ++, worker -- *)
  (* fairness SLO instruments (DESIGN.md §16): per-org ψ/p gauges under
     global org ids and the group's max |ψ−p| drift — refreshed by the
     pump, throttled *)
  slo_psi : Obs.Metrics.gauge array;
  slo_p : Obs.Metrics.gauge array;
  slo_drift : Obs.Metrics.gauge;
  (* consortium membership gauge (federated daemons): machines homed in
     this group currently lent to another owner *)
  fed_lent : Obs.Metrics.gauge;
  mutable slo_last : float;
}

let group t = t.group
let sub_config t = t.sub
let fsyncs t = t.fsyncs
let accepted t = t.accepted
let depth t = Atomic.get t.depth
let depth_incr t = Atomic.incr t.depth
let published_overloaded t = Atomic.get t.pub_overloaded
let published_retry_ms t = Atomic.get t.pub_retry_ms

(* --- Records meet the engine ------------------------------------------------
   Records carry global org/machine ids; the group engine speaks local
   ones.  The router guarantees every org and machine a feed names lives
   in this group (cross-group endows are rejected at admission), so the
   translation is total. *)

let local_fault part = function
  | Faults.Event.Fail m -> Faults.Event.Fail (Partition.local_machine part m)
  | Faults.Event.Recover m ->
      Faults.Event.Recover (Partition.local_machine part m)

let local_endow part event =
  let lorg o = Partition.local_org part o in
  let lmachs ms = List.map (Partition.local_machine part) ms in
  match event with
  | Federation.Event.Join { org; machines } ->
      Federation.Event.Join { org = lorg org; machines = lmachs machines }
  | Federation.Event.Leave { org } -> Federation.Event.Leave { org = lorg org }
  | Federation.Event.Lend { org; to_org; machines } ->
      Federation.Event.Lend
        { org = lorg org; to_org = lorg to_org; machines = lmachs machines }
  | Federation.Event.Reclaim { org; machines } ->
      Federation.Event.Reclaim { org = lorg org; machines = lmachs machines }

(* Validation only: would [apply] accept the record?  The live feed asks
   before logging, so the WAL never holds a record replay would reject. *)
let check ~part online = function
  | Wal.Submit { org; size; release; _ } ->
      Online.check_submit online ~org:(Partition.local_org part org) ~size
        ~release
  | Wal.Fault { time; event; _ } ->
      Online.check_fault online ~time (local_fault part event)
  | Wal.Endow { time; event; _ } ->
      Online.check_endow online ~time (local_endow part event)
  | Wal.Mode _ -> Ok ()

(* A stamped ack is cached for at-most-once retransmission. *)
let acked dedupe ~cid ~cseq resp =
  (match dedupe with
  | Some tbl when cid <> 0 && cseq > 0 -> Hashtbl.replace tbl cid (cseq, resp)
  | Some _ | None -> ());
  Ok (Some resp)

(* Feed one record to the engine and build the ack it earns, cached in
   [dedupe] when given.  The live feed and boot recovery both come here,
   so a dedupe entry rebuilt from the log equals the live ack by
   construction.  [Mode] records are legacy estimator switches, not
   engine input: no ack. *)
let apply ?dedupe ~part online = function
  | Wal.Submit { seq; org; user; release; size; cid; cseq } -> (
      match
        Online.submit online ~org:(Partition.local_org part org) ~user ~size
          ~release ()
      with
      | Ok index ->
          acked dedupe ~cid ~cseq
            (Protocol.Submit_ok { seq; org; index; now = Online.now online })
      | Error e -> Error e)
  | Wal.Fault { seq; time; event; cid; cseq } -> (
      match Online.fault online ~time (local_fault part event) with
      | Ok () ->
          acked dedupe ~cid ~cseq
            (Protocol.Fault_ok { seq; now = Online.now online })
      | Error e -> Error e)
  | Wal.Endow { seq; time; event; cid; cseq } -> (
      match Online.endow online ~time (local_endow part event) with
      | Ok () ->
          acked dedupe ~cid ~cseq
            (Protocol.Endow_ok { seq; now = Online.now online })
      | Error e -> Error e)
  | Wal.Mode _ -> Ok None

let rec replay ?dedupe ~part online = function
  | [] -> Ok ()
  | r :: rest -> (
      match apply ?dedupe ~part online r with
      | Ok _ -> replay ?dedupe ~part online rest
      | Error e ->
          Error
            (Printf.sprintf "replay: record %d rejected: %s" (Wal.seq_of r)
               (Online.error_to_string e)))

(* Logs written by daemons that still switched estimators under overload
   may hold [Mode] records.  Replaying them under the base algorithm is
   the same boot as before only if the last switch went back to it;
   anything else would silently re-decide history under another
   estimator, so boot refuses. *)
let check_modes ~group ~algorithm records =
  let last_mode =
    List.fold_left
      (fun acc r ->
        match r with
        | Wal.Mode { seq; estimator } -> Some (seq, estimator)
        | _ -> acc)
      None records
  in
  match last_mode with
  | Some (seq, estimator) when estimator <> algorithm ->
      Error
        (Printf.sprintf
           "segment %d: Mode record %d leaves the estimator at %S, not the \
            configured %S; refusing to replay it under another estimator"
           group seq estimator algorithm)
  | Some _ | None -> Ok ()

(* The Thm 5.6 sample budget of the live estimator spec: how many joining
   orders one contribution evaluation draws (0 for exact REF).  Published
   as a gauge so [rand.orders_sampled] can be read against it — the
   ε-budget consumption SLO. *)
let estimator_budget ~spec ~players =
  match Algorithms.Estimator.of_string spec with
  | Ok est ->
      float_of_int
        (Option.value ~default:0
           (Algorithms.Estimator.sample_count est ~players))
  | Error _ -> 0.

(* --- Creation / recovery ------------------------------------------------- *)

let create ~partition ~group ~state_dir ~overload () =
  let ( let* ) = Result.bind in
  let base = Partition.config partition in
  let sub = Partition.sub_config partition group in
  let site_prefix =
    if Partition.groups partition = 1 then ""
    else Wal.segment_site_prefix ~group
  in
  let* records, last_seq, wal_end =
    match state_dir with
    | None -> Ok ([], 0, 0)
    | Some dir ->
        let* r = Result.map_error Wal.boot_error_to_string (Wal.recover ~dir) in
        let* () =
          match r.Wal.r_config with
          | Some c when not (Config.equal c base) ->
              Error
                (Printf.sprintf
                   "segment %d: stored config disagrees with the service \
                    config"
                   group)
          | Some _ | None -> Ok ()
        in
        Ok (r.Wal.r_records, r.Wal.r_last_seq, r.Wal.r_wal_end)
  in
  let* () = check_modes ~group ~algorithm:sub.Config.algorithm records in
  let online = Online.create sub in
  let dedupe = Hashtbl.create 64 in
  let* () = replay ~dedupe ~part:partition online records in
  Obs.Log.info ~component:"wal"
    ~fields:
      [
        ("group", Obs.Json.Int group);
        ("records", Obs.Json.Int (List.length records));
        ("last_seq", Obs.Json.Int last_seq);
        ("estimator", Obs.Json.String sub.Config.algorithm);
      ]
    "segment recovered";
  (* Append to the recovered log where recovery stopped reading; the
     first commit cuts any torn tail beyond that point. *)
  let* writer =
    match state_dir with
    | None -> Ok None
    | Some dir ->
        Result.map Option.some
          (Wal.reopen ~site_prefix ~dir ~config:base ~at:wal_end ())
  in
  let org_lo, org_hi = Partition.org_range partition group in
  let slo_psi =
    Array.init (org_hi - org_lo) (fun i ->
        Obs.Metrics.gauge (Printf.sprintf "fair.psi_org%d" (org_lo + i)))
  in
  let slo_p =
    Array.init (org_hi - org_lo) (fun i ->
        Obs.Metrics.gauge (Printf.sprintf "fair.p_org%d" (org_lo + i)))
  in
  let slo_drift =
    Obs.Metrics.gauge (Printf.sprintf "fair.drift_max_g%d" group)
  in
  let fed_lent =
    Obs.Metrics.gauge (Printf.sprintf "fed.machines_lent_g%d" group)
  in
  (* the estimator is fixed, so its Thm 5.6 sample budget is set once *)
  Obs.Metrics.set
    (Obs.Metrics.gauge (Printf.sprintf "fair.estimator_budget_g%d" group))
    (estimator_budget ~spec:sub.Config.algorithm ~players:(org_hi - org_lo));
  if base.Config.federated then
    Mutex.protect fed_active_lock (fun () ->
        Hashtbl.replace fed_active group
          (Federation.Event.Ownership.orgs_active (Online.ownership online)));
  Ok
    {
      group;
      part = partition;
      sub;
      online;
      writer;
      seq = last_seq;
      accepted = List.length (List.filter Wal.is_feed records);
      rejected = 0;
      draining = false;
      dedupe;
      detector =
        Overload.create ~config:overload
          ~now_ms:(fun () -> Obs.Clock.now_s () *. 1000.0)
          ();
      held = [];
      held_n = 0;
      fsyncs = 0;
      pub_overloaded = Atomic.make false;
      pub_retry_ms = Atomic.make 25;
      depth = Atomic.make 0;
      slo_psi;
      slo_p;
      slo_drift;
      fed_lent;
      slo_last = 0.;
    }

let close t =
  Mutex.protect fed_active_lock (fun () -> Hashtbl.remove fed_active t.group);
  Option.iter Wal.close t.writer

(* --- Commit ---------------------------------------------------------------
   Acks of accepted feeds are held until the end of the pump, when one
   fsync covers every append the pump made (natural batching: whatever
   arrived during the previous fsync lands in the next one).  A sync
   failure answers the held batch with wal-error and keeps the records
   buffered — the next successful commit repairs and lands them. *)

let hold t tok resp t_enq =
  t.held <- (tok, resp, t_enq) :: t.held;
  t.held_n <- t.held_n + 1

let commit_due t =
  t.held_n > 0
  || match t.writer with Some w -> Wal.pending w | None -> false

(* Returns the completions this commit releases (in request order). *)
let commit t ~now =
  if not (commit_due t) then []
  else begin
    let sync_result =
      match t.writer with
      | Some w when Wal.pending w ->
          let r =
            Obs.Trace.span ~cat:"service"
              ~args:
                [
                  ("group", Obs.Json.Int t.group);
                  ("acks", Obs.Json.Int t.held_n);
                ]
              "wal.commit"
              (fun () ->
                let t0 = Obs.Clock.now_ns () in
                let r = Wal.sync w in
                Obs.Metrics.observe h_fsync_us (Obs.Clock.elapsed t0 *. 1e6);
                r)
          in
          (match r with
          | Error _ -> Obs.Metrics.incr m_wal_sync_failures
          | Ok () ->
              t.fsyncs <- t.fsyncs + 1;
              Obs.Metrics.incr m_fsync);
          r
      | Some _ | None -> Ok ()
    in
    let held = List.rev t.held in
    t.held <- [];
    t.held_n <- 0;
    List.map
      (fun (tok, resp, t_enq) ->
        Overload.observe_ack t.detector ~latency_ms:((now -. t_enq) *. 1000.);
        Obs.Metrics.incr m_acks;
        Obs.Metrics.observe h_commit_hold_us (Float.max 0. (now -. t_enq) *. 1e6);
        let resp =
          match sync_result with
          | Ok () -> resp
          | Error msg ->
              Protocol.Error
                { code = Protocol.Wal_error; msg; retry_after_ms = None }
        in
        Ack { tok; resp })
      held
  end

(* --- Feed processing ----------------------------------------------------- *)

let code_of_online_error = function
  | Online.Drained -> Protocol.Draining
  | _ -> Protocol.Bad_request

(* At-most-once retransmission.  A feed carrying the (cid, cseq) of an
   already-applied one is answered from the cache — held like a fresh
   ack, so a cached OK is still gated on the commit that covers the
   original record (a sync failure keeps the record's bytes pending; the
   cached ack must not outrun them to the client). *)
let dedupe_hit t ~cid ~cseq =
  if cid = 0 then None
  else
    match Hashtbl.find_opt t.dedupe cid with
    | Some (last, resp) when cseq = last ->
        Obs.Metrics.incr m_dup_acks;
        Some (`Cached resp)
    | Some (last, _) when cseq < last && cseq > 0 -> Some (`Stale last)
    | Some _ | None -> None

(* Log an accepted record: WAL buffer, sequence. *)
let log t record =
  t.seq <- Wal.seq_of record;
  Option.iter (fun w -> Wal.append w record) t.writer

(* dedupe -> drain gate -> check -> log -> apply -> hold.  Errors are
   answered at once: no record, nothing to wait for. *)
let feed_inner t ~post ~now tok (req : Protocol.request) ~t_enq =
  let answer code msg =
    Overload.observe_ack t.detector ~latency_ms:((now -. t_enq) *. 1000.);
    Obs.Metrics.incr m_acks;
    post
      (Ack { tok; resp = Protocol.Error { code; msg; retry_after_ms = None } })
  in
  let reject code msg =
    t.rejected <- t.rejected + 1;
    answer code msg
  in
  match
    (Protocol.feed_stamp req, Wal.record_of_request ~seq:(t.seq + 1) req)
  with
  | None, _ | _, None ->
      (* control requests travel as [Query], never as [Feed] *)
      assert false
  | Some (cid, cseq, _), Some record -> (
      match dedupe_hit t ~cid ~cseq with
      | Some (`Cached resp) -> hold t tok resp t_enq
      | Some (`Stale last) ->
          reject Protocol.Bad_request
            (Printf.sprintf "stale cseq %d (last applied %d)" cseq last)
      | None -> (
          if t.draining then reject Protocol.Draining "daemon is draining"
          else
            match check ~part:t.part t.online record with
            | Error e ->
                reject (code_of_online_error e) (Online.error_to_string e)
            | Ok () -> (
                log t record;
                t.accepted <- t.accepted + 1;
                match apply ~dedupe:t.dedupe ~part:t.part t.online record with
                | Ok (Some resp) -> hold t tok resp t_enq
                | Ok None -> assert false (* requests never build [Mode] *)
                | Error e ->
                    (* unreachable after check; fail loudly *)
                    answer Protocol.Bad_request (Online.error_to_string e))))

(* The shard-side leg of a request's trace: the feed runs inside a span
   on the worker domain carrying the client-issued trace id, so the
   merged dump correlates the router's admission instant with the engine
   work it caused, across the domain boundary. *)
let feed t ~post ~now tok (req : Protocol.request) ~t_enq =
  if not (Obs.Trace.enabled ()) then feed_inner t ~post ~now tok req ~t_enq
  else begin
    let trace_id =
      match Protocol.feed_stamp req with Some (_, _, tr) -> tr | None -> 0
    in
    let args =
      ("group", Obs.Json.Int t.group)
      :: (if trace_id = 0 then [] else [ ("trace", Obs.Json.Int trace_id) ])
    in
    Obs.Trace.span ~cat:"service" ~args "shard.feed" (fun () ->
        feed_inner t ~post ~now tok req ~t_enq)
  end

(* --- Control queries ------------------------------------------------------ *)

let status_part t =
  {
    st_now = Online.now t.online;
    st_frontier = Online.frontier t.online;
    st_accepted = t.accepted;
    st_rejected = t.rejected;
    st_waiting = Online.queue_depths t.online;
    st_stats = Kernel.Stats.copy (Online.stats t.online);
    st_ewma = Overload.ack_ewma_ms t.detector;
    st_fsyncs = t.fsyncs;
  }

let schedule_rows t =
  Core.Schedule.placements (Online.schedule t.online)
  |> List.map (fun (p : Core.Schedule.placement) ->
         ( Partition.global_org t.part ~group:t.group
             p.Core.Schedule.job.Core.Job.org,
           p.Core.Schedule.job.Core.Job.index,
           p.Core.Schedule.start,
           Partition.global_machine t.part ~group:t.group
             p.Core.Schedule.machine,
           p.Core.Schedule.duration ))

let drain_part t ~detail =
  {
    dr_now = Online.now t.online;
    dr_psi = Online.psi_scaled t.online;
    dr_parts = Online.parts t.online;
    dr_stats = Kernel.Stats.copy (Online.stats t.online);
    dr_schedule = (if detail then Some (schedule_rows t) else None);
  }

let query t ~post ~now tok q =
  let part p = post (Part { tok; group = t.group; part = p }) in
  match q with
  | Q_status -> part (P_status (status_part t))
  | Q_psi ->
      part
        (P_psi
           {
             ps_now = Online.now t.online;
             ps_psi = Online.psi_scaled t.online;
             ps_parts = Online.parts t.online;
           })
  | Q_drain { detail } ->
      if not t.draining then begin
        t.draining <- true;
        Online.drain t.online;
        List.iter post (commit t ~now)
      end;
      part (P_drain (drain_part t ~detail))

(* --- Worker: one domain (or the router thread) executing >= 1 shards ----- *)

type 'tok worker = {
  w_id : int;
  w_shards : (int * 'tok t) list;  (* group id -> shard, ascending *)
  w_mb : (int * 'tok msg) Mailbox.t;  (* messages tagged with group *)
  w_backlog : (int * 'tok msg) Queue.t;
  w_drain_batch : int;
  w_cap : int;  (* per-group admission bound, for occupancy observation *)
  w_stop : bool Atomic.t;
  w_post : 'tok completion -> unit;
  mutable w_domain : unit Domain.t option;
}

let make_worker ~id ~shards ~drain_batch ~cap ~post =
  {
    w_id = id;
    w_shards = shards;
    w_mb = Mailbox.create ();
    w_backlog = Queue.create ();
    w_drain_batch = drain_batch;
    w_cap = cap;
    w_stop = Atomic.make false;
    w_post = post;
    w_domain = None;
  }

let worker_shard w g = List.assoc g w.w_shards
let post_msg w ~group msg = Mailbox.push w.w_mb (group, msg)

(* Fairness SLO publication (DESIGN.md §16): copy the engine's live
   ψ/p vectors into the per-org gauges and refresh the group's max
   drift.  Scaled ints halve to utilities (Online keeps 2·value to stay
   integral); throttled so a busy pump doesn't pay the gauge stores on
   every round. *)
let publish_slo t ~now =
  if Obs.Metrics.enabled () && now -. t.slo_last >= 0.25 then begin
    t.slo_last <- now;
    let psi = Online.psi_scaled t.online in
    let parts = Online.parts t.online in
    let drift = ref 0. in
    Array.iteri
      (fun i s ->
        let p = parts.(i) in
        Obs.Metrics.set t.slo_psi.(i) (float_of_int s /. 2.);
        Obs.Metrics.set t.slo_p.(i) (float_of_int p /. 2.);
        drift := Float.max !drift (float_of_int (abs (s - p)) /. 2.))
      psi;
    Obs.Metrics.set t.slo_drift !drift;
    if t.sub.Config.federated then begin
      let ownership = Online.ownership t.online in
      let lent = ref 0 in
      for u = 0 to Federation.Event.Ownership.orgs ownership - 1 do
        lent := !lent + Federation.Event.Ownership.lent_out ownership u
      done;
      Obs.Metrics.set t.fed_lent (float_of_int !lent);
      let active = Federation.Event.Ownership.orgs_active ownership in
      Mutex.protect fed_active_lock (fun () ->
          Hashtbl.replace fed_active t.group active;
          let total = Hashtbl.fold (fun _ v acc -> acc + v) fed_active 0 in
          Obs.Metrics.set g_fed_orgs_active (float_of_int total))
    end
  end

(* One processing round: pull queued messages, feed at most
   [drain_batch] engine entries (control queries don't consume the
   budget, matching the pre-sharding server), commit the round's
   appends under one fsync, re-evaluate overload.  Runs on the worker
   domain — or inline on the router thread when the daemon is
   single-shard. *)
let pump w =
  List.iter (fun m -> Queue.push m w.w_backlog) (Mailbox.drain w.w_mb);
  let now = Unix.gettimeofday () in
  let feeds = ref 0 in
  while !feeds < w.w_drain_batch && not (Queue.is_empty w.w_backlog) do
    let g, msg = Queue.pop w.w_backlog in
    match msg with
    | Feed { tok; req; t_enq } ->
        let sh = worker_shard w g in
        Atomic.decr sh.depth;
        feed sh ~post:w.w_post ~now tok req ~t_enq;
        incr feeds
    | Query { tok; q } -> query (worker_shard w g) ~post:w.w_post ~now tok q
    | Tick -> ()
  done;
  List.iter
    (fun (_, sh) ->
      List.iter w.w_post (commit sh ~now);
      publish_slo sh ~now;
      let depth = Atomic.get sh.depth in
      Overload.observe_queue sh.detector ~depth ~cap:w.w_cap;
      Atomic.set sh.pub_overloaded
        (Overload.level sh.detector = Overload.Overloaded);
      Atomic.set sh.pub_retry_ms (Overload.retry_after_ms sh.detector);
      Obs.Metrics.set g_queue_depth (float_of_int depth);
      Obs.Metrics.set g_ack_ewma (Overload.ack_ewma_ms sh.detector))
    w.w_shards

(* Seconds the worker may sleep before something needs it: 0 when work
   is queued, else a 1 s idle tick (the overload detector recovers by
   observing calm). *)
let wait_timeout w = if Queue.is_empty w.w_backlog then 1.0 else 0.

let worker_loop w =
  (* own Chrome trace lane per worker domain; lane 1 is the router *)
  Obs.Trace.set_pid ~name:(Printf.sprintf "shard-worker-%d" w.w_id) (2 + w.w_id);
  try
    while not (Atomic.get w.w_stop) do
      let timeout = wait_timeout w in
      (if timeout > 0. then
         match Unix.select [ Mailbox.wait_fd w.w_mb ] [] [] timeout with
         | _ -> ()
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      pump w
    done
  with e ->
    (* a dead shard would hang its org-groups' clients silently; take the
       daemon down loudly instead *)
    Obs.Log.error ~component:"shard"
      ~fields:[ ("worker", Obs.Json.Int w.w_id) ]
      "shard worker %d died: %s" w.w_id (Printexc.to_string e);
    Unix._exit 2

let start_worker w = w.w_domain <- Some (Domain.spawn (fun () -> worker_loop w))

let stop_worker w =
  Atomic.set w.w_stop true;
  Mailbox.push w.w_mb (0, Tick);
  (match w.w_domain with Some d -> Domain.join d | None -> ());
  w.w_domain <- None;
  Mailbox.close w.w_mb;
  List.iter (fun (_, sh) -> close sh) w.w_shards
