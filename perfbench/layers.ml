(* The daemon's layers run in-process on the lines the daemon acked:
   [Service.Protocol] parses each submit line and encodes its ack,
   [Service.Online] admits each job, and [Service.Wal] appends every
   record and fsyncs in batches of the daemon's own acks per fsync, then
   snapshots the whole record list.  [Wal.recover] reads a copy of the
   daemon's state dir and the recovered records replay into fresh
   [Online.t]s.  Every call is timed on its own, from this file only. *)

open Measure

let time samples f =
  let t0 = now_ns () in
  let v = f () in
  Samples.add samples (us_of_ns (now_ns () - t0));
  v

let must what = function
  | Ok v -> v
  | Error msg -> failwith (what ^ ": " ^ msg)

let online_must what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Service.Online.error_to_string e)

type submit = { org : int; user : int; release : int; size : int; cid : int; cseq : int }

(* [lines]: the submit lines the daemon acked, in send order;
   [state_copy] a copy of the daemon's state dir; [acks_per_fsync] and
   [acks_per_s] measured on the daemon. *)
let run r ~config ~lines ~state_copy ~dir ~acks_per_fsync ~acks_per_s =
  let part = Service.Partition.make config in
  let groups = Service.Partition.groups part in
  let group_of s = Service.Partition.group_of_org part s.org in
  let n = Array.length lines in
  (* protocol: parse each line as the daemon did *)
  let parse = Samples.create () in
  let subs =
    Array.map
      (fun line ->
        match time parse (fun () -> Service.Protocol.request_of_line line) with
        | Ok (Service.Protocol.Submit { org; user; release; size; cid; cseq; _ }) ->
            { org; user; release; size; cid; cseq }
        | Ok _ -> failwith "a load line is not a submit"
        | Error msg -> failwith ("parse: " ^ msg))
      lines
  in
  (* online admission, one engine per org-group, then the ack's encoding *)
  let submit = Samples.create () and encode = Samples.create () in
  let feed online_of s =
    let online = online_of (group_of s) in
    let org = Service.Partition.local_org part s.org in
    online_must "check_submit"
      (Service.Online.check_submit online ~org ~size:s.size ~release:s.release);
    online_must "submit"
      (Service.Online.submit online ~org ~user:s.user ~size:s.size ~release:s.release ())
  in
  let sessions =
    Array.init groups (fun g ->
        Service.Online.create (Service.Partition.sub_config part g))
  in
  Array.iteri
    (fun i s ->
      let index = time submit (fun () -> feed (Array.get sessions) s) in
      let ack =
        Service.Protocol.Submit_ok
          { seq = i + 1; org = s.org; index; now = Service.Online.now sessions.(group_of s) }
      in
      ignore (time encode (fun () -> Service.Protocol.response_to_line ack)))
    subs;
  (* WAL: append every record, fsync every [batch] records of a group *)
  let batch = max 1 (int_of_float (Float.round acks_per_fsync)) in
  let append = Samples.create () and sync = Samples.create () in
  let wal_dir g = fresh_dir (Filename.concat dir (Printf.sprintf "wal-%d" g)) in
  let writers =
    Array.init groups (fun g ->
        must "wal create" (Service.Wal.create ~dir:(wal_dir g) ~config ()))
  in
  let records = Array.make groups [] and seqs = Array.make groups 0 in
  Array.iter
    (fun s ->
      let g = group_of s in
      seqs.(g) <- seqs.(g) + 1;
      let record =
        Service.Wal.Submit
          {
            seq = seqs.(g);
            org = s.org;
            user = s.user;
            release = s.release;
            size = s.size;
            cid = s.cid;
            cseq = s.cseq;
          }
      in
      records.(g) <- record :: records.(g);
      time append (fun () -> Service.Wal.append writers.(g) record);
      if seqs.(g) mod batch = 0 then
        must "wal sync" (time sync (fun () -> Service.Wal.sync writers.(g))))
    subs;
  Array.iter
    (fun w ->
      if Service.Wal.pending w then
        must "wal sync" (time sync (fun () -> Service.Wal.sync w));
      Service.Wal.close w)
    writers;
  (* a snapshot of every group's full record list *)
  let t0 = now_ns () in
  let snap_bytes =
    Array.to_list
      (Array.mapi
         (fun g recs ->
           let snapshot =
             { Service.Wal.config; last_seq = seqs.(g); records = List.rev recs }
           in
           dir_bytes
             (must "snapshot"
                (Service.Wal.write_snapshot
                   ~dir:(fresh_dir (Filename.concat dir (Printf.sprintf "snap-%d" g)))
                   snapshot)))
         records)
  in
  let snapshot_ms = since_s t0 *. 1e3 in
  (* recovery: read the daemon's state dir copy, then replay *)
  let t0 = now_ns () in
  let recovered =
    List.map
      (fun g ->
        match Service.Wal.recover ~dir:(Service.Wal.segment_dir ~dir:state_copy ~group:g) with
        | Ok rc -> rc.Service.Wal.r_records
        | Error e -> failwith ("recover: " ^ Service.Wal.boot_error_to_string e))
      (Service.Wal.segments ~dir:state_copy)
  in
  let recover_ms = since_s t0 *. 1e3 in
  let t0 = now_ns () in
  let fresh =
    Array.init groups (fun g ->
        Service.Online.create (Service.Partition.sub_config part g))
  in
  let replayed = ref 0 in
  List.iter
    (List.iter (function
      | Service.Wal.Submit { org; user; release; size; cid; cseq; _ } ->
          incr replayed;
          ignore (feed (Array.get fresh) { org; user; release; size; cid; cseq })
      | Service.Wal.Fault _ | Service.Wal.Endow _ | Service.Wal.Mode _ -> ()))
    recovered;
  let replay_ms = since_s t0 *. 1e3 in
  let psi online = Service.Partition.scatter_int part (fun g -> Service.Online.psi_scaled (online g)) in
  if !replayed <> n then
    Report.mismatch r "recovered %d records from the state dir, daemon acked %d" !replayed n
  else if psi (Array.get fresh) <> psi (Array.get sessions) then
    Report.mismatch r "replay of the recovered records disagrees with live admission";
  let submit_s = summarize submit and sync_s = summarize sync in
  Report.note "wal: %d appends, %d syncs of %d records" (Samples.count append)
    (Samples.count sync) batch;
  Report.metric r "service.protocol.parse_us" "us" (Samples.mean parse);
  Report.metric r "service.protocol.encode_us" "us" (Samples.mean encode);
  Report.metric r "service.online.submit_us_p50" "us" submit_s.p50;
  Report.metric r "service.online.submit_us_p99" "us" submit_s.p99;
  Report.metric r "service.wal.append_us" "us" (Samples.mean append);
  Report.metric r "service.wal.sync_us_p50" "us" sync_s.p50;
  Report.metric r "service.wal.sync_us_p99" "us" sync_s.p99;
  Report.metric r "service.wal.snapshot_ms" "ms" snapshot_ms;
  Report.metric r "service.wal.snapshot_mb" "MB"
    (float_of_int (List.fold_left ( + ) 0 snap_bytes) /. 1e6);
  Report.metric r "service.wal.recover_ms" "ms" recover_ms;
  Report.metric r "service.online.replay_ms" "ms" replay_ms;
  let per_ack =
    Samples.mean parse +. Samples.mean encode +. Samples.mean submit
    +. Samples.mean append
    +. (Samples.sum sync /. float_of_int n)
  in
  Report.metric r "service.server.residual_us" "us" ((1e6 /. acks_per_s) -. per_ack)

(* The same metrics on a workload that runs no daemon: the layers are
   idle there. *)
let idle r =
  List.iter
    (fun (name, unit) -> Report.metric r name unit 0.)
    [
      ("service.protocol.parse_us", "us"); ("service.protocol.encode_us", "us");
      ("service.online.submit_us_p50", "us"); ("service.online.submit_us_p99", "us");
      ("service.wal.append_us", "us"); ("service.wal.sync_us_p50", "us");
      ("service.wal.sync_us_p99", "us"); ("service.wal.snapshot_ms", "ms");
      ("service.wal.snapshot_mb", "MB"); ("service.wal.recover_ms", "ms");
      ("service.online.replay_ms", "ms"); ("service.server.residual_us", "us");
      ("service.fsyncs_per_ack", "ratio"); ("service.wal.state_mb", "MB");
      ("service.server.recovery_s", "s"); ("service.server.recovered_rss_mb", "MB");
      ("client.paced_ack_p50_us", "us"); ("client.paced_ack_p99_us", "us");
      ("client.piped_ack_p50_us", "us"); ("client.piped_ack_p99_us", "us");
      ("client.paced_late_ms", "ms");
    ]
