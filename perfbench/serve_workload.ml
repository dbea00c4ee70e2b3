(* The serve-* workloads: the real `fairsched serve` binary over a unix
   socket, state dir on the checkout's disk, every flag the ROADMAP may
   delete left at its default.  One process generates all load, on at
   most two connections (org-group g on connection g), from a single
   thread that multiplexes them with select.  Every request keeps its
   send (or due) and ack timestamps. *)

open Measure

(* A load phase and its length: submissions sent open-loop at
   [paced_rate] and timed from their due time, or pipelined [window] per
   connection and timed from their send time. *)
type phase = Paced of int | Piped of int

type spec = {
  phases : phase list;  (** in order, over consecutive stream jobs *)
  restart : bool;  (** SIGKILL after load, restart from the state dir *)
}

let phase_jobs = function Paced n | Piped n -> n

(* The daemon's shape: a policy that costs well under a microsecond, so
   the service layers are the work; two org-groups, one per connection. *)
let algorithm = "fairshare"
let norgs = 8
let machines = 32
let groups = 2

(* open-loop rate, submissions per second over both connections *)
let paced_rate = 5_000.

(* in-flight submissions per connection in the pipelined phase *)
let window = 32

(* open-loop requests per latency window *)
let paced_window = 2_500

(* --- the daemon's processes --------------------------------------------- *)

let live = ref []

let spawn ~exe ~log args =
  let out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process exe
      (Array.of_list ("fairsched" :: "serve" :: args))
      Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  live := pid :: !live;
  pid

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let stop_all () = List.iter kill9 !live

(* --- inputs ---------------------------------------------------------------- *)

type inputs = {
  jobs : Core.Job.t array;  (** the stream prefix, in submission order *)
  config : Service.Config.t;
  serve_args : sock:string -> state:string -> string list;
}

let inputs spec ~seed =
  let scenario =
    Workload.Scenario.default ~norgs ~machines Workload.Traces.lpc_egee
  in
  let n = List.fold_left (fun acc p -> acc + phase_jobs p) 0 spec.phases in
  let jobs =
    Array.of_seq (Seq.take n (Workload.Scenario.submission_stream scenario ~seed))
  in
  let split = fst (Workload.Scenario.split_and_map scenario ~seed) in
  let horizon = jobs.(n - 1).Core.Job.release + 1 in
  let config =
    match
      Service.Config.make ~groups ~machines:split ~horizon ~algorithm
        ~seed ()
    with
    | Ok c -> c
    | Error msg -> failwith ("config: " ^ msg)
  in
  let serve_args ~sock ~state =
    [
      "--listen"; "unix:" ^ sock; "--state"; state; "--algorithm"; algorithm;
      "--orgs"; string_of_int norgs;
      "--split"; String.concat "," (Array.to_list (Array.map string_of_int split));
      "--horizon"; string_of_int horizon; "--seed"; string_of_int seed;
      "--groups"; string_of_int groups;
    ]
  in
  { jobs; config; serve_args }

(* ψsp of the batch simulator on the acked jobs under the daemon's
   config: one [Sim.Driver.run] per org-group over its sub-config, with
   org ids made group-local, scattered back to global order.  [run] lets
   the traced pass put spans around the driver. *)
let golden ?(run = fun ~instance ~rng maker -> Sim.Driver.run ~record:false ~instance ~rng maker)
    config (jobs : Core.Job.t array) =
  let part = Service.Partition.make config in
  let results =
    Array.init (Service.Partition.groups part) (fun g ->
        let sub = Service.Partition.sub_config part g in
        let local =
          Array.fold_right
            (fun (j : Core.Job.t) acc ->
              if Service.Partition.group_of_org part j.Core.Job.org = g then
                { j with Core.Job.org = Service.Partition.local_org part j.Core.Job.org }
                :: acc
              else acc)
            jobs []
        in
        let instance =
          Core.Instance.make ~machines:sub.Service.Config.machines ~jobs:local
            ~horizon:sub.Service.Config.horizon
        in
        run ~instance
          ~rng:(Fstats.Rng.create ~seed:sub.Service.Config.seed)
          (Algorithms.Registry.find_exn sub.Service.Config.algorithm))
  in
  ( Service.Partition.scatter_int part (fun g ->
        results.(g).Sim.Driver.utilities_scaled),
    Array.to_list results )

(* --- control requests --------------------------------------------------- *)

let request sock req =
  match Service.Client.connect ~timeout_s:2. (Service.Addr.Unix_sock sock) with
  | Error e -> Error (Service.Client.error_to_string e)
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          Result.map_error Service.Client.error_to_string
            (Service.Client.request ~timeout_s:60. c req))

(* Poll until [accept] takes an answer to [req]: seconds since [t0], or
   [None] after a minute. *)
let await ~t0 sock req accept =
  let deadline = t0 + 60_000_000_000 in
  let rec go () =
    let answer = match request sock req with Ok resp -> accept resp | Error _ -> false in
    if answer then Some (since_s t0)
    else if now_ns () > deadline then None
    else begin
      Unix.sleepf 0.0002;
      go ()
    end
  in
  go ()

let status sock =
  match request sock Service.Protocol.Status with
  | Ok (Service.Protocol.Status_ok st) -> st
  | Ok _ -> failwith "status: unexpected response"
  | Error msg -> failwith ("status: " ^ msg)

let psi sock =
  match request sock Service.Protocol.Psi with
  | Ok (Service.Protocol.Psi_ok { psi_scaled; _ }) -> psi_scaled
  | Ok _ -> failwith "psi: unexpected response"
  | Error msg -> failwith ("psi: " ^ msg)

let is_status = function Service.Protocol.Status_ok _ -> true | _ -> false

(* Spawn a daemon and time it until it answers [status]. *)
let boot ~exe ~log ~args ~sock =
  let t0 = now_ns () in
  let pid = spawn ~exe ~log args in
  match await ~t0 sock Service.Protocol.Status is_status with
  | Some setup -> (pid, setup)
  | None -> failwith "the daemon did not answer status within a minute"

(* --- the load client ------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; rbuf : Buffer.t; inflight : int Queue.t }

type io = {
  inp : inputs;
  lines : string array;
  conn_idx : int array;  (** connection of each job: its org-group's *)
  conns : conn array;
  sent : int array;  (** ns; the due time in the paced phase *)
  acked : int array;  (** ns; 0 = not acked *)
  ranks : int array;  (** per org, acks so far: the next FIFO rank *)
  daemon : string;  (** pid *)
  rss : Samples.t;  (** the daemon's RSS in MB, every 100 ms of load *)
  mutable next_rss : int;  (** ns *)
  chunk : Bytes.t;
  r : Report.t;
}

let open_io r inp ~sock ~pid =
  let part = Service.Partition.make inp.config in
  let lines =
    Array.mapi
      (fun i (j : Core.Job.t) ->
        let g = Service.Partition.group_of_org part j.Core.Job.org in
        Service.Protocol.request_to_line
          (Service.Protocol.Submit
             {
               org = j.Core.Job.org;
               user = j.Core.Job.user;
               release = j.Core.Job.release;
               size = j.Core.Job.size;
               cid = 1 + g;
               cseq = i + 1;
               trace = 0;
             }))
      inp.jobs
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    { fd; rbuf = Buffer.create 65536; inflight = Queue.create () }
  in
  let n = Array.length inp.jobs in
  let nconns = min 2 groups in
  {
    inp;
    lines;
    conn_idx =
      Array.map
        (fun (j : Core.Job.t) ->
          Service.Partition.group_of_org part j.Core.Job.org mod nconns)
        inp.jobs;
    conns = Array.init nconns (fun _ -> connect ());
    sent = Array.make n 0;
    acked = Array.make n 0;
    ranks = Array.make norgs 0;
    daemon = string_of_int pid;
    rss = Samples.create ();
    next_rss = 0;
    chunk = Bytes.create 65536;
    r;
  }

let close_io io = Array.iter (fun c -> Unix.close c.fd) io.conns

let send io c i ~stamp =
  let line = io.lines.(i) in
  let len = String.length line in
  let rec go off =
    if off < len then go (off + Unix.write_substring c.fd line off (len - off))
  in
  io.sent.(i) <- stamp;
  go 0;
  Queue.push i c.inflight

let on_line io c line ~now =
  let i = Queue.pop c.inflight in
  io.acked.(i) <- now;
  match Service.Protocol.response_of_line line with
  | Ok (Service.Protocol.Submit_ok { index; _ }) ->
      let org = io.inp.jobs.(i).Core.Job.org in
      if index <> io.ranks.(org) then
        Report.mismatch io.r "job %d acked with FIFO rank %d, expected %d" i index
          io.ranks.(org);
      io.ranks.(org) <- io.ranks.(org) + 1
  | Ok _ | Error _ -> io.acked.(i) <- 0

let read_conn io c =
  match Unix.read c.fd io.chunk 0 (Bytes.length io.chunk) with
  | 0 -> failwith "daemon closed a load connection"
  | n ->
      let now = now_ns () in
      Buffer.add_subbytes c.rbuf io.chunk 0 n;
      let s = Buffer.contents c.rbuf in
      let rec split pos =
        match String.index_from_opt s pos '\n' with
        | Some e ->
            on_line io c (String.sub s pos (e - pos)) ~now;
            split (e + 1)
        | None ->
            Buffer.clear c.rbuf;
            Buffer.add_substring c.rbuf s pos (String.length s - pos)
      in
      split 0

(* Wait up to [timeout] seconds for acks and read every ready connection. *)
let pump io ~timeout =
  let now = now_ns () in
  if now >= io.next_rss then begin
    Samples.add io.rss (proc_mb ~pid:io.daemon "VmRSS");
    io.next_rss <- now + 100_000_000
  end;
  let waiting =
    Array.to_list io.conns
    |> List.filter (fun c -> not (Queue.is_empty c.inflight))
    |> List.map (fun c -> c.fd)
  in
  if waiting = [] then (if timeout > 0. then Unix.sleepf timeout)
  else
    match Unix.select waiting [] [] timeout with
    | ready, _, _ ->
        Array.iter (fun c -> if List.mem c.fd ready then read_conn io c) io.conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let inflight io =
  Array.fold_left (fun acc c -> acc + Queue.length c.inflight) 0 io.conns

let drain_acks io =
  let deadline = now_ns () + 120_000_000_000 in
  while inflight io > 0 do
    if now_ns () > deadline then failwith "timed out waiting for acks";
    pump io ~timeout:0.5
  done

(* Open loop: job [first + k] is due [k / rate] seconds after the start
   and is timed from that due time, so a stall also delays the requests
   queued behind it.  [late] gets how far behind schedule each send was. *)
let paced io ~first ~n ~rate ~late =
  let t0 = now_ns () + 1_000_000 in
  let due k = t0 + int_of_float (float_of_int k *. 1e9 /. rate) in
  let k = ref 0 in
  while !k < n do
    let now = now_ns () in
    let d = due !k in
    if d <= now then begin
      let i = first + !k in
      send io io.conns.(io.conn_idx.(i)) i ~stamp:d;
      Samples.add late (float_of_int (now - d) *. 1e-6);
      incr k
    end
    else pump io ~timeout:(float_of_int (d - now) *. 1e-9)
  done;
  drain_acks io

(* Closed window: each connection keeps [window] submissions in flight. *)
let pipelined io ~first ~n ~window =
  let queues = Array.map (fun _ -> Queue.create ()) io.conns in
  for i = first to first + n - 1 do
    Queue.push i queues.(io.conn_idx.(i))
  done;
  let t0 = now_ns () in
  let deadline = t0 + 150_000_000_000 in
  while inflight io > 0 || Array.exists (fun q -> not (Queue.is_empty q)) queues do
    if now_ns () > deadline then failwith "pipelined phase timed out";
    Array.iteri
      (fun ci c ->
        while Queue.length c.inflight < window && not (Queue.is_empty queues.(ci)) do
          send io c (Queue.pop queues.(ci)) ~stamp:(now_ns ())
        done)
      io.conns;
    pump io ~timeout:0.5
  done;
  since_s t0

(* --- one daemon's life ------------------------------------------------------ *)

type cycle = {
  setup_s : float;
  paced_lat : Samples.t;  (** ack - due, µs *)
  late : Samples.t;  (** send - due, ms *)
  piped_lat : Samples.t;  (** ack - send, µs *)
  acks_per_s : float;  (** pipelined phases *)
  rss_mb : float;  (** the daemon's mean RSS over the load phases *)
  state_mb : float;
  fsyncs_per_ack : float;
  recovery_s : float;
  recovered_rss_mb : float;
  attempted : int;
  io : io;
  state_copy : string option;
  spans : (phase * int * int * int) list;  (** phase, first job, start and end ns *)
}

(* The elements of [xs], one per stream job, whose job was acked. *)
let acked_only io xs =
  Array.of_list (List.filteri (fun i _ -> io.acked.(i) > 0) (Array.to_list xs))

let latencies io spans ~paced =
  let s = Samples.create () in
  List.iter
    (fun (phase, first, _, _) ->
      if (match phase with Paced _ -> paced | Piped _ -> not paced) then
        for i = first to first + phase_jobs phase - 1 do
          if io.acked.(i) > 0 then Samples.add s (us_of_ns (io.acked.(i) - io.sent.(i)))
        done)
    spans;
  s

let cycle spec inp ~exe ~dir ~copy_state r =
  let dir = fresh_dir dir in
  flush_disk ();
  let sock = Filename.concat dir "d.sock" and state = Filename.concat dir "state" in
  let log = Filename.concat dir "daemon.log" in
  let args = inp.serve_args ~sock ~state in
  let pid, setup_s = boot ~exe ~log ~args ~sock in
  let io = open_io r inp ~sock ~pid in
  let late = Samples.create () in
  let run (first, spans, piped_s) phase =
    let t0 = now_ns () in
    let piped_s =
      match phase with
      | Paced n ->
          paced io ~first ~n ~rate:paced_rate ~late;
          piped_s
      | Piped n -> piped_s +. pipelined io ~first ~n ~window
    in
    (first + phase_jobs phase, (phase, first, t0, now_ns ()) :: spans, piped_s)
  in
  let attempted, spans, piped_s = List.fold_left run (0, [], 0.) spec.phases in
  let spans = List.rev spans in
  close_io io;
  let acked_piped =
    List.fold_left
      (fun acc (phase, first, _, _) ->
        match phase with
        | Paced _ -> acc
        | Piped n ->
            let k = ref 0 in
            for i = first to first + n - 1 do
              if io.acked.(i) > 0 then incr k
            done;
            acc + !k)
      0 spans
  in
  let rss_mb = Samples.mean io.rss in
  let st = status sock in
  let fsyncs_per_ack =
    float_of_int st.Service.Protocol.fsyncs /. float_of_int (max 1 st.Service.Protocol.accepted)
  in
  let state_mb = float_of_int (dir_bytes state) /. 1e6 in
  let acked = acked_only io inp.jobs in
  let expected, _ = golden inp.config acked in
  let copy_of_state () =
    if not copy_state then None
    else begin
      let c = Filename.concat dir "state-copy" in
      copy_tree state c;
      Some c
    end
  in
  let recovery_s, recovered_rss_mb, state_copy, pid =
    if not spec.restart then (0., 0., copy_of_state (), pid)
    else begin
      let before = psi sock in
      kill9 pid;
      let copy = copy_of_state () in
      let t0 = now_ns () in
      let pid = spawn ~exe ~log args in
      let recovery_s =
        match
          await ~t0 sock Service.Protocol.Psi (function
            | Service.Protocol.Psi_ok { psi_scaled; _ } -> psi_scaled = before
            | _ -> false)
        with
        | Some s -> s
        | None ->
            Report.mismatch r "restarted daemon never answered the pre-kill psi";
            0.
      in
      (recovery_s, proc_mb ~pid:(string_of_int pid) "VmRSS", copy, pid)
    end
  in
  (match request sock (Service.Protocol.Drain { detail = false }) with
  | Ok (Service.Protocol.Drain_ok d) ->
      if d.Service.Protocol.d_psi_scaled <> expected then
        Report.mismatch r "daemon psi after %sdrain differs from Sim.Driver.run on the %d acked jobs"
          (if spec.restart then "kill -9, restart and " else "")
          (Array.length acked)
  | Ok _ -> Report.mismatch r "drain: unexpected response"
  | Error msg -> Report.mismatch r "drain: %s" msg);
  reap pid;
  {
    setup_s;
    paced_lat = latencies io spans ~paced:true;
    late;
    piped_lat = latencies io spans ~paced:false;
    acks_per_s = float_of_int acked_piped /. piped_s;
    rss_mb;
    state_mb;
    fsyncs_per_ack;
    recovery_s;
    recovered_rss_mb;
    attempted;
    io;
    state_copy;
    spans;
  }

let account r c =
  r.Report.attempted <- r.Report.attempted + c.attempted;
  r.Report.failed <-
    r.Report.failed + c.attempted - Samples.count c.paced_lat - Samples.count c.piped_lat

let pooled cycles f =
  let s = Samples.create () in
  List.iter
    (fun c ->
      let x = f c in
      for i = 0 to Samples.count x - 1 do
        Samples.add s x.Samples.data.(i)
      done)
    cycles;
  s

(* Summaries of each run of [size] consecutive samples, in send order. *)
let windows (s : Samples.t) ~size =
  List.init (Samples.count s / size) (fun k ->
      let w = Samples.create () in
      for i = k * size to ((k + 1) * size) - 1 do
        Samples.add w s.Samples.data.(i)
      done;
      summarize w)

let describe c =
  Report.note "pipelined p99 per 10k acks (us): %s"
    (String.concat " "
       (List.map (fun s -> Printf.sprintf "%.0f" s.p99) (windows c.piped_lat ~size:10_000)));
  Report.note
    "cycle: setup %.3f s, %.0f acks/s, piped %a us, paced %a us, rss %.1f MB, \
     state %.1f MB, %.3f fsyncs/ack, recovery %.3f s (rss %.1f MB)"
    c.setup_s c.acks_per_s pp_summary (summarize c.piped_lat) pp_summary
    (summarize c.paced_lat) c.rss_mb c.state_mb c.fsyncs_per_ack c.recovery_s
    c.recovered_rss_mb

(* Extra boots on empty state dirs until [n] set-up samples exist. *)
let setups ~exe ~dir inp ~have n =
  List.init (max 0 (n - have)) (fun k ->
      let d = fresh_dir (Filename.concat dir (Printf.sprintf "boot-%d" k)) in
      let sock = Filename.concat d "d.sock" in
      let pid, s =
        boot ~exe ~log:(Filename.concat d "daemon.log")
          ~args:(inp.serve_args ~sock ~state:(Filename.concat d "state"))
          ~sock
      in
      kill9 pid;
      s)

let end_to_end spec ~seed ~seconds ~exe ~dir r =
  let inp = inputs spec ~seed in
  let t0 = now_ns () in
  (* another cycle only while it is expected to end within [seconds] *)
  let rec go k acc =
    let spent = since_s t0 in
    if k > 0 && spent *. float_of_int (k + 1) /. float_of_int k > float_of_int seconds
    then List.rev acc
    else begin
      let c =
        cycle spec inp ~exe ~dir:(Filename.concat dir (Printf.sprintf "cycle-%d" k))
          ~copy_state:false r
      in
      describe c;
      account r c;
      go (k + 1) (c :: acc)
    end
  in
  let cycles = go 0 [] in
  let boots =
    List.map (fun c -> c.setup_s) cycles
    @ setups ~exe ~dir inp ~have:(List.length cycles) 9
  in
  (* open-loop latency per window of [paced_window] requests, then the
     median over windows: a hiccup of the shared machine moves one
     window's percentiles, not the run's *)
  let paced = List.concat_map (fun c -> windows c.paced_lat ~size:paced_window) cycles in
  let piped = List.map (fun c -> summarize c.piped_lat) cycles in
  List.iter
    (fun s -> if not (p99_ok s) then Report.mismatch r "only %d ack samples (< 1000)" s.n)
    (paced @ piped);
  Report.note "%d cycles; all cycles pooled: paced ack latency %a us; pipelined %a us"
    (List.length cycles) pp_summary
    (summarize (pooled cycles (fun c -> c.paced_lat)))
    pp_summary
    (summarize (pooled cycles (fun c -> c.piped_lat)));
  let median f = median_list (List.map f cycles) in
  let median_of summaries f = median_list (List.map f summaries) in
  let acks_per_s = median (fun c -> c.acks_per_s) in
  Report.metric r "setup_s" "s" (median_list boots);
  Report.metric r "jobs_per_s" "1/s" acks_per_s;
  Report.metric r "rss_mb" "MB" (median (fun c -> c.rss_mb));
  (* printed, not gated *)
  Report.metric r "acks_per_s" "1/s" acks_per_s;
  Report.metric r "ack_p50_us" "us" (median_of piped (fun s -> s.p50));
  Report.metric r "ack_p99_us" "us" (median_of piped (fun s -> s.p99));
  Report.metric r "paced_ack_p50_us" "us" (median_of paced (fun s -> s.p50));
  Report.metric r "paced_ack_p90_us" "us" (median_of paced (fun s -> s.p90));
  Report.metric r "paced_ack_p99_us" "us" (median_of paced (fun s -> s.p99));
  Report.metric r "state_mb" "MB" (median (fun c -> c.state_mb));
  if spec.restart then begin
    Report.metric r "recovery_s" "s" (median (fun c -> c.recovery_s));
    Report.metric r "recovered_rss_mb" "MB" (median (fun c -> c.recovered_rss_mb))
  end;
  Report.metric r "failed_frac" "ratio"
    (float_of_int r.Report.failed /. float_of_int (max 1 r.Report.attempted))

(* --- traced run ------------------------------------------------------------ *)

let per_layer spec ~seed ~exe ~dir r spans =
  let inp = inputs spec ~seed in
  let plain = cycle spec inp ~exe ~dir:(Filename.concat dir "plain") ~copy_state:false r in
  describe plain;
  let c = cycle spec inp ~exe ~dir:(Filename.concat dir "traced") ~copy_state:true r in
  describe c;
  account r c;
  (* client request spans, under one span per phase *)
  List.iter
    (fun (phase, first, start, stop) ->
      let name = match phase with Paced _ -> "client.paced" | Piped _ -> "client.pipelined" in
      let parent = Spans.record spans ~name ~start ~stop ~parent:(-1) ~req:0 in
      for i = first to first + phase_jobs phase - 1 do
        if c.io.acked.(i) > 0 then
          ignore
            (Spans.record spans ~name:"client.submit" ~start:c.io.sent.(i)
               ~stop:c.io.acked.(i) ~parent ~req:(i + 1))
      done)
    c.spans;
  Report.note "tracing: %.0f acks/s traced vs %.0f untraced" c.acks_per_s plain.acks_per_s;
  Report.metric r "trace.jobs_per_s_delta" "1/s" (c.acks_per_s -. plain.acks_per_s);
  let paced = summarize c.paced_lat in
  Report.metric r "client.paced_ack_p50_us" "us" paced.p50;
  Report.metric r "client.paced_ack_p99_us" "us" paced.p99;
  let piped = summarize c.piped_lat in
  Report.metric r "client.piped_ack_p50_us" "us" piped.p50;
  Report.metric r "client.piped_ack_p99_us" "us" piped.p99;
  Report.metric r "client.paced_late_ms"
    "ms" (if Samples.count c.late = 0 then 0. else percentile (Samples.sorted c.late) 100.);
  Report.metric r "service.fsyncs_per_ack" "ratio" c.fsyncs_per_ack;
  Report.metric r "service.wal.state_mb" "MB" c.state_mb;
  Report.metric r "service.server.recovery_s" "s" c.recovery_s;
  Report.metric r "service.server.recovered_rss_mb" "MB" c.recovered_rss_mb;
  (* the algorithm layers: the batch run of the acked stream, traced *)
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let _, results =
    golden ~run:(Sim_workload.traced_run spans ~record:false) inp.config
      (acked_only c.io inp.jobs)
  in
  Obs.Metrics.set_enabled false;
  Sim_workload.algorithm_layers r spans results;
  Layers.run r ~config:inp.config
    ~lines:(acked_only c.io c.io.lines)
    ~state_copy:(Option.get c.state_copy)
    ~dir:(fresh_dir (Filename.concat dir "layers"))
    ~acks_per_fsync:(1. /. c.fsyncs_per_ack) ~acks_per_s:c.acks_per_s
