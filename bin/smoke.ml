(* Shared plumbing for the smoke executables (serve, chaos, federation,
   obs), each of which drives the REAL `fairsched` binary: failure
   accounting, a scratch directory, and child processes.  [init] names
   the smoke (log prefix and scratch-dir name) and reads its argv:
   FAIRSCHED_EXE [SERVE_ARGS...], where every SERVE_ARG is passed
   through to each [spawn_serve]. *)

let smoke_name = ref "smoke"
let exe = ref ""
let extra_serve_args = ref []
let failures = ref 0

let fail fmt =
  Format.kasprintf
    (fun msg ->
      incr failures;
      Format.eprintf "%s: FAIL %s@." !smoke_name msg)
    fmt

let fatal fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "%s: FATAL %s@." !smoke_name msg;
      exit 1)
    fmt

let init ~name ~usage =
  smoke_name := name;
  if Array.length Sys.argv < 2 then fatal "usage: %s" usage;
  exe :=
    (if Filename.is_relative Sys.argv.(1) then
       Filename.concat (Sys.getcwd ()) Sys.argv.(1)
     else Sys.argv.(1));
  extra_serve_args :=
    Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))

(* Exit 1 after reporting the failure count, or print OK. *)
let finish () =
  if !failures > 0 then begin
    Format.eprintf "%s: %d failure(s)@." !smoke_name !failures;
    exit 1
  end;
  Format.printf "%s: OK@." !smoke_name

let rec rm path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_tmpdir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fairsched-%s-%d" !smoke_name (Unix.getpid ()))
  in
  (try rm dir with Sys_error _ | Unix.Unix_error _ -> ());
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* --- child-process plumbing ---------------------------------------------- *)

(* `fairsched ARGS...` with stdout discarded and stderr inherited. *)
let spawn args =
  let out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  let pid =
    Unix.create_process !exe
      (Array.of_list (Filename.basename !exe :: args))
      Unix.stdin out Unix.stderr
  in
  Unix.close out;
  pid

let spawn_serve args = spawn ("serve" :: (args @ !extra_serve_args))

let reap pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error _ -> Unix.WEXITED 0

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap pid)

(* Run a CLI subcommand to completion; its exit code (255 if signalled). *)
let run_cli args =
  match reap (spawn args) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255

let connect_retry addr =
  let rec go n =
    match Service.Client.connect addr with
    | Ok c -> c
    | Error e ->
        if n = 0 then fatal "connect: %s" (Service.Client.error_to_string e)
        else begin
          Unix.sleepf 0.05;
          go (n - 1)
        end
  in
  go 200

let request client req =
  match Service.Client.request client req with
  | Ok resp -> resp
  | Error e -> fatal "request: %s" (Service.Client.error_to_string e)

(* Submit one job of a golden instance; the daemon's FIFO rank must
   equal the batch index. *)
let submit_job client (j : Core.Job.t) =
  match
    request client
      (Service.Protocol.Submit
         {
           org = j.Core.Job.org;
           user = j.Core.Job.user;
           release = j.Core.Job.release;
           size = j.Core.Job.size;
           cid = 0;
           cseq = 0;
           trace = 0;
         })
  with
  | Service.Protocol.Submit_ok { index; _ } ->
      if index <> j.Core.Job.index then
        fail "served rank %d <> batch rank %d" index j.Core.Job.index
  | Service.Protocol.Error { msg; _ } -> fatal "submit rejected: %s" msg
  | _ -> fatal "submit: unexpected response"
