(* The environment every run records beside its figures: cores, fsync
   cost on the filesystem that holds the state dirs, source revision,
   seed and the workload's reason for existing. *)

(* Median of 32 (4 KiB write + fsync) rounds on a scratch file in [dir]. *)
let fsync_us ~dir =
  let path = Filename.concat dir "fsync-probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let buf = Bytes.make 4096 'x' in
  let s = Measure.Samples.create () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Sys.remove path)
    (fun () ->
      for _ = 1 to 32 do
        ignore (Unix.write fd buf 0 4096);
        let t0 = Measure.now_ns () in
        Unix.fsync fd;
        Measure.Samples.add s (Measure.us_of_ns (Measure.now_ns () - t0))
      done);
  Measure.percentile (Measure.Samples.sorted s) 50.

let read_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> try Some (String.trim (input_line ic)) with End_of_file -> None)

(* The commit of the working tree when it is a git checkout; "unknown"
   otherwise (an exported source tree carries no history). *)
let git_sha () =
  match read_line ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
      let prefix = "ref: " in
      let lp = String.length prefix in
      if String.length head > lp && String.sub head 0 lp = prefix then
        let ref_ = String.sub head lp (String.length head - lp) in
        Option.value ~default:"unknown" (read_line (Filename.concat ".git" ref_))
      else head

let json ~workload ~why ~seed ~seconds ~trace ~dir =
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String workload);
      ("why", Obs.Json.String why);
      ("seed", Obs.Json.Int seed);
      ("seconds", Obs.Json.Int seconds);
      ("trace", Obs.Json.Bool trace);
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("fsync_us", Obs.Json.Float (fsync_us ~dir));
      ("git", Obs.Json.String (git_sha ()));
      ("ocaml", Obs.Json.String Sys.ocaml_version);
    ]
