(* Clocks, raw-sample statistics and process probes shared by every
   workload.  Percentiles are exact order statistics over every kept
   sample, never histogram buckets. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9
let us_of_ns d = float_of_int d *. 1e-3

(* A growable array of raw samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.data then begin
      let d = Array.make (2 * t.n) 0. in
      Array.blit t.data 0 d 0 t.n;
      t.data <- d
    end;
    t.data.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  let mean t = if t.n = 0 then 0. else sum t /. float_of_int t.n

  let sorted t =
    let a = Array.sub t.data 0 t.n in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile of a sorted array, [p] in (0, 100]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median_list = function
  | [] -> 0.
  | l -> percentile (Array.of_list (List.sort Float.compare l)) 50.

(* The highest usual percentile that still has at least ten samples
   beyond it. *)
let top_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.)
    [ 99.99; 99.9; 99.; 90.; 50. ]

type summary = { n : int; p50 : float; p90 : float; p99 : float; top : (float * float) option }

let summarize s =
  let a = Samples.sorted s in
  let n = Array.length a in
  {
    n;
    p50 = percentile a 50.;
    p90 = percentile a 90.;
    p99 = percentile a 99.;
    top = Option.map (fun p -> (p, percentile a p)) (top_percentile n);
  }

(* p99 is only reported from at least 1000 samples, so that ten lie
   beyond it. *)
let p99_ok s = s.n >= 1000

let pp_summary ppf s =
  Format.fprintf ppf "n=%d p50=%.1f p99=%.1f" s.n s.p50 s.p99;
  match s.top with
  | Some (p, v) when p > 99. -> Format.fprintf ppf " p%g=%.1f" p v
  | Some _ | None -> ()

(* --- processes and files ------------------------------------------------ *)

(* A /proc/PID/status field in kB ("VmHWM", "VmRSS"), as megabytes. *)
let proc_mb ?(pid = "self") field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            let prefix = field ^ ":" in
            let lp = String.length prefix in
            if String.length line > lp && String.sub line 0 lp = prefix then
              Scanf.sscanf
                (String.sub line lp (String.length line - lp))
                " %d kB"
                (fun kb -> float_of_int kb *. 1024. /. 1e6)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path;
  path

(* Write back every dirty page before a measured phase, so the writeback
   of earlier runs' files does not land inside it. *)
let flush_disk () =
  let pid = Unix.create_process "sync" [| "sync" |] Unix.stdin Unix.stdout Unix.stderr in
  ignore (Unix.waitpid [] pid)

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + dir_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let rec copy_tree src dst =
  match Unix.lstat src with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      mkdir_p dst;
      Array.iter
        (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
        (Sys.readdir src)
  | { Unix.st_kind = Unix.S_REG; _ } ->
      let ic = open_in_bin src and oc = open_out_bin dst in
      Fun.protect
        ~finally:(fun () ->
          close_in ic;
          close_out oc)
        (fun () ->
          let buf = Bytes.create 65536 in
          let rec go () =
            let n = input ic buf 0 65536 in
            if n > 0 then begin
              output oc buf 0 n;
              go ()
            end
          in
          go ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ()
