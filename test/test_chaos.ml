(* Tests for lib/chaos: the fault-injection plan language and shim
   mechanics, the corruption fuzzer's mutations, and — with real forks
   dying at injected crash points — the WAL's crash windows: a torn
   multi-record append recovers to a consistent prefix, and a crash
   anywhere in the legacy snapshot writer's write/fsync/rename window
   never loses or double-applies a record. *)

let ( let@ ) f x = f x

let with_tmpdir = Support.with_tmpdir

(* --- Plan language ----------------------------------------------------------- *)

let test_spec_roundtrip () =
  let rt s expect =
    match Chaos.Fs.of_string s with
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
    | Ok rules -> (
        Alcotest.(check bool) s true (rules = expect);
        (* The printer's canonical form parses back to the same plan. *)
        match Chaos.Fs.of_string (Chaos.Fs.to_string rules) with
        | Ok rules' -> Alcotest.(check bool) (s ^ " reparse") true (rules = rules')
        | Error msg -> Alcotest.failf "%s reparse: %s" s msg)
  in
  rt "crash@before-snapshot-rename"
    [
      {
        Chaos.Fs.target = "before-snapshot-rename";
        nth = 1;
        sticky = false;
        action = Chaos.Fs.Crash;
      };
    ];
  rt "enospc@wal-fsync:3+"
    [
      {
        Chaos.Fs.target = "wal-fsync";
        nth = 3;
        sticky = true;
        action = Chaos.Fs.Fail Unix.ENOSPC;
      };
    ];
  rt "torn@wal-append:2=10,eio@snap-write"
    [
      {
        Chaos.Fs.target = "wal-append";
        nth = 2;
        sticky = false;
        action = Chaos.Fs.Torn 10;
      };
      {
        Chaos.Fs.target = "snap-write";
        nth = 1;
        sticky = false;
        action = Chaos.Fs.Fail Unix.EIO;
      };
    ];
  rt "short@wal-append=4"
    [
      {
        Chaos.Fs.target = "wal-append";
        nth = 1;
        sticky = false;
        action = Chaos.Fs.Short 4;
      };
    ]

let test_spec_rejects () =
  let bad s =
    match Chaos.Fs.of_string s with
    | Ok _ -> Alcotest.failf "%S accepted" s
    | Error _ -> ()
  in
  bad "nonsense";
  bad "crash";
  bad "crash@";
  bad "explode@wal-append";
  bad "crash@x:0";
  bad "crash@x:-1";
  bad "short@wal-append";
  bad "torn@wal-append";
  bad "crash@x=5";
  bad "enospc@wal-fsync=5"

(* --- Shim mechanics ---------------------------------------------------------- *)

let test_fs_rules () =
  let@ dir = with_tmpdir in
  Fun.protect ~finally:Chaos.Fs.disarm @@ fun () ->
  let path = Filename.concat dir "scratch" in
  let fd =
    Chaos.Fs.openfile ~site:"t-open" path
      [ Unix.O_CREAT; Unix.O_WRONLY ]
      0o644
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let b = Bytes.of_string "hello" in
  let w () = Chaos.Fs.write ~site:"t-write" fd b 0 5 in
  Chaos.Fs.arm
    [
      {
        Chaos.Fs.target = "t-write";
        nth = 2;
        sticky = false;
        action = Chaos.Fs.Fail Unix.EIO;
      };
    ];
  Alcotest.(check int) "hit 1 passes" 5 (w ());
  (try
     ignore (w ());
     Alcotest.fail "hit 2 must fail EIO"
   with Unix.Unix_error (Unix.EIO, _, _) -> ());
  Alcotest.(check int) "hit 3 passes (not sticky)" 5 (w ());
  Alcotest.(check int) "hits counted" 3 (Chaos.Fs.hits "t-write");
  Alcotest.(check int) "one injection" 1 (Chaos.Fs.injected ());
  Chaos.Fs.arm
    [
      {
        Chaos.Fs.target = "t-write";
        nth = 1;
        sticky = true;
        action = Chaos.Fs.Fail Unix.ENOSPC;
      };
    ];
  Alcotest.(check int) "arm resets counters" 0 (Chaos.Fs.hits "t-write");
  for _ = 1 to 2 do
    try
      ignore (w ());
      Alcotest.fail "sticky ENOSPC must keep failing"
    with Unix.Unix_error (Unix.ENOSPC, _, _) -> ()
  done;
  Chaos.Fs.arm
    [
      {
        Chaos.Fs.target = "t-write";
        nth = 1;
        sticky = false;
        action = Chaos.Fs.Short 2;
      };
    ];
  Alcotest.(check int) "short write truncates the count" 2 (w ());
  Chaos.Fs.disarm ();
  Alcotest.(check bool) "disarmed" false (Chaos.Fs.armed ());
  Alcotest.(check int) "passthrough after disarm" 5 (w ())

(* --- Fuzz mutations ---------------------------------------------------------- *)

let test_fuzz_apply () =
  let s = "aaaa\nbbbb\ncccc\n" in
  let check label expect m =
    Alcotest.(check string) label expect (Chaos.Fuzz.apply s m)
  in
  check "bit flip" "aaac\nbbbb\ncccc\n"
    (Chaos.Fuzz.Bit_flip { offset = 3; bit = 1 });
  check "truncate" "aaaa\nb" (Chaos.Fuzz.Truncate { length = 6 });
  check "dup line" "aaaa\nbbbb\nbbbb\ncccc\n"
    (Chaos.Fuzz.Dup_line { line = 1 });
  check "swap lines" "cccc\nbbbb\naaaa\n"
    (Chaos.Fuzz.Swap_lines { a = 0; b = 2 });
  check "drop line" "aaaa\ncccc\n" (Chaos.Fuzz.Drop_line { line = 1 });
  check "garbage tail" (s ^ "{\"re") (Chaos.Fuzz.Garbage_tail { bytes = "{\"re" });
  (* Out-of-range coordinates clamp instead of raising. *)
  ignore (Chaos.Fuzz.apply s (Chaos.Fuzz.Bit_flip { offset = 9999; bit = 0 }));
  ignore (Chaos.Fuzz.apply s (Chaos.Fuzz.Drop_line { line = 9999 }));
  ignore (Chaos.Fuzz.apply s (Chaos.Fuzz.Truncate { length = 9999 }));
  Alcotest.(check string) "empty input unchanged" ""
    (Chaos.Fuzz.apply "" (Chaos.Fuzz.Bit_flip { offset = 0; bit = 3 }))

let test_fuzz_random () =
  let s = "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n" in
  let rng = Fstats.Rng.create ~seed:11 in
  for _ = 1 to 500 do
    let m = Chaos.Fuzz.random rng s in
    Alcotest.(check bool)
      (Chaos.Fuzz.describe m) true
      (String.length (Chaos.Fuzz.describe m) > 0);
    (* Every drawn mutation applies cleanly and actually mutates (or
       provably may not: a dup of an empty trailing segment can't
       happen on this input, so inequality must hold). *)
    ignore (Chaos.Fuzz.apply s m)
  done

(* --- Crash windows (real forks) ---------------------------------------------- *)

let mk_config () =
  match
    Service.Config.make ~machines:[| 2; 2 |] ~horizon:1_000
      ~algorithm:"fairshare" ~seed:1 ()
  with
  | Ok c -> c
  | Error msg -> Alcotest.failf "config: %s" msg

let records =
  [
    Service.Wal.Submit
      { seq = 1; org = 0; user = 0; release = 1; size = 2; cid = 3; cseq = 1 };
    Service.Wal.Submit
      { seq = 2; org = 1; user = 1; release = 2; size = 1; cid = 3; cseq = 2 };
    Service.Wal.Fault
      { seq = 3; time = 4; event = Faults.Event.Fail 0; cid = 0; cseq = 0 };
    Service.Wal.Submit
      { seq = 4; org = 0; user = 2; release = 5; size = 1; cid = 3; cseq = 3 };
  ]

(* Run [f] in a fork with [rules] armed; the child must die at the
   planned crash point (status 137), everything it flushed before the
   kill left on disk for the parent to inspect. *)
let fork_chaos ~rules f =
  match Unix.fork () with
  | 0 ->
      Chaos.Fs.arm rules;
      (try f () with _ -> ());
      Unix._exit 0 (* reaching here means the crash never fired *)
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED code ->
          Alcotest.(check int) "child died at the crash point"
            Chaos.Fs.exit_code code
      | _ -> Alcotest.fail "child killed by signal")

let recover_ok dir =
  match Service.Wal.recover ~dir with
  | Ok r -> r
  | Error e ->
      Alcotest.failf "recover: %s" (Service.Wal.boot_error_to_string e)

let rec prefix_of xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && prefix_of xs' ys'
  | _ :: _, [] -> false

(* A batch of appends torn mid-write: recovery keeps exactly the records
   whose lines made it out whole — a consistent prefix, never a half
   record, never a reordering. *)
let test_torn_multi_record () =
  let@ dir = with_tmpdir in
  let config = mk_config () in
  fork_chaos
    ~rules:
      [
        {
          Chaos.Fs.target = "wal-append";
          nth = 2;
          sticky = false;
          action = Chaos.Fs.Torn 30;
        };
      ]
    (fun () ->
      match Service.Wal.create ~dir ~config () with
      | Error _ -> ()
      | Ok w ->
          Service.Wal.append w (List.nth records 0);
          ignore (Service.Wal.sync w);
          (* First batch durable; the second one tears mid-write. *)
          Service.Wal.append w (List.nth records 1);
          Service.Wal.append w (List.nth records 2);
          Service.Wal.append w (List.nth records 3);
          ignore (Service.Wal.sync w));
  let r = recover_ok dir in
  Alcotest.(check bool)
    "recovered records are a prefix" true
    (prefix_of r.Service.Wal.r_records records);
  Alcotest.(check bool)
    "the acked batch survived" true
    (List.length r.Service.Wal.r_records >= 1);
  Alcotest.(check int)
    "last_seq matches the prefix"
    (List.length r.Service.Wal.r_records)
    r.Service.Wal.r_last_seq

(* Kill the process at every site and gap of the snapshot
   write → fsync → rename → dir-fsync protocol: whichever snapshot
   version survives, recovery merges it with the WAL into exactly the
   original records — old-or-new atomicity, no loss, no double apply. *)
let test_snapshot_rename_atomicity () =
  let windows =
    [
      "snap-open";
      "snap-write";
      "snap-fsync";
      "after-snapshot-write";
      "before-snapshot-rename";
      "snap-rename";
      "after-snapshot-rename";
      "dir-fsync";
    ]
  in
  List.iter
    (fun window ->
      let@ dir = with_tmpdir in
      let config = mk_config () in
      (* Golden state: snapshot covering seqs 1-2, WAL holding 1-4. *)
      (match
         Service.Wal.write_snapshot ~dir
           {
             Service.Wal.config;
             last_seq = 2;
             records = [ List.nth records 0; List.nth records 1 ];
           }
       with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: golden snapshot: %s" window msg);
      (match Service.Wal.create ~dir ~config () with
      | Ok w ->
          List.iter (Service.Wal.append w) records;
          (match Service.Wal.sync w with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: golden sync: %s" window msg);
          Service.Wal.close w
      | Error msg -> Alcotest.failf "%s: golden wal: %s" window msg);
      fork_chaos
        ~rules:
          [
            {
              Chaos.Fs.target = window;
              nth = 1;
              sticky = false;
              action = Chaos.Fs.Crash;
            };
          ]
        (fun () ->
          ignore
            (Service.Wal.write_snapshot ~dir
               { Service.Wal.config; last_seq = 4; records }));
      let r = recover_ok dir in
      Alcotest.(check bool)
        (window ^ ": records intact")
        true
        (r.Service.Wal.r_records = records);
      Alcotest.(check int) (window ^ ": last seq") 4 r.Service.Wal.r_last_seq;
      Alcotest.(check bool)
        (window ^ ": no orphaned tmp after recovery")
        false
        (Sys.file_exists (Service.Wal.snapshot_path ~dir ^ ".tmp")))
    windows

let () =
  Random.self_init ();
  Alcotest.run "chaos"
    [
      ( "spec",
        [
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "rejects" `Quick test_spec_rejects;
        ] );
      ("fs", [ Alcotest.test_case "rules" `Quick test_fs_rules ]);
      ( "fuzz",
        [
          Alcotest.test_case "apply" `Quick test_fuzz_apply;
          Alcotest.test_case "random" `Quick test_fuzz_random;
        ] );
      ( "crash-windows",
        [
          Alcotest.test_case "torn-multi-record" `Quick test_torn_multi_record;
          Alcotest.test_case "snapshot-rename-atomicity" `Quick
            test_snapshot_rename_atomicity;
        ] );
    ]
