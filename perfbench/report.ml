(* What one run reports: operation counts, correctness mismatches and
   named metrics with units.  Every metric is also printed as a line of
   its own as it is set; the closing JSON line is built in [Bench]. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list;
  metrics : (string, float * string) Hashtbl.t;
}

let create () =
  { attempted = 0; failed = 0; mismatches = []; metrics = Hashtbl.create 64 }

let metric r name unit v =
  Hashtbl.replace r.metrics name (v, unit);
  Format.printf "metric %-36s %16.6f %s@." name v unit

let note fmt = Format.printf ("note " ^^ fmt ^^ "@.")

let mismatch r fmt =
  Format.kasprintf
    (fun msg ->
      r.mismatches <- msg :: r.mismatches;
      Format.printf "MISMATCH %s@." msg)
    fmt

let correct r = r.mismatches = []
