(* In-memory spans for the traced run: name, start, end, parent span and
   request id, kept in flat arrays while the run is timed and written out
   as NDJSON when it ends.  Each closing span adds its self time (its
   duration minus the part its child spans cover) and its duration to a
   per-name total, so layer self times add back up to the root span. *)

type frame = {
  id : int;
  name : int;
  start : int;
  mutable child : int;  (** ns covered by closed child spans *)
}

type total = {
  mutable self_ns : int;
  durations : Measure.Samples.t;  (** per-call durations, µs *)
}

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  totals : (string, total) Hashtbl.t;
  mutable stack : frame list;
  mutable next : int;
  cap : int;
  (* kept spans, six ints each: id, name, start, end, parent, req *)
  mutable rows : int array;
  mutable kept : int;
}

let create ?(cap = 400_000) () =
  {
    names = Hashtbl.create 16;
    name_of = [||];
    totals = Hashtbl.create 16;
    stack = [];
    next = 0;
    cap;
    rows = Array.make (6 * 1024) 0;
    kept = 0;
  }

let intern t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      Hashtbl.add t.names name i;
      t.name_of <- Array.append t.name_of [| name |];
      i

let total t name =
  match Hashtbl.find_opt t.totals name with
  | Some a -> a
  | None ->
      let a = { self_ns = 0; durations = Measure.Samples.create () } in
      Hashtbl.add t.totals name a;
      a

let keep t ~id ~name ~start ~stop ~parent ~req =
  if t.kept < t.cap then begin
    if 6 * (t.kept + 1) > Array.length t.rows then begin
      let r = Array.make (2 * Array.length t.rows) 0 in
      Array.blit t.rows 0 r 0 (6 * t.kept);
      t.rows <- r
    end;
    let o = 6 * t.kept in
    t.rows.(o) <- id;
    t.rows.(o + 1) <- name;
    t.rows.(o + 2) <- start;
    t.rows.(o + 3) <- stop;
    t.rows.(o + 4) <- parent;
    t.rows.(o + 5) <- req;
    t.kept <- t.kept + 1
  end

let account t ~name ~dur ~self =
  let a = total t t.name_of.(name) in
  a.self_ns <- a.self_ns + self;
  Measure.Samples.add a.durations (Measure.us_of_ns dur)

(* [f ()] under a span nested in the innermost open one.  Stack spans
   carry request id 0. *)
let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let frame = { id; name = intern t name; start = Measure.now_ns (); child = 0 } in
  t.stack <- frame :: t.stack;
  let leave () =
    let stop = Measure.now_ns () in
    let dur = stop - frame.start in
    t.stack <- List.tl t.stack;
    (match t.stack with p :: _ -> p.child <- p.child + dur | [] -> ());
    account t ~name:frame.name ~dur ~self:(dur - frame.child);
    keep t ~id ~name:frame.name ~start:frame.start ~stop ~parent ~req:0
  in
  match f () with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

(* A span timed elsewhere (a request from send to ack): it has no
   children, so its self time is its duration. *)
let record t ~name ~start ~stop ~parent ~req =
  let id = t.next in
  t.next <- id + 1;
  let name = intern t name in
  account t ~name ~dur:(stop - start) ~self:(stop - start);
  keep t ~id ~name ~start ~stop ~parent ~req;
  id

let self_s t name =
  match Hashtbl.find_opt t.totals name with
  | Some a -> float_of_int a.self_ns *. 1e-9
  | None -> 0.

let durations t name =
  match Hashtbl.find_opt t.totals name with
  | Some a -> a.durations
  | None -> Measure.Samples.create ()

let count t = t.next

(* One JSON object per kept span, in closing order; returns how many
   spans the cap dropped. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.kept - 1 do
        let o = 6 * i in
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
          t.rows.(o) t.name_of.(t.rows.(o + 1)) t.rows.(o + 2)
          t.rows.(o + 3) t.rows.(o + 4) t.rows.(o + 5)
      done);
  t.next - t.kept
