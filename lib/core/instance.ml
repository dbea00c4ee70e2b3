type t = {
  machines : int array;
  jobs : Job.t array;
  horizon : int;
  speeds : float array option;
}

let make_general ~speeds ~machines ~jobs ~horizon =
  let k = Array.length machines in
  if k = 0 then invalid_arg "Instance.make: no organizations";
  Array.iter
    (fun m -> if m < 0 then invalid_arg "Instance.make: negative machines")
    machines;
  if Array.for_all (fun m -> m = 0) machines then
    invalid_arg "Instance.make: no machines at all";
  if horizon <= 0 then invalid_arg "Instance.make: non-positive horizon";
  List.iter
    (fun (j : Job.t) ->
      if j.org < 0 || j.org >= k then
        invalid_arg "Instance.make: job organization out of range";
      if j.release >= horizon then
        invalid_arg "Instance.make: job released at or after the horizon")
    jobs;
  (* Stable sort keeps the submission order of same-release jobs, then
     re-index per organization so that FIFO rank matches release order. *)
  let arr = Array.of_list jobs in
  let tagged = Array.mapi (fun pos j -> (pos, j)) arr in
  Array.sort
    (fun (p1, j1) (p2, j2) ->
      match Job.compare_release j1 j2 with
      | 0 -> Stdlib.compare p1 p2
      | c -> c)
    tagged;
  let next_index = Array.make k 0 in
  let jobs =
    Array.map
      (fun (_, (j : Job.t)) ->
        let index = next_index.(j.org) in
        next_index.(j.org) <- index + 1;
        { j with Job.index })
      tagged
  in
  (match speeds with
  | None -> ()
  | Some sp ->
      if Array.length sp <> Array.fold_left ( + ) 0 machines then
        invalid_arg "Instance.make: speeds length must match machine count";
      Array.iter
        (fun s -> if s <= 0. then invalid_arg "Instance.make: speed <= 0")
        sp);
  { machines; jobs; horizon; speeds }

let organizations t = Array.length t.machines
let total_machines t = Array.fold_left ( + ) 0 t.machines
let job_count t = Array.length t.jobs

let jobs_of_org t u =
  Array.to_list t.jobs |> List.filter (fun (j : Job.t) -> j.org = u)

let total_work t =
  Array.fold_left (fun acc (j : Job.t) -> acc + j.size) 0 t.jobs

let share t u =
  float_of_int t.machines.(u) /. float_of_int (total_machines t)

let pp ppf t =
  Format.fprintf ppf "instance(k=%d, m=%d, jobs=%d, horizon=%d)"
    (organizations t) (total_machines t) (job_count t) t.horizon

let pp_detailed ppf t =
  pp ppf t;
  Format.fprintf ppf "@.machines: %a@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (Array.to_list t.machines);
  Array.iter (fun j -> Format.fprintf ppf "  %a@." Job.pp j) t.jobs


let machine_speed t i =
  match t.speeds with
  | None -> 1.0
  | Some sp ->
      if i < 0 || i >= Array.length sp then
        invalid_arg "Instance.machine_speed"
      else sp.(i)

let speeds_of_org t u =
  let offset =
    let rec go acc v = if v >= u then acc else go (acc + t.machines.(v)) (v + 1) in
    go 0 0
  in
  Array.init t.machines.(u) (fun i -> machine_speed t (offset + i))


let make ~machines ~jobs ~horizon =
  make_general ~speeds:None ~machines ~jobs ~horizon

let make_related ~speeds ~machines ~jobs ~horizon =
  make_general ~speeds:(Some speeds) ~machines ~jobs ~horizon

(* h·(h+1) <= q  <=>  h < q / h (floor division), for h > 0; the float
   square root lands within a step or two of the answer. *)
let max_horizon ~machines =
  let q = max_int / 2 / max 1 machines in
  let fits h = h = 0 || h < q / h in
  let h = ref (int_of_float (Float.sqrt (float_of_int q))) in
  while not (fits !h) do
    decr h
  done;
  while fits (!h + 1) do
    incr h
  done;
  !h

let check_horizon ~machines ~horizon =
  let bound = max_horizon ~machines in
  if horizon <= bound then Ok ()
  else
    Error
      (Printf.sprintf
         "horizon %d is out of integer range for %d machines: \
          2*machines*horizon*(horizon+1) must not exceed max_int (%d), so \
          the largest horizon is %d"
         horizon machines max_int bound)
