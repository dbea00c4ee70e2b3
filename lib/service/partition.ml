type t = {
  base : Config.t;
  groups : int;
  org_lo : int array;  (* length groups+1; org_lo.(g) = g*k/G *)
  mach_lo : int array;  (* length groups+1; global machine offset of each block *)
  org_owner : int array;  (* length k *)
  mach_owner : int array;  (* length total_machines *)
}

let make (base : Config.t) =
  let k = Config.organizations base in
  let g = base.Config.groups in
  let org_lo = Array.init (g + 1) (fun i -> i * k / g) in
  (* machine ids are org-contiguous: prefix-sum the endowments *)
  let mach_off = Array.make (k + 1) 0 in
  for o = 0 to k - 1 do
    mach_off.(o + 1) <- mach_off.(o) + base.Config.machines.(o)
  done;
  let mach_lo = Array.map (fun o -> mach_off.(o)) org_lo in
  let org_owner = Array.make k 0 in
  let mach_owner = Array.make mach_off.(k) 0 in
  for grp = 0 to g - 1 do
    for o = org_lo.(grp) to org_lo.(grp + 1) - 1 do
      org_owner.(o) <- grp
    done;
    for m = mach_lo.(grp) to mach_lo.(grp + 1) - 1 do
      mach_owner.(m) <- grp
    done
  done;
  { base; groups = g; org_lo; mach_lo; org_owner; mach_owner }

let groups t = t.groups
let config t = t.base
let group_of_org t o = t.org_owner.(o)
let group_of_machine t m = t.mach_owner.(m)
let org_range t g = (t.org_lo.(g), t.org_lo.(g + 1))
let machine_range t g = (t.mach_lo.(g), t.mach_lo.(g + 1))
let local_org t o = o - t.org_lo.(t.org_owner.(o))
let local_machine t m = m - t.mach_lo.(t.mach_owner.(m))
let global_org t ~group lo = t.org_lo.(group) + lo
let global_machine t ~group lm = t.mach_lo.(group) + lm

let sub_config t g =
  let lo, hi = org_range t g in
  let mlo, mhi = machine_range t g in
  let machines = Array.sub t.base.Config.machines lo (hi - lo) in
  let speeds =
    Option.map (fun sp -> Array.sub sp mlo (mhi - mlo)) t.base.Config.speeds
  in
  match
    Config.make ?speeds
      ?max_restarts:t.base.Config.max_restarts
      ~federated:t.base.Config.federated ~machines
      ~horizon:t.base.Config.horizon ~algorithm:t.base.Config.algorithm
      ~seed:t.base.Config.seed ()
  with
  | Ok c -> c
  | Error e ->
      (* Config.make validated every group when the base config was built *)
      invalid_arg (Printf.sprintf "Partition.sub_config: group %d: %s" g e)

let scatter_int t f =
  let out = Array.make (Config.organizations t.base) 0 in
  for g = 0 to t.groups - 1 do
    let lo, _ = org_range t g in
    Array.iteri (fun i v -> out.(lo + i) <- v) (f g)
  done;
  out

let scatter_float t f =
  let out = Array.make (Config.organizations t.base) 0. in
  for g = 0 to t.groups - 1 do
    let lo, _ = org_range t g in
    Array.iteri (fun i v -> out.(lo + i) <- v) (f g)
  done;
  out
