type t = {
  machines : int array;
  speeds : float array option;
  horizon : int;
  algorithm : string;
  seed : int;
  max_restarts : int option;
  groups : int;
  federated : bool;
}

(* Org-groups partition the organizations into contiguous balanced blocks:
   group [g] owns orgs [g*k/G, (g+1)*k/G).  Machines follow their orgs. *)
let group_org_lo ~orgs ~groups g = g * orgs / groups

let make ?speeds ?max_restarts ?(groups = 1) ?(federated = false)
    ~machines ~horizon ~algorithm ~seed () =
  let total = Array.fold_left ( + ) 0 machines in
  let orgs = Array.length machines in
  let empty_group () =
    (* every group needs at least one machine, or its session is invalid *)
    let rec go g =
      if g >= groups then false
      else
        let lo = group_org_lo ~orgs ~groups g
        and hi = group_org_lo ~orgs ~groups (g + 1) in
        let sum = ref 0 in
        for o = lo to hi - 1 do
          sum := !sum + machines.(o)
        done;
        if !sum = 0 then true else go (g + 1)
    in
    go 0
  in
  if Array.length machines = 0 then Error "no organizations"
  else if Array.exists (fun m -> m < 0) machines then
    Error "negative machine count"
  else if total = 0 then Error "no machines at all"
  else if horizon <= 0 then Error "horizon must be positive"
  else if Algorithms.Registry.find algorithm = None then
    Error (Printf.sprintf "unknown algorithm %S" algorithm)
  else if (match max_restarts with Some r -> r < 0 | None -> false) then
    Error "max_restarts must be >= 0"
  else if groups < 1 then Error "groups must be >= 1"
  else if groups > orgs then Error "groups must not exceed the organization count"
  else if empty_group () then Error "every org-group needs at least one machine"
  else
    match speeds with
    | Some sp when Array.length sp <> total ->
        Error "speeds length must match the machine count"
    | Some sp when Array.exists (fun s -> s <= 0.) sp ->
        Error "speeds must be positive"
    | _ ->
        Result.map
          (fun () ->
            {
              machines;
              speeds;
              horizon;
              algorithm;
              seed;
              max_restarts;
              groups;
              federated;
            })
          (Core.Instance.check_horizon ~machines:total ~horizon)

let organizations t = Array.length t.machines
let total_machines t = Array.fold_left ( + ) 0 t.machines

let empty_instance t =
  match t.speeds with
  | None -> Core.Instance.make ~machines:t.machines ~jobs:[] ~horizon:t.horizon
  | Some speeds ->
      Core.Instance.make_related ~speeds ~machines:t.machines ~jobs:[]
        ~horizon:t.horizon

let to_json t =
  let open Obs.Json in
  Obj
    (List.concat
       [
         [
           ("machines", List (Array.to_list (Array.map (fun m -> Int m) t.machines)));
         ];
         (match t.speeds with
         | None -> []
         | Some sp ->
             [ ("speeds", List (Array.to_list (Array.map (fun s -> Float s) sp))) ]);
         [
           ("horizon", Int t.horizon);
           ("algorithm", String t.algorithm);
           ("seed", Int t.seed);
         ];
         (match t.max_restarts with
         | None -> []
         | Some r -> [ ("max_restarts", Int r) ]);
         (* omitted when 1 so single-group WAL headers stay byte-identical
            with logs written before sharding existed *)
         (if t.groups = 1 then [] else [ ("groups", Int t.groups) ]);
         (* same discipline: only federated daemons mark their headers *)
         (if t.federated then [ ("federated", Bool true) ] else []);
       ])

let int_field j name =
  match Obs.Json.member j name with
  | Some (Obs.Json.Int v) -> Ok v
  | Some _ -> Error (Printf.sprintf "config field %S must be an integer" name)
  | None -> Error (Printf.sprintf "config field %S missing" name)

let opt_int_field j name =
  match Obs.Json.member j name with
  | None -> Ok None
  | Some (Obs.Json.Int v) -> Ok (Some v)
  | Some _ -> Error (Printf.sprintf "config field %S must be an integer" name)

let of_json j =
  let ( let* ) = Result.bind in
  let* machines =
    match Obs.Json.member j "machines" with
    | Some (Obs.Json.List items) ->
        let rec go acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | Obs.Json.Int m :: rest -> go (m :: acc) rest
          | _ -> Error "config field \"machines\" must be a list of integers"
        in
        go [] items
    | Some _ | None -> Error "config field \"machines\" missing or not a list"
  in
  let* speeds =
    match Obs.Json.member j "speeds" with
    | None -> Ok None
    | Some (Obs.Json.List items) ->
        let rec go acc = function
          | [] -> Ok (Some (Array.of_list (List.rev acc)))
          | item :: rest -> (
              match Obs.Json.get_number item with
              | Some f -> go (f :: acc) rest
              | None -> Error "config field \"speeds\" must be numeric")
        in
        go [] items
    | Some _ -> Error "config field \"speeds\" must be a list"
  in
  let* horizon = int_field j "horizon" in
  let* algorithm =
    match Obs.Json.member j "algorithm" with
    | Some (Obs.Json.String s) -> Ok s
    | Some _ | None -> Error "config field \"algorithm\" missing"
  in
  let* seed = int_field j "seed" in
  let* max_restarts = opt_int_field j "max_restarts" in
  (* Unknown members are ignored: headers and snapshots written by older
     daemons may carry members this version no longer reads. *)
  let* groups =
    match opt_int_field j "groups" with
    | Ok None -> Ok 1
    | Ok (Some g) -> Ok g
    | Error e -> Error e
  in
  let* federated =
    match Obs.Json.member j "federated" with
    | None -> Ok false
    | Some (Obs.Json.Bool b) -> Ok b
    | Some _ -> Error "config field \"federated\" must be a boolean"
  in
  make ?speeds ?max_restarts ~groups ~federated ~machines ~horizon
    ~algorithm ~seed ()

let equal a b =
  a.machines = b.machines && a.speeds = b.speeds && a.horizon = b.horizon
  && a.algorithm = b.algorithm && a.seed = b.seed
  && a.max_restarts = b.max_restarts && a.groups = b.groups
  && a.federated = b.federated

let pp ppf t =
  Format.fprintf ppf "%s k=%d m=%d horizon=%d seed=%d" t.algorithm
    (organizations t) (total_machines t) t.horizon t.seed
