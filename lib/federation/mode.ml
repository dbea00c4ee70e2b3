(* Domain-local construction flag: the Policy.maker signature cannot
   carry a federation argument without breaking every registered algorithm,
   so the driver raises this flag around policy construction instead, and
   REF/RAND read it to decide whether their sub-coalition simulators must
   be federated (time-varying machine sets). *)

let key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let enabled () = Domain.DLS.get key

let with_enabled v f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key v;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f
