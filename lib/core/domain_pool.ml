let recommended_workers () =
  Stdlib.max 1 (Domain.recommended_domain_count () - 1)

type 'b slot = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

let map ?workers f tasks =
  let workers =
    match workers with
    | Some w -> Stdlib.max 1 w
    | None -> recommended_workers ()
  in
  match tasks with
  | [] -> []
  | _ when workers = 1 -> List.map f tasks
  | _ ->
      let tasks = Array.of_list tasks in
      let n = Array.length tasks in
      let results = Array.make n Pending in
      let next = Atomic.make 0 in
      let worker () =
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (results.(i) <-
               (match f tasks.(i) with
               | v -> Done v
               | exception e -> Failed (e, Printexc.get_raw_backtrace ())));
            go ()
          end
        in
        go ()
      in
      let domains =
        List.init (Stdlib.min workers n) (fun _ -> Domain.spawn worker)
      in
      List.iter Domain.join domains;
      Array.to_list results
      |> List.map (function
           | Done v -> v
           | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
           | Pending -> assert false)
