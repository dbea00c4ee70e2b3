let factorial_table =
  (* 20! = 2432902008176640000 < 2^62; 21! overflows. *)
  let t = Array.make 21 1 in
  for i = 1 to 20 do
    t.(i) <- t.(i - 1) * i
  done;
  t

let factorial n =
  if n < 0 || n > 20 then invalid_arg "Combinatorics.factorial"
  else factorial_table.(n)

let binomial n k =
  if k < 0 || k > n then 0
  else
    let k = Stdlib.min k (n - k) in
    let rec go acc i =
      if i > k then acc else go (acc * (n - k + i) / i) (i + 1)
    in
    go 1 1

let check_players k s =
  if k < 1 || k > 20 || s < 0 || s >= k then
    invalid_arg "Combinatorics.shapley_weight"

let shapley_weight ~players:k ~subset:s =
  check_players k s;
  Rational.make (factorial s * factorial (k - s - 1)) (factorial k)

(* Precomputed at module load for every k <= 20: keeps the lookup free of
   mutation, so it is safe to call from multiple domains (the experiment
   sweeps of Core.Domain_pool.map). *)
let weight_table =
  Array.init 21 (fun k ->
      if k = 0 then [||]
      else
        Array.init k (fun s ->
            Rational.to_float (shapley_weight ~players:k ~subset:s)))

let shapley_weight_float ~players:k ~subset:s =
  check_players k s;
  weight_table.(k).(s)

let update_weight ~players ~size =
  if size < 1 then invalid_arg "Combinatorics.update_weight"
  else shapley_weight ~players ~subset:(size - 1)

let rec insert_everywhere x = function
  | [] -> [ [ x ] ]
  | y :: ys as l ->
      (x :: l) :: List.map (fun rest -> y :: rest) (insert_everywhere x ys)

let rec permutations = function
  | [] -> [ [] ]
  | x :: xs -> List.concat_map (insert_everywhere x) (permutations xs)

let rec subsets = function
  | [] -> [ [] ]
  | x :: xs ->
      let rest = subsets xs in
      rest @ List.map (fun s -> x :: s) rest
