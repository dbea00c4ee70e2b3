type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5deece66d |]

let split t =
  let a = Random.State.bits t and b = Random.State.bits t in
  Random.State.make [| a; b; a lxor (b lsl 7) |]

(* [full_int] accepts bounds up to [max_int] and draws exactly what
   [Random.State.int] draws below 2^30, so seeded streams are unchanged. *)
let int t bound = Random.State.full_int t bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo"
  else lo + Random.State.full_int t (hi - lo + 1)

let float t bound = Random.State.float t bound
let unit_float t = Random.State.float t 1.0
let bool t = Random.State.bool t

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.full_int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t l =
  let a = Array.of_list l in
  shuffle_in_place t a;
  Array.to_list a

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array"
  else a.(Random.State.full_int t (Array.length a))

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a
