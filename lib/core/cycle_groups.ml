type t = {
  n : int;
  k : int;
  groups : int array array;
  delta : int;
}

let effective_k ~n ~k =
  if n < 3 then invalid_arg "Cycle_groups: n must be >= 3";
  if k < 2 || k >= n then invalid_arg "Cycle_groups: need 2 <= k < n";
  if n <= 2 * k then (n + 1) / 2 else k

let make ?(delta_scale = 1.0) ~n ~k () =
  let k = effective_k ~n ~k in
  (* The chain of group boundaries is 0, k-1, 2(k-1), ..., closing at n ≡ 0:
     group i spans stations i(k-1) .. min((i+1)(k-1), n), inclusive, mod n.
     When (k-1) | n every group has exactly k members; otherwise the last
     group is shorter (the paper pads with dummies instead). *)
  let count = (n + k - 2) / (k - 1) in
  let groups =
    Array.init count (fun i ->
        let start = i * (k - 1) in
        let stop = min ((i + 1) * (k - 1)) n in
        Array.init (stop - start + 1) (fun j -> (start + j) mod n))
  in
  let delta = (4 * (n - 1) * k + (n - k - 1)) / (n - k) in
  let delta = max 1 (int_of_float (Float.round (delta_scale *. float_of_int delta))) in
  { n; k; groups; delta }

let group_count t = Array.length t.groups

let active_group t ~round = round / t.delta mod group_count t

(* A plain loop rather than [Array.exists] with a closure: k-Cycle asks
   this for every station in every round. Without the [int] annotations
   the loop would generalise and compare through polymorphic equality. *)
let rec mem_from (members : int array) (station : int) i =
  i < Array.length members
  && (members.(i) = station || mem_from members station (i + 1))

let in_group t ~group station = mem_from t.groups.(group) station 0

let member_groups t station =
  let result = ref [] in
  for i = group_count t - 1 downto 0 do
    if in_group t ~group:i station then result := i :: !result
  done;
  !result

let forward_connector t i =
  let g = t.groups.(i) in
  g.(Array.length g - 1)

let backward_connector t i = t.groups.(i).(0)
