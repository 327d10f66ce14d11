type t = { slots : int; width : int }

let make ~slots ~width =
  if slots < 1 || width < 1 then invalid_arg "Rotation.make";
  { slots; width }

(* Active rounds of [slot] in [0, x): [width] per whole period, plus the
   part of the slot's block the last partial period reaches. *)
let before t ~slot x =
  let period = t.slots * t.width in
  let into = (x mod period) - (slot * t.width) in
  (x / period * t.width) + Int.max 0 (Int.min t.width into)

let count_in t ~slot ~from ~until =
  if until <= from then 0 else before t ~slot until - before t ~slot from

(* The active round preceded by exactly [c] active rounds of [slot]. *)
let nth_from t ~slot ~round j =
  let c = before t ~slot round + j in
  (c / t.width * t.slots * t.width) + (slot * t.width) + (c mod t.width)

(* Fewer blocks than slots means each touched slot owns exactly one of
   them, and its count is that block's overlap with the range. *)
let iter_active t ~from ~until f a b =
  if until > from then begin
    let first = from / t.width and last = (until - 1) / t.width in
    if last - first + 1 >= t.slots then
      for slot = 0 to t.slots - 1 do
        f a b slot (count_in t ~slot ~from ~until)
      done
    else begin
      let slot = ref (first mod t.slots) in
      for block = first to last do
        f a b !slot
          (Int.min until ((block + 1) * t.width)
          - Int.max from (block * t.width));
        slot := if !slot + 1 = t.slots then 0 else !slot + 1
      done
    end
  end
