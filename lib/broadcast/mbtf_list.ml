type t = {
  order : int array; (* station names, front first *)
  mutable index : int;
}

let create ~members =
  if Array.length members = 0 then invalid_arg "Mbtf_list.create: empty";
  { order = Array.copy members; index = 0 }

let holder t = t.order.(t.index)

let order t = Array.copy t.order

let note_heard_big t =
  (* Move the holder to the front; entries before it shift back by one. *)
  let station = t.order.(t.index) in
  for i = t.index downto 1 do
    t.order.(i) <- t.order.(i - 1)
  done;
  t.order.(0) <- station;
  t.index <- 0

let advance t = t.index <- (t.index + 1) mod Array.length t.order

let note_heard_small t = advance t

let note_silence t = advance t

let note_silences t c =
  let len = Array.length t.order in
  let moved = t.index + c in
  t.index <- (if moved < len then moved else moved mod len)

let rec position (order : int array) (station : int) i =
  if i >= Array.length order then raise Not_found
  else if order.(i) = station then i
  else position order station (i + 1)

let silences_until_holder t station =
  let len = Array.length t.order in
  (position t.order station 0 - t.index + len) mod len
