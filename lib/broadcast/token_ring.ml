type t = {
  members : int array;
  mutable index : int;
  mutable phase : int;
}

let create ~members =
  if Array.length members = 0 then invalid_arg "Token_ring.create: empty";
  { members = Array.copy members; index = 0; phase = 0 }

let members t = Array.copy t.members

let size t = Array.length t.members

let holder t = t.members.(t.index)

let phase t = t.phase

let note_heard _t = ()

let note_silence t =
  t.index <- t.index + 1;
  if t.index = Array.length t.members then begin
    t.index <- 0;
    t.phase <- t.phase + 1
  end

let note_silences t c =
  let size = Array.length t.members in
  let moved = t.index + c in
  if moved < size then t.index <- moved
  else begin
    t.index <- moved mod size;
    t.phase <- t.phase + (moved / size)
  end

let rec position (members : int array) (station : int) i =
  if i >= Array.length members then raise Not_found
  else if members.(i) = station then i
  else position members station (i + 1)

let silences_until_holder t station =
  let size = Array.length t.members in
  (position t.members station 0 - t.index + size) mod size

let silences_until_wrap t = Array.length t.members - t.index
