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
