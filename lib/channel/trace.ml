type t = {
  capacity : int;
  buf : (int * string) array;
  mutable count : int; (* total events recorded *)
}

let create ?(capacity = 4096) () =
  { capacity; buf = Array.make (max capacity 1) (0, ""); count = 0 }

let event t ~round msg =
  t.buf.(t.count mod t.capacity) <- (round, msg);
  t.count <- t.count + 1

let dump t =
  let len = min t.count t.capacity in
  let start = t.count - len in
  List.init len (fun i -> t.buf.((start + i) mod t.capacity))
