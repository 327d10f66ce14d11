(* One node per queued packet. [prev]/[next] link the arrival ring, which
   runs through the queue's sentinel node; [dprev]/[dnext] link the ring of
   the packet's destination, which has no sentinel — its [dest] record
   points at the oldest node. *)
type node = {
  packet : Packet.t;
  mutable prev : node;
  mutable next : node;
  mutable dprev : node;
  mutable dnext : node;
}

type dest = {
  mutable first : node;
  mutable count : int;
}

(* Invariant: [nodes] has a binding for exactly the queued packet ids and
   [dests] for exactly the destinations with at least one queued packet;
   [ring.next] is the oldest packet and [ring.prev] the newest. *)
type t = {
  n : int;
  ring : node;
  nodes : node Int_table.t;
  dests : dest Int_table.t;
}

(* Carried by sentinels only; never returned. *)
let no_packet = Packet.make ~id:(-1) ~src:(-1) ~dst:(-1) ~injected_at:(-1)

let create ~n =
  let rec ring =
    { packet = no_packet; prev = ring; next = ring; dprev = ring; dnext = ring }
  in
  { n; ring; nodes = Int_table.create 16; dests = Int_table.create 16 }

let add t (p : Packet.t) =
  if Int_table.mem t.nodes p.id then
    invalid_arg "Pqueue.add: duplicate packet id";
  assert (p.dst >= 0 && p.dst < t.n);
  let ring = t.ring in
  let last = ring.prev in
  let node = { packet = p; prev = last; next = ring; dprev = ring; dnext = ring } in
  last.next <- node;
  ring.prev <- node;
  Int_table.add t.nodes p.id node;
  if Int_table.mem t.dests p.dst then begin
    let d = Int_table.find t.dests p.dst in
    let first = d.first in
    let tail = first.dprev in
    node.dprev <- tail;
    node.dnext <- first;
    tail.dnext <- node;
    first.dprev <- node;
    d.count <- d.count + 1
  end
  else begin
    node.dprev <- node;
    node.dnext <- node;
    Int_table.add t.dests p.dst { first = node; count = 1 }
  end

let remove t (p : Packet.t) =
  if not (Int_table.mem t.nodes p.id) then false
  else begin
    let node = Int_table.find t.nodes p.id in
    Int_table.remove t.nodes p.id;
    node.prev.next <- node.next;
    node.next.prev <- node.prev;
    let dst = node.packet.dst in
    let d = Int_table.find t.dests dst in
    if d.count = 1 then Int_table.remove t.dests dst
    else begin
      node.dprev.dnext <- node.dnext;
      node.dnext.dprev <- node.dprev;
      if d.first == node then d.first <- node.dnext;
      d.count <- d.count - 1
    end;
    true
  end

let mem t (p : Packet.t) = Int_table.mem t.nodes p.id

let size t = Int_table.length t.nodes

let is_empty t = t.ring.next == t.ring

let count_to t d =
  if Int_table.mem t.dests d then (Int_table.find t.dests d).count else 0

let dests t =
  List.sort Int.compare (Int_table.fold (fun d _ acc -> d :: acc) t.dests [])

let oldest t =
  let first = t.ring.next in
  if first == t.ring then None else Some first.packet

let oldest_to t d =
  if Int_table.mem t.dests d then Some (Int_table.find t.dests d).first.packet
  else None

(* The ring walks below are top-level functions taking every value they
   need as an argument, so a query allocates no closure. *)
let rec first_such ring pred node =
  if node == ring then None
  else if pred node.packet then Some node.packet
  else first_such ring pred node.next

let oldest_such t pred = first_such t.ring pred t.ring.next

let rec exists_from ring pred a b node =
  node != ring && (pred a b node.packet || exists_from ring pred a b node.next)

let exists_such t pred a b = exists_from t.ring pred a b t.ring.next

let rec first_to_such first pred node =
  if pred node.packet then Some node.packet
  else if node.dnext == first then None
  else first_to_such first pred node.dnext

let oldest_to_such t d pred =
  if Int_table.mem t.dests d then begin
    let first = (Int_table.find t.dests d).first in
    first_to_such first pred first
  end
  else None

(* The oldest node of the newest run of packets satisfying [pred], walking
   back from [node]; the sentinel when the newest packet fails. *)
let rec run_start ring pred node =
  if node != ring && pred node.packet then run_start ring pred node.prev
  else node.next

let rec fold_from ring f acc node =
  if node == ring then acc else fold_from ring f (f acc node.packet) node.next

let fold t ~init ~f = fold_from t.ring f init t.ring.next

let rec iter_from ring f node =
  if node != ring then begin
    f node.packet;
    iter_from ring f node.next
  end

let iter t ~f = iter_from t.ring f t.ring.next

let iter_suffix t pred ~f =
  iter_from t.ring f (run_start t.ring pred t.ring.prev)

(* Built from the newest packet backwards, so no reversal is needed. *)
let rec list_before ring acc node =
  if node == ring then acc else list_before ring (node.packet :: acc) node.prev

let to_list t = list_before t.ring [] t.ring.prev

let drain t =
  let packets = to_list t in
  t.ring.next <- t.ring;
  t.ring.prev <- t.ring;
  Int_table.reset t.nodes;
  Int_table.reset t.dests;
  packets
