type choice = {
  pattern : unit -> Pattern.t;
  description : string;
}

let duty_counts ~n ~horizon ~schedule =
  let duty = Array.make n 0 in
  for t = 0 to horizon - 1 do
    for i = 0 to n - 1 do
      if schedule ~me:i ~round:t then duty.(i) <- duty.(i) + 1
    done
  done;
  duty

let min_duty ~n ~horizon ~schedule =
  let duty = duty_counts ~n ~horizon ~schedule in
  let victim = ref 0 in
  for i = 1 to n - 1 do
    if duty.(i) < duty.(!victim) then victim := i
  done;
  let victim = !victim in
  { pattern = (fun () -> Pattern.flood ~n ~victim);
    description =
      Printf.sprintf "min-duty victim %d (on %d/%d rounds)" victim duty.(victim) horizon }

let min_pair ~n ~horizon ~schedule =
  (* Count co-on rounds for unordered pairs, then flood the minimum. *)
  let co = Array.make_matrix n n 0 in
  let on = Array.make n false in
  for t = 0 to horizon - 1 do
    for i = 0 to n - 1 do
      on.(i) <- schedule ~me:i ~round:t
    done;
    for i = 0 to n - 1 do
      if on.(i) then
        for j = i + 1 to n - 1 do
          if on.(j) then co.(i).(j) <- co.(i).(j) + 1
        done
    done
  done;
  let best = ref (0, 1) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let bi, bj = !best in
      if co.(i).(j) < co.(bi).(bj) then best := (i, j)
    done
  done;
  let w, z = !best in
  { pattern = (fun () -> Pattern.pair_flood ~src:w ~dst:z);
    description =
      Printf.sprintf "min-co-duty pair (%d,%d) (co-on %d/%d rounds)" w z co.(w).(z) horizon }

let cap2_breaker ~n =
  if n < 3 then invalid_arg "Saboteur.cap2_breaker: needs n >= 3";
  (* Helpers s1 (injection target) and s2 (packet destination) are the two
     smallest stations different from the witness. *)
  let helpers exclude =
    let rec pick acc candidate count =
      if count = 2 then List.rev acc
      else if candidate = exclude then pick acc (candidate + 1) count
      else pick (candidate :: acc) (candidate + 1) (count + 1)
    in
    match pick [] 0 0 with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let pattern () =
    (* Witness station s: currently clean (empty queue, nothing addressed
       to it) and believed off. *)
    let s = ref (n - 1) in
    let gen ~round:_ ~budget ~view:(view : View.t) =
      (* If the witness woke up, re-choose a clean off station as witness. *)
      if view.was_on !s then begin
        let candidate = ref (-1) in
        for i = n - 1 downto 0 do
          if view.queue_size i = 0 && view.queued_to i = 0 && not (view.was_on i)
          then candidate := i
        done;
        if !candidate >= 0 then s := !candidate
        (* else: every clean station was on; keep s, the round is already
           wasted for the algorithm. *)
      end;
      let s1, s2 = helpers !s in
      List.init budget (fun _ -> (s1, s2))
    in
    let save () = string_of_int !s in
    let load st =
      match int_of_string_opt st with
      | Some v when v >= 0 && v < n -> s := v
      | _ -> invalid_arg "Saboteur.cap2_breaker: bad witness state"
    in
    Pattern.make ~save ~load ~name:"cap2-breaker" gen
  in
  { pattern; description = "adaptive Lemma-1 witness strategy" }
