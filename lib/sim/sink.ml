open Mac_channel

type t = {
  emit : round:int -> Event.t -> unit;
  close : unit -> unit;
}

let make ?(close = fun () -> ()) emit = { emit; close }

let null = make (fun ~round:_ _ -> ())

let close t = t.close ()

let ring trace =
  make (fun ~round ev ->
      if Event.notable ev then Trace.event trace ~round (Event.to_string ev))

(* Each line is encoded into one buffer the sink reuses, then copied
   into the channel's own buffer: no string is made per event. *)
let jsonl_emit oc =
  let buf = Buffer.create 256 in
  fun ~round ev ->
    Buffer.clear buf;
    Event.add_json buf ~round ev;
    Buffer.add_char buf '\n';
    Buffer.output_buffer oc buf

let jsonl oc = make ~close:(fun () -> flush oc) (jsonl_emit oc)

let jsonl_file path =
  let oc = open_out path in
  make ~close:(fun () -> close_out oc) (jsonl_emit oc)

let tee sinks =
  make
    ~close:(fun () -> List.iter close sinks)
    (fun ~round ev -> List.iter (fun s -> s.emit ~round ev) sinks)

type counts = {
  injected : int;
  delivered : int;
  relays : int;
  collisions : int;
  silences : int;
  lights : int;
  strandeds : int;
  station_rounds : int;
  rounds : int;
  drain_rounds : int;
  crashes : int;
  restarts : int;
  jammed : int;
  lost : int;
}

let counting () =
  let injected = ref 0 and delivered = ref 0 and relays = ref 0 in
  let collisions = ref 0 and silences = ref 0 and lights = ref 0 in
  let strandeds = ref 0 and station_rounds = ref 0 in
  let rounds = ref 0 and drain_rounds = ref 0 in
  let crashes = ref 0 and restarts = ref 0 and jammed = ref 0 in
  let lost = ref 0 in
  let emit ~round:_ (ev : Event.t) =
    match ev with
    | Injected _ -> incr injected
    | Delivered _ -> incr delivered
    | Relayed _ -> incr relays
    | Collision _ -> incr collisions
    | Silence -> incr silences
    | Heard { light = true; _ } -> incr lights
    | Stranded _ -> incr strandeds
    | Round_end { on_count; draining } ->
      station_rounds := !station_rounds + on_count;
      if draining then incr drain_rounds else incr rounds
    | Station_crashed { lost = l; _ } ->
      incr crashes;
      lost := !lost + l
    | Station_restarted _ -> incr restarts
    | Round_jammed _ -> incr jammed
    | Heard _ | Switched_on _ | Switched_off _ | Transmit _ | Cap_exceeded _
    | Adoption_conflict _ | Spurious_adoption _ | Telemetry _ ->
      ()
  in
  ( make emit,
    fun () ->
      { injected = !injected; delivered = !delivered; relays = !relays;
        collisions = !collisions; silences = !silences; lights = !lights;
        strandeds = !strandeds; station_rounds = !station_rounds;
        rounds = !rounds; drain_rounds = !drain_rounds;
        crashes = !crashes; restarts = !restarts; jammed = !jammed;
        lost = !lost } )
