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
