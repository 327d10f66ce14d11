(* The serve daemon: a fleet of live channel instances behind a Unix-domain
   socket, speaking newline-delimited JSON.

   Architecture. The main domain owns all protocol I/O: it accepts
   connections, parses command lines, answers registry-level commands
   (inject / subscribe / stats / list) directly, and posts engine-touching
   commands (open / step / run / snapshot / migrate) as thunks into the
   owning shard's mailbox. Each shard is one Domain from the same pool
   budget the batch drivers use, looping { drain mailbox; advance each
   channel needing work by a bounded batch of rounds }. Shard replies
   travel back through a mutex-guarded outbox plus a self-pipe that wakes
   the main select loop.

   Durability. Every channel persists three files in the state directory:
   <id>.meta (its full configuration — enough to rebuild the run),
   <id>.ckpt (rotating PR-5 checkpoint, written on the engine's cadence
   and at drain), and <id>.events.jsonl (the spool: the channel's full
   typed event stream, telemetry frames excluded). On adoption — daemon
   restart after a drain, or shard respawn after a crash — the spool is
   truncated back to the checkpoint's round and the engine resumes from
   the snapshot, so the spool always reads as one uninterrupted stream:
   byte-identical to the equivalent batch run's --events file.

   Lifecycle. A channel reaches a shard one way: [hand_to] marks it
   pending and posts its adoption, which resumes it from its checkpoint.
   [open], [migrate], a shard respawn and a daemon restart all go through
   it. It leaves its session one way: [detach] drops the session and
   closes the spool. The packets [inject] accepted since the channel's
   last checkpoint are carried across the hand-off and pushed into the
   adopted session's feed, so neither [migrate] nor a respawn loses one;
   while a channel is pending, [inject] answers "migrating; retry". Two
   limits remain: a daemon killed outright (SIGKILL) loses the pushes
   since each channel's last checkpoint, and with [checkpoint_every] 0 a
   feed keeps every push until the next snapshot, migrate or drain.

   Crash containment. A channel whose engine raises (protocol violation,
   bad fault plan) is marked failed; the shard survives. A shard whose
   loop dies (the kill-shard chaos hook, or a bug) is detected by the
   main loop, joined, respawned, and its running channels are re-adopted
   from their last checkpoints — the PR-7 supervision story applied to
   long-lived channels instead of batch jobs. *)

module E = Mac_sim.Engine
module J = Mac_channel.Jsonv
module Registry = Mac_experiments.Registry
module Scenario = Mac_experiments.Scenario

let max_line = 1 lsl 20

(* --- configuration ------------------------------------------------------ *)

type config = {
  dir : string;
  socket : string;
  shards : int;
  checkpoint_every : int;  (** default for channels that don't specify *)
  telemetry_every : int;
  log : string -> unit;
}

(* --- channels ----------------------------------------------------------- *)

type chan_cfg = {
  cc_id : string;
  cc_spec : Registry.spec;  (** pattern: "external" or a generator spec *)
  cc_faults : string option;  (** fault-plan file path *)
  cc_every : int;  (** checkpoint cadence *)
}

type status = Pending | Running | Complete | Failed of string

(* Spool writer: an explicit buffer over a raw fd. Deliberately not a
   buffered out_channel — an abandoned out_channel (shard crash) would
   flush its stale buffer at exit or GC time, corrupting the spool after
   the re-adoption truncated it. An abandoned [spool] just drops its
   buffered bytes, which is exactly right: those rounds get re-executed. *)
type spool = {
  sp_fd : Unix.file_descr;
  sp_buf : Buffer.t;
}

(* A connection waiting on a channel: answered once the session has
   executed [t] steps since adoption when [w_until = Some t], and once the
   run completes when it is [None]. The waiters are all the work a shard
   does for a channel. *)
type waiter = { w_conn : int; w_until : int option }

type channel = {
  ch_cfg : chan_cfg;
  ch_mutex : Mutex.t;
  (* under ch_mutex — read by main for list/stats/inject/subscribe: *)
  mutable ch_status : status;
  mutable ch_shard : int;
  mutable ch_round : int;
  mutable ch_backlog : int;
  mutable ch_feed : Mac_adversary.Pattern.feed option;
  mutable ch_summary : string option;  (** summary_json line when complete *)
  (* owned by the adopting shard: *)
  mutable ch_session : E.session option;
  mutable ch_spool : spool option;
  mutable ch_probe : Mac_sim.Telemetry.Fleet.probe option;
  mutable ch_steps_total : int;
  mutable ch_waiters : waiter list;
}

(* --- shards ------------------------------------------------------------- *)

exception Shard_killed

type shard = {
  sh_index : int;
  sh_mutex : Mutex.t;
  sh_cond : Condition.t;
  sh_mailbox : (shard -> unit) Queue.t;
      (** given the shard that runs them: a respawned shard replays a dead
          one's leftovers *)
  mutable sh_channels : channel list;
  mutable sh_stop : bool;
  mutable sh_dead : bool;
}

(* --- connections -------------------------------------------------------- *)

type sub = {
  sub_chan : channel;
  mutable sub_fd : Unix.file_descr option;  (** spool fd, opened lazily *)
  mutable sub_pos : int;  (** next unforwarded spool byte *)
  sub_carry : Buffer.t;  (** partial trailing line *)
}

type conn = {
  co_id : int;
  co_fd : Unix.file_descr;
  co_in : Buffer.t;
  co_out : Buffer.t;
  mutable co_sub : sub option;
  mutable co_closing : bool;  (** close once co_out drains *)
}

type t = {
  cfg : config;
  fleet : Mac_sim.Telemetry.Fleet.t;
  shards : shard array;
  domains : unit Domain.t option array;
  channels : (string, channel) Hashtbl.t;
  mutable order : string list;  (** channel ids, open order *)
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  mutable next_auto : int;  (** generated channel ids *)
  mutable next_shard : int;  (** round-robin cursor *)
  mutable respawns : int;
  listener : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  out_mutex : Mutex.t;
  outbox : (int * string) Queue.t;
}

(* --- small helpers ------------------------------------------------------ *)

let meta_path sv id = Filename.concat sv.cfg.dir (id ^ ".meta")
let ckpt_path sv id = Filename.concat sv.cfg.dir (id ^ ".ckpt")
let spool_path sv id = Filename.concat sv.cfg.dir (id ^ ".events.jsonl")
let summary_path sv id = Filename.concat sv.cfg.dir (id ^ ".summary.json")

let valid_id id =
  id <> ""
  && String.length id <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       id

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Empty [q] under [m], oldest first. *)
let take_all m q =
  locked m (fun () ->
      let items = List.of_seq (Queue.to_seq q) in
      Queue.clear q;
      items)

let status_str = function
  | Pending -> "pending"
  | Running -> "running"
  | Complete -> "complete"
  | Failed _ -> "failed"

(* --- spool -------------------------------------------------------------- *)

let spool_open path =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  { sp_fd = fd; sp_buf = Buffer.create 8192 }

(* Staging between a spool's buffer and its fd, one per domain and the
   size of [Unix.write]'s own: a flush blits the buffer through it a chunk
   at a time instead of allocating a string of the whole advance batch
   (up to hundreds of KB, straight into the major heap) on every flush. *)
let spool_chunk = Domain.DLS.new_key (fun () -> Bytes.create 65536)

(* The buffer is emptied even when a write fails, so the [detach] of the
   failed channel does not write its head twice. *)
let spool_flush sp =
  let chunk = Domain.DLS.get spool_chunk in
  Fun.protect
    ~finally:(fun () -> Buffer.clear sp.sp_buf)
    (fun () ->
      let len = Buffer.length sp.sp_buf in
      let off = ref 0 in
      while !off < len do
        let n = min (Bytes.length chunk) (len - !off) in
        Buffer.blit sp.sp_buf !off chunk 0 n;
        off := !off + Unix.write sp.sp_fd chunk 0 n
      done)

let spool_sink sp =
  Mac_sim.Sink.make (fun ~round ev ->
      match ev with
      | Mac_channel.Event.Telemetry _ ->
        (* Telemetry frames go to the .prom files, not the spool: the spool
           must stay byte-identical to a batch --events file (which has no
           probe installed). *)
        ()
      | _ ->
        Mac_channel.Event.add_json sp.sp_buf ~round ev;
        Buffer.add_char sp.sp_buf '\n')

(* Cut the spool back to the first event at or past [from_round], so a
   resumed engine (which re-executes from that round) appends exactly the
   bytes the crashed run would have written. A line without a round counts
   as corruption and is cut too, and so does a last line without its
   newline: a torn write, whose fragment may read as an early round. *)
let truncate_spool ~path ~from_round =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let keep =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go keep =
            match input_line ic with
            | exception End_of_file -> keep
            | line -> (
              let next = pos_in ic in
              let terminated = next > keep + String.length line in
              match Mac_channel.Event.round_of_line line with
              | Some r when r < from_round && terminated -> go next
              | _ -> keep)
          in
          go 0)
    in
    if keep < (Unix.stat path).Unix.st_size then Unix.truncate path keep
  end

(* --- meta files --------------------------------------------------------- *)

let meta_json cc ~status ~error ~summary =
  let opt f = function None -> J.Null | Some v -> f v in
  J.Obj
    ((("id", J.Str cc.cc_id) :: Registry.encode cc.cc_spec)
    @ [ ("faults", opt (fun p -> J.Str p) cc.cc_faults);
        ("checkpoint_every", J.Int cc.cc_every);
        ("status", J.Str status) ]
    @ (match error with None -> [] | Some e -> [ ("error", J.Str e) ])
    @ match summary with None -> [] | Some s -> [ ("summary", J.Str s) ])

let write_meta sv ch =
  let status, error, summary =
    locked ch.ch_mutex (fun () ->
        match ch.ch_status with
        | Failed msg -> ("failed", Some msg, None)
        | Complete -> ("complete", None, ch.ch_summary)
        | Pending | Running -> ("open", None, None))
  in
  Mac_sim.Durable.write_string
    ~path:(meta_path sv ch.ch_cfg.cc_id)
    (J.to_string (meta_json ch.ch_cfg ~status ~error ~summary) ^ "\n")

let ( let* ) = Result.bind

(* An optional field: [None] when absent or null, an error naming it when
   present with the wrong type. *)
let opt_field ~expected decode v k =
  J.field k ~expected ~default:None
    (fun x -> Option.map Option.some (decode x))
    v

let str_field = opt_field ~expected:"a string" J.to_str
let int_field = opt_field ~expected:"an integer" J.to_int

let required field v k =
  Result.bind (field v k)
    (Option.to_result ~none:(Printf.sprintf "missing %S" k))

(* The configuration an [open] command carries and its meta file repeats:
   the registry's run spec, with serve's default of external injection,
   plus the channel's fault plan and checkpoint cadence. *)
let chan_cfg_of_json v ~id ~every =
  let* spec =
    match J.member "algorithm" v with
    | None | Some J.Null -> Error "missing \"algorithm\""
    | Some _ ->
      Registry.decode ~default:{ Registry.default with pattern = "external" } v
  in
  let* faults = str_field v "faults" in
  let* every =
    J.field "checkpoint_every" ~expected:"an integer >= 0" ~default:every
      (fun x ->
        Option.bind (J.to_int x) (fun i -> if i >= 0 then Some i else None))
      v
  in
  Ok { cc_id = id; cc_spec = spec; cc_faults = faults; cc_every = every }

let parse_meta line =
  Result.map_error (( ^ ) "bad meta: ")
    (let* v = J.parse (String.trim line) in
     let* id = str_field v "id" in
     let* status = str_field v "status" in
     let* summary = str_field v "summary" in
     match (id, status) with
     | Some id, Some status ->
       let* cc = chan_cfg_of_json v ~id ~every:0 in
       Ok (cc, status, summary)
     | _ -> Error "missing fields")

(* --- replies ------------------------------------------------------------ *)

let send_main sv conn_id line =
  match Hashtbl.find_opt sv.conns conn_id with
  | None -> ()
  | Some c ->
    Buffer.add_string c.co_out line;
    Buffer.add_char c.co_out '\n'

(* From a shard: queue the line and poke the self-pipe so the select loop
   wakes up to deliver it. *)
let send_from_shard sv conn_id line =
  locked sv.out_mutex (fun () -> Queue.push (conn_id, line) sv.outbox);
  try ignore (Unix.write sv.wake_w (Bytes.of_string "x") 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let ok_fields fields = J.to_string (J.Obj (("ok", J.Bool true) :: fields))

let err_line msg = J.to_string (J.Obj [ ("ok", J.Bool false); ("error", J.Str msg) ])

let answer = function Ok fields -> ok_fields fields | Error msg -> err_line msg

(* --- shard side --------------------------------------------------------- *)

let post_thunk shard thunk =
  locked shard.sh_mutex (fun () ->
      Queue.push thunk shard.sh_mailbox;
      Condition.signal shard.sh_cond)

(* The steps the channel's waiters still ask for; [max_int] while one
   waits for the run to complete. *)
let steps_wanted ch =
  List.fold_left
    (fun acc w ->
      match w.w_until with
      | None -> max_int
      | Some t -> max acc (t - ch.ch_steps_total))
    0 ch.ch_waiters

let chan_has_work ch =
  ch.ch_session <> None
  && (match ch.ch_status with Running -> true | _ -> false)
  && steps_wanted ch > 0

(* Rounds per shard-loop iteration per channel. Small enough that drain
   requests, migrations and fresh injections are honoured promptly; large
   enough that per-batch bookkeeping is noise. *)
let batch_rounds = 2048

let reply_waiters sv ch ~complete =
  let fire, keep =
    List.partition
      (fun w ->
        complete
        ||
        match w.w_until with
        | Some t -> ch.ch_steps_total >= t
        | None -> false)
      ch.ch_waiters
  in
  ch.ch_waiters <- keep;
  List.iter
    (fun w ->
      let fields =
        [ ("channel", J.Str ch.ch_cfg.cc_id);
          ("round", J.Int ch.ch_round);
          ("complete", J.Bool complete) ]
        @
        match (w.w_until, ch.ch_summary) with
        | None, Some s -> (
          match J.parse s with
          | Ok v -> [ ("summary", v) ]
          | Error _ -> [ ("summary", J.Str s) ])
        | _ -> []
      in
      send_from_shard sv w.w_conn (ok_fields fields))
    fire

let fail_waiters sv ch msg =
  let ws = ch.ch_waiters in
  ch.ch_waiters <- [];
  List.iter (fun w -> send_from_shard sv w.w_conn (err_line msg)) ws

let publish ch =
  match ch.ch_session with
  | None -> ()
  | Some s ->
    locked ch.ch_mutex (fun () ->
        ch.ch_round <- E.session_round s;
        ch.ch_backlog <- E.session_backlog s)

(* Take [ch] off its session and close its spool. The spool's buffer is
   written out first unless [~flush:false]: a dead shard's buffer holds
   rounds the re-adopted session runs again. *)
let detach ch ~flush =
  Option.iter
    (fun sp ->
      if flush then spool_flush sp;
      Unix.close sp.sp_fd)
    ch.ch_spool;
  ch.ch_session <- None;
  ch.ch_spool <- None

(* Flush the spool, then write [snap] as the channel's checkpoint: resume
   truncates the spool back to the checkpoint round, which must never cut
   into data that only existed in the write buffer. *)
let checkpoint_channel sv ch snap =
  Option.iter spool_flush ch.ch_spool;
  Mac_sim.Checkpoint.write_rotated ~path:(ckpt_path sv ch.ch_cfg.cc_id) snap

let mark_failed sv ch msg =
  locked ch.ch_mutex (fun () -> ch.ch_status <- Failed msg);
  (try detach ch ~flush:true with Unix.Unix_error _ | Sys_error _ -> ());
  fail_waiters sv ch msg;
  write_meta sv ch;
  sv.cfg.log (Printf.sprintf "channel %s failed: %s" ch.ch_cfg.cc_id msg)

let complete_channel sv ch session =
  let sj = Mac_sim.Export.summary_json (E.finish session) in
  detach ch ~flush:true;
  Option.iter (Mac_sim.Telemetry.Fleet.finish sv.fleet) ch.ch_probe;
  ch.ch_probe <- None;
  locked ch.ch_mutex (fun () ->
      ch.ch_status <- Complete;
      ch.ch_summary <- Some sj);
  Mac_sim.Durable.write_string
    ~path:(summary_path sv ch.ch_cfg.cc_id)
    (sj ^ "\n");
  write_meta sv ch;
  reply_waiters sv ch ~complete:true

(* A failure's message for a reply or a log line: the text of a failure
   or a protocol violation, without the OCaml constructor around it. *)
let error_message = function
  | Failure msg | E.Protocol_violation msg -> msg
  | e -> Printexc.to_string e

let advance_channel sv ch =
  match ch.ch_session with
  | None -> ()
  | Some s -> (
    try
      let budget = min batch_rounds (steps_wanted ch) in
      ch.ch_steps_total <- ch.ch_steps_total + E.advance s ~max_steps:budget;
      Option.iter spool_flush ch.ch_spool;
      publish ch;
      if E.session_complete s then complete_channel sv ch s
      else reply_waiters sv ch ~complete:false
    with e -> mark_failed sv ch (error_message e))

(* Build the channel's scenario spec and session and attach it to the
   shard. Runs on the shard (posted as a mailbox thunk) so file I/O and
   algorithm construction never stall the protocol loop. [reply] gets the
   open/migrate/adoption acknowledgement once the session exists, and
   [carried] is pushed into the fresh external feed, which the spec's
   pattern maker creates when the session starts: the pushes the previous
   session's feed took since the checkpoint it resumes from. *)
let adopt_channel sv shard ch ~carried ~reply =
  let ok_or_fail = function Ok x -> x | Error msg -> failwith msg in
  try
    let cc = ch.ch_cfg in
    let s = cc.cc_spec in
    let algorithm = ok_or_fail (Registry.algorithm s.algorithm ~n:s.n ~k:s.k) in
    let feed = ref None in
    let pattern =
      if s.pattern = "external" then (fun () ->
        let f, p = Mac_adversary.Pattern.external_queue () in
        feed := Some f;
        p)
      else ok_or_fail (Registry.pattern s.pattern ~n:s.n ~seed:s.seed)
    in
    let faults =
      Option.map
        (fun path ->
          ok_or_fail
            (Result.bind
               (Mac_faults.Fault_plan.of_file path)
               (Mac_faults.Fault_plan.for_stations ~n:s.n)))
        cc.cc_faults
    in
    let spec =
      Scenario.spec_q ~id:cc.cc_id ~algorithm ~n:s.n ~k:s.k ~rate:s.rate
        ~burst:s.burst ~pattern ~rounds:s.rounds ~drain:s.drain ?faults ()
    in
    let resume =
      let path = ckpt_path sv cc.cc_id in
      if Sys.file_exists path || Sys.file_exists (Mac_sim.Checkpoint.prev_path path)
      then
        match Mac_sim.Checkpoint.read_latest ~path with
        | Ok (snap, `Current) -> Some snap
        | Ok (snap, `Salvaged reason) ->
          sv.cfg.log
            (Printf.sprintf "channel %s: salvaged checkpoint (%s)" cc.cc_id
               reason);
          Some snap
        | Error msg -> failwith ("checkpoint: " ^ msg)
      else None
    in
    let from_round =
      match resume with Some snap -> E.snapshot_round snap | None -> 0
    in
    truncate_spool ~path:(spool_path sv cc.cc_id) ~from_round;
    let sp = spool_open (spool_path sv cc.cc_id) in
    ch.ch_spool <- Some sp;
    let probe = Mac_sim.Telemetry.Fleet.probe sv.fleet ~id:cc.cc_id in
    let session =
      Scenario.start ?resume
        ~config:
          { (Scenario.config spec) with
            sink = Some (spool_sink sp);
            checkpoint_every = cc.cc_every;
            on_checkpoint =
              (if cc.cc_every > 0 then Some (checkpoint_channel sv ch)
               else None);
            telemetry = Some probe }
        spec
    in
    let feed = !feed in
    Option.iter
      (fun (f : Mac_adversary.Pattern.feed) ->
        List.iter (fun (at, src, dst) -> f.push ~at ~src ~dst) carried)
      feed;
    ch.ch_session <- Some session;
    ch.ch_probe <- Some probe;
    ch.ch_steps_total <- 0;
    locked ch.ch_mutex (fun () ->
        ch.ch_status <- Running;
        ch.ch_shard <- shard.sh_index;
        ch.ch_feed <- feed;
        ch.ch_round <- E.session_round session;
        ch.ch_backlog <- E.session_backlog session);
    shard.sh_channels <- ch :: shard.sh_channels;
    reply
      (ok_fields
         [ ("channel", J.Str cc.cc_id);
           ("shard", J.Int shard.sh_index);
           ("round", J.Int (E.session_round session)) ])
  with e ->
    let msg = error_message e in
    mark_failed sv ch msg;
    reply (err_line msg)

(* Give [ch] to [shard] for adoption: the one way a channel becomes
   [Pending]. The pushes its feed took since the last checkpoint are read,
   and the feed dropped, under the channel lock [inject] pushes under, so
   every accepted packet is either in that checkpoint or carried to the
   adopted session. *)
let hand_to sv shard ch ~reply =
  let carried =
    locked ch.ch_mutex (fun () ->
        let carried =
          match ch.ch_feed with
          | Some f -> f.Mac_adversary.Pattern.since_save ()
          | None -> []
        in
        ch.ch_status <- Pending;
        ch.ch_feed <- None;
        ch.ch_shard <- shard.sh_index;
        carried)
  in
  post_thunk shard (fun shard -> adopt_channel sv shard ch ~carried ~reply)

(* Drain: checkpoint every running channel at its current round boundary
   so a restarted daemon resumes the fleet bit-identically. *)
let drain_shard sv shard =
  List.iter
    (fun ch ->
      match (ch.ch_status, ch.ch_session) with
      | Running, Some s ->
        (try
           checkpoint_channel sv ch (E.session_snapshot s);
           detach ch ~flush:true
         with e ->
           sv.cfg.log
             (Printf.sprintf "drain: channel %s checkpoint failed: %s"
                ch.ch_cfg.cc_id (Printexc.to_string e)))
      | _ -> ())
    shard.sh_channels

let shard_main sv shard =
  try
    let running = ref true in
    while !running do
      let pending =
        locked shard.sh_mutex (fun () ->
            while
              Queue.is_empty shard.sh_mailbox
              && (not shard.sh_stop)
              && not (List.exists chan_has_work shard.sh_channels)
            do
              Condition.wait shard.sh_cond shard.sh_mutex
            done;
            Queue.length shard.sh_mailbox)
      in
      (* Pop one thunk at a time: when a thunk kills the shard, the ones
         behind it are still in the mailbox, and [check_shards] replays
         them on the respawned shard. *)
      for _ = 1 to pending do
        Option.iter
          (fun t -> t shard)
          (locked shard.sh_mutex (fun () -> Queue.take_opt shard.sh_mailbox))
      done;
      if shard.sh_stop then begin
        drain_shard sv shard;
        running := false
      end
      else
        List.iter
          (fun ch -> if chan_has_work ch then advance_channel sv ch)
          shard.sh_channels
    done
  with e ->
    sv.cfg.log
      (Printf.sprintf "shard %d died: %s" shard.sh_index
         (Printexc.to_string e));
    shard.sh_dead <- true

let new_shard i =
  { sh_index = i;
    sh_mutex = Mutex.create ();
    sh_cond = Condition.create ();
    sh_mailbox = Queue.create ();
    sh_channels = [];
    sh_stop = false;
    sh_dead = false }

let spawn_shard sv i =
  let shard = new_shard i in
  sv.shards.(i) <- shard;
  sv.domains.(i) <- Some (Domain.spawn (fun () -> shard_main sv shard));
  shard

(* --- command handling (main domain) ------------------------------------- *)

let pick_shard sv =
  let i = sv.next_shard mod Array.length sv.shards in
  sv.next_shard <- sv.next_shard + 1;
  sv.shards.(i)

(* Run [f] on the channel a command names, or answer why there is none. *)
let with_channel sv conn_id v f =
  match
    let* id = required str_field v "channel" in
    Option.to_result
      ~none:(Printf.sprintf "unknown channel %S" id)
      (Hashtbl.find_opt sv.channels id)
  with
  | Ok ch -> f ch
  | Error msg -> send_main sv conn_id (err_line msg)

(* The transient refusal of a channel between hand-off and adoption. *)
let migrating ch =
  Printf.sprintf "channel %s is migrating; retry" ch.ch_cfg.cc_id

(* Post an engine-touching thunk to the channel's owning shard. The thunk
   re-checks ownership: a migration may have moved the channel after the
   lookup but before the shard ran the mailbox. A terminal channel may
   belong to no shard (it failed at adoption, or a restarted daemon
   loaded it finished); its status is final and it has no session, so
   the thunk runs and answers from the status. Owned channels are
   checked first, so they take no extra lock. *)
let is_terminal ch =
  locked ch.ch_mutex (fun () ->
      match ch.ch_status with
      | Complete | Failed _ -> true
      | Pending | Running -> false)

let post_channel_thunk sv ch ~conn_id f =
  let idx = locked ch.ch_mutex (fun () -> ch.ch_shard) in
  post_thunk sv.shards.(idx) (fun shard ->
      if List.memq ch shard.sh_channels || is_terminal ch then f shard
      else send_from_shard sv conn_id (err_line (migrating ch)))

let channel_row ch =
  locked ch.ch_mutex (fun () ->
      let pending =
        match ch.ch_feed with Some f -> f.Mac_adversary.Pattern.pending () | None -> 0
      in
      J.Obj
        ([ ("id", J.Str ch.ch_cfg.cc_id);
           ("algorithm", J.Str ch.ch_cfg.cc_spec.algorithm);
           ("n", J.Int ch.ch_cfg.cc_spec.n);
           ("status", J.Str (status_str ch.ch_status));
           ("shard", J.Int ch.ch_shard);
           ("round", J.Int ch.ch_round);
           ("rounds", J.Int ch.ch_cfg.cc_spec.rounds);
           ("backlog", J.Int ch.ch_backlog);
           ("pending", J.Int pending) ]
        @ match ch.ch_status with
          | Failed msg -> [ ("error", J.Str msg) ]
          | _ -> []))

(* A channel record for [cc], entered in the fleet's table and list. *)
let register sv cc ~status ~round ~summary =
  let ch =
    { ch_cfg = cc; ch_mutex = Mutex.create (); ch_status = status;
      ch_shard = 0; ch_round = round; ch_backlog = 0; ch_feed = None;
      ch_summary = summary; ch_session = None; ch_spool = None;
      ch_probe = None; ch_steps_total = 0; ch_waiters = [] }
  in
  Hashtbl.replace sv.channels cc.cc_id ch;
  sv.order <- sv.order @ [ cc.cc_id ];
  ch

let cmd_open sv conn_id v =
  let config =
    let* id = str_field v "channel" in
    let id =
      match id with
      | Some id -> id
      | None ->
        let id = Printf.sprintf "ch%d" sv.next_auto in
        sv.next_auto <- sv.next_auto + 1;
        id
    in
    let* () =
      if not (valid_id id) then
        Error "channel id must match [A-Za-z0-9._-]{1,64}"
      else if Hashtbl.mem sv.channels id then
        Error (Printf.sprintf "channel %S already exists" id)
      else Ok ()
    in
    let* cc = chan_cfg_of_json v ~id ~every:sv.cfg.checkpoint_every in
    (* Refuse a spec the shard could not start before anything is written
       or registered: the checks are O(1), and a generator pattern is
       built only to be checked. *)
    let s = cc.cc_spec in
    let* () = Registry.check s in
    let* () =
      if s.pattern = "external" then Ok ()
      else Result.map ignore (Registry.pattern s.pattern ~n:s.n ~seed:s.seed)
    in
    Ok cc
  in
  match config with
  | Error msg -> send_main sv conn_id (err_line msg)
  | Ok cc ->
    let ch = register sv cc ~status:Pending ~round:0 ~summary:None in
    write_meta sv ch;
    hand_to sv (pick_shard sv) ch ~reply:(send_from_shard sv conn_id)

(* The packets an [inject] carries: a ["packets"] array of [at, src, dst]
   triples, or one packet's ["at"] (default 0), ["src"] and ["dst"]. *)
let inject_items v =
  let triple v =
    match J.to_list v with
    | Some [ a; s; d ] -> (
      match (J.to_int a, J.to_int s, J.to_int d) with
      | Some a, Some s, Some d -> Ok (a, s, d)
      | _ -> Error "packets entries must be [at, src, dst] integers")
    | _ -> Error "packets entries must be [at, src, dst] integers"
  in
  match J.member "packets" v with
  | Some (J.List items) ->
    List.fold_left
      (fun acc item ->
        match (acc, triple item) with
        | Error _, _ -> acc
        | _, (Error _ as e) -> e
        | Ok acc, Ok t -> Ok (t :: acc))
      (Ok []) items
    |> Result.map List.rev
  | Some _ -> Error "\"packets\" must be an array"
  | None -> (
    let* at = J.field "at" ~expected:"an integer" J.to_int ~default:0 v in
    let* src = int_field v "src" in
    let* dst = int_field v "dst" in
    match (src, dst) with
    | Some src, Some dst -> Ok [ (at, src, dst) ]
    | _ -> Error "need \"src\" and \"dst\" (or \"packets\")")

let cmd_inject sv conn_id v =
  with_channel sv conn_id v (fun ch ->
      let cc = ch.ch_cfg in
      let n = cc.cc_spec.n in
      let bad (at, src, dst) =
        at < 0 || src < 0 || dst < 0 || src >= n || dst >= n || src = dst
      in
      (* Push under the channel lock: [hand_to] reads the feed's unsaved
         pushes under it, so an accepted packet is never lost to a
         hand-off. *)
      locked ch.ch_mutex (fun () ->
          match (ch.ch_status, ch.ch_feed) with
          | (Complete | Failed _), _ ->
            Error
              (Printf.sprintf "channel %s is %s" cc.cc_id
                 (status_str ch.ch_status))
          | _ when cc.cc_spec.pattern <> "external" ->
            Error
              (Printf.sprintf
                 "channel %s uses generator pattern %S, not external injection"
                 cc.cc_id cc.cc_spec.pattern)
          | _, None -> Error (migrating ch)
          | _, Some feed -> (
            let* items = inject_items v in
            match List.find_opt bad items with
            | Some (at, src, dst) ->
              Error
                (Printf.sprintf
                   "bad injection (at=%d src=%d dst=%d): stations in [0,%d), \
                    src <> dst, at >= 0"
                   at src dst n)
            | None ->
              List.iter
                (fun (at, src, dst) ->
                  feed.Mac_adversary.Pattern.push ~at ~src ~dst)
                items;
              Ok
                [ ("channel", J.Str cc.cc_id);
                  ("accepted", J.Int (List.length items));
                  ("pending", J.Int (feed.pending ())) ]))
      |> answer
      |> send_main sv conn_id)

let cmd_step sv conn_id v ~run_all =
  with_channel sv conn_id v (fun ch ->
      let rounds =
        if run_all then Ok None
        else
          let* r = required int_field v "rounds" in
          if r < 1 then Error "\"rounds\" must be >= 1" else Ok (Some r)
      in
      match rounds with
      | Error msg -> send_main sv conn_id (err_line msg)
      | Ok rounds ->
        post_channel_thunk sv ch ~conn_id (fun _shard ->
            match (ch.ch_status, ch.ch_session) with
            | Running, Some _ ->
              let w_until = Option.map (( + ) ch.ch_steps_total) rounds in
              ch.ch_waiters <- { w_conn = conn_id; w_until } :: ch.ch_waiters
            | Complete, _ ->
              send_from_shard sv conn_id
                (ok_fields
                   [ ("channel", J.Str ch.ch_cfg.cc_id);
                     ("round", J.Int ch.ch_round);
                     ("complete", J.Bool true) ])
            | Failed msg, _ ->
              send_from_shard sv conn_id (err_line ("channel failed: " ^ msg))
            | _ ->
              send_from_shard sv conn_id
                (err_line
                   (Printf.sprintf "channel %s is not running"
                      ch.ch_cfg.cc_id))))

let no_session ch =
  Printf.sprintf "channel %s has no live session" ch.ch_cfg.cc_id

let cmd_snapshot sv conn_id v =
  with_channel sv conn_id v (fun ch ->
      post_channel_thunk sv ch ~conn_id (fun _shard ->
          (match ch.ch_session with
           | None -> Error (no_session ch)
           | Some s -> (
             match
               let snap = E.session_snapshot s in
               checkpoint_channel sv ch snap;
               snap
             with
             | exception e -> Error (error_message e)
             | snap ->
               Ok
                 [ ("channel", J.Str ch.ch_cfg.cc_id);
                   ("round", J.Int (E.snapshot_round snap));
                   ("path", J.Str (ckpt_path sv ch.ch_cfg.cc_id)) ]))
          |> answer
          |> send_from_shard sv conn_id))

(* The ["shard"] a [migrate] or [kill-shard] names. *)
let shard_field sv v =
  let* i = required int_field v "shard" in
  if i >= 0 && i < Array.length sv.shards then Ok i
  else
    Error
      (Printf.sprintf "shard %d out of range [0,%d)" i (Array.length sv.shards))

let cmd_migrate sv conn_id v =
  with_channel sv conn_id v (fun ch ->
      match shard_field sv v with
      | Error msg -> send_main sv conn_id (err_line msg)
      | Ok target ->
        post_channel_thunk sv ch ~conn_id (fun shard ->
            match ch.ch_session with
            | None -> send_from_shard sv conn_id (err_line (no_session ch))
            | Some s -> (
              (* Checkpoint, detach, and hand the channel to the target
                 shard, which resumes it from the file just written — the
                 same path cold adoption takes. *)
              match
                checkpoint_channel sv ch (E.session_snapshot s);
                detach ch ~flush:true
              with
              | exception e ->
                send_from_shard sv conn_id (err_line (error_message e))
              | () ->
                fail_waiters sv ch "channel migrated; re-issue the command";
                shard.sh_channels <- List.filter (( != ) ch) shard.sh_channels;
                hand_to sv sv.shards.(target) ch
                  ~reply:(send_from_shard sv conn_id))))

let cmd_subscribe sv conn v =
  with_channel sv conn.co_id v (fun ch ->
      if conn.co_sub <> None then
        send_main sv conn.co_id (err_line "connection already subscribed")
      else begin
        send_main sv conn.co_id
          (ok_fields [ ("channel", J.Str ch.ch_cfg.cc_id) ]);
        conn.co_sub <-
          Some
            { sub_chan = ch;
              sub_fd = None;
              sub_pos = 0;
              sub_carry = Buffer.create 256 }
      end)

let cmd_stats sv conn_id =
  let total_backlog = ref 0 in
  let by_status = Hashtbl.create 4 in
  Hashtbl.iter
    (fun _ ch ->
      locked ch.ch_mutex (fun () ->
          total_backlog := !total_backlog + ch.ch_backlog;
          let k = status_str ch.ch_status in
          Hashtbl.replace by_status k
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_status k))))
    sv.channels;
  let statuses =
    Hashtbl.fold (fun k v acc -> (k, J.Int v) :: acc) by_status []
  in
  send_main sv conn_id
    (ok_fields
       [ ("channels", J.Int (Hashtbl.length sv.channels));
         ("shards", J.Int (Array.length sv.shards));
         ("respawns", J.Int sv.respawns);
         ("backlog", J.Int !total_backlog);
         ("status", J.Obj (List.sort compare statuses)) ])

let cmd_list sv conn_id =
  let rows =
    List.filter_map
      (fun id -> Option.map channel_row (Hashtbl.find_opt sv.channels id))
      sv.order
  in
  send_main sv conn_id (ok_fields [ ("channels", J.List rows) ])

let cmd_kill_shard sv conn_id v =
  match shard_field sv v with
  | Error msg -> send_main sv conn_id (err_line msg)
  | Ok i ->
    send_main sv conn_id (ok_fields [ ("shard", J.Int i) ]);
    post_thunk sv.shards.(i) (fun _ -> raise Shard_killed)

let handle_command sv conn line =
  match J.parse line with
  | Error msg -> send_main sv conn.co_id (err_line ("bad json: " ^ msg))
  | Ok v -> (
    match required str_field v "cmd" with
    | Error msg -> send_main sv conn.co_id (err_line msg)
    | Ok cmd -> (
      match cmd with
      | "ping" -> send_main sv conn.co_id (ok_fields [ ("pong", J.Bool true) ])
      | "open" -> cmd_open sv conn.co_id v
      | "inject" -> cmd_inject sv conn.co_id v
      | "step" -> cmd_step sv conn.co_id v ~run_all:false
      | "run" -> cmd_step sv conn.co_id v ~run_all:true
      | "snapshot" -> cmd_snapshot sv conn.co_id v
      | "migrate" -> cmd_migrate sv conn.co_id v
      | "subscribe" -> cmd_subscribe sv conn v
      | "stats" -> cmd_stats sv conn.co_id
      | "list" -> cmd_list sv conn.co_id
      | "kill-shard" -> cmd_kill_shard sv conn.co_id v
      | "drain" ->
        send_main sv conn.co_id (ok_fields [ ("draining", J.Bool true) ]);
        Mac_sim.Supervisor.request_drain ()
      | other ->
        send_main sv conn.co_id
          (err_line (Printf.sprintf "unknown command %S" other))))

(* --- subscriptions ------------------------------------------------------ *)

(* Forward new spool bytes (complete lines only) into the connection's
   output buffer. Closes the connection once the channel has finished and
   the spool is fully streamed — the client's EOF doubles as "stream
   complete". *)
let pump_subscription sv conn =
  match conn.co_sub with
  | None -> ()
  | Some sub ->
    if Buffer.length conn.co_out < 1 lsl 16 then begin
      let ch = sub.sub_chan in
      let path = spool_path sv ch.ch_cfg.cc_id in
      (match sub.sub_fd with
       | None ->
         if Sys.file_exists path then
           sub.sub_fd <- Some (Unix.openfile path [ Unix.O_RDONLY ] 0)
       | Some _ -> ());
      match sub.sub_fd with
      | None -> ()
      | Some fd ->
        let chunk = Bytes.create 65536 in
        ignore (Unix.lseek fd sub.sub_pos Unix.SEEK_SET);
        let got = Unix.read fd chunk 0 (Bytes.length chunk) in
        if got > 0 then begin
          sub.sub_pos <- sub.sub_pos + got;
          Buffer.add_subbytes sub.sub_carry chunk 0 got;
          let data = Buffer.contents sub.sub_carry in
          match String.rindex_opt data '\n' with
          | None -> ()
          | Some last ->
            Buffer.add_string conn.co_out (String.sub data 0 (last + 1));
            Buffer.clear sub.sub_carry;
            Buffer.add_string sub.sub_carry
              (String.sub data (last + 1) (String.length data - last - 1))
        end
        else begin
          if is_terminal ch && Buffer.length sub.sub_carry = 0 then
            conn.co_closing <- true
        end
    end

(* --- connection I/O ----------------------------------------------------- *)

let drop_conn sv conn =
  (try Unix.close conn.co_fd with Unix.Unix_error _ -> ());
  (match conn.co_sub with
   | Some { sub_fd = Some fd; _ } ->
     (try Unix.close fd with Unix.Unix_error _ -> ())
   | _ -> ());
  Hashtbl.remove sv.conns conn.co_id

let read_conn sv conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.co_fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_conn sv conn
  | 0 ->
    (* Client went away. A subscriber disconnecting mid-stream only tears
       down this connection — the channel and its shard never notice. *)
    drop_conn sv conn
  | got ->
    Buffer.add_subbytes conn.co_in chunk 0 got;
    if Buffer.length conn.co_in > max_line then begin
      Buffer.add_string conn.co_out (err_line "line too long");
      conn.co_closing <- true
    end
    else begin
      let data = Buffer.contents conn.co_in in
      let rec split from =
        match String.index_from_opt data from '\n' with
        | None ->
          Buffer.clear conn.co_in;
          Buffer.add_string conn.co_in
            (String.sub data from (String.length data - from))
        | Some nl ->
          let line = String.trim (String.sub data from (nl - from)) in
          if line <> "" then handle_command sv conn line;
          split (nl + 1)
      in
      split 0
    end

let flush_conn sv conn =
  let data = Buffer.contents conn.co_out in
  if data <> "" then begin
    match
      Unix.write conn.co_fd (Bytes.unsafe_of_string data) 0
        (String.length data)
    with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> drop_conn sv conn
    | written ->
      Buffer.clear conn.co_out;
      if written < String.length data then
        Buffer.add_string conn.co_out
          (String.sub data written (String.length data - written))
  end;
  (* A finished subscription closes too, so its client sees EOF. *)
  if conn.co_closing && Buffer.length conn.co_out = 0 then drop_conn sv conn

(* --- shard respawn ------------------------------------------------------ *)

let check_shards sv =
  Array.iteri
    (fun i shard ->
      if shard.sh_dead then begin
        Option.iter Domain.join sv.domains.(i);
        sv.domains.(i) <- None;
        let fresh = spawn_shard sv i in
        sv.respawns <- sv.respawns + 1;
        let orphans =
          List.filter (fun ch -> not (is_terminal ch)) shard.sh_channels
        in
        List.iter
          (fun ch ->
            (* The dead shard may have crashed mid-round: the in-memory
               session is unusable. Rebuild from the last checkpoint; the
               spool is truncated back to it during adoption. *)
            (try detach ch ~flush:false with Unix.Unix_error _ -> ());
            fail_waiters sv ch "shard died; channel re-adopted, re-issue";
            hand_to sv fresh ch ~reply:ignore)
          orphans;
        (* Commands posted between the crash and this respawn sit in the
           dead shard's mailbox; replay them on the fresh shard (after the
           adoptions) so no client waits forever on a lost thunk. *)
        List.iter (post_thunk fresh) (take_all shard.sh_mutex shard.sh_mailbox);
        sv.cfg.log
          (Printf.sprintf "shard %d respawned; re-adopted %d channel(s)" i
             (List.length orphans))
      end)
    sv.shards

(* --- lifecycle ---------------------------------------------------------- *)

let load_existing sv =
  if Sys.file_exists sv.cfg.dir then
    Array.iter
      (fun file ->
        if Filename.check_suffix file ".meta" then begin
          let path = Filename.concat sv.cfg.dir file in
          match
            let ic = open_in path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> input_line ic)
          with
          | exception (Sys_error _ | End_of_file) -> ()
          | line -> (
            match parse_meta line with
            | Error msg -> sv.cfg.log (Printf.sprintf "%s: %s" path msg)
            | Ok (cc, status, summary) ->
              let st, round =
                match status with
                | "complete" -> (Complete, cc.cc_spec.rounds)
                | "failed" -> (Failed "failed in a previous run", 0)
                | _ -> (Pending, 0)
              in
              let ch = register sv cc ~status:st ~round ~summary in
              if status = "open" then begin
                let shard = pick_shard sv in
                hand_to sv shard ch ~reply:ignore;
                sv.cfg.log
                  (Printf.sprintf "re-adopting channel %s on shard %d"
                     cc.cc_id shard.sh_index)
              end)
        end)
      (Sys.readdir sv.cfg.dir)

let create (cfg : config) =
  if cfg.shards < 1 then Error "serve: need at least one shard"
  else begin
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    if not (Sys.file_exists cfg.dir) then Unix.mkdir cfg.dir 0o755;
    if Sys.file_exists cfg.socket then Sys.remove cfg.socket;
    match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error (e, _, _) ->
      Error ("serve: socket: " ^ Unix.error_message e)
    | listener -> (
      match Unix.bind listener (Unix.ADDR_UNIX cfg.socket) with
      | exception Unix.Unix_error (e, _, _) ->
        Unix.close listener;
        Error
          (Printf.sprintf "serve: cannot bind %s: %s" cfg.socket
             (Unix.error_message e))
      | () ->
        Unix.listen listener 64;
        Unix.set_nonblock listener;
        let wake_r, wake_w = Unix.pipe () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        let fleet =
          Mac_sim.Telemetry.Fleet.create ~dir:cfg.dir
            ~every:cfg.telemetry_every ()
        in
        let sv =
          { cfg;
            fleet;
            shards = Array.init cfg.shards new_shard;
            domains = Array.make cfg.shards None;
            channels = Hashtbl.create 64;
            order = [];
            conns = Hashtbl.create 16;
            next_conn = 0;
            next_auto = 0;
            next_shard = 0;
            respawns = 0;
            listener;
            wake_r;
            wake_w;
            out_mutex = Mutex.create ();
            outbox = Queue.create () }
        in
        (* The fleet file exists from the first breath, so a dashboard (or
           top --check) pointed at the directory never races channel
           creation. *)
        Mac_sim.Telemetry.Fleet.add_counter sv.fleet
          ~help:"Serve-daemon boots." "serve_boots_total";
        for i = 0 to cfg.shards - 1 do
          ignore (spawn_shard sv i)
        done;
        load_existing sv;
        Ok sv)
  end

let drain sv =
  sv.cfg.log "drain: checkpointing all running channels";
  Array.iter
    (fun shard ->
      locked shard.sh_mutex (fun () ->
          shard.sh_stop <- true;
          Condition.signal shard.sh_cond))
    sv.shards;
  Array.iteri
    (fun i d ->
      match d with
      | Some dom ->
        Domain.join dom;
        sv.domains.(i) <- None
      | None -> ())
    sv.domains;
  List.iter (drop_conn sv) (Hashtbl.fold (fun _ c acc -> c :: acc) sv.conns []);
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ sv.listener; sv.wake_r; sv.wake_w ];
  (try Sys.remove sv.cfg.socket with Sys_error _ -> ());
  sv.cfg.log "drained";
  `Drained

let accept_conns sv =
  let rec go () =
    match Unix.accept sv.listener with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | fd, _ ->
      Unix.set_nonblock fd;
      let id = sv.next_conn in
      sv.next_conn <- sv.next_conn + 1;
      Hashtbl.replace sv.conns id
        { co_id = id;
          co_fd = fd;
          co_in = Buffer.create 256;
          co_out = Buffer.create 256;
          co_sub = None;
          co_closing = false };
      go ()
  in
  go ()

let drain_outbox sv =
  List.iter
    (fun (conn_id, line) -> send_main sv conn_id line)
    (take_all sv.out_mutex sv.outbox)

let run sv =
  let rec loop () =
    if Mac_sim.Supervisor.drain_requested () then drain sv
    else begin
      check_shards sv;
      drain_outbox sv;
      let conns = Hashtbl.fold (fun _ c acc -> c :: acc) sv.conns [] in
      List.iter (fun c -> pump_subscription sv c) conns;
      let reads =
        sv.listener :: sv.wake_r
        :: List.filter_map
             (fun c -> if c.co_closing then None else Some c.co_fd)
             conns
      in
      let writes =
        List.filter_map
          (fun c -> if Buffer.length c.co_out > 0 then Some c.co_fd else None)
          conns
      in
      let timeout =
        if List.exists (fun c -> c.co_sub <> None || c.co_closing) conns then
          0.02
        else 0.25
      in
      (match Unix.select reads writes [] timeout with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
       | readable, writable, _ ->
         if List.mem sv.wake_r readable then begin
           let b = Bytes.create 256 in
           try ignore (Unix.read sv.wake_r b 0 256)
           with Unix.Unix_error _ -> ()
         end;
         if List.mem sv.listener readable then accept_conns sv;
         List.iter
           (fun c ->
             if Hashtbl.mem sv.conns c.co_id && List.mem c.co_fd readable then
               read_conn sv c)
           conns;
         drain_outbox sv;
         List.iter
           (fun c ->
             if Hashtbl.mem sv.conns c.co_id then begin
               pump_subscription sv c;
               if
                 Buffer.length c.co_out > 0
                 || c.co_closing
                 || List.mem c.co_fd writable
               then flush_conn sv c
             end)
           conns);
      loop ()
    end
  in
  loop ()
