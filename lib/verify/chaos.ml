(* The chaos harness: seeded fault injection against the supervision and
   durability layers, with bit-identity as the oracle.

   Three axes per seeded configuration:

   - {e Supervisor}: a batch of random engine runs (from {!Diff.random}
     seeds) executes under {!Mac_sim.Supervisor.map} while jobs misbehave on
     a seeded script — fail their first attempts, fail every attempt, or
     stall past the watchdog deadline. Every job that the supervisor
     reports [Ok] must produce a summary digest bit-identical to the same
     configuration run undisturbed, and every designed failure must
     surface as exactly the documented outcome and event stream.

   - {e Checkpoints}: a run checkpoints through {!Mac_sim.Checkpoint.write_rotated},
     the newest checkpoint file is then truncated, bit-flipped or deleted,
     and {!Mac_sim.Checkpoint.read_latest} must salvage the rotated
     previous checkpoint; resuming from it must reproduce the undisturbed
     run's summary bit for bit.

   - {e Atomic writes}: a {!Mac_sim.Durable.failpoint} makes the rename
     step of an atomic write fail; the destination must keep its previous
     contents and the tmp sibling must not linger.

   Every attempt reruns its job's spec, which builds fresh pattern state,
   so a retry replays exactly the run a first attempt would have made. *)

module Supervisor = Mac_sim.Supervisor

type stats = {
  mutable configs : int;
  mutable jobs_run : int;
  mutable failed_attempts : int;
  mutable timed_out_attempts : int;
  mutable salvages : int;
  mutable checks : int;
  mutable failures : string list;  (* newest first *)
}

let fresh_stats () =
  { configs = 0; jobs_run = 0; failed_attempts = 0; timed_out_attempts = 0;
    salvages = 0; checks = 0; failures = [] }

let passed st = st.failures = []

let pp_stats ppf st =
  Format.fprintf ppf
    "%d configs, %d supervised jobs (%d failed attempts, %d timeouts), %d \
     checkpoint salvages, %d assertions, %d failure%s"
    st.configs st.jobs_run st.failed_attempts st.timed_out_attempts
    st.salvages st.checks
    (List.length st.failures)
    (if List.length st.failures = 1 then "" else "s")

exception Boom of string

(* ---- engine plumbing -------------------------------------------------- *)

let digest_summary (s : Mac_sim.Metrics.summary) =
  Digest.to_hex (Digest.string (Marshal.to_string s []))

let run_engine ?heartbeat ?(checkpoint_every = 0) ?on_checkpoint ?resume spec =
  Mac_experiments.Scenario.simulate ?resume
    ~config:
      { (Diff.config spec) with heartbeat; checkpoint_every; on_checkpoint }
    spec

(* ---- the supervisor axis ---------------------------------------------- *)

type mode = Clean | Fail_first of int | Always_fail | Stall_first

let mode_name = function
  | Clean -> "clean"
  | Fail_first k -> Printf.sprintf "fail-first-%d" k
  | Always_fail -> "always-fail"
  | Stall_first -> "stall-first"

(* Stalling means burning wall-clock {e without} heartbeat progress: long
   sleeps, a heartbeat poll between them so the watchdog's cancellation is
   actually received. The bound turns a watchdog bug into a test failure
   rather than a hang. *)
let stall ~heartbeat ~timeout =
  for _ = 1 to 60 do
    Unix.sleepf (3.0 *. timeout);
    heartbeat ()
  done;
  raise (Boom "stall was never cancelled by the watchdog")

let supervised_case ~seed (st : stats) =
  let rng = Mac_channel.Rng.create ~seed:((seed * 7) + 1) in
  let njobs = 3 + Mac_channel.Rng.int rng 4 in
  let workers = 1 + Mac_channel.Rng.int rng 3 in
  let allow_stall = Mac_channel.Rng.int rng 4 = 0 in
  let timeout = 0.05 in
  let modes =
    Array.init njobs (fun _ ->
        match Mac_channel.Rng.int rng 8 with
        | 0 | 1 -> Fail_first (1 + Mac_channel.Rng.int rng 2)
        | 2 -> Always_fail
        | 3 when allow_stall -> Stall_first
        | _ -> Clean)
  in
  let any_stall = Array.exists (fun m -> m = Stall_first) modes in
  let policy =
    { Supervisor.retries = 2;
      job_timeout = (if any_stall then timeout else 0.0);
      backoff = 0.0005;
      backoff_cap = 0.004;
      keep_going = true }
  in
  let label j = Printf.sprintf "job%d:%s" j (mode_name modes.(j)) in
  let specs =
    Array.init njobs (fun j -> Diff.random ~seed:((seed * 131) + j))
  in
  let baseline = Array.map (fun r -> digest_summary (run_engine r)) specs in
  (* Event tallies per label; events arrive from worker domains. *)
  let emu = Mutex.create () in
  let tally = Hashtbl.create 16 in
  let bump key l =
    Mutex.lock emu;
    Hashtbl.replace tally (key, l)
      (1 + Option.value ~default:0 (Hashtbl.find_opt tally (key, l)));
    Mutex.unlock emu
  in
  let count key l = Option.value ~default:0 (Hashtbl.find_opt tally (key, l)) in
  let on_event = function
    | Supervisor.Attempt_failed { label; _ } -> bump `Fail label
    | Supervisor.Attempt_timed_out { label; _ } -> bump `Timeout label
    | _ -> ()
  in
  let outcomes =
    Supervisor.map ~policy ~label ~on_event ~jobs:workers
      (List.init njobs Fun.id)
      (fun ~heartbeat ~attempt j ->
        (match modes.(j) with
        | Clean -> ()
        | Fail_first k -> if attempt <= k then raise (Boom (label j))
        | Always_fail -> raise (Boom (label j))
        | Stall_first -> if attempt = 1 then stall ~heartbeat ~timeout);
        digest_summary (run_engine ~heartbeat specs.(j)))
  in
  st.jobs_run <- st.jobs_run + njobs;
  let record msg l = st.failures <- Printf.sprintf "seed %d %s: %s" seed l msg :: st.failures in
  List.iteri
    (fun j outcome ->
      let l = label j in
      st.checks <- st.checks + 1;
      match (modes.(j), outcome) with
      | (Clean | Fail_first _ | Stall_first), Ok d ->
        if d <> baseline.(j) then
          record "digest diverged from the undisturbed run" l;
        (match modes.(j) with
        | Fail_first k ->
          st.failed_attempts <- st.failed_attempts + count `Fail l;
          if count `Fail l <> k then
            record
              (Printf.sprintf "expected %d failed attempts, saw %d" k
                 (count `Fail l))
              l
        | Stall_first ->
          st.timed_out_attempts <- st.timed_out_attempts + count `Timeout l;
          if count `Timeout l < 1 then record "no Attempt_timed_out event" l
        | _ -> ())
      | Always_fail, Error (Supervisor.Failed { attempts; error = Boom _ }) ->
        st.failed_attempts <- st.failed_attempts + count `Fail l;
        if attempts <> policy.retries + 1 then
          record
            (Printf.sprintf "expected %d attempts, reported %d"
               (policy.retries + 1) attempts)
            l
      | _, o ->
        let got =
          match o with
          | Ok _ -> "Ok"
          | Error e -> Supervisor.error_to_string e
        in
        record (Printf.sprintf "unexpected outcome: %s" got) l)
    outcomes

(* ---- the checkpoint axis ---------------------------------------------- *)

type corruption = Truncate | Bit_flip | Delete

let corruption_name = function
  | Truncate -> "truncate"
  | Bit_flip -> "bit-flip"
  | Delete -> "delete"

let corrupt ~rng ~path = function
  | Truncate ->
    let s = Mac_sim.Durable.read_file path in
    let oc = open_out_bin path in
    output_string oc (String.sub s 0 (String.length s / 2));
    close_out oc
  | Bit_flip ->
    let b = Bytes.of_string (Mac_sim.Durable.read_file path) in
    let pos = Mac_channel.Rng.int rng (Bytes.length b) in
    let bit = Mac_channel.Rng.int rng 8 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  | Delete -> Sys.remove path

let checkpoint_case ~dir ~seed (st : stats) =
  let rng = Mac_channel.Rng.create ~seed:((seed * 7) + 2) in
  let r = Diff.random ~seed:((seed * 131) + 997) in
  let record msg =
    st.failures <- Printf.sprintf "seed %d checkpoint: %s" seed msg :: st.failures
  in
  let path = Filename.concat dir (Printf.sprintf "ck-%d.ckpt" seed) in
  (* Enough checkpoints that the rotation sibling exists by the end. *)
  let every = max 1 (r.rounds / 4) in
  let baseline =
    digest_summary
      (run_engine ~checkpoint_every:every
         ~on_checkpoint:(fun snap -> Mac_sim.Checkpoint.write_rotated ~path snap)
         r)
  in
  st.checks <- st.checks + 1;
  if not (Sys.file_exists (Mac_sim.Checkpoint.prev_path path)) then
    record "no rotated .prev checkpoint was written"
  else begin
    let kind =
      match Mac_channel.Rng.int rng 3 with
      | 0 -> Truncate
      | 1 -> Bit_flip
      | _ -> Delete
    in
    corrupt ~rng ~path kind;
    match Mac_sim.Checkpoint.read_latest ~path with
    | Ok (snap, `Salvaged _) ->
      st.salvages <- st.salvages + 1;
      let resumed = digest_summary (run_engine ~resume:snap r) in
      if resumed <> baseline then
        record
          (Printf.sprintf
             "resume after %s salvage diverged from the undisturbed run"
             (corruption_name kind))
    | Ok (_, `Current) ->
      record
        (Printf.sprintf "%s corruption went undetected" (corruption_name kind))
    | Error e ->
      record
        (Printf.sprintf "salvage after %s failed: %s" (corruption_name kind) e)
  end;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; Mac_sim.Checkpoint.prev_path path ]

(* ---- the atomic-writer axis ------------------------------------------- *)

let failpoint_case ~dir ~seed (st : stats) =
  let record msg =
    st.failures <- Printf.sprintf "seed %d failpoint: %s" seed msg :: st.failures
  in
  let path = Filename.concat dir (Printf.sprintf "fp-%d.dat" seed) in
  let tmp = Filename.concat dir (Printf.sprintf ".fp-%d.dat.tmp" seed) in
  Mac_sim.Durable.write_string ~path "first generation\n";
  Mac_sim.Durable.failpoint :=
    Some
      (fun ~stage ~path:_ ->
        if stage = "rename" then
          raise (Mac_sim.Durable.Injected_failure "chaos: rename failed"));
  let raised =
    match Mac_sim.Durable.write_string ~path "second generation\n" with
    | () -> false
    | exception Mac_sim.Durable.Injected_failure _ -> true
  in
  Mac_sim.Durable.failpoint := None;
  st.checks <- st.checks + 1;
  if not raised then record "injected rename failure did not surface";
  if Mac_sim.Durable.read_file path <> "first generation\n" then
    record "destination lost its previous contents";
  if Sys.file_exists tmp then record "tmp sibling left behind";
  (try Sys.remove path with Sys_error _ -> ())

(* ---- driver ----------------------------------------------------------- *)

let default_dir () =
  let d = Filename.temp_file "mac-chaos" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let run ?log ?dir ~count ~seed () =
  if count < 1 then invalid_arg "Chaos.run: count must be >= 1";
  let log = match log with Some f -> f | None -> fun (_ : string) -> () in
  let made_dir = dir = None in
  let dir = match dir with Some d -> d | None -> default_dir () in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let st = fresh_stats () in
  for c = 0 to count - 1 do
    let seed = seed + c in
    let before = List.length st.failures in
    supervised_case ~seed st;
    checkpoint_case ~dir ~seed st;
    failpoint_case ~dir ~seed st;
    st.configs <- st.configs + 1;
    let bad = List.length st.failures - before in
    log
      (Printf.sprintf "config %d/%d (seed %d): %s" (c + 1) count seed
         (if bad = 0 then "ok" else Printf.sprintf "%d FAILURE(S)" bad))
  done;
  if made_dir then (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  st.failures <- List.rev st.failures;
  st
