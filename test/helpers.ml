(* Shared helpers for the per-algorithm test suites. *)

(* [rate] and [burst] are decimal literals in the suites; each denotes the
   simplest rational it rounds from ([Qrat.of_float 0.1] is exactly 1/10). *)
let run ?(strict = true) ?(check_schedule = true) ?(drain = 0) ?pacing
    ~algorithm ~n ~k ~rate ~burst ~pattern ~rounds () =
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.of_float rate)
      ~burst:(Mac_channel.Qrat.of_float burst) ?pacing pattern
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds) with
      strict; check_schedule; drain_limit = drain }
  in
  Mac_sim.Engine.run ~config ~algorithm ~n ~k ~adversary ~rounds ()

let verdict (s : Mac_sim.Metrics.summary) =
  (Mac_sim.Stability.classify s.queue_series).Mac_sim.Stability.verdict

let is_stable s = verdict s = Mac_sim.Stability.Stable

let is_unstable s = verdict s = Mac_sim.Stability.Unstable

let assert_clean name (s : Mac_sim.Metrics.summary) =
  Alcotest.(check bool)
    (name ^ ": no violations")
    true
    (Mac_sim.Metrics.no_violations s);
  Alcotest.(check int) (name ^ ": no collisions") 0 s.collision_rounds

let assert_cap name cap (s : Mac_sim.Metrics.summary) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: max %d stations on (saw %d)" name cap s.max_on)
    true (s.max_on <= cap)

let assert_delivered_all name (s : Mac_sim.Metrics.summary) =
  Alcotest.(check int) (name ^ ": everything delivered") 0 s.undelivered

let worst_delay (s : Mac_sim.Metrics.summary) = max s.max_delay s.max_queued_age

(* The outcomes of a plain [Table1.sweep] (default policy, no resume
   directory), row after row, each row's in cell order. *)
let fresh_outcomes rows =
  List.concat_map
    (fun (_, results) ->
      List.map
        (function
          | _, Ok (Mac_experiments.Scenario.Fresh o) -> o
          | cid, _ -> Alcotest.failf "%s: expected a fresh outcome" cid)
        results)
    rows

(* Remove [path] and, for a directory, everything under it; a symlink is
   removed, never followed. *)
let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* [with_temp_dir prefix f] runs [f] on a fresh directory under the
   system temp dir and removes the directory tree afterwards, whether [f]
   returns or raises. The removal is best effort, so that it never masks
   the failure of [f]. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      try remove_tree dir with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () -> f dir)
