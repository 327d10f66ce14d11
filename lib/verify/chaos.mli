(** Seeded chaos testing of the supervision and durability layers.

    Each seeded configuration exercises three axes and asserts that
    completed work is bit-identical to an undisturbed run:

    - a supervised batch of random engine runs in which scripted jobs fail
      their first attempts, fail every attempt, or stall past the watchdog
      deadline — [Ok] results must match the undisturbed digests,
      designed failures must surface as exactly the documented
      {!Mac_sim.Supervisor.error} and event counts;
    - checkpoint corruption — the newest {!Mac_sim.Checkpoint.write_rotated}
      file is truncated, bit-flipped or deleted, [read_latest] must salvage
      the rotated previous file, and resuming from it must reproduce the
      undisturbed summary bit for bit;
    - an injected rename failure inside {!Mac_sim.Durable.write_atomic} —
      the destination must keep its previous contents.

    Deterministic given [(count, seed)] apart from wall-clock-driven
    watchdog scheduling, whose {e effects} are asserted, not its timing. *)

type stats = {
  mutable configs : int;
  mutable jobs_run : int;
  mutable failed_attempts : int;
  mutable timed_out_attempts : int;
  mutable salvages : int;
  mutable checks : int;
  mutable failures : string list;  (** empty = all assertions held *)
}

val passed : stats -> bool

val pp_stats : Format.formatter -> stats -> unit

val run :
  ?log:(string -> unit) ->
  ?dir:string ->
  count:int ->
  seed:int ->
  unit ->
  stats
(** [run ~count ~seed ()] exercises configurations [seed .. seed+count-1].
    [log] receives a one-line progress message per configuration. [dir] is
    the scratch directory for checkpoint and failpoint files (default: a
    fresh directory under the system temp dir, removed afterwards; scratch
    files themselves are always cleaned up). Temporarily installs
    {!Mac_sim.Durable.failpoint} (restored to [None]) — do not run
    concurrently with other writers in the same process. *)
