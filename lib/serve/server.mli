(** The serve daemon: a long-running fleet of live channel instances,
    sharded over a Domain pool, driven over a Unix-domain socket with a
    newline-delimited JSON protocol.

    Commands (one JSON object per line; replies are one JSON object per
    line with an ["ok"] field — errors are typed, never a dropped
    connection, and a field present with the wrong type is an error
    naming it):

    - [{"cmd":"ping"}]
    - [{"cmd":"open","channel":ID,"algorithm":NAME,"n":N,"k":K, ...}] —
      create a channel. Optional: [rate]/[burst] (rational strings),
      [rounds], [drain], [pattern] (["external"], the default, accepts
      socket injection; any generator spec runs self-driven), [seed],
      [faults] (plan file path), [checkpoint_every]. The run-spec fields
      are {!Mac_experiments.Registry.spec}'s, checked by the registry
      before anything is written: n >= 2, k >= 1 and the algorithm's own
      (n, k) range, rounds and drain >= 0, rate in (0, 1], burst >= 1, a
      known algorithm and a well-formed pattern. A refused [open] is an
      error naming the field; it leaves no [.meta] file and the id free.
      The [faults] plan is read when the shard adopts the channel: an
      unreadable plan, or one naming a station [>= n], fails the [open]
      there and leaves the channel [failed]. A channel with a non-empty
      plan counts protocol violations instead of raising, as batch runs
      do.
    - [{"cmd":"inject","channel":ID,"at":R,"src":S,"dst":D}] or
      [{"cmd":"inject","channel":ID,"packets":[[at,src,dst],...]}] —
      queue packets from outside the process. The adversary's leaky
      bucket still gates admission round by round. An accepted packet is
      carried across [migrate] and a shard respawn; while the channel is
      being handed to a shard, [inject] answers ["channel ID is
      migrating; retry"].
    - [{"cmd":"step","channel":ID,"rounds":N}] — advance N rounds; the
      reply arrives once they have executed.
    - [{"cmd":"run","channel":ID}] — run to completion; the reply carries
      the summary.
    - [{"cmd":"subscribe","channel":ID}] — stream the channel's typed
      event log (JSONL, from round 0) on this connection; the connection
      closes when the channel completes and the stream is fully sent.
    - [{"cmd":"snapshot","channel":ID}] — checkpoint now (PR-5 codec).
    - [{"cmd":"migrate","channel":ID,"shard":I}] — checkpoint, detach,
      and resume the channel on shard I.
    - [{"cmd":"stats"}], [{"cmd":"list"}] — fleet and per-channel state.
    - [{"cmd":"kill-shard","shard":I}] — chaos hook: make a shard domain
      die, exercising respawn + re-adoption.
    - [{"cmd":"drain"}] — same as SIGTERM: checkpoint everything and
      return from {!run}.

    Every channel persists [<id>.meta] (configuration), [<id>.ckpt]
    (rotating checkpoint), [<id>.events.jsonl] (spool: the full event
    stream minus telemetry frames — byte-identical to a batch run's
    [--events] file) and, when complete, [<id>.summary.json] (the exact
    [run --json] line). Telemetry lands in per-channel [.prom] files and
    [fleet.prom] via {!Mac_sim.Telemetry.Fleet}, so [routing_sim top]
    works on the state directory unchanged. *)

type config = {
  dir : string;  (** state directory: meta/ckpt/spool/prom files *)
  socket : string;  (** Unix-domain socket path *)
  shards : int;  (** worker domains; >= 1 *)
  checkpoint_every : int;  (** default cadence for channels *)
  telemetry_every : int;  (** probe sampling cadence *)
  log : string -> unit;
}

type t

val create : config -> (t, string) result
(** Bind the socket, start the shard domains, and re-adopt any channels
    left open in [dir] by a previous (drained or killed) daemon. *)

val run : t -> [ `Drained ]
(** Serve until a drain is requested — by the [drain] command or by a
    signal handler calling {!Mac_sim.Supervisor.request_drain} (the
    binary maps SIGTERM/SIGINT to it). Draining checkpoints every running
    channel at a round boundary, so a later daemon resumes the fleet
    bit-identically, then tears down shards, connections and the
    socket. *)
