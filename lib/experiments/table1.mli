(** The paper's Table 1, experiment by experiment.

    Each entry reproduces one row (an algorithm's performance claims, or an
    impossibility) as a set of simulated scenarios whose checks encode the
    claim: measured latency/queues under the instantiated bound, the energy
    cap respected exactly, stability or forced instability as stated, and a
    protocol-clean run. [`Quick] scale is used by the test suite, [`Full] by
    [routing_sim table1] without [--quick].

    A row is a {e catalog of cells} — (scenario spec, checks) pairs — and
    {!sweep} executes the cells of every selected row in one supervised
    pool. Exposing the cells lets other harnesses (the differential
    verifier, notably) re-run the exact Table-1 configurations through
    independent machinery. *)

type cell = {
  spec : Scenario.spec;
  checks : Scenario.checker list;
}

type t = {
  id : string;     (** e.g. "T1.orchestra" *)
  claim : string;  (** the paper's claim, humanly readable *)
  cells : scale:[ `Quick | `Full ] -> cell list;
  (** The row's scenarios at the given scale. *)
}

val row :
  id:string ->
  claim:string ->
  (scale:[ `Quick | `Full ] -> cell list) ->
  t
(** Assemble a row from a cell catalog. Other experiment drivers (the
    cross-paper {!Matrix}, notably) build their sweeps with this and run
    them through {!sweep}. *)

val sweep :
  ?observe:Scenario.observer ->
  ?telemetry:Mac_sim.Telemetry.Fleet.t ->
  ?jobs:int ->
  ?policy:Mac_sim.Supervisor.policy ->
  ?on_event:(Mac_sim.Supervisor.event -> unit) ->
  ?inject:(string -> unit) ->
  ?resume_dir:string ->
  scale:[ `Quick | `Full ] ->
  t list ->
  (t * (string * Scenario.resumed Mac_sim.Supervisor.outcome) list) list
(** Runs the cells of every given row as one {!Scenario.sweep} on [jobs]
    worker domains (default 1), so no row is a barrier for the next, and
    returns each row with its (scenario id, outcome) pairs, rows in the
    order given and outcomes in cell order; the JSON rows are
    bit-identical for every [jobs], and to a sweep of each row alone.

    - [policy] defaults to {!Mac_sim.Supervisor.default_policy}: the first
      failing cell aborts the sweep and its exception is re-raised. A
      drain request (SIGTERM) resolves unstarted cells as [Error Skipped]
      under any policy.
    - Without [resume_dir] every success is [Fresh]. With it, each cell
      goes through {!Scenario.run_resumable} keyed by its own row's id:
      cells already recorded there replay as [Cached], so a killed sweep
      restarted with the same directory re-runs only its unfinished
      cells and reproduces the original JSON rows byte-for-byte. Cells
      quarantined there resolve as [Error Quarantined] without running
      (which, like any failure, aborts a sweep under the default policy),
      and cells that exhaust their attempts are quarantined for the next
      run.
    - [observe] and [telemetry] are forwarded to every {!Scenario.run}.
    - [inject] is a fault hook (tests, [--inject-failure]): called with
      the cell id at the start of every attempt, and may raise.

    Each row's [cells] is called once; a retried attempt reruns its
    cell's spec and replays bit-identically to a first run. *)

val all : t list

val find : string -> t
(** Lookup by [id]; raises [Not_found]. *)

val catalog : scale:[ `Quick | `Full ] -> Scenario.spec list
(** Every scenario spec of every row, in row order. *)
