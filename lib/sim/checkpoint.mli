(** Persistent, self-describing checkpoint files for {!Engine} snapshots.

    A checkpoint file is a text header — a magic line ["MACCKPT <version>"]
    and one line of JSON metadata (algorithm, n, k, round; inspectable with
    [head -2]) — followed by the binary snapshot blob. Writes are atomic
    (tmp file + rename), so a crash mid-write leaves the previous checkpoint
    intact; [read] validates the header and version before touching the
    blob, and {!Engine.run} re-validates the snapshot's identity fields
    against the resuming run's configuration. Checkpoint files are
    build-specific (the blob is OCaml [Marshal] output): a file written by a
    different binary is rejected by the header version or the snapshot
    version only when the change that made it different bumped one of
    them. A snapshot or algorithm-state type that changes shape without a
    version bump is misread: [Marshal] decodes the old bytes to garbage.
    The blob sizes pinned in [test/golden/checkpoints.txt] are the only
    guard against that.

    Format v2 adds the blob's byte count and CRC-32 to the metadata line, so
    [read] detects truncation, padding and bit-rot {e before} handing the
    blob to [Marshal]. v1 files carried no checksum and are refused with
    the same "format version" error as any other unreadable version. For crash
    resilience beyond a single file, {!write_rotated} keeps the previous
    good checkpoint as [<path>.prev] and {!read_latest} falls back to it
    when the newest file is corrupt. *)

val format_version : int

val write : path:string -> Engine.snapshot -> unit
(** Atomically persist a snapshot: written to a hidden sibling tmp file,
    fsynced, then renamed over [path]. *)

val read : path:string -> (Engine.snapshot, string) result
(** Load a checkpoint. [Error] carries a one-line human-readable reason
    naming the path (missing or unreadable file, a directory included;
    bad magic, version mismatch, truncated blob, CRC mismatch). *)

val prev_path : string -> string
(** [prev_path path] is the rotation sibling [path ^ ".prev"]. *)

val write_rotated : path:string -> Engine.snapshot -> unit
(** Like {!write}, but first rotates an existing [path] to
    [prev_path path], so the last-known-good checkpoint survives even if
    this write (or a later corruption of [path]) destroys the newest one. *)

val read_latest :
  path:string ->
  (Engine.snapshot * [ `Current | `Salvaged of string ], string) result
(** Read [path], falling back to [prev_path path] when the primary is
    missing or corrupt. [`Salvaged reason] reports why the primary was
    rejected; [Error] combines both failure reasons. *)

val describe : Engine.snapshot -> string
(** One line: algorithm, n, k and the snapshot's round position. *)
