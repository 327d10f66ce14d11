(* Self-describing checkpoint files.

   Layout (see DESIGN.md "Checkpoint files"):

     line 1: "MACCKPT <format-version>"
     line 2: one JSON object of human-readable metadata
     rest:   Marshal blob of the Engine.snapshot

   Format version 2 adds two fields to the metadata line — the blob's
   byte length and its CRC-32 — so a truncated or bit-flipped file is
   rejected with a precise [Error] instead of being fed to [Marshal]
   (which would crash, or worse, decode junk). Only version 2 is read:
   a version-1 file (no checksum) is refused like any other version.
   The checksums guard the bytes, not their meaning: a snapshot or
   algorithm-state type that changes shape without a version bump still
   passes them and [Marshal]-decodes to garbage. The only guard against
   that is the blob sizes pinned in test/golden/checkpoints.txt.

   The magic line guards against feeding an arbitrary file to Marshal;
   the JSON line lets humans and scripts inspect a checkpoint
   (`head -2 file`) without decoding the blob. The snapshot's own
   identity fields are validated again by [Engine.run ~resume], so a
   checkpoint from a different configuration fails with a precise error
   instead of silently diverging.

   [write_rotated]/[read_latest] add keep-last-good rotation: the
   previous checkpoint is kept as "<path>.prev", and a corrupt or torn
   "<path>" salvages it on resume. *)

let magic = "MACCKPT"
let format_version = 2

(* The metadata line carries its own CRC as the last field, computed
   over every byte of the line except the CRC digits themselves (which
   are checked by value). Together with the blob CRC that makes every
   byte after the magic line checksummed — a single flipped bit anywhere
   is rejected instead of surviving in a field nothing validates. *)
let metadata_json ~blob snap =
  let core =
    Printf.sprintf
      "{\"algorithm\": \"%s\", \"n\": %d, \"k\": %d, \"round\": %d, \
       \"drained\": %d, \"rounds\": %d, \"snapshot_version\": %d, \
       \"blob_bytes\": %d, \"blob_crc32\": %s, \"meta_crc32\": "
      (Export.json_escape (Engine.snapshot_algorithm snap))
      (Engine.snapshot_n snap) (Engine.snapshot_k snap)
      (Engine.snapshot_round snap)
      (Engine.snapshot_drained snap)
      (Engine.snapshot_rounds snap)
      Engine.snapshot_version (String.length blob)
      (Crc32.to_string (Crc32.string blob))
  in
  let crc = Crc32.update (Crc32.string core) "}" ~pos:0 ~len:1 in
  core ^ Crc32.to_string crc ^ "}"

let describe snap =
  Printf.sprintf "%s n=%d k=%d at round %d/%d%s"
    (Engine.snapshot_algorithm snap)
    (Engine.snapshot_n snap) (Engine.snapshot_k snap)
    (Engine.snapshot_round snap)
    (Engine.snapshot_rounds snap)
    (if Engine.snapshot_drained snap > 0 then
       Printf.sprintf " (draining, %d done)" (Engine.snapshot_drained snap)
     else "")

(* Atomic and durable: write to a dot-tmp sibling, fsync, then rename
   over the target (Durable.write_atomic). A crash mid-write leaves the
   previous checkpoint intact — the whole point of checkpointing is
   surviving exactly such crashes. *)
let write ~path snap =
  let blob = Marshal.to_string (snap : Engine.snapshot) [] in
  Durable.write_atomic ~path (fun oc ->
      Printf.fprintf oc "%s %d\n%s\n" magic format_version
        (metadata_json ~blob snap);
      output_string oc blob)

(* Pull "field": N out of the one-line metadata JSON, with the digit
   span, so the metadata CRC can mask its own digits. The writer above
   is the only producer, so a targeted scan beats a JSON parser. *)
let metadata_field_span line name =
  let key = "\"" ^ name ^ "\": " in
  match String.index_opt line '{' with
  | None -> None
  | Some _ ->
    let klen = String.length key in
    let len = String.length line in
    let rec find i =
      if i + klen > len then None
      else if String.sub line i klen = key then begin
        let j = ref (i + klen) in
        let start = !j in
        while
          !j < len && (match line.[!j] with '0' .. '9' | '-' -> true | _ -> false)
        do
          incr j
        done;
        if !j > start then
          Option.map
            (fun v -> (v, start, !j))
            (Int64.of_string_opt (String.sub line start (!j - start)))
        else None
      end
      else find (i + 1)
    in
    find 0

let metadata_int_field line name =
  Option.map (fun (v, _, _) -> v) (metadata_field_span line name)

let read_blob_exact ic ~bytes =
  match really_input_string ic bytes with
  | exception End_of_file -> None
  | blob ->
    (* Exact length: trailing garbage is as suspect as truncation. *)
    (match input_char ic with
    | exception End_of_file -> Some blob
    | _ -> None)

let decode_snapshot ~path blob =
  match (Marshal.from_string blob 0 : Engine.snapshot) with
  | exception (Failure _ | Invalid_argument _ | End_of_file) ->
    Error (path ^ ": truncated or corrupt checkpoint blob")
  | snap -> Ok snap

let check_metadata_crc ~path metadata =
  match metadata_field_span metadata "meta_crc32" with
  | None -> Error (path ^ ": checkpoint metadata missing meta_crc32")
  | Some (stored, s, e) ->
    let len = String.length metadata in
    let actual =
      Crc32.to_unsigned
        (Crc32.update
           (Crc32.update 0l metadata ~pos:0 ~len:s)
           metadata ~pos:e ~len:(len - e))
    in
    let stored = Int64.logand stored 0xFFFFFFFFL in
    if actual <> stored then
      Error
        (Printf.sprintf
           "%s: checkpoint metadata CRC mismatch (stored %Ld, computed %Ld)"
           path stored actual)
    else Ok ()

let read_v2 ~path ic metadata =
  match check_metadata_crc ~path metadata with
  | Error msg -> Error msg
  | Ok () -> (
    match
      ( metadata_int_field metadata "blob_bytes",
        metadata_int_field metadata "blob_crc32" )
    with
    | None, _ | _, None ->
      Error (path ^ ": checkpoint metadata missing blob_bytes/blob_crc32")
    | Some bytes, Some crc ->
    let bytes = Int64.to_int bytes in
      if bytes < 0 then
        Error (path ^ ": checkpoint metadata corrupt (negative blob size)")
      else (
        match read_blob_exact ic ~bytes with
        | None ->
          Error
            (Printf.sprintf
               "%s: checkpoint blob truncated or padded (expected %d bytes)"
               path bytes)
        | Some blob ->
          let actual = Crc32.to_unsigned (Crc32.string blob) in
          if actual <> Int64.logand crc 0xFFFFFFFFL then
            Error
              (Printf.sprintf
                 "%s: checkpoint blob CRC mismatch (stored %Ld, computed %Ld)"
                 path (Int64.logand crc 0xFFFFFFFFL) actual)
          else decode_snapshot ~path blob))

let read_channel ~path ic =
  match input_line ic with
  | exception End_of_file -> Error (path ^ ": not a checkpoint file (empty)")
  | header ->
    (match String.split_on_char ' ' header with
     | [ m; v ] when m = magic ->
       (match int_of_string_opt v with
        | Some 2 ->
          (match input_line ic with
           | exception End_of_file ->
             Error (path ^ ": truncated checkpoint (no metadata)")
           | metadata -> read_v2 ~path ic metadata)
        | Some v ->
          Error
            (Printf.sprintf
               "%s: checkpoint format version %d (this build reads only %d)"
               path v format_version)
        | None -> Error (path ^ ": malformed checkpoint header"))
     | _ -> Error (path ^ ": not a checkpoint file (bad magic)"))

(* The open's [Sys_error] already names the path; a read's does not (a
   directory opens fine and fails at the first read). *)
let read ~path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
    match
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> read_channel ~path ic)
    with
    | r -> r
    | exception Sys_error msg -> Error (path ^ ": " ^ msg))

(* ---- keep-last-good rotation ------------------------------------------ *)

let prev_path path = path ^ ".prev"

(* Before the new checkpoint lands on [path], the current one is rotated
   to [path ^ ".prev"]. Both renames are atomic, so at every instant at
   least one on-disk checkpoint is intact — a torn or corrupted newest
   file salvages the previous one via [read_latest]. *)
let write_rotated ~path snap =
  if Sys.file_exists path then Sys.rename path (prev_path path);
  write ~path snap

(* Read [path], falling back to the rotated previous checkpoint when the
   newest is missing/torn/corrupt. Reports what was salvaged so callers
   can tell the user. *)
let read_latest ~path =
  match read ~path with
  | Ok snap -> Ok (snap, `Current)
  | Error primary ->
    let prev = prev_path path in
    if Sys.file_exists prev then (
      match read ~path:prev with
      | Ok snap -> Ok (snap, `Salvaged primary)
      | Error fallback ->
        Error (primary ^ "; salvage failed too: " ^ fallback))
    else Error primary
