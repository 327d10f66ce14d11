(* The one true atomic file writer.

   Every "atomic" file in the harness (checkpoints, telemetry
   expositions, sweep completion markers) goes through [write_atomic]:
   write a dot-tmp sibling, fsync it, then rename over the target.
   The fsync closes the hole the tmp+rename idiom leaves on its own —
   after a power cut the rename can be durable while the data is not,
   leaving an empty or truncated "atomic" file in place of the old one.

   [failpoint] exists for the chaos harness: it injects failures into
   the writer itself (a failed fsync, a failed rename) to prove callers
   survive them with the previous file contents intact. It is [None] in
   production and costs one ref read per write. *)

exception Injected_failure of string

(* Called (when set) at each stage of a write with the stage name
   ("open" | "fsync" | "rename") and the destination path; raising
   aborts the write at that stage, leaving the destination untouched. *)
let failpoint : (stage:string -> path:string -> unit) option ref = ref None

let trip ~stage ~path =
  match !failpoint with None -> () | Some f -> f ~stage ~path

let fsync_out_channel oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* The file stem for an id, which may contain '/': every character
   outside [A-Za-z0-9._-] becomes '_'. Event streams, resume markers and
   telemetry expositions are named by it. *)
let file_stem id =
  String.map
    (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-') as c -> c
      | _ -> '_')
    id

let tmp_sibling path =
  Filename.concat (Filename.dirname path)
    ("." ^ Filename.basename path ^ ".tmp")

(* [fill oc] writes the contents; the channel is binary. On any failure
   (including injected ones) the tmp file is removed and the destination
   keeps its previous contents. *)
let write_atomic ~path fill =
  let tmp = tmp_sibling path in
  trip ~stage:"open" ~path;
  let oc = open_out_bin tmp in
  (try
     fill oc;
     trip ~stage:"fsync" ~path;
     fsync_out_channel oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (try trip ~stage:"rename" ~path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let write_string ~path s = write_atomic ~path (fun oc -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
