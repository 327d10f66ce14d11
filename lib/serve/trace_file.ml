(* Recorded injection traces: one "AT SRC DST" triple per line.

   The same file drives both transports — batch replay (routing_sim run
   --inject FILE preloads Pattern.external_queue) and the live daemon
   (routing_sim fleet replay pushes the triples over the socket) — which
   is what makes the serve-mode equivalence check meaningful: one trace,
   two code paths, byte-identical event streams. *)

let parse_line ~lineno s =
  let s =
    match String.index_opt s '#' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ' ' (String.trim s))
  in
  match parts with
  | [] -> Ok None
  | [ a; src; dst ] -> (
    match
      (int_of_string_opt a, int_of_string_opt src, int_of_string_opt dst)
    with
    | Some a, Some src, Some dst ->
      if a < 0 || src < 0 || dst < 0 then
        Error (Printf.sprintf "line %d: negative value" lineno)
      else if src = dst then
        Error (Printf.sprintf "line %d: src = dst (%d)" lineno src)
      else Ok (Some (a, src, dst))
    | _ -> Error (Printf.sprintf "line %d: expected three integers" lineno))
  | _ ->
    Error
      (Printf.sprintf "line %d: expected \"ROUND SRC DST\", got %S" lineno s)

let read_channel ?n ~path ic =
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | line -> (
      match parse_line ~lineno line with
      | Error _ as e -> e
      | Ok None -> go (lineno + 1) acc
      | Ok (Some ((_, src, dst) as item)) -> (
        match n with
        | Some n when src >= n || dst >= n ->
          Error
            (Printf.sprintf "%s, line %d: station out of range (n = %d)"
               path lineno n)
        | _ -> go (lineno + 1) (item :: acc)))
  in
  go 1 []

(* The open's [Sys_error] already names the path; a read's does not (a
   directory opens fine and fails at the first read). *)
let load ?n ~path () =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic -> (
    match
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> read_channel ?n ~path ic)
    with
    | Ok _ as ok -> ok
    | Error msg -> Error (path ^ ": " ^ msg)
    | exception Sys_error msg -> Error (path ^ ": " ^ msg))

let save ~path items =
  let buf = Buffer.create 256 in
  List.iter
    (fun (at, src, dst) ->
      Buffer.add_string buf (Printf.sprintf "%d %d %d\n" at src dst))
    items;
  Mac_sim.Durable.write_string ~path (Buffer.contents buf)
