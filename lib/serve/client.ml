(* Blocking line-oriented client for the serve socket. Used by the
   routing_sim fleet subcommands and the protocol tests; deliberately
   dumb — one request, one reply line, plus raw line streaming for
   subscriptions. *)

module J = Mac_channel.Jsonv

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

let connect ~socket =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s" socket (Unix.error_message e))
    | () ->
      Ok
        { fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd })

let send_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let recv_line t = try Some (input_line t.ic) with End_of_file -> None

let request t v =
  match send_line t (J.to_string v) with
  | exception Sys_error msg -> Error msg
  | () -> (
    match recv_line t with
    | None -> Error "server closed the connection"
    | Some line -> (
      match J.parse line with
      | Error msg -> Error ("bad reply: " ^ msg)
      | Ok reply -> (
        match Option.bind (J.member "ok" reply) J.to_bool with
        | Some true -> Ok reply
        | _ ->
          Error
            (Option.value ~default:("server error: " ^ line)
               (Option.bind (J.member "error" reply) J.to_str)))))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
