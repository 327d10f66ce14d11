(** Blocking client for the serve socket (one JSON object per line). *)

type t

val connect : socket:string -> (t, string) result

val request : t -> Mac_channel.Jsonv.t -> (Mac_channel.Jsonv.t, string) result
(** Send one command, read one reply. [Error] carries the server's typed
    ["error"] message when the reply has [ok = false]. *)

val send_line : t -> string -> unit
val recv_line : t -> string option
(** [None] at EOF — for subscriptions, EOF means "stream complete". *)

val close : t -> unit
