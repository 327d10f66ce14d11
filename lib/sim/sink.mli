(** Pluggable consumers for the engine's typed event stream.

    A sink is a pair of closures: [emit] receives every
    {!Mac_channel.Event.t} the engine produces (in round order, with the
    round number alongside), and [close] flushes or finalises whatever
    the sink owns. The engine never closes sinks — whoever created one
    does, normally after [Engine.run] returns.

    Disabled observation costs the engine a single branch per event;
    sinks only pay when installed. *)

type t = {
  emit : round:int -> Mac_channel.Event.t -> unit;
  close : unit -> unit;
}

val make : ?close:(unit -> unit) -> (round:int -> Mac_channel.Event.t -> unit) -> t
(** Wrap an emit function; [close] defaults to a no-op. *)

val null : t
(** Swallows everything. *)

val close : t -> unit

val ring : Mac_channel.Trace.t -> t
(** Record the {!Mac_channel.Event.notable} events into the bounded
    in-memory {!Mac_channel.Trace} ring, formatted with
    [Event.to_string]. *)

val jsonl : out_channel -> t
(** Stream one JSON object per line to the channel, each written by
    {!Mac_channel.Event.add_json} into one buffer the sink reuses, so no
    string is made per event. [close] flushes but does not close the
    channel (the caller owns it). *)

val jsonl_file : string -> t
(** [jsonl] over a fresh file at [path]; [close] closes the file. *)

val tee : t list -> t
(** Fan every event out to each sink in order; [close] closes them all. *)
