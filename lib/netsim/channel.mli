(** A batched, optionally compressed message channel over a link.

    The paper's runtime "batches and compresses the communicated
    data": batching amortizes per-message latency; compression is
    applied server→mobile only, because compressing on the phone costs
    more than it saves (§4).  The channel is clock-agnostic: {!flush}
    returns the elapsed time (transfer plus codec CPU) and the caller
    advances its own clock. *)

type direction = No_trace.Trace.direction = To_server | To_mobile

type t

val create :
  ?compress:bool ->
  ?sink:No_trace.Trace.sink ->
  ?clock:(unit -> float) ->
  ?bw_factor:(unit -> float) ->
  Link.t ->
  direction ->
  t
(** [sink] receives one {!No_trace.Trace.Flush} event per non-empty
    physical transfer, stamped with [clock ()] (the channel itself is
    clock-agnostic; the default stamps 0).  [bw_factor], sampled at
    flush time, scales the usable bandwidth — fault injection's
    bandwidth collapse; the default (1.0) charges the link's normal
    rate, bit-for-bit. *)

val send : t -> Bytes.t -> unit
(** Queue a logical message; costs nothing until flushed. *)

val pending_bytes : t -> int

val flush : t -> float
(** Transmit the batch and emit its Flush row; returns elapsed
    seconds.  Flushing an empty pending buffer is a strict no-op: zero
    time, no event.  Compression falls back to raw when it would
    expand the data, so [wire_bytes <= raw_bytes] always holds. *)
