(* A batched, optionally compressed message channel over a link.

   The paper's runtime "batches and compresses the communicated data":
   batching keeps data in a buffer and sends it once, amortizing
   per-message overheads; compression is applied only in the
   server-to-mobile direction because compressing on the mobile device
   would cost more than it saves (Section 4).

   The channel does not know about simulated time directly; [flush]
   returns the time the transfer took (link time plus compression /
   decompression CPU time), and the caller advances its clock. *)

type direction = No_trace.Trace.direction = To_server | To_mobile

type t = {
  link : Link.t;
  direction : direction;
  compress : bool;
  mutable pending : Buffer.t;
  sink : No_trace.Trace.sink;     (* receives one Flush per transfer *)
  clock : unit -> float;          (* timestamps for emitted events *)
  bw_factor : unit -> float;      (* usable-bandwidth scale at flush time *)
}

(* Compression throughput in the hundreds of MB/s (real hardware);
   decompression is roughly 4x faster — the asymmetry the paper's
   design exploits.  Scaled with the link so the "is compressing
   faster than transmitting raw?" trade-off is preserved.  The sender
   pays the first per byte, the receiver the second. *)
let compress_s_per_byte = 150.0 /. 250e6
let decompress_s_per_byte = 150.0 /. 1000e6

let create ?(compress = false) ?(sink = No_trace.Trace.null)
    ?(clock = fun () -> 0.0) ?(bw_factor = fun () -> 1.0) link direction =
  {
    link;
    direction;
    compress;
    pending = Buffer.create 4096;
    sink;
    clock;
    bw_factor;
  }

(* Queue a logical message; costs nothing until flushed. *)
let send t (payload : Bytes.t) = Buffer.add_bytes t.pending payload

let pending_bytes t = Buffer.length t.pending

(* Transmit the batch; returns elapsed time.  Flushing an empty
   pending buffer is a strict no-op: no event, zero time. *)
let flush t : float =
  let raw = Buffer.length t.pending in
  if raw = 0 then 0.0
  else begin
    let payload = Buffer.to_bytes t.pending in
    Buffer.clear t.pending;
    let wire, codec_time =
      if t.compress then begin
        let packed = Compress.compress payload in
        (* Fall back to raw if compression expands the data. *)
        if Bytes.length packed < raw then
          ( Bytes.length packed,
            (float_of_int raw *. compress_s_per_byte)
            +. (float_of_int (Bytes.length packed) *. decompress_s_per_byte)
          )
        else (raw, float_of_int raw *. compress_s_per_byte)
      end
      else (raw, 0.0)
    in
    (* Compression never expands what we put on the wire (the fallback
       above sends raw); keep the invariant explicit. *)
    let wire = min wire raw in
    assert (wire <= raw);
    let transfer =
      Link.transfer_time_scaled t.link ~bytes:wire ~bw_factor:(t.bw_factor ())
    in
    t.sink ~ts:(t.clock ())
      (Flush
         { direction = t.direction; raw_bytes = raw; wire_bytes = wire;
           transfer_s = transfer; codec_s = codec_time });
    transfer +. codec_time
  end
