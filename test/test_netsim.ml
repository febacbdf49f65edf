(* Network simulator tests: link arithmetic, the LZ77 compressor
   (QCheck roundtrip), and channel batching/compression accounting. *)

module Link = No_netsim.Link
module Compress = No_netsim.Compress
module Channel = No_netsim.Channel
module Trace = No_trace.Trace

let test_link_math () =
  let slow = Link.slow_wifi and fast = Link.fast_wifi in
  Alcotest.(check bool) "fast beats slow" true
    (Link.effective_bps fast > Link.effective_bps slow);
  let t1 = Link.transfer_time slow ~bytes:0 in
  Alcotest.(check bool) "latency floor" true (t1 > 0.0);
  let t2 = Link.transfer_time slow ~bytes:100_000 in
  Alcotest.(check bool) "bytes cost time" true (t2 > t1);
  let rt = Link.round_trip_time slow ~req:100 ~resp:100 in
  Alcotest.(check bool) "round trip = two transfers" true
    (abs_float (rt -. (2.0 *. Link.transfer_time slow ~bytes:100)) < 1e-9)

let test_compress_runs () =
  let data = Bytes.make 4096 'a' in
  let packed = Compress.compress data in
  Alcotest.(check bool)
    (Printf.sprintf "runs compress well (%d -> %d)" 4096
       (Bytes.length packed))
    true
    (Bytes.length packed < 100);
  Alcotest.(check bytes) "roundtrip" data (Compress.decompress packed)

let test_compress_incompressible () =
  let data =
    Bytes.init 4096 (fun i ->
        Char.chr ((i * 197 + (i lsr 3 * 89) + (i * i mod 251)) land 0xff))
  in
  let packed = Compress.compress data in
  Alcotest.(check bytes) "roundtrip" data (Compress.decompress packed);
  Alcotest.(check bool) "no catastrophic expansion" true
    (Bytes.length packed < Bytes.length data * 2)

let prop_compress_roundtrip =
  QCheck.Test.make ~name:"compress/decompress roundtrip" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 2000))
    (fun s ->
      let data = Bytes.of_string s in
      Bytes.equal data (Compress.decompress (Compress.compress data)))

(* Overlapping matches (dist < len) are the classic decoder pitfall. *)
let test_compress_overlap () =
  let data = Bytes.of_string ("ab" ^ String.concat "" (List.init 100 (fun _ -> "ab"))) in
  Alcotest.(check bytes) "overlapping copy" data
    (Compress.decompress (Compress.compress data))

(* Every malformed stream raises [Corrupt], never an escaping
   [Invalid_argument]: unknown tokens, truncated varints, varints past
   nine bytes, and match lengths outside [4, 262]. *)
let test_corrupt_rejected () =
  List.iter
    (fun input ->
      match Compress.decompress (Bytes.of_string input) with
      | _ -> Alcotest.failf "expected Corrupt on %S" input
      | exception Compress.Corrupt _ -> ())
    [ "\x07garbage";
      "\x00";
      "\x01\x05";
      "\x00" ^ String.make 10 '\xff' ^ "\x01";
      "\x00\x03abc\x01\x01\x03";
      "\x00\x03abc\x01\x01\x80\x03";
      "\x00\x03abc\x01\x04\x04";
      "\x00\x05abc" ]

(* Golden streams, recorded before the match search learned to stop
   early: the format and every match choice are locked. *)
let structured_page () =
  Bytes.init 65536 (fun i -> Char.chr ((i / 97) land 0xff))

(* 200 KiB cycling through a 70,000-byte pseudo-random block: every
   repeat lies 70,000 bytes back, beyond the 64 KiB window, so the
   stream must be a single literal run. *)
let far_repeats () =
  let block = 70_000 in
  let s = ref 0x2545F491 in
  let a =
    Bytes.init block (fun _ ->
        s := ((!s * 1103515245) + 12345) land 0x7fffffff;
        Char.chr ((!s lsr 16) land 0xff))
  in
  Bytes.init 204_800 (fun i -> Bytes.get a (i mod block))

let test_compress_golden () =
  List.iter
    (fun (name, data, len, md5) ->
      let packed = Compress.compress data in
      Alcotest.(check int) (name ^ " length") len (Bytes.length packed);
      Alcotest.(check string) (name ^ " md5") md5
        (Digest.to_hex (Digest.bytes packed)))
    [ ("zero page", Bytes.make 4096 '\000', 67,
       "3921d5f7e78747f3348505b09afebf92");
      ("structured page", structured_page (), 4896,
       "e7ef55a6f9e8422bec2813aee05d8f14");
      ("far repeats", far_repeats (), 204_804,
       "e224a3806fa3716402e68bf8e30859b7") ]

(* The token stream's matches, read independently of the decoder. *)
let matches packed =
  let varint pos =
    let rec go pos shift acc =
      let b = Char.code (Bytes.get packed pos) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
    in
    go pos 0 0
  in
  let rec go pos acc =
    if pos >= Bytes.length packed then List.rev acc
    else
      match Bytes.get packed pos with
      | '\000' ->
        let n, p = varint (pos + 1) in
        go (p + n) acc
      | _ ->
        let dist, p = varint (pos + 1) in
        let len, p = varint p in
        go p ((dist, len) :: acc)
  in
  go 0 []

(* Inputs up to 150 KB built from literals and copies reaching up to
   100 KB back, so the window edge is crossed often. *)
let gen_repetitive =
  QCheck.Gen.(
    int_range 0 150_000 >>= fun len ->
    int_range 1 256 >>= fun alphabet ->
    int >>= fun seed ->
    let st = Random.State.make [| seed |] in
    let d = Bytes.create len in
    let i = ref 0 in
    while !i < len do
      if !i > 8 && Random.State.int st 4 = 0 then begin
        let reach = if Random.State.bool st then 100_000 else 300 in
        let dist = 1 + Random.State.int st (min !i reach) in
        let n = min (len - !i) (1 + Random.State.int st 600) in
        for k = 0 to n - 1 do
          Bytes.set d (!i + k) (Bytes.get d (!i + k - dist))
        done;
        i := !i + n
      end
      else begin
        Bytes.set d !i (Char.chr (Random.State.int st alphabet));
        incr i
      end
    done;
    return (Bytes.to_string d))

let prop_match_bounds =
  QCheck.Test.make ~name:"matches stay in window and length bounds" ~count:25
    (QCheck.make ~print:(fun s -> Printf.sprintf "<%d bytes>" (String.length s))
       gen_repetitive)
    (fun s ->
      let data = Bytes.of_string s in
      let packed = Compress.compress data in
      List.for_all
        (fun (dist, len) -> dist >= 1 && dist <= 65536 && len >= 4 && len <= 262)
        (matches packed)
      && Bytes.equal data (Compress.decompress packed))

(* A channel whose Flush rows fold into a fresh [Metrics], fanned out
   with [sink]. *)
let metered ?compress ?(sink = Trace.null) link direction =
  let m = Trace.Metrics.create () in
  ( Channel.create ?compress
      ~sink:(Trace.fan_out [ Trace.Metrics.sink m; sink ])
      link direction,
    m )

let test_channel_batching () =
  let ch, m = metered Link.fast_wifi Channel.To_server in
  Channel.send ch (Bytes.create 100);
  Channel.send ch (Bytes.create 200);
  Alcotest.(check int) "pending" 300 (Channel.pending_bytes ch);
  let t = Channel.flush ch in
  Alcotest.(check bool) "flush costs time" true (t > 0.0);
  Alcotest.(check int) "one physical flush" 1
    m.Trace.Metrics.flushes_to_server;
  Alcotest.(check int) "raw bytes" 300 m.Trace.Metrics.raw_to_server;
  (* batching amortizes latency: two separate flushes cost more *)
  let ch2 = Channel.create Link.fast_wifi Channel.To_server in
  Channel.send ch2 (Bytes.create 100);
  let t1 = Channel.flush ch2 in
  Channel.send ch2 (Bytes.create 200);
  let t2 = t1 +. Channel.flush ch2 in
  Alcotest.(check bool) "batching wins" true (t < t2)

let test_channel_compression () =
  let compressible = Bytes.make 8192 'x' in
  let ch, m = metered ~compress:true Link.slow_wifi Channel.To_mobile in
  Channel.send ch compressible;
  ignore (Channel.flush ch);
  let raw = m.Trace.Metrics.raw_to_mobile
  and wire = m.Trace.Metrics.wire_to_mobile in
  Alcotest.(check bool) "wire < raw" true (wire < raw);
  Alcotest.(check bool) "codec time charged" true
    (m.Trace.Metrics.codec_s > 0.0);
  Alcotest.(check bool) "ratio < 0.1" true
    (float_of_int wire /. float_of_int raw < 0.1)

let test_empty_flush_noop () =
  (* Flushing an empty buffer is a strict no-op: no time, no trace
     event. *)
  let ring = Trace.Ring.create ~capacity:16 () in
  let ch, m =
    metered ~sink:(Trace.Ring.sink ring) Link.fast_wifi Channel.To_server
  in
  Alcotest.(check (float 0.0)) "no time" 0.0 (Channel.flush ch);
  Alcotest.(check int) "no physical flush" 0
    m.Trace.Metrics.flushes_to_server;
  Alcotest.(check int) "no raw bytes" 0 m.Trace.Metrics.raw_to_server;
  Alcotest.(check int) "no event" 0 (Trace.Ring.length ring);
  (* ... and a real flush afterwards behaves normally. *)
  Channel.send ch (Bytes.create 64);
  ignore (Channel.flush ch);
  Alcotest.(check int) "one flush after send" 1
    m.Trace.Metrics.flushes_to_server;
  Alcotest.(check int) "one event after send" 1 (Trace.Ring.length ring)

let test_wire_never_exceeds_raw_event () =
  (* Compression can only shrink what goes on the wire; both the
     folded totals and the emitted Flush event must agree. *)
  let ring = Trace.Ring.create ~capacity:16 () in
  let payloads =
    [ Bytes.make 8192 'x';  (* highly compressible *)
      Bytes.init 4096 (fun i -> Char.chr ((i * 131 + (i * i mod 253)) land 0xff));
      Bytes.create 1 ]      (* tiny: headers could expand it *)
  in
  List.iter
    (fun payload ->
      let ch, m =
        metered ~compress:true ~sink:(Trace.Ring.sink ring) Link.slow_wifi
          Channel.To_mobile
      in
      Channel.send ch payload;
      ignore (Channel.flush ch);
      Alcotest.(check bool) "totals: wire <= raw" true
        (m.Trace.Metrics.wire_to_mobile <= m.Trace.Metrics.raw_to_mobile))
    payloads;
  let events = Trace.Ring.events ring in
  Alcotest.(check int) "one event per flush" (List.length payloads)
    (List.length events);
  List.iter
    (fun (_, ev) ->
      match ev with
      | Trace.Flush { raw_bytes; wire_bytes; _ } ->
        Alcotest.(check bool) "event: wire <= raw" true
          (wire_bytes <= raw_bytes)
      | _ -> Alcotest.fail "expected Flush event")
    events

let test_channel_compression_fallback () =
  (* Incompressible payload: the channel sends raw rather than
     expanding. *)
  let noise =
    Bytes.init 4096 (fun i -> Char.chr ((i * 131 + (i * i mod 253)) land 0xff))
  in
  let ch, m = metered ~compress:true Link.slow_wifi Channel.To_mobile in
  Channel.send ch noise;
  ignore (Channel.flush ch);
  Alcotest.(check bool) "no expansion on wire" true
    (m.Trace.Metrics.wire_to_mobile <= m.Trace.Metrics.raw_to_mobile)

let tests =
  [
    Alcotest.test_case "link math" `Quick test_link_math;
    Alcotest.test_case "compress runs" `Quick test_compress_runs;
    Alcotest.test_case "compress incompressible" `Quick
      test_compress_incompressible;
    QCheck_alcotest.to_alcotest prop_compress_roundtrip;
    Alcotest.test_case "compress overlap" `Quick test_compress_overlap;
    Alcotest.test_case "corrupt rejected" `Quick test_corrupt_rejected;
    Alcotest.test_case "compress golden streams" `Quick test_compress_golden;
    QCheck_alcotest.to_alcotest prop_match_bounds;
    Alcotest.test_case "channel batching" `Quick test_channel_batching;
    Alcotest.test_case "channel compression" `Quick test_channel_compression;
    Alcotest.test_case "compression fallback" `Quick
      test_channel_compression_fallback;
    Alcotest.test_case "empty flush is a no-op" `Quick test_empty_flush_noop;
    Alcotest.test_case "wire bytes never exceed raw" `Quick
      test_wire_never_exceeds_raw_event;
  ]
