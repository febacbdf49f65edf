(* What can still diverge on the event spine (QCheck): a row of the
   raw-trace codec's slot view, of every event kind and with any values
   in its fields, must come back bit for bit through the event and
   through a jsonl line, the jsonl form of a hand-built stream is
   pinned verbatim, the loader answers mutants of that file with [Ok]
   or [Error] only, and a captured stream replayed through fresh sinks
   must rebuild the Metrics and windowed Series the live run folded,
   bitwise — checked on real workload runs under a fault plan. *)

module Trace = No_trace.Trace
module Row = Trace.Row
module Series = No_obs.Series
module Trace_file = No_obs.Trace_file
module Session = No_runtime.Session
module Chess = No_workloads.Chess
module Fault_plan = No_fault.Plan
module Compiler = Native_offloader.Compiler
module Experiment = Native_offloader.Experiment

(* {1 Bitwise equality}

   Values are marshalled without sharing and compared as bytes, so
   floats compare by their bits (0.0 vs -0.0, NaN gauges, any
   summation-order drift) rather than by [=]. *)

let bits v = Marshal.to_string v [ Marshal.No_sharing ]

(* %.17g keeps a NaN a NaN but not its payload, so a jsonl round trip
   is compared with every NaN made one. *)
let canon x = if Float.is_nan x then Float.nan else x

let canon_bits (ts, (r : Row.t)) =
  bits (canon ts, { r with Row.f = Array.map canon r.Row.f })

let row_of ev =
  let r = Row.create () in
  Row.of_event r ev;
  r

(* {1 Row generator}

   A walk over [Row.schema], like the jsonl encoder and decoder: a row
   of any kind whose fields hold unrestricted values — any int, any
   float bit pattern (NaNs, infinities, subnormals, -0.0), any bytes. *)

let gen_float : float QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      oneofl
        [ Float.nan; -.Float.nan; infinity; neg_infinity; -0.0; 0.0; 5e-324;
          1e300; -1e300; max_float ];
      (* uniform over all 64 bits *)
      map2
        (fun a b ->
          Int64.(float_of_bits (logxor (of_int a) (shift_left (of_int b) 1))))
        int int;
      float;
    ]

let gen_int : int QCheck.Gen.t =
  QCheck.Gen.(oneof [ int; oneofl [ max_int; min_int; 0; -1; (1 lsl 53) + 1 ] ])

let gen_row : (float * Row.t) QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let r = Row.create () in
  r.Row.kind <- int_bound (Array.length Row.schema - 1) st;
  Array.iter
    (fun { Row.ty; slot; _ } ->
      match ty with
      | Row.Int -> Row.set_int_slot r slot (gen_int st)
      | Float -> r.Row.f.(slot) <- gen_float st
      | String ->
        Row.set_string_slot r slot (string_size ~gen:char (int_bound 12) st)
      | Bool -> Row.set_int_slot r slot (int_bound 1 st)
      | Direction ->
        let n = Array.length Row.directions in
        Row.set_int_slot r slot (int_bound (n - 1) st))
    Row.schema.(r.Row.kind).fields;
  (gen_float st, r)

(* {1 Row round trip}

   Three checks per row: row -> event -> row is bitwise; row -> jsonl
   line -> row is bitwise up to NaN payloads; and decoding the line
   then encoding it again gives the same bytes. *)

let prop_round_trip =
  QCheck.Test.make ~name:"row round trip (generated events)" ~count:2000
    (QCheck.make
       ~print:(fun (ts, r) -> Trace_file.to_string [ (ts, Row.to_event r) ])
       gen_row)
    (fun (ts, r) ->
      let text = Trace_file.to_string [ (ts, Row.to_event r) ] in
      bits (row_of (Row.to_event r)) = bits r
      &&
      match Trace_file.of_string text with
      | Ok [ (ts', ev) ] ->
        canon_bits (ts', row_of ev) = canon_bits (ts, r)
        && Trace_file.to_string [ (ts', ev) ] = text
      | Ok _ -> false
      | Error msg -> QCheck.Test.fail_report msg)

(* {1 The jsonl golden}

   One event of every kind (and both directions and decisions), with
   edge values and escapes, and its verbatim encoding, recorded from an
   encoder that did not walk the schema, so the golden is no copy of
   the code it checks. *)

let golden_stream : (float * Trace.event) list =
  [
    ( 0.0,
      Trace.Flush
        { direction = To_server; raw_bytes = max_int; wire_bytes = min_int;
          transfer_s = 5e-324; codec_s = 1e300 } );
    ( 0.1,
      Trace.Flush
        { direction = To_mobile; raw_bytes = 0; wire_bytes = -1;
          transfer_s = -0.0; codec_s = 0.1 +. 0.2 } );
    (-0.0, Trace.Page_fault { page = 9007199254740993; service_s = infinity });
    (1e-300, Trace.Prefetch { pages = 3; bytes = 12288 });
    (0.5, Trace.Fnptr_translate { cost_s = neg_infinity });
    ( 1.0,
      Trace.Remote_io
        { io_name = "rf_read \"q\" \\ /"; request_bytes = 4096;
          response_bytes = 9007199254740992; cost_s = max_float } );
    (1.5, Trace.Offload_begin { target = "tab\there" });
    ( 2.0,
      Trace.Offload_end
        { target = "nl\nand\rcr"; dirty_pages = 17; span_s = min_float } );
    (2.5, Trace.Refusal { target = "ctl\001\031" });
    ( 3.0,
      Trace.Power_state
        { state = "caf\xc3\xa9"; mw = 1234.5; duration_s = 1e-9 } );
    ( 3.5,
      Trace.Estimate
        { target = ""; predicted_gain_s = nan; local_s = -.nan;
          decision = true } );
    ( 3.75,
      Trace.Estimate
        { target = "t"; predicted_gain_s = -2.5; local_s = 0.0;
          decision = false } );
    (4.0, Trace.Module_load { role = "server"; functions = 3; globals = -7 });
    (4.5, Trace.Fault_injected { kind = "link-outage"; op = "page-fault" });
    (5.0, Trace.Rpc_timeout { op = "init"; attempt = 2; waited_s = 1.5 });
    (5.5, Trace.Retry { op = "finalize"; attempt = 3; backoff_s = 0.25 });
    ( 6.0,
      Trace.Fallback_local
        { target = "t"; reason = "server-crash"; recovery_s = 2.0 } );
    ( 6.5,
      Trace.Rollback { target = "t"; pages_restored = 12; bytes_discarded = 0 }
    );
    (7.0, Trace.Replay { target = "t"; replay_s = 1e-9 });
    ( 7.5,
      Trace.Queue { target = "t"; server = 1; wait_s = 0.125; depth = 4 } );
    (8.0, Trace.Admit { target = "t"; server = 2; occupancy = 3; slot = 0 });
    (8.5, Trace.Reject { target = "t"; server = 0; queue_depth = 8 });
    (9.0, Trace.Bw_sample { bps = 1.25e6 });
    ( 9.5,
      Trace.Checkpoint
        { target = "t"; pages = 5; image_bytes = 20480; io_cursor = 2;
          ledger_bytes = 99 } );
    ( 10.0,
      Trace.Migrate_start
        { target = "t"; from_server = 0; to_server = 1; reason = "crash";
          transfer_s = 0.5 } );
    ( 10.5,
      Trace.Migrate_done { target = "t"; server = 1; resumed_span_s = 3.0 } );
  ]

let golden_text =
  {|{"format":"no-trace-raw","version":4,"events":26}
{"ts":0,"kind":"flush","direction":"to-server","raw_bytes":4611686018427387903,"wire_bytes":-4611686018427387904,"transfer_s":4.9406564584124654e-324,"codec_s":1.0000000000000001e+300}
{"ts":0.10000000000000001,"kind":"flush","direction":"to-mobile","raw_bytes":0,"wire_bytes":-1,"transfer_s":-0,"codec_s":0.30000000000000004}
{"ts":-0,"kind":"page-fault","page":9007199254740993,"service_s":inf}
{"ts":1e-300,"kind":"prefetch","pages":3,"bytes":12288}
{"ts":0.5,"kind":"fnptr-translate","cost_s":-inf}
{"ts":1,"kind":"remote-io","io_name":"rf_read \"q\" \\ /","request_bytes":4096,"response_bytes":9007199254740992,"cost_s":1.7976931348623157e+308}
{"ts":1.5,"kind":"offload-begin","target":"tab\there"}
{"ts":2,"kind":"offload-end","target":"nl\nand\rcr","dirty_pages":17,"span_s":2.2250738585072014e-308}
{"ts":2.5,"kind":"refusal","target":"ctl\u0001\u001f"}
{"ts":3,"kind":"power-state","state":"café","mw":1234.5,"duration_s":1.0000000000000001e-09}
{"ts":3.5,"kind":"estimate","target":"","predicted_gain_s":nan,"local_s":-nan,"decision":true}
{"ts":3.75,"kind":"estimate","target":"t","predicted_gain_s":-2.5,"local_s":0,"decision":false}
{"ts":4,"kind":"module-load","role":"server","functions":3,"globals":-7}
{"ts":4.5,"kind":"fault-injected","fault":"link-outage","op":"page-fault"}
{"ts":5,"kind":"rpc-timeout","op":"init","attempt":2,"waited_s":1.5}
{"ts":5.5,"kind":"retry","op":"finalize","attempt":3,"backoff_s":0.25}
{"ts":6,"kind":"fallback-local","target":"t","reason":"server-crash","recovery_s":2}
{"ts":6.5,"kind":"rollback","target":"t","pages_restored":12,"bytes_discarded":0}
{"ts":7,"kind":"replay","target":"t","replay_s":1.0000000000000001e-09}
{"ts":7.5,"kind":"queue","target":"t","server":1,"wait_s":0.125,"depth":4}
{"ts":8,"kind":"admit","target":"t","server":2,"occupancy":3,"slot":0}
{"ts":8.5,"kind":"reject","target":"t","server":0,"queue_depth":8}
{"ts":9,"kind":"bw-sample","bps":1250000}
{"ts":9.5,"kind":"checkpoint","target":"t","pages":5,"image_bytes":20480,"io_cursor":2,"ledger_bytes":99}
{"ts":10,"kind":"migrate-start","target":"t","from_server":0,"to_server":1,"reason":"crash","transfer_s":0.5}
{"ts":10.5,"kind":"migrate-done","target":"t","server":1,"resumed_span_s":3}
|}

let test_golden () =
  Alcotest.(check string) "encodes to the golden" golden_text
    (Trace_file.to_string golden_stream);
  match Trace_file.of_string golden_text with
  | Error msg -> Alcotest.fail msg
  | Ok decoded ->
    let canon_all = List.map (fun (ts, ev) -> canon_bits (ts, row_of ev)) in
    Alcotest.(check bool) "decodes to the stream" true
      (canon_all decoded = canon_all golden_stream);
    Alcotest.(check string) "re-encodes byte for byte" golden_text
      (Trace_file.to_string decoded)

(* {1 The encoder's float memo}

   One float field receives, in consecutive rows, values that are equal
   but print differently (0.0 and -0.0), values that equal nothing
   (nan and -nan), a repeat (2e-4) and the smallest subnormal; the
   same value then goes into two other kinds.  The literal was recorded
   with the encoder that formatted every float afresh. *)

let memo_stream : (float * Trace.event) list =
  List.map
    (fun v -> (v, Trace.Fnptr_translate { cost_s = v }))
    [ 0.0; -0.0; 0.0; nan; -.nan; nan; 2e-4; 2e-4; 5e-324 ]
  @ [
      ( 2e-4,
        Trace.Remote_io
          { io_name = "rf_read"; request_bytes = 8; response_bytes = 16;
            cost_s = 5e-324 } );
      (2e-4, Trace.Page_fault { page = 1; service_s = 5e-324 });
      (5e-324, Trace.Fnptr_translate { cost_s = -0.0 });
    ]

let memo_text =
  {|{"format":"no-trace-raw","version":4,"events":12}
{"ts":0,"kind":"fnptr-translate","cost_s":0}
{"ts":-0,"kind":"fnptr-translate","cost_s":-0}
{"ts":0,"kind":"fnptr-translate","cost_s":0}
{"ts":nan,"kind":"fnptr-translate","cost_s":nan}
{"ts":-nan,"kind":"fnptr-translate","cost_s":-nan}
{"ts":nan,"kind":"fnptr-translate","cost_s":nan}
{"ts":0.00020000000000000001,"kind":"fnptr-translate","cost_s":0.00020000000000000001}
{"ts":0.00020000000000000001,"kind":"fnptr-translate","cost_s":0.00020000000000000001}
{"ts":4.9406564584124654e-324,"kind":"fnptr-translate","cost_s":4.9406564584124654e-324}
{"ts":0.00020000000000000001,"kind":"remote-io","io_name":"rf_read","request_bytes":8,"response_bytes":16,"cost_s":4.9406564584124654e-324}
{"ts":0.00020000000000000001,"kind":"page-fault","page":1,"service_s":4.9406564584124654e-324}
{"ts":4.9406564584124654e-324,"kind":"fnptr-translate","cost_s":-0}
|}

let test_memo () =
  let body events =
    let text = Trace_file.to_string events in
    let i = String.index text '\n' + 1 in
    String.sub text i (String.length text - i)
  in
  Alcotest.(check string) "encodes as recorded" memo_text
    (Trace_file.to_string memo_stream);
  Alcotest.(check string) "encodes as one call per event" (body memo_stream)
    (String.concat "" (List.map (fun e -> body [ e ]) memo_stream))

(* {1 Loader fuzz}

   Mutants of the golden file: bytes replaced, inserted and deleted,
   truncation, two lines swapped, members of a line swapped or
   duplicated.  The loader must answer every one with [Ok] or [Error],
   never an exception, and a stream it loads must survive a second
   round trip unchanged. *)

(* One edit, its positions drawn as raw ints and reduced modulo the
   text at hand. *)
type edit = { op : int; a : int; b : int; c : int }

let edit_chars = "\"{}:,\\-+.0123456789eEinfatrueu_ \t\r\n"

let apply_edit s { op; a; b; c } =
  let n = String.length s in
  let ch =
    if c mod 5 = 0 then Char.chr (c mod 256)
    else edit_chars.[c mod String.length edit_chars]
  in
  let lines = Array.of_list (String.split_on_char '\n' s) in
  let nl = Array.length lines in
  let join () = String.concat "\n" (Array.to_list lines) in
  match op with
  | 0 when n > 0 -> String.mapi (fun i x -> if i = a mod n then ch else x) s
  | 1 ->
    let i = a mod (n + 1) in
    String.sub s 0 i ^ String.make 1 ch ^ String.sub s i (n - i)
  | 2 when n > 0 ->
    let i = a mod n in
    String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | 3 -> String.sub s 0 (a mod (n + 1))
  | 4 ->
    let i = a mod nl and j = b mod nl in
    let l = lines.(i) in
    lines.(i) <- lines.(j);
    lines.(j) <- l;
    join ()
  | 5 | 6 ->
    let i = a mod nl in
    let l = lines.(i) in
    let len = String.length l in
    if len < 2 || l.[0] <> '{' || l.[len - 1] <> '}' then s
    else
      let inner = String.sub l 1 (len - 2) in
      let ms = Array.of_list (String.split_on_char ',' inner) in
      let k = Array.length ms in
      let ms =
        if op = 5 then (
          let x = ms.(b mod k) in
          ms.(b mod k) <- ms.(c mod k);
          ms.(c mod k) <- x;
          Array.to_list ms)
        else
          List.concat
            (List.mapi
               (fun j m -> if j = b mod k then [ m; ms.(c mod k) ] else [ m ])
               (Array.to_list ms))
      in
      lines.(i) <- "{" ^ String.concat "," ms ^ "}";
      join ()
  | _ -> s

let mutant edits = List.fold_left apply_edit golden_text edits

(* Uniform draws: [nat] favours small numbers, which would leave the
   golden's later lines almost untouched. *)
let gen_edits =
  QCheck.Gen.(
    let any = int_bound 1_000_000 in
    list_size (int_range 1 3)
      (map
         (fun (op, a, b, c) -> { op; a; b; c })
         (quad (int_bound 6) any any any)))

let prop_loader_fuzz =
  QCheck.Test.make ~name:"loader fuzz (golden mutants)" ~count:10_000
    (QCheck.make ~print:(fun edits -> String.escaped (mutant edits)) gen_edits)
    (fun edits ->
      let text = mutant edits in
      ignore (Trace_file.of_string_traces text);
      match Trace_file.of_string text with
      | Error _ -> true
      | Ok events -> (
        let again = Trace_file.to_string events in
        let canon_all = List.map (fun (ts, ev) -> canon_bits (ts, row_of ev)) in
        match Trace_file.of_string again with
        | Ok events' ->
          canon_all events' = canon_all events
          && Trace_file.to_string events' = again
        | Error msg -> QCheck.Test.fail_report msg))

(* No limit on members per line: a line whose known fields follow a
   thousand unknown ones still loads. *)
let test_many_unknown_members () =
  let unknown =
    String.concat ""
      (List.init 1000 (fun i ->
           Printf.sprintf "\"u%d\":%s," i
             (match i mod 3 with 0 -> "1.5" | 1 -> "\"x\"" | _ -> "true")))
  in
  let text =
    "{\"format\":\"no-trace-raw\",\"version\":4,\"events\":1}\n{" ^ unknown
    ^ "\"ts\":0.5,\"kind\":\"refusal\",\"target\":\"t\"}\n"
  in
  match Trace_file.of_string text with
  | Ok [ (0.5, Trace.Refusal { target = "t" }) ] -> ()
  | Ok _ -> Alcotest.fail "loaded a different stream"
  | Error msg -> Alcotest.fail msg

(* {1 Replay = live, on real workloads under a fault plan}

   The live run folds events as the emitters hand them over; the
   capture is the ring's copy of the same stream, fed back through
   [Trace.replay].  A sink that keeps every event it is handed, without
   copying it, must hold exactly the ring's stream: no emitter changes
   an event after handing it over. *)

let chess_compiled =
  lazy
    (Compiler.compile
       ~profile_script:(Chess.script ~depth:3 ~turns:2)
       ~eval_scale:2.0 (Chess.build ()))

let check_replay seed =
  let compiled = Lazy.force chess_compiled in
  let plan =
    match
      Fault_plan.parse
        (Printf.sprintf "seed=%d,drop=0.08,corrupt=0.03,outage=0.02:0.12"
           seed)
    with
    | Ok p -> p
    | Error msg -> Alcotest.failf "fault plan: %s" msg
  in
  let ring = Trace.Ring.create () in
  let metrics = Trace.Metrics.create () in
  let series = Series.create () in
  let kept = ref [] in
  let keep ~ts ev = kept := (ts, ev) :: !kept in
  let config =
    { (Experiment.fast_config ()) with
      Session.trace =
        Trace.fan_out
          [ Trace.Ring.sink ring; Trace.Metrics.sink metrics;
            Series.sink series; keep ];
      Session.faults = Some plan }
  in
  let session =
    Session.create ~config
      ~script:(Chess.script ~depth:4 ~turns:2)
      ~files:[] compiled.Compiler.c_output ~seeds:compiled.Compiler.c_seeds
  in
  ignore (Session.run session);
  Alcotest.(check int) "ring kept everything" 0 (Trace.Ring.dropped ring);
  let events = Trace.Ring.events ring in
  Alcotest.(check bool) "kept events = ring bitwise" true
    (bits (List.rev !kept) = bits events);
  let replayed = Trace.Metrics.create () in
  Trace.replay (Trace.Metrics.sink replayed) events;
  Alcotest.(check bool) "metrics replay bitwise" true
    (bits metrics = bits replayed);
  Alcotest.(check bool) "series replay bitwise" true
    (bits (Series.windows series)
    = bits (Series.windows (Series.of_events events)));
  true

let prop_replay =
  QCheck.Test.make ~name:"replay = live (faulted chess runs)" ~count:4
    QCheck.(int_range 1 10_000)
    check_replay

let tests =
  [
    QCheck_alcotest.to_alcotest prop_round_trip;
    Alcotest.test_case "jsonl golden (every kind)" `Quick test_golden;
    Alcotest.test_case "jsonl float memo edges" `Quick test_memo;
    QCheck_alcotest.to_alcotest prop_loader_fuzz;
    Alcotest.test_case "jsonl 1,000 unknown members" `Quick
      test_many_unknown_members;
    QCheck_alcotest.to_alcotest prop_replay;
  ]
