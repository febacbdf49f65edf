(* Raw-trace persistence: one JSON object per line.

   Line 1 is a header carrying the format name, a version number and
   the event count; every following line is one timestamped event with
   a "kind" tag and that variant's fields.  Floats print as %.17g so a
   save/load round trip is bit-exact, which is what lets `analyze`
   reproduce byte-identical reports from a recorded run.

   The loader is strict: an unknown version, an unknown kind, a
   missing field or a line count that disagrees with the header all
   produce a line-numbered [Error _], never an exception — a half
   written file from a crashed run must fail loudly, not parse as a
   shorter run. *)

module Trace = No_trace.Trace

(* Version 2: queue/admit/reject events gained a "server" field when
   the scheduler grew a multi-server pool.  Version-1 traces predate
   server ids and must be re-recorded — the loader refuses them rather
   than guessing server 0.

   Version 3: the migration subsystem added checkpoint /
   migrate-start / migrate-done kinds.  A version-2 trace is a valid
   version-3 trace that happens to contain none of them, so the
   loader still reads the old header; version 1 stays refused.

   Version 4: the header gained an optional "sampled":true flag,
   written by the tail-based sampler.  A sampled trace contains gaps —
   whole tasks are missing — so consumers that attribute time between
   events (the span tree's root self-time) must not treat it as a
   complete run.  Absent means false, so every version-2/3 trace is a
   valid version-4 trace; versions 2-3 stay readable. *)
let version = 4

let min_read_version = 2

(* {1 Writing} *)

let fl f = Printf.sprintf "%.17g" f

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let line_of_event ts (ev : Trace.event) : string =
  let tagged kind rest =
    Printf.sprintf "{\"ts\":%s,\"kind\":\"%s\"%s}" (fl ts) kind rest
  in
  match ev with
  | Trace.Flush { direction; raw_bytes; wire_bytes; transfer_s; codec_s } ->
    tagged "flush"
      (Printf.sprintf
         ",\"direction\":%s,\"raw_bytes\":%d,\"wire_bytes\":%d,\"transfer_s\":%s,\"codec_s\":%s"
         (quote (Trace.direction_to_string direction))
         raw_bytes wire_bytes (fl transfer_s) (fl codec_s))
  | Trace.Page_fault { page; service_s } ->
    tagged "page-fault"
      (Printf.sprintf ",\"page\":%d,\"service_s\":%s" page (fl service_s))
  | Trace.Prefetch { pages; bytes } ->
    tagged "prefetch" (Printf.sprintf ",\"pages\":%d,\"bytes\":%d" pages bytes)
  | Trace.Fnptr_translate { cost_s } ->
    tagged "fnptr-translate" (Printf.sprintf ",\"cost_s\":%s" (fl cost_s))
  | Trace.Remote_io { io_name; request_bytes; response_bytes; cost_s } ->
    tagged "remote-io"
      (Printf.sprintf
         ",\"io_name\":%s,\"request_bytes\":%d,\"response_bytes\":%d,\"cost_s\":%s"
         (quote io_name) request_bytes response_bytes (fl cost_s))
  | Trace.Offload_begin { target } ->
    tagged "offload-begin" (Printf.sprintf ",\"target\":%s" (quote target))
  | Trace.Offload_end { target; dirty_pages; span_s } ->
    tagged "offload-end"
      (Printf.sprintf ",\"target\":%s,\"dirty_pages\":%d,\"span_s\":%s"
         (quote target) dirty_pages (fl span_s))
  | Trace.Refusal { target } ->
    tagged "refusal" (Printf.sprintf ",\"target\":%s" (quote target))
  | Trace.Power_state { state; mw; duration_s } ->
    tagged "power-state"
      (Printf.sprintf ",\"state\":%s,\"mw\":%s,\"duration_s\":%s"
         (quote state) (fl mw) (fl duration_s))
  | Trace.Estimate { target; predicted_gain_s; local_s; decision } ->
    tagged "estimate"
      (Printf.sprintf
         ",\"target\":%s,\"predicted_gain_s\":%s,\"local_s\":%s,\"decision\":%b"
         (quote target) (fl predicted_gain_s) (fl local_s) decision)
  | Trace.Module_load { role; functions; globals } ->
    tagged "module-load"
      (Printf.sprintf ",\"role\":%s,\"functions\":%d,\"globals\":%d"
         (quote role) functions globals)
  | Trace.Fault_injected { kind; op } ->
    tagged "fault-injected"
      (Printf.sprintf ",\"fault\":%s,\"op\":%s" (quote kind) (quote op))
  | Trace.Rpc_timeout { op; attempt; waited_s } ->
    tagged "rpc-timeout"
      (Printf.sprintf ",\"op\":%s,\"attempt\":%d,\"waited_s\":%s" (quote op)
         attempt (fl waited_s))
  | Trace.Retry { op; attempt; backoff_s } ->
    tagged "retry"
      (Printf.sprintf ",\"op\":%s,\"attempt\":%d,\"backoff_s\":%s" (quote op)
         attempt (fl backoff_s))
  | Trace.Fallback_local { target; reason; recovery_s } ->
    tagged "fallback-local"
      (Printf.sprintf ",\"target\":%s,\"reason\":%s,\"recovery_s\":%s"
         (quote target) (quote reason) (fl recovery_s))
  | Trace.Rollback { target; pages_restored; bytes_discarded } ->
    tagged "rollback"
      (Printf.sprintf
         ",\"target\":%s,\"pages_restored\":%d,\"bytes_discarded\":%d"
         (quote target) pages_restored bytes_discarded)
  | Trace.Replay { target; replay_s } ->
    tagged "replay"
      (Printf.sprintf ",\"target\":%s,\"replay_s\":%s" (quote target)
         (fl replay_s))
  | Trace.Queue { target; server; wait_s; depth } ->
    tagged "queue"
      (Printf.sprintf ",\"target\":%s,\"server\":%d,\"wait_s\":%s,\"depth\":%d"
         (quote target) server (fl wait_s) depth)
  | Trace.Admit { target; server; occupancy; slot } ->
    tagged "admit"
      (Printf.sprintf ",\"target\":%s,\"server\":%d,\"occupancy\":%d,\"slot\":%d"
         (quote target) server occupancy slot)
  | Trace.Reject { target; server; queue_depth } ->
    tagged "reject"
      (Printf.sprintf ",\"target\":%s,\"server\":%d,\"queue_depth\":%d"
         (quote target) server queue_depth)
  | Trace.Bw_sample { bps } ->
    tagged "bw-sample" (Printf.sprintf ",\"bps\":%s" (fl bps))
  | Trace.Checkpoint { target; pages; image_bytes; io_cursor; ledger_bytes } ->
    tagged "checkpoint"
      (Printf.sprintf
         ",\"target\":%s,\"pages\":%d,\"image_bytes\":%d,\"io_cursor\":%d,\"ledger_bytes\":%d"
         (quote target) pages image_bytes io_cursor ledger_bytes)
  | Trace.Migrate_start { target; from_server; to_server; reason; transfer_s }
    ->
    tagged "migrate-start"
      (Printf.sprintf
         ",\"target\":%s,\"from_server\":%d,\"to_server\":%d,\"reason\":%s,\"transfer_s\":%s"
         (quote target) from_server to_server (quote reason) (fl transfer_s))
  | Trace.Migrate_done { target; server; resumed_span_s } ->
    tagged "migrate-done"
      (Printf.sprintf ",\"target\":%s,\"server\":%d,\"resumed_span_s\":%s"
         (quote target) server (fl resumed_span_s))

let to_string ?(sampled = false) (events : (float * Trace.event) list) :
    string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"format\":\"no-trace-raw\",\"version\":%d,\"events\":%d%s}\n" version
       (List.length events)
       (if sampled then ",\"sampled\":true" else ""));
  List.iter
    (fun (ts, ev) ->
      Buffer.add_string buf (line_of_event ts ev);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

(* A sampled file additionally tags every event line with the kept
   trace it belongs to ("trace":"c3-t7") — the id is what exemplars
   and the incident timeline reference, so `analyze` can link an
   aggregate back to a concrete kept task.  Old readers that ignore
   unknown fields still load the stream. *)
let to_string_traces (traces : (string * (float * Trace.event) list) list) :
    string =
  let tagged =
    List.concat_map
      (fun (id, evs) -> List.map (fun (ts, ev) -> (ts, ev, id)) evs)
      traces
  in
  let tagged =
    List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) tagged
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"format\":\"no-trace-raw\",\"version\":%d,\"events\":%d,\
        \"sampled\":true}\n"
       version (List.length tagged));
  List.iter
    (fun (ts, ev, id) ->
      let line = line_of_event ts ev in
      Buffer.add_string buf (String.sub line 0 (String.length line - 1));
      Buffer.add_string buf ",\"trace\":";
      Buffer.add_string buf (quote id);
      Buffer.add_string buf "}\n")
    tagged;
  Buffer.contents buf

(* {1 Parsing} *)

exception Bad of string

type scalar = S of string | F of float | B of bool

(* Flat JSON object parser: {"key": scalar, ...} with string, number
   and boolean values — all the grammar the format uses. *)
let parse_object (s : string) : (string * scalar) list =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad msg) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some x when x = c -> incr pos
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then ()
      else if c = '\\' then (
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'u' -> (
          if !pos + 4 > n then fail "bad unicode escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> Buffer.add_char buf '?'
          | None -> fail "bad unicode escape")
        | _ -> fail "unknown escape");
        go ())
      else (
        Buffer.add_char buf c;
        go ())
    in
    go ();
    Buffer.contents buf
  in
  let parse_scalar () =
    skip_ws ();
    match peek () with
    | Some '"' -> S (parse_string ())
    | Some c when c = '-' || (c >= '0' && c <= '9') -> (
      let start = !pos in
      while
        !pos < n
        &&
        let c = s.[!pos] in
        c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        || (c >= '0' && c <= '9')
        (* %.17g can print these on non-finite values *)
        || c = 'i' || c = 'n' || c = 'f' || c = 'a'
      do
        incr pos
      done;
      let lit = String.sub s start (!pos - start) in
      match float_of_string_opt lit with
      | Some f -> F f
      | None -> fail (Printf.sprintf "bad number %S" lit))
    | Some 't' when !pos + 4 <= n && String.sub s !pos 4 = "true" ->
      pos := !pos + 4;
      B true
    | Some 'f' when !pos + 5 <= n && String.sub s !pos 5 = "false" ->
      pos := !pos + 5;
      B false
    | _ -> fail "expected a string, number or boolean"
  in
  expect '{';
  let fields = ref [] in
  skip_ws ();
  (match peek () with
  | Some '}' -> incr pos
  | _ ->
    let rec members () =
      skip_ws ();
      let key = parse_string () in
      expect ':';
      let v = parse_scalar () in
      fields := (key, v) :: !fields;
      skip_ws ();
      match peek () with
      | Some ',' ->
        incr pos;
        members ()
      | Some '}' -> incr pos
      | _ -> fail "expected ',' or '}'"
    in
    members ());
  skip_ws ();
  if !pos <> n then fail "trailing characters after object";
  List.rev !fields

let get fields key =
  match List.assoc_opt key fields with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" key))

let str fields key =
  match get fields key with
  | S v -> v
  | _ -> raise (Bad (Printf.sprintf "field %S: expected a string" key))

let num fields key =
  match get fields key with
  | F v -> v
  | _ -> raise (Bad (Printf.sprintf "field %S: expected a number" key))

(* Integer fields are written with %d, so anything but an exact,
   in-range integer (1.5, -inf, 1e30) marks a damaged file. *)
let int_ fields key =
  let v = num fields key in
  if Float.is_integer v && Float.abs v < 0x1p62 then int_of_float v
  else raise (Bad (Printf.sprintf "field %S: expected an integer" key))

let bool_ fields key =
  match get fields key with
  | B v -> v
  | _ -> raise (Bad (Printf.sprintf "field %S: expected a boolean" key))

let direction_of_string = function
  | "to-server" -> Trace.To_server
  | "to-mobile" -> Trace.To_mobile
  | s -> raise (Bad (Printf.sprintf "unknown direction %S" s))

let event_of_fields fields : float * Trace.event =
  let ts = num fields "ts" in
  let ev =
    match str fields "kind" with
    | "flush" ->
      Trace.Flush
        { direction = direction_of_string (str fields "direction");
          raw_bytes = int_ fields "raw_bytes";
          wire_bytes = int_ fields "wire_bytes";
          transfer_s = num fields "transfer_s";
          codec_s = num fields "codec_s" }
    | "page-fault" ->
      Trace.Page_fault
        { page = int_ fields "page"; service_s = num fields "service_s" }
    | "prefetch" ->
      Trace.Prefetch { pages = int_ fields "pages"; bytes = int_ fields "bytes" }
    | "fnptr-translate" -> Trace.Fnptr_translate { cost_s = num fields "cost_s" }
    | "remote-io" ->
      Trace.Remote_io
        { io_name = str fields "io_name";
          request_bytes = int_ fields "request_bytes";
          response_bytes = int_ fields "response_bytes";
          cost_s = num fields "cost_s" }
    | "offload-begin" -> Trace.Offload_begin { target = str fields "target" }
    | "offload-end" ->
      Trace.Offload_end
        { target = str fields "target";
          dirty_pages = int_ fields "dirty_pages";
          span_s = num fields "span_s" }
    | "refusal" -> Trace.Refusal { target = str fields "target" }
    | "power-state" ->
      Trace.Power_state
        { state = str fields "state";
          mw = num fields "mw";
          duration_s = num fields "duration_s" }
    | "estimate" ->
      Trace.Estimate
        { target = str fields "target";
          predicted_gain_s = num fields "predicted_gain_s";
          local_s = num fields "local_s";
          decision = bool_ fields "decision" }
    | "module-load" ->
      Trace.Module_load
        { role = str fields "role";
          functions = int_ fields "functions";
          globals = int_ fields "globals" }
    | "fault-injected" ->
      Trace.Fault_injected { kind = str fields "fault"; op = str fields "op" }
    | "rpc-timeout" ->
      Trace.Rpc_timeout
        { op = str fields "op";
          attempt = int_ fields "attempt";
          waited_s = num fields "waited_s" }
    | "retry" ->
      Trace.Retry
        { op = str fields "op";
          attempt = int_ fields "attempt";
          backoff_s = num fields "backoff_s" }
    | "fallback-local" ->
      Trace.Fallback_local
        { target = str fields "target";
          reason = str fields "reason";
          recovery_s = num fields "recovery_s" }
    | "rollback" ->
      Trace.Rollback
        { target = str fields "target";
          pages_restored = int_ fields "pages_restored";
          bytes_discarded = int_ fields "bytes_discarded" }
    | "replay" ->
      Trace.Replay
        { target = str fields "target"; replay_s = num fields "replay_s" }
    | "queue" ->
      Trace.Queue
        { target = str fields "target";
          server = int_ fields "server";
          wait_s = num fields "wait_s";
          depth = int_ fields "depth" }
    | "admit" ->
      Trace.Admit
        { target = str fields "target";
          server = int_ fields "server";
          occupancy = int_ fields "occupancy";
          slot = int_ fields "slot" }
    | "reject" ->
      Trace.Reject
        { target = str fields "target";
          server = int_ fields "server";
          queue_depth = int_ fields "queue_depth" }
    | "bw-sample" -> Trace.Bw_sample { bps = num fields "bps" }
    | "checkpoint" ->
      Trace.Checkpoint
        { target = str fields "target";
          pages = int_ fields "pages";
          image_bytes = int_ fields "image_bytes";
          io_cursor = int_ fields "io_cursor";
          ledger_bytes = int_ fields "ledger_bytes" }
    | "migrate-start" ->
      Trace.Migrate_start
        { target = str fields "target";
          from_server = int_ fields "from_server";
          to_server = int_ fields "to_server";
          reason = str fields "reason";
          transfer_s = num fields "transfer_s" }
    | "migrate-done" ->
      Trace.Migrate_done
        { target = str fields "target";
          server = int_ fields "server";
          resumed_span_s = num fields "resumed_span_s" }
    | kind -> raise (Bad (Printf.sprintf "unknown event kind %S" kind))
  in
  (ts, ev)

let split_lines s =
  let raw = String.split_on_char '\n' s in
  let strip l =
    let len = String.length l in
    if len > 0 && l.[len - 1] = '\r' then String.sub l 0 (len - 1) else l
  in
  List.filter (fun l -> l <> "") (List.map strip raw)

let of_string_traces (s : string) :
    ((float * Trace.event * string option) list * bool, string) result =
  match split_lines s with
  | [] -> Error "empty file: expected a no-trace-raw header line"
  | header :: body -> (
    try
      let fields =
        try parse_object header
        with Bad msg ->
          raise
            (Bad
               (Printf.sprintf "line 1: not a no-trace-raw header (%s)" msg))
      in
      let line1 f =
        try f () with Bad msg -> raise (Bad (Printf.sprintf "line 1: %s" msg))
      in
      line1 (fun () ->
          let fmt = str fields "format" in
          if fmt <> "no-trace-raw" then
            raise (Bad (Printf.sprintf "unknown format %S" fmt)));
      let got_version = line1 (fun () -> int_ fields "version") in
      if got_version < min_read_version || got_version > version then
        raise
          (Bad
             (Printf.sprintf
                "unsupported trace version %d (this build reads versions \
                 %d-%d); re-record the trace"
                got_version min_read_version version));
      let declared = line1 (fun () -> int_ fields "events") in
      (* Absent in version 2-3 headers, so those read as unsampled. *)
      let sampled =
        match List.assoc_opt "sampled" fields with
        | Some (B v) -> v
        | Some _ -> raise (Bad "line 1: field \"sampled\": expected a boolean")
        | None -> false
      in
      let events =
        List.mapi
          (fun i line ->
            try
              let fields = parse_object line in
              let ts, ev = event_of_fields fields in
              let id =
                match List.assoc_opt "trace" fields with
                | Some (S id) -> Some id
                | Some _ -> raise (Bad "field \"trace\": expected a string")
                | None -> None
              in
              (ts, ev, id)
            with Bad msg -> raise (Bad (Printf.sprintf "line %d: %s" (i + 2) msg)))
          body
      in
      let found = List.length events in
      if found <> declared then
        raise
          (Bad
             (Printf.sprintf
                "truncated trace: header declares %d events but the file \
                 holds %d"
                declared found));
      Ok (events, sampled)
    with Bad msg -> Error msg)

let of_string_ex (s : string) :
    ((float * Trace.event) list * bool, string) result =
  Result.map
    (fun (tagged, sampled) ->
      (List.map (fun (ts, ev, _) -> (ts, ev)) tagged, sampled))
    (of_string_traces s)

let of_string (s : string) : ((float * Trace.event) list, string) result =
  Result.map fst (of_string_ex s)

let save ?sampled (path : string) (events : (float * Trace.event) list) : unit
    =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?sampled events))

let save_traces (path : string)
    (traces : (string * (float * Trace.event) list) list) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string_traces traces))

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let load_ex (path : string) :
    ((float * Trace.event) list * bool, string) result =
  Result.bind (read_file path) of_string_ex

let load_traces (path : string) :
    ((float * Trace.event * string option) list * bool, string) result =
  Result.bind (read_file path) of_string_traces

let load (path : string) : ((float * Trace.event) list, string) result =
  Result.map fst (load_ex path)
