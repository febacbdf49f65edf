(* Raw-trace persistence: one JSON object per line.

   Line 1 is a header carrying the format name, a version number and
   the event count; every following line is one timestamped event with
   a "kind" tag and the fields [Trace.Row.schema] lists for that kind.
   Floats print as %.17g and integers as %d, so a save/load round trip
   is bit-exact, which is what lets `analyze` reproduce byte-identical
   reports from a recorded run.

   The loader is strict: an unknown version, an unknown kind, a
   missing field or a line count that disagrees with the header all
   produce a line-numbered [Error _], never an exception — a half
   written file from a crashed run must fail loudly, not parse as a
   shorter run. *)

module Trace = No_trace.Trace
module Row = Trace.Row

(* Version 2: queue/admit/reject events gained a server id field when
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

let add_float buf f = Buffer.add_string buf (Printf.sprintf "%.17g" f)
let direction_names = Array.map Trace.direction_to_string Row.directions

let add_header buf ~events ~sampled =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"format\":\"no-trace-raw\",\"version\":%d,\"events\":%d%s}\n"
       version events
       (if sampled then ",\"sampled\":true" else ""))

(* One event line, a walk over the kind's schema: the envelope, each
   field in wire order, then the kept-trace tag of a sampled file. *)
let add_line buf (row : Row.t) ~ts ev ~trace =
  Row.of_event row ev;
  let k = Row.schema.(row.kind) in
  Buffer.add_string buf "{\"ts\":";
  add_float buf ts;
  Buffer.add_string buf ",\"kind\":\"";
  Buffer.add_string buf k.wire;
  Buffer.add_char buf '"';
  Array.iter
    (fun { Row.name; ty; slot } ->
      Buffer.add_string buf ",\"";
      Buffer.add_string buf name;
      Buffer.add_string buf "\":";
      match ty with
      | Int -> Buffer.add_string buf (string_of_int (Row.int_slot row slot))
      | Float -> add_float buf row.f.(slot)
      | String -> Trace.add_json_string buf (Row.string_slot row slot)
      | Bool ->
        Buffer.add_string buf
          (if Row.int_slot row slot <> 0 then "true" else "false")
      | Direction ->
        Trace.add_json_string buf direction_names.(Row.int_slot row slot))
    k.fields;
  (match trace with
  | Some id ->
    Buffer.add_string buf ",\"trace\":";
    Trace.add_json_string buf id
  | None -> ());
  Buffer.add_string buf "}\n"

let to_string (events : (float * Trace.event) list) : string =
  let buf = Buffer.create 4096 and row = Row.create () in
  add_header buf ~events:(List.length events) ~sampled:false;
  List.iter (fun (ts, ev) -> add_line buf row ~ts ev ~trace:None) events;
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
  let buf = Buffer.create 4096 and row = Row.create () in
  add_header buf ~events:(List.length tagged) ~sampled:true;
  List.iter
    (fun (ts, ev, id) -> add_line buf row ~ts ev ~trace:(Some id))
    tagged;
  Buffer.contents buf

(* {1 Parsing} *)

exception Bad of string

(* A number keeps its literal, so that an integer field reads it
   exactly rather than through a float. *)
type scalar = S of string | N of float * string | B of bool

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
    (* %.17g prints non-finite floats as nan, -nan, inf and -inf *)
    | Some c when c = '-' || c = 'i' || c = 'n' || (c >= '0' && c <= '9') -> (
      let start = !pos in
      while
        !pos < n
        &&
        let c = s.[!pos] in
        c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        || (c >= '0' && c <= '9')
        || c = 'i' || c = 'n' || c = 'f' || c = 'a'
      do
        incr pos
      done;
      let lit = String.sub s start (!pos - start) in
      match float_of_string_opt lit with
      | Some f -> N (f, lit)
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
  | N (v, _) -> v
  | _ -> raise (Bad (Printf.sprintf "field %S: expected a number" key))

(* Integer fields are written with %d and read back exactly, over the
   whole int range; anything else (1.5, -inf, 1e30) marks a damaged
   file. *)
let int_ fields key =
  match get fields key with
  | N (_, lit) -> (
    match int_of_string_opt lit with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "field %S: expected an integer" key)))
  | _ -> raise (Bad (Printf.sprintf "field %S: expected a number" key))

let bool_ fields key =
  match get fields key with
  | B v -> v
  | _ -> raise (Bad (Printf.sprintf "field %S: expected a boolean" key))

(* Position of [name] in [names] (a kind code or a direction's slot
   value), or an "unknown [what]" error. *)
let index_of what names name =
  let rec find i =
    if i = Array.length names then
      raise (Bad (Printf.sprintf "unknown %s %S" what name))
    else if names.(i) = name then i
    else find (i + 1)
  in
  find 0

let kind_names = Array.map (fun (k : Row.kind_schema) -> k.wire) Row.schema

(* The decoding walk: the kind's schema names each field to read and
   the row slot it fills. *)
let fill_row (row : Row.t) fields =
  row.kind <- index_of "event kind" kind_names (str fields "kind");
  Array.iter
    (fun { Row.name; ty; slot } ->
      match ty with
      | Int -> Row.set_int_slot row slot (int_ fields name)
      | Float -> row.f.(slot) <- num fields name
      | String -> Row.set_string_slot row slot (str fields name)
      | Bool -> Row.set_int_slot row slot (if bool_ fields name then 1 else 0)
      | Direction ->
        Row.set_int_slot row slot
          (index_of name direction_names (str fields name)))
    Row.schema.(row.kind).fields

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
      let row = Row.create () in
      let events =
        List.mapi
          (fun i line ->
            try
              let fields = parse_object line in
              let ts = num fields "ts" in
              fill_row row fields;
              let id =
                match List.assoc_opt "trace" fields with
                | Some (S id) -> Some id
                | Some _ -> raise (Bad "field \"trace\": expected a string")
                | None -> None
              in
              (ts, Row.to_event row, id)
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

let of_string (s : string) : ((float * Trace.event) list, string) result =
  Result.map
    (fun (tagged, _) -> List.map (fun (ts, ev, _) -> (ts, ev)) tagged)
    (of_string_traces s)

let write_file path text =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let save path events = write_file path (to_string events)
let save_traces path traces = write_file path (to_string_traces traces)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let load_traces (path : string) :
    ((float * Trace.event * string option) list * bool, string) result =
  Result.bind (read_file path) of_string_traces

let load (path : string) : ((float * Trace.event) list, string) result =
  Result.bind (read_file path) of_string
