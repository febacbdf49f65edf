(* Raw-trace persistence: one JSON object per line.

   Line 1 is a header carrying the format name, a version number and
   the event count; every following line is one timestamped event with
   a "kind" tag and the fields [Trace.Row.schema] lists for that kind.
   Floats print as %.17g and integers as %d, so a save/load round trip
   is bit-exact, which is what lets `analyze` reproduce byte-identical
   reports from a recorded run.

   Each direction is one pass and a walk over the schema.  The encoder
   renders envelopes and keys once and memoizes, per call, the text of
   each (kind, float field)'s last value, keyed on its bits: [=] would
   not do, since -0.0 = 0.0 prints differently and nan <> nan.  The
   decoder scans each line into a reused table of member positions,
   compares keys in place, materializes only what the row needs, and
   memoizes each member position's last number literal and value.

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

(* The primitive Printf's %.17g ends in: the same bytes, without
   interpreting the format on every call. *)
external format_float : string -> float -> string = "caml_format_float"

let float_text f = format_float "%.17g" f

let direction_names = Array.map Trace.direction_to_string Row.directions

let envelopes =
  Array.map (fun (k : Row.kind_schema) -> ",\"kind\":\"" ^ k.wire ^ "\"")
    Row.schema

let keys =
  Array.map
    (fun (k : Row.kind_schema) ->
      Array.map (fun (f : Row.field) -> ",\"" ^ f.name ^ "\":") k.fields)
    Row.schema

(* A kind's float fields fill distinct float slots, so (kind, slot)
   names one (kind, field) memo entry. *)
let float_slots = Array.length (Row.create ()).f

type memo = { last : float array; text : string array }

let memo () =
  let n = Array.length Row.schema * float_slots in
  { last = Array.make n 0.0; text = Array.make n (float_text 0.0) }

let add_memo_float buf memo i f =
  if Int64.bits_of_float f <> Int64.bits_of_float memo.last.(i) then (
    memo.last.(i) <- f;
    memo.text.(i) <- float_text f);
  Buffer.add_string buf memo.text.(i)

let add_header buf ~events ~sampled =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"format\":\"no-trace-raw\",\"version\":%d,\"events\":%d%s}\n"
       version events
       (if sampled then ",\"sampled\":true" else ""))

(* One event line: the envelope, each field in wire order, then the
   kept-trace tag of a sampled file. *)
let add_line buf (row : Row.t) memo ~ts ev ~trace =
  Row.of_event row ev;
  let k = row.kind in
  Buffer.add_string buf "{\"ts\":";
  Buffer.add_string buf (float_text ts);
  Buffer.add_string buf envelopes.(k);
  let fields = Row.schema.(k).fields and keys = keys.(k) in
  for j = 0 to Array.length fields - 1 do
    let { Row.ty; slot; _ } = fields.(j) in
    Buffer.add_string buf keys.(j);
    match ty with
    | Int -> Buffer.add_string buf (string_of_int (Row.int_slot row slot))
    | Float -> add_memo_float buf memo ((k * float_slots) + slot) row.f.(slot)
    | String -> Trace.add_json_string buf (Row.string_slot row slot)
    | Bool ->
      Buffer.add_string buf
        (if Row.int_slot row slot <> 0 then "true" else "false")
    | Direction ->
      Trace.add_json_string buf direction_names.(Row.int_slot row slot)
  done;
  (match trace with
  | Some id ->
    Buffer.add_string buf ",\"trace\":";
    Trace.add_json_string buf id
  | None -> ());
  Buffer.add_string buf "}\n"

(* What a file holds: its header's flag and event count, and its
   events in file order, each with the kept trace it is tagged with. *)
type body = {
  sampled : bool;
  count : int;
  iter : (float -> Trace.event -> string option -> unit) -> unit;
}

let plain events =
  { sampled = false; count = List.length events;
    iter = (fun f -> List.iter (fun (ts, ev) -> f ts ev None) events) }

(* A sampled file additionally tags every event line with the kept
   trace it belongs to ("trace":"c3-t7") — the id is what exemplars
   and the incident timeline reference, so `analyze` can link an
   aggregate back to a concrete kept task.  Old readers that ignore
   unknown fields still load the stream.  The traces merge into one
   time-ordered stream by a stable sort: ties keep decision order, so
   seeded reruns serialize byte-identically. *)
let kept traces =
  let tagged =
    List.concat_map
      (fun (id, evs) -> List.map (fun (ts, ev) -> (ts, ev, id)) evs)
      traces
  in
  let tagged =
    List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) tagged
  in
  { sampled = true; count = List.length tagged;
    iter =
      (fun f -> List.iter (fun (ts, ev, id) -> f ts ev (Some id)) tagged) }

(* The one line loop: each line is built in [buf], then handed to
   [flush]. *)
let write buf ~flush body =
  let row = Row.create () and memo = memo () in
  add_header buf ~events:body.count ~sampled:body.sampled;
  flush buf;
  body.iter (fun ts ev trace ->
      add_line buf row memo ~ts ev ~trace;
      flush buf)

(* An event line takes 82 to 84 bytes on average in the registry's
   captures, so [line_bytes] per event holds a whole file without
   regrowing the buffer. *)
let line_bytes = 96

let build body =
  let buf =
    Buffer.create (min Sys.max_string_length ((body.count + 1) * line_bytes))
  in
  write buf ~flush:ignore body;
  Buffer.contents buf

(* Lines go to the channel as they are built. *)
let write_file path body =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      write (Buffer.create 256) body ~flush:(fun buf ->
          Buffer.output_buffer oc buf;
          Buffer.clear buf))

let to_string events = build (plain events)
let to_string_traces traces = build (kept traces)
let save path events = write_file path (plain events)
let save_traces path traces = write_file path (kept traces)

(* {1 Parsing} *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

(* A member's key is s.[k_a..k_b) and its value s.[v_a..v_b): a
   string's text, escapes still to resolve if [k_esc] or [Esc], or a
   number's literal.  [lit] and [num] are the last number literal at
   this member position and its value. *)
type tag = Str | Esc | Num | True | False

type member = {
  mutable k_a : int; mutable k_b : int; mutable k_esc : bool;
  mutable tag : tag; mutable v_a : int; mutable v_b : int;
  mutable lit : string; mutable num : float;
}

(* The scan of one file: the line under the cursor is s.[i..stop),
   its members the first [n] of [ms]. *)
type scan = {
  s : string;
  mutable i : int;
  mutable stop : int;
  mutable n : int;
  mutable ms : member array;
}

let fresh_member () =
  { k_a = 0; k_b = 0; k_esc = false; tag = Str; v_a = 0; v_b = 0; lit = "";
    num = 0.0 }

(* Every index the scan reads is below [stop], which never passes the
   end of the string, so the hot loops skip the bounds check. *)
let rec skip_ws s stop i =
  if i < stop && (String.unsafe_get s i = ' ' || String.unsafe_get s i = '\t')
  then skip_ws s stop (i + 1)
  else i

let at t c = t.i < t.stop && t.s.[t.i] = c

let expect t c =
  t.i <- skip_ws t.s t.stop t.i;
  if at t c then t.i <- t.i + 1 else bad "expected '%c'" c

(* The escape whose backslash is at s.[j], resolved into [buf]; returns
   the index after it. *)
let escape s stop j buf =
  if j + 1 = stop then bad "unterminated escape";
  (match s.[j + 1] with
  | ('"' | '\\' | '/') as c -> Buffer.add_char buf c
  | 'n' -> Buffer.add_char buf '\n'
  | 't' -> Buffer.add_char buf '\t'
  | 'r' -> Buffer.add_char buf '\r'
  | 'u' -> (
    if j + 6 > stop then bad "bad unicode escape";
    match int_of_string_opt ("0x" ^ String.sub s (j + 2) 4) with
    | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
    | Some _ -> Buffer.add_char buf '?'
    | None -> bad "bad unicode escape")
  | _ -> bad "unknown escape");
  if s.[j + 1] = 'u' then j + 6 else j + 2

(* The first quote or backslash at or after [i], or [stop]. *)
let rec plain_end s stop i =
  if i = stop then i
  else
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' then i else plain_end s stop (i + 1)

(* The rest of a string whose opening quote is behind the cursor: moves
   the cursor past the closing quote and returns whether the text holds
   escapes, each checked here and resolved when the text is read. *)
let rec string_rest t esc =
  let j = plain_end t.s t.stop t.i in
  if j = t.stop then bad "unterminated string"
  else if t.s.[j] = '"' then (
    t.i <- j + 1;
    esc)
  else (
    t.i <- escape t.s t.stop j (Buffer.create 1);
    string_rest t true)

(* The text of s.[a..b), its (checked) escapes resolved. *)
let unescape s a b =
  let buf = Buffer.create (b - a) in
  let rec go i =
    let j = plain_end s b i in
    Buffer.add_substring buf s i (j - i);
    if j < b then go (escape s b j buf)
  in
  go a;
  Buffer.contents buf

let rec same_from s a lit k =
  k = String.length lit
  || String.unsafe_get s (a + k) = String.unsafe_get lit k
     && same_from s a lit (k + 1)

(* Whether the text s.[a..b) (escaped or not) is [lit], in place when
   it holds no escapes. *)
let text_is s a b esc lit =
  if esc then unescape s a b = lit
  else b - a = String.length lit && same_from s a lit 0

let rec num_end s stop i =
  if i = stop then i
  else
    match String.unsafe_get s i with
    | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' | 'i' | 'n' | 'f' | 'a' ->
      num_end s stop (i + 1)
    | _ -> i

let scan_value t m =
  t.i <- skip_ws t.s t.stop t.i;
  let c = if t.i < t.stop then t.s.[t.i] else '\000' in
  match c with
  | '"' ->
    t.i <- t.i + 1;
    m.v_a <- t.i;
    m.tag <- (if string_rest t false then Esc else Str);
    m.v_b <- t.i - 1
  (* %.17g prints non-finite floats as nan, -nan, inf and -inf *)
  | '-' | 'i' | 'n' | '0' .. '9' ->
    m.tag <- Num;
    m.v_a <- t.i;
    m.v_b <- num_end t.s t.stop t.i;
    t.i <- m.v_b;
    if not (text_is t.s m.v_a m.v_b false m.lit) then (
      let lit = String.sub t.s m.v_a (m.v_b - m.v_a) in
      match float_of_string_opt lit with
      | Some f -> m.lit <- lit; m.num <- f
      | None -> bad "bad number %S" lit)
  | 't' when t.i + 4 <= t.stop && text_is t.s t.i (t.i + 4) false "true" ->
    t.i <- t.i + 4;
    m.tag <- True
  | 'f' when t.i + 5 <= t.stop && text_is t.s t.i (t.i + 5) false "false" ->
    t.i <- t.i + 5;
    m.tag <- False
  | _ -> bad "expected a string, number or boolean"

let rec scan_members t =
  if t.n = Array.length t.ms then
    t.ms <- Array.append t.ms (Array.init t.n (fun _ -> fresh_member ()));
  let m = t.ms.(t.n) in
  t.n <- t.n + 1;
  expect t '"';
  m.k_a <- t.i;
  m.k_esc <- string_rest t false;
  m.k_b <- t.i - 1;
  expect t ':';
  scan_value t m;
  t.i <- skip_ws t.s t.stop t.i;
  if at t ',' then (
    t.i <- t.i + 1;
    scan_members t)
  else if at t '}' then t.i <- t.i + 1
  else bad "expected ',' or '}'"

(* Flat JSON object {"key": scalar, ...} with string, number and
   boolean values — all the grammar the format uses. *)
let scan_line t =
  t.n <- 0;
  expect t '{';
  t.i <- skip_ws t.s t.stop t.i;
  if at t '}' then t.i <- t.i + 1 else scan_members t;
  t.i <- skip_ws t.s t.stop t.i;
  if t.i <> t.stop then bad "trailing characters after object"

(* Puts the cursor on the next non-empty line at or after [i], one
   trailing '\r' stripped, and returns where the line after it starts;
   -1 when no line is left. *)
let rec next_line t i =
  let n = String.length t.s in
  if i >= n then -1
  else
    let e = try String.index_from t.s i '\n' with Not_found -> n in
    let stop = if e > i && t.s.[e - 1] = '\r' then e - 1 else e in
    if stop = i then next_line t (e + 1)
    else (
      t.i <- i;
      t.stop <- stop;
      e + 1)

let rec find t name k =
  if k = t.n then -1
  else
    let m = t.ms.(k) in
    if text_is t.s m.k_a m.k_b m.k_esc name then k else find t name (k + 1)

let get t name =
  let k = find t name 0 in
  if k < 0 then bad "missing field %S" name else t.ms.(k)

let text t m =
  if m.tag = Esc then unescape t.s m.v_a m.v_b
  else String.sub t.s m.v_a (m.v_b - m.v_a)

let str_member t name =
  let m = get t name in
  if m.tag = Str || m.tag = Esc then m
  else bad "field %S: expected a string" name

let str t name = text t (str_member t name)

let num t name =
  let m = get t name in
  if m.tag = Num then m.num else bad "field %S: expected a number" name

(* Integer fields are written with %d and read back exactly, over the
   whole int range; anything else (1.5, -inf, 1e30) marks a damaged
   file. *)
let int_ t name =
  let m = get t name in
  if m.tag <> Num then bad "field %S: expected a number" name;
  match int_of_string_opt m.lit with
  | Some v -> v
  | None -> bad "field %S: expected an integer" name

let bool_ t name =
  match (get t name).tag with
  | True -> true
  | False -> false
  | _ -> bad "field %S: expected a boolean" name

let rec index_from t m names k =
  if k = Array.length names then -1
  else if text_is t.s m.v_a m.v_b (m.tag = Esc) names.(k) then k
  else index_from t m names (k + 1)

(* Position of the string field [name]'s value in [names] (a kind code
   or a direction's slot value), or an "unknown [what]" error.  Names
   are distinct, so trying [guess] (or -1) first changes no answer. *)
let index_of t what names name guess =
  let m = str_member t name in
  let k =
    if guess >= 0 && text_is t.s m.v_a m.v_b (m.tag = Esc) names.(guess) then
      guess
    else index_from t m names 0
  in
  if k < 0 then bad "unknown %s %S" what (text t m) else k

let kind_names = Array.map (fun (k : Row.kind_schema) -> k.wire) Row.schema

(* The decoding walk: the kind's schema names each field to read and
   the row slot it fills. *)
let fill_row t (row : Row.t) =
  row.kind <- index_of t "event kind" kind_names "kind" row.kind;
  let fields = Row.schema.(row.kind).fields in
  for j = 0 to Array.length fields - 1 do
    let { Row.name; ty; slot } = fields.(j) in
    match ty with
    | Int -> Row.set_int_slot row slot (int_ t name)
    | Float -> row.f.(slot) <- num t name
    | String -> Row.set_string_slot row slot (str t name)
    | Bool -> Row.set_int_slot row slot (if bool_ t name then 1 else 0)
    | Direction ->
      Row.set_int_slot row slot (index_of t name direction_names name (-1))
  done

let header t =
  (try scan_line t
   with Bad msg -> bad "line 1: not a no-trace-raw header (%s)" msg);
  let line1 f = try f () with Bad msg -> bad "line 1: %s" msg in
  line1 (fun () ->
      let fmt = str t "format" in
      if fmt <> "no-trace-raw" then bad "unknown format %S" fmt);
  let got_version = line1 (fun () -> int_ t "version") in
  if got_version < min_read_version || got_version > version then
    bad
      "unsupported trace version %d (this build reads versions %d-%d); \
       re-record the trace"
      got_version min_read_version version;
  let declared = line1 (fun () -> int_ t "events") in
  (* Absent in version 2-3 headers, so those read as unsampled. *)
  let sampled = find t "sampled" 0 >= 0 in
  let sampled = sampled && line1 (fun () -> bool_ t "sampled") in
  (declared, sampled)

let event t row make =
  scan_line t;
  let ts = num t "ts" in
  fill_row t row;
  let id = if find t "trace" 0 < 0 then None else Some (str t "trace") in
  make ts (Row.to_event row) id

(* Event lines from [i] on, the first numbered [line]. *)
let[@tail_mod_cons] rec body t row make line i =
  let next = next_line t i in
  if next < 0 then []
  else
    let x = try event t row make with Bad msg -> bad "line %d: %s" line msg in
    x :: body t row make (line + 1) next

let decode make s =
  let t =
    { s; i = 0; stop = 0; n = 0; ms = Array.init 8 (fun _ -> fresh_member ()) }
  in
  let first = next_line t 0 in
  if first < 0 then Error "empty file: expected a no-trace-raw header line"
  else
    try
      let declared, sampled = header t in
      let events = body t (Row.create ()) make 2 first in
      let found = List.length events in
      if found <> declared then
        bad "truncated trace: header declares %d events but the file holds %d"
          declared found;
      Ok (events, sampled)
    with Bad msg -> Error msg

let of_string_traces (s : string) :
    ((float * Trace.event * string option) list * bool, string) result =
  decode (fun ts ev id -> (ts, ev, id)) s

let of_string (s : string) : ((float * Trace.event) list, string) result =
  Result.map fst (decode (fun ts ev _ -> (ts, ev)) s)

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
