(* Scripted console device.

   Interactive input (scanf in the paper's chess example) comes from a
   pre-loaded script queue; output is captured.  The function filter
   treats interactive input as machine specific precisely because it
   must happen on the mobile device where the user is. *)

type input = In_int of int64 | In_float of float

type t = {
  mutable script : input list;
  output : Buffer.t;
  mutable reads : int;
  mutable writes : int;
  (* Output bytes of a resumed task still covered by the committed
     ledger: re-executed writes are matched against the tail of the
     buffer and dropped instead of appended (exactly-once delivery
     across a migration).  0 outside a resume window. *)
  mutable suppress : int;
}

exception Input_exhausted

let create ?(script = []) () =
  { script; output = Buffer.create 256; reads = 0; writes = 0; suppress = 0 }

let read_int t =
  t.reads <- t.reads + 1;
  match t.script with
  | In_int v :: rest ->
    t.script <- rest;
    v
  | In_float v :: rest ->
    t.script <- rest;
    Int64.of_float v
  | [] -> raise Input_exhausted

let read_float t =
  t.reads <- t.reads + 1;
  match t.script with
  | In_float v :: rest ->
    t.script <- rest;
    v
  | In_int v :: rest ->
    t.script <- rest;
    Int64.to_float v
  | [] -> raise Input_exhausted

let write_string t s =
  t.writes <- t.writes + 1;
  if t.suppress > 0 then (
    (* The next [suppress] bytes were already delivered before the
       task migrated; deterministic re-execution must reproduce them
       byte for byte, so verify and drop rather than append twice. *)
    let len = String.length s in
    let take = min len t.suppress in
    let off = Buffer.length t.output - t.suppress in
    if not (String.equal (String.sub s 0 take) (Buffer.sub t.output off take))
    then
      invalid_arg
        "Console.write_string: resumed output diverges from the committed \
         ledger";
    t.suppress <- t.suppress - take;
    if take < len then Buffer.add_string t.output (String.sub s take (len - take)))
  else Buffer.add_string t.output s

let contents t = Buffer.contents t.output

(* Transaction marks, for recovery: output written after a mark is
   provisional until the caller commits (does nothing — output was
   appended in place) or rolls back (truncates it away and restores
   the input script, so a replayed task re-reads the same inputs and
   the observable history shows each effect exactly once). *)

type mark = {
  m_output_len : int;
  m_script : input list;
  m_reads : int;
  m_writes : int;
}

let mark t =
  {
    m_output_len = Buffer.length t.output;
    m_script = t.script;
    m_reads = t.reads;
    m_writes = t.writes;
  }

let rollback_to t m =
  let dropped = Buffer.length t.output - m.m_output_len in
  Buffer.truncate t.output m.m_output_len;
  t.script <- m.m_script;
  t.reads <- m.m_reads;
  t.writes <- m.m_writes;
  t.suppress <- 0;
  max dropped 0

(* Output bytes delivered after the mark — the side-effect ledger a
   migrating task carries so the new server knows what the outside
   world has already seen. *)
let committed_since t m = max 0 (Buffer.length t.output - m.m_output_len)

(* Resume after a migration: keep everything already delivered, rewind
   the *input* script and the op counters to the mark (the resumed
   task re-reads the same inputs and re-counts each op exactly once),
   and arm a suppression window over the committed tail so re-executed
   writes are matched and dropped instead of delivered twice. *)
let resume_at t m =
  let committed = committed_since t m in
  t.script <- m.m_script;
  t.reads <- m.m_reads;
  t.writes <- m.m_writes;
  t.suppress <- committed;
  committed

let suppressed_remaining t = t.suppress
