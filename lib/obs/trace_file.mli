(** Raw-trace persistence: line-per-event JSON.

    Line 1 is a header — [{"format":"no-trace-raw","version":4,"events":N}]
    — and every following line is one timestamped event, its fields as
    {!No_trace.Trace.Row.schema} describes them.  Floats are written as
    [%.17g] and integers as [%d], so a save/load round trip reproduces
    the event list bit-exactly (a NaN comes back as a NaN of the same
    sign).

    Loading is strict: a version the build does not understand, an
    unknown event kind, a missing field, or a body whose line count
    disagrees with the header's [events] count all yield a
    line-numbered [Error _] diagnostic rather than an exception or a
    silently shorter run. *)

val version : int
(** The format version this build writes. *)

val min_read_version : int
(** The oldest header version the loader still accepts — newer
    versions only add event kinds, so older traces load as streams
    that simply contain none of them. *)

val to_string : (float * No_trace.Trace.event) list -> string

val to_string_traces :
  (string * (float * No_trace.Trace.event) list) list -> string
(** Serialise kept sampled traces — [(trace_id, events)] pairs as
    produced by {!No_trace.Trace.Sampler.kept_traces} — as a version-4
    file whose header carries ["sampled":true] and whose event lines
    each carry a ["trace"] field naming the kept task they belong to.
    Events are merged into one globally time-ordered stream. *)

val of_string :
  string -> ((float * No_trace.Trace.event) list, string) result

val of_string_traces :
  string ->
  ( (float * No_trace.Trace.event * string option) list * bool,
    string )
  result
(** Like {!of_string} but also returns the header's [sampled] flag
    (false for version-2/3 headers, which predate it) and keeps each
    line's optional ["trace"] tag ([None] for untagged lines, i.e.
    every full-capture trace). *)

val save : string -> (float * No_trace.Trace.event) list -> unit

val save_traces :
  string -> (string * (float * No_trace.Trace.event) list) list -> unit
(** {!to_string_traces} written to a file. *)

val load : string -> ((float * No_trace.Trace.event) list, string) result
(** [of_string] on the file's contents; an unreadable file is also an
    [Error _]. *)

val load_traces :
  string ->
  ( (float * No_trace.Trace.event * string option) list * bool,
    string )
  result
(** {!of_string_traces} on the file's contents. *)
