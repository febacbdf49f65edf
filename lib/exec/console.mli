(** Scripted console device.

    Interactive input (the chess example's scanf) comes from a
    pre-loaded script; output is captured for comparing local and
    offloaded runs byte for byte.  Interactive input is what makes a
    task machine specific — it must happen where the user is. *)

type input = In_int of int64 | In_float of float

type t

exception Input_exhausted

val create : ?script:input list -> unit -> t

val read_int : t -> int64
(** Next scripted value (floats truncate).  @raise Input_exhausted. *)

val read_float : t -> float

val write_string : t -> string -> unit
val contents : t -> string

type mark
(** A transaction point: everything written or read after the mark is
    provisional until committed (no-op) or rolled back. *)

val mark : t -> mark

val rollback_to : t -> mark -> int
(** Discard output written since the mark, restore the unconsumed
    input script and counters; returns the number of output bytes
    discarded.  Used by offload recovery so a locally replayed task
    re-reads the same inputs and each side effect is observed exactly
    once. *)

val committed_since : t -> mark -> int
(** Output bytes delivered after the mark — the side-effect ledger a
    migrating task ships with its checkpoint. *)

val resume_at : t -> mark -> int
(** Migration resume: keep the output already delivered, rewind the
    input script and op counters to the mark, and arm a suppression
    window over the committed tail — the resumed task's re-executed
    writes are verified against it and dropped, so the observable
    transcript shows each effect exactly once.  Returns the window
    size in bytes.  @raise Invalid_argument from a later
    {!write_string} if resumed output ever diverges from the committed
    ledger. *)

val suppressed_remaining : t -> int
(** Bytes of the suppression window not yet consumed (0 once the
    resumed task has caught up with its pre-migration self). *)
