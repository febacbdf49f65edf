(** Synthetic file system device.

    Input files live on the mobile device; when an offloaded task
    reads one (300.twolf's cells, 445.gobmk's play records,
    464.h264ref's frames), the reads become remote input operations
    with round-trip costs (paper §3.4, Figure 7). *)

type t

exception No_such_file of string
exception Bad_fd of int

val create : unit -> t
val add_file : t -> string -> Bytes.t -> unit

val open_file : t -> string -> int
(** Returns a file descriptor.  @raise No_such_file. *)

val size : t -> int -> int
val read : t -> int -> int -> Bytes.t
(** [read t fd len] returns up to [len] bytes and advances the
    position; empty at EOF. *)

val close : t -> int -> unit

type snapshot
(** Cursor state: per-handle position/open flag and the descriptor
    counter.  File contents are immutable. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Rewind every handle to the snapshot and drop descriptors opened
    since — offload recovery, so a replayed task re-reads its files
    from where they stood at offload start. *)
