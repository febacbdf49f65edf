(** Per-device stack allocator for [alloca].

    The server's region is disjoint from the mobile one — the "stack
    reallocation" of paper §3.3: an offloaded task's frames must not
    corrupt mobile frames living at the same virtual addresses. *)

type t
type mark

exception Stack_overflow_uva of int   (** requested size *)

val create : base:int -> limit:int -> t
val mobile : unit -> t
val server : unit -> t

val frame_mark : t -> mark
(** Snapshot the stack pointer at function entry. *)

val release : t -> mark -> unit
(** Pop back to a mark at function exit.
    @raise Invalid_argument on a stale mark. *)

val alloc : t -> int -> int -> int
(** [alloc t size align] bumps the stack pointer.
    @raise Stack_overflow_uva when the region is exhausted. *)

val high_water_bytes : t -> int
