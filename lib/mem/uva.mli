(** The unified-virtual-address heap allocator.

    The heap-allocation-replacement pass (paper §3.2) rewrites every
    malloc/free to [u_malloc]/[u_free], serviced from this allocator.
    One allocator is shared per offloading session — both devices must
    agree where every object lives on the UVA space.

    First-fit free list with address-ordered coalescing, 16-byte
    alignment. *)

type t

(** Raised with the requested size when the region is exhausted. *)
exception Out_of_memory of int

(** Raised with the offending address. *)
exception Invalid_free of int

val alignment : int

val create : unit -> t
(** An empty allocator over the UVA heap region of {!Region}. *)

val alloc : t -> int -> int
(** [alloc t size] returns the address of a fresh block.
    @raise Out_of_memory when the region is exhausted. *)

val dealloc : t -> int -> unit
(** Free a block by its exact address.
    @raise Invalid_free on anything else. *)

val live_bytes : t -> int
(** Currently allocated bytes (the dynamic estimator's "current memory
    usage"). *)

val high_water_mark : t -> int

val used_pages : t -> int list
(** Every page the heap has ever handed out — the prefetch set on a
    target's first offload. *)

type snapshot
(** Full allocator metadata (brk, free list, live sizes). *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Roll the allocator back to the snapshot — offload recovery must
    forget any allocations the server performed before it was lost,
    since allocator metadata is shared between the devices. *)
