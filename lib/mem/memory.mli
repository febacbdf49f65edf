(** A device's view of the UVA space: physical pages plus a page
    table.

    The mobile device is the {e home} of every page — touching a page
    it lacks materializes zeroes, as an OS hands out fresh frames.
    The server is {e remote}: touching a non-resident page invokes the
    fault hook, which the offloading runtime uses to implement
    copy-on-demand (paper §4, Figure 5).  Server writes mark pages
    dirty so finalization sends only dirty pages back.

    Pages are frames in one flat [Bytes.t] slab (see the implementation
    header): fault service, block transfer and snapshots are blits, and
    scalar access uses a one-entry TLB plus unaligned word reads. *)

(** Unhandled fault, with the page number. *)
exception Page_fault of int

(** Address and reason (null dereference, unmapped region). *)
exception Bad_access of int * string

type role = Home | Remote

type t = {
  role : role;
  mutable slab : Bytes.t;  (** frame store — internal, do not poke *)
  mutable frames_used : int;
  mutable free_frames : int list;
  table : (int, int) Hashtbl.t;  (** page number -> frame index *)
  dirty : (int, unit) Hashtbl.t;
  mutable tlb_page : int;
  mutable tlb_off : int;
  mutable dirty_cached : int;
  mutable on_fault : (t -> int -> unit) option;
      (** must install the missing page or raise *)
  mutable track_dirty : bool;
  mutable on_touch : (int -> unit) option;
      (** profiler hook: called once per page per access, with each
          page the accessed bytes cover, in ascending order *)
}

val create : role -> t

val install_page : t -> int -> Bytes.t -> unit
(** Make [page] resident with the given contents (must be exactly one
    page). *)

val has_page : t -> int -> bool
val drop_page : t -> int -> unit

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit

val load_base : t -> int -> int -> int
(** [load_base t addr nbytes] admits a direct slab access: the byte
    offset of the word in [slab], after the region check, touch, TLB
    translation and fault service, when the [nbytes] access stays
    inside one page; otherwise [-1], before any check, touch or fault,
    and the caller uses {!load_word}.  On a TLB hit the region check is
    skipped: regions are page-aligned and only a page whose region was
    checked enters the TLB.  Lets the interpreter read little-endian
    words without boxing an int64 across a function boundary. *)

val store_base : t -> int -> int -> int
(** Store twin of [load_base]; also marks the page dirty. *)

val load_word : t -> No_arch.Arch.endianness -> int -> int -> int64
(** [load_word t endianness addr nbytes] reads an [nbytes]-wide scalar
    in [endianness] byte order ([nbytes] ≤ 8; the result's high bits
    are zero): the one path for every word [load_base] does not admit.
    Both ends' regions are checked, and each covered page touched once
    in ascending order, before any byte is read; the bytes are then
    read as [Scalar.load_int] reads them. *)

val store_word : t -> No_arch.Arch.endianness -> int -> int -> int64 -> unit
(** [store_word t endianness addr nbytes v] writes the low [nbytes]
    bytes of [v] in [endianness] byte order, with [load_word]'s checks
    and touches before any byte is written. *)

val read_block : t -> int -> int -> Bytes.t
val write_block : t -> int -> Bytes.t -> unit
(** Block transfers: one touch and one blit per page, in ascending
    address order. *)

val resident_pages : t -> int list
val dirty_pages : t -> int list
val clear_dirty : t -> unit
val resident_count : t -> int

val page_copy : t -> int -> Bytes.t
(** Copy of a page's current contents, for transmission.  Checks no
    region, so it leaves the TLB alone. *)

val set_touch_callback : t -> (int -> unit) option -> unit

type snapshot
(** Deep copy of resident pages plus dirty/tracking state. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Replace the device's pages with the snapshot's (deep copies both
    ways) — offload recovery rolls the mobile view back to the
    offload-start state before replaying locally. *)
