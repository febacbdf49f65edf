(* A device's view of the UVA space: physical pages plus a page table.

   The mobile device is the *home* of every page: touching a page it
   does not yet have simply materializes a zero page (the OS would hand
   it a fresh frame).  The server is *remote*: touching a page that is
   not resident raises a page fault, which the offloading runtime hooks
   to implement copy-on-demand (paper Section 4, Figure 5).  Writes on
   the server mark pages dirty so finalization can send only dirty
   pages back.

   Pages live in one flat [Bytes.t] slab of page-sized frames (grown by
   doubling, freed frames recycled through a free list) instead of one
   heap block per page: page-fault service, block transfer and snapshot
   capture are single blits over the slab, and scalar access goes
   through a one-entry TLB plus the stdlib's unaligned word primitives
   ([Bytes.get_int64_le] and friends) so the per-byte Hashtbl lookups
   disappear from the interpreter's hot path. *)

exception Page_fault of int            (* page number, unhandled *)
exception Bad_access of int * string   (* address, reason *)

type role = Home | Remote

type t = {
  role : role;
  mutable slab : Bytes.t;            (* frame store, [frames_used] frames *)
  mutable frames_used : int;
  mutable free_frames : int list;    (* recycled frame indices *)
  table : (int, int) Hashtbl.t;      (* page number -> frame index *)
  dirty : (int, unit) Hashtbl.t;
  mutable tlb_page : int;            (* last-translated page, -1 = none *)
  mutable tlb_off : int;             (* its frame's byte offset in [slab] *)
  mutable dirty_cached : int;        (* page already marked dirty, -1 = none *)
  mutable on_fault : (t -> int -> unit) option;
      (* must install the page (see [install_page]) or raise *)
  mutable track_dirty : bool;
  mutable on_touch : (int -> unit) option;
      (* profiler hook: called once per page each access covers *)
}

(* Fleet runs create two memories per client, most touching a handful
   of pages — start tiny and double on demand (amortized ≤2x the
   resident bytes in total allocation). *)
let initial_frames = 4

let create role =
  {
    role;
    slab = Bytes.create (initial_frames * Region.page_size);
    frames_used = 0;
    free_frames = [];
    table = Hashtbl.create 1024;
    dirty = Hashtbl.create 64;
    tlb_page = -1;
    tlb_off = 0;
    dirty_cached = -1;
    track_dirty = false;
    on_fault = None;
    on_touch = None;
  }

(* Frame offsets are stable across growth: the old prefix is blitted
   into the larger slab, so a cached [tlb_off] stays valid. *)
let ensure_capacity t frames =
  let need = frames * Region.page_size in
  if Bytes.length t.slab < need then begin
    let cap = ref (Bytes.length t.slab) in
    while !cap < need do
      cap := !cap * 2
    done;
    let slab = Bytes.create !cap in
    Bytes.blit t.slab 0 slab 0 (t.frames_used * Region.page_size);
    t.slab <- slab
  end

let alloc_frame t =
  match t.free_frames with
  | f :: rest ->
    t.free_frames <- rest;
    f
  | [] ->
    ensure_capacity t (t.frames_used + 1);
    let f = t.frames_used in
    t.frames_used <- f + 1;
    f

let install_page t page bytes =
  if Bytes.length bytes <> Region.page_size then
    invalid_arg "Memory.install_page: wrong page size";
  let frame =
    match Hashtbl.find_opt t.table page with
    | Some f -> f
    | None ->
      let f = alloc_frame t in
      Hashtbl.replace t.table page f;
      f
  in
  Bytes.blit bytes 0 t.slab (frame * Region.page_size) Region.page_size

let has_page t page = Hashtbl.mem t.table page

let drop_page t page =
  (match Hashtbl.find_opt t.table page with
  | Some f ->
    Hashtbl.remove t.table page;
    t.free_frames <- f :: t.free_frames
  | None -> ());
  Hashtbl.remove t.dirty page;
  t.tlb_page <- -1;
  t.dirty_cached <- -1

(* Byte offset in [slab] of [page]'s frame, materializing (Home) or
   faulting (Remote) exactly as the per-page store did.  Every TLB miss
   comes here, so a resident page is found without allocating an
   option. *)
let frame_off t page =
  match Hashtbl.find t.table page with
  | f -> f lsl Region.page_bits
  | exception Not_found -> (
    match t.role with
    | Home ->
      let f = alloc_frame t in
      let off = f lsl Region.page_bits in
      Bytes.fill t.slab off Region.page_size '\000';
      Hashtbl.replace t.table page f;
      off
    | Remote -> (
      match t.on_fault with
      | Some handler -> (
        handler t page;
        match Hashtbl.find_opt t.table page with
        | Some f -> f lsl Region.page_bits
        | None -> raise (Page_fault page))
      | None -> raise (Page_fault page)))

let page_off t page =
  if page = t.tlb_page then t.tlb_off
  else begin
    let off = frame_off t page in
    t.tlb_page <- page;
    t.tlb_off <- off;
    off
  end

let check_mapped addr =
  match Region.region_of_addr addr with
  | Region.Null_guard ->
    raise (Bad_access (addr, "null pointer dereference"))
  | Region.Unmapped -> raise (Bad_access (addr, "unmapped address"))
  | Region.Globals | Region.Mobile_stack | Region.Server_stack
  | Region.Heap -> ()

(* The touch hook sees each page an access covers once, in ascending
   page order, before that page is translated (so before any fault it
   raises).  Accesses span at most a few pages, so the hook costs one
   closure call per page rather than one per byte, and the fast paths
   below stay open while a profiler is attached. *)
let[@inline] touch t page =
  match t.on_touch with
  | Some callback -> callback page
  | None -> ()

let mark_dirty t page =
  if t.track_dirty && page <> t.dirty_cached then begin
    Hashtbl.replace t.dirty page ();
    t.dirty_cached <- page
  end

(* Byte access on a page whose region was checked and whose touch was
   reported by the caller. *)
let get_byte t addr =
  let page = Region.page_of_addr addr in
  Char.code (Bytes.get t.slab (page_off t page lor Region.offset_in_page addr))

let set_byte t addr v =
  let page = Region.page_of_addr addr in
  Bytes.set t.slab (page_off t page lor Region.offset_in_page addr)
    (Char.chr (v land 0xff));
  if t.track_dirty then mark_dirty t page

let read_byte t addr =
  check_mapped addr;
  touch t (Region.page_of_addr addr);
  get_byte t addr

let write_byte t addr v =
  check_mapped addr;
  touch t (Region.page_of_addr addr);
  set_byte t addr v

(* Word-width scalar access has two paths.  The interpreter's fast
   path admits a little-endian word that stays inside one page and
   moves it with one unaligned word access on the slab; regions are
   page-aligned, so one region check covers every byte of such a word.
   Every other word, one that crosses a page on any host and every word
   on a big-endian host, takes [load_word]/[store_word]. *)

let page_limit = Region.page_size

(* Fast-path admission for callers that access the slab directly (the
   interpreter's loads and stores, which must not box an int64 across a
   function return): the byte offset of [addr]'s word in [slab] when
   the [nbytes] access stays inside one page — after the region check,
   touch, TLB translation and fault service — or -1, having done none
   of them, when the caller must take [load_word]/[store_word].
   [store_base] also marks the page dirty (bookkeeping only; the order
   relative to the write is unobservable).

   A TLB hit skips the region check.  Regions are page-aligned, and a
   page enters the TLB only through [page_off], which every caller
   reaches after checking an address in that page; so an address on the
   TLB's page is mapped.  The hit still reports the page to the touch
   hook. *)

let load_base t addr nbytes =
  let in_page = Region.offset_in_page addr in
  if in_page + nbytes <= page_limit then begin
    let page = Region.page_of_addr addr in
    if page = t.tlb_page then begin
      touch t page;
      t.tlb_off lor in_page
    end
    else begin
      check_mapped addr;
      touch t page;
      page_off t page lor in_page
    end
  end
  else -1

let store_base t addr nbytes =
  let in_page = Region.offset_in_page addr in
  if in_page + nbytes <= page_limit then begin
    let page = Region.page_of_addr addr in
    let off =
      if page = t.tlb_page then begin
        touch t page;
        t.tlb_off
      end
      else begin
        check_mapped addr;
        touch t page;
        page_off t page
      end
    in
    if t.track_dirty then mark_dirty t page;
    off lor in_page
  end
  else -1

(* The slow path.  A word spans at most two pages, so its ends' regions
   cover it: both are checked, and each page reported to the touch
   hook, before any byte moves.  The bytes then go through [Scalar]'s
   loop in the given order, which also fixes the order in which the
   pages are translated and faulted. *)
let check_and_touch_span t addr nbytes =
  let last = addr + nbytes - 1 in
  check_mapped addr;
  check_mapped last;
  match t.on_touch with
  | Some callback ->
    for page = Region.page_of_addr addr to Region.page_of_addr last do
      callback page
    done
  | None -> ()

let load_word t endianness addr nbytes =
  check_and_touch_span t addr nbytes;
  Scalar.load_int endianness ~read_byte:(get_byte t) addr nbytes

let store_word t endianness addr nbytes value =
  check_and_touch_span t addr nbytes;
  Scalar.store_int endianness ~write_byte:(set_byte t) addr nbytes value

(* Bulk transfer helpers used by memcpy/memset builtins and by the
   communication manager: one touch and one blit per page segment,
   visited in ascending address order. *)

let read_block t addr len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let in_page = Region.offset_in_page a in
    let seg = min (len - !pos) (page_limit - in_page) in
    check_mapped a;
    let page = Region.page_of_addr a in
    touch t page;
    Bytes.blit t.slab (page_off t page lor in_page) out !pos seg;
    pos := !pos + seg
  done;
  out

let write_block t addr data =
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let in_page = Region.offset_in_page a in
    let seg = min (len - !pos) (page_limit - in_page) in
    check_mapped a;
    let page = Region.page_of_addr a in
    touch t page;
    Bytes.blit data !pos t.slab (page_off t page lor in_page) seg;
    if t.track_dirty then mark_dirty t page;
    pos := !pos + seg
  done

(* Page-table style queries for the runtime. *)
let resident_pages t =
  Hashtbl.fold (fun page _ acc -> page :: acc) t.table []
  |> List.sort compare

let dirty_pages t =
  Hashtbl.fold (fun page _ acc -> page :: acc) t.dirty []
  |> List.sort compare

let clear_dirty t =
  Hashtbl.reset t.dirty;
  t.dirty_cached <- -1

let resident_count t = Hashtbl.length t.table

(* Copy of a page's current contents (for transmission).  It leaves
   the TLB alone: no region check admits [page] here. *)
let page_copy t page = Bytes.sub t.slab (frame_off t page) Region.page_size

(* Deep snapshot of resident pages and dirty/tracking state, for
   offload recovery.  The snapshot copies the used slab prefix in one
   blit (plus the page table) rather than one copy per page; restore
   blits it back, so neither side aliases live frames. *)

type snapshot = {
  s_slab : Bytes.t;                  (* used prefix of the slab *)
  s_table : (int * int) list;        (* page, frame *)
  s_frames_used : int;
  s_free_frames : int list;
  s_dirty : int list;
  s_track_dirty : bool;
}

let snapshot t =
  {
    s_slab = Bytes.sub t.slab 0 (t.frames_used * Region.page_size);
    s_table = Hashtbl.fold (fun page f acc -> (page, f) :: acc) t.table [];
    s_frames_used = t.frames_used;
    s_free_frames = t.free_frames;
    s_dirty = Hashtbl.fold (fun page () acc -> page :: acc) t.dirty [];
    s_track_dirty = t.track_dirty;
  }

let restore t s =
  ensure_capacity t s.s_frames_used;
  Bytes.blit s.s_slab 0 t.slab 0 (Bytes.length s.s_slab);
  Hashtbl.reset t.table;
  Hashtbl.reset t.dirty;
  List.iter (fun (page, f) -> Hashtbl.replace t.table page f) s.s_table;
  List.iter (fun page -> Hashtbl.replace t.dirty page ()) s.s_dirty;
  t.frames_used <- s.s_frames_used;
  t.free_frames <- s.s_free_frames;
  t.tlb_page <- -1;
  t.dirty_cached <- -1;
  t.track_dirty <- s.s_track_dirty

(* Profiler hook installation. *)
let set_touch_callback t callback = t.on_touch <- callback
