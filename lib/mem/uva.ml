(* The unified virtual address heap allocator.

   The heap-allocation-replacement pass (Section 3.2) rewrites every
   malloc/free site to u_malloc/u_free, which the runtime services
   from this allocator.  The allocator is *shared metadata* between
   the two devices — both partitions must agree on where each object
   lives, so the runtime keeps one allocator per offloading session
   (the paper's UVA manager).

   First-fit free list with address-ordered coalescing; 16-byte
   alignment; allocation sizes remembered for u_free.  The heap is
   [Region]'s UVA heap, from [heap_base] up to [heap_limit]. *)

type range = { addr : int; size : int }

type t = {
  mutable brk : int;                    (* end of ever-used area *)
  mutable free_list : range list;       (* address-ordered, coalesced *)
  sizes : (int, int) Hashtbl.t;         (* live allocation sizes *)
  mutable live_bytes : int;
}

exception Out_of_memory of int         (* requested size *)
exception Invalid_free of int          (* address *)

let alignment = 16

let create () =
  {
    brk = Region.heap_base;
    free_list = [];
    sizes = Hashtbl.create 256;
    live_bytes = 0;
  }

let round_up size = (max size 1 + alignment - 1) / alignment * alignment

(* Remove the first free range that fits; return its address. *)
let take_from_free_list t size =
  let rec go acc ranges =
    match ranges with
    | [] -> None
    | r :: rest ->
      if r.size >= size then begin
        let remainder =
          if r.size > size then [ { addr = r.addr + size; size = r.size - size } ]
          else []
        in
        t.free_list <- List.rev_append acc (remainder @ rest);
        Some r.addr
      end
      else go (r :: acc) rest
  in
  go [] t.free_list

let alloc t size =
  let size = round_up size in
  let addr =
    match take_from_free_list t size with
    | Some addr -> addr
    | None ->
      let addr = t.brk in
      if addr + size > Region.heap_limit then raise (Out_of_memory size);
      t.brk <- addr + size;
      addr
  in
  Hashtbl.replace t.sizes addr size;
  t.live_bytes <- t.live_bytes + size;
  addr

(* Insert a range into the address-ordered free list, coalescing with
   neighbours. *)
let insert_free t range =
  let rec go acc ranges =
    match ranges with
    | [] -> List.rev (range :: acc)
    | r :: rest ->
      if range.addr < r.addr then List.rev_append acc (range :: r :: rest)
      else go (r :: acc) rest
  in
  let sorted = go [] t.free_list in
  let coalesced =
    List.fold_left
      (fun acc r ->
        match acc with
        | prev :: rest when prev.addr + prev.size = r.addr ->
          { prev with size = prev.size + r.size } :: rest
        | _ -> r :: acc)
      [] sorted
  in
  t.free_list <- List.rev coalesced

let dealloc t addr =
  match Hashtbl.find_opt t.sizes addr with
  | None -> raise (Invalid_free addr)
  | Some size ->
    Hashtbl.remove t.sizes addr;
    t.live_bytes <- t.live_bytes - size;
    insert_free t { addr; size }

let live_bytes t = t.live_bytes
let high_water_mark t = t.brk - Region.heap_base

(* Snapshots, for offload recovery: allocator metadata is shared
   between the devices, so a rolled-back offload must also forget any
   u_malloc/u_free the server performed before it died. *)

type snapshot = {
  s_brk : int;
  s_free_list : range list;
  s_sizes : (int * int) list;
  s_live_bytes : int;
}

let snapshot t =
  {
    s_brk = t.brk;
    s_free_list = t.free_list;
    s_sizes = Hashtbl.fold (fun addr size acc -> (addr, size) :: acc) t.sizes [];
    s_live_bytes = t.live_bytes;
  }

let restore t s =
  t.brk <- s.s_brk;
  t.free_list <- s.s_free_list;
  Hashtbl.reset t.sizes;
  List.iter (fun (addr, size) -> Hashtbl.replace t.sizes addr size) s.s_sizes;
  t.live_bytes <- s.s_live_bytes

(* Every page the heap has ever handed out, for prefetch decisions. *)
let used_pages t =
  let first = Region.page_of_addr Region.heap_base in
  let last = Region.page_of_addr (max Region.heap_base (t.brk - 1)) in
  if t.brk = Region.heap_base then []
  else List.init (last - first + 1) (fun i -> first + i)
