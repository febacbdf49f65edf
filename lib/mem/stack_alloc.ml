(* Per-device stack allocator for [alloca].

   Each device owns a stack region of the UVA space.  The server's
   region is disjoint from the mobile one ("stack reallocation",
   Section 3.3): an offloaded task allocating stack objects must not
   corrupt mobile frames that live at the same virtual addresses. *)

type mark = int

type t = {
  base : int;
  limit : int;
  mutable sp : int;
  mutable high_water : int;
}

exception Stack_overflow_uva of int   (* requested size *)

let create ~base ~limit = { base; limit; sp = base; high_water = base }

let frame_mark t : mark = t.sp

let release t (m : mark) =
  if m < t.base || m > t.sp then invalid_arg "Stack_alloc.release: bad mark";
  t.sp <- m

let alloc t size align =
  let aligned = (t.sp + align - 1) / align * align in
  if aligned + size > t.limit then raise (Stack_overflow_uva size);
  t.sp <- aligned + size;
  if t.sp > t.high_water then t.high_water <- t.sp;
  aligned

let high_water_bytes t = t.high_water - t.base

let mobile () =
  create ~base:Region.mobile_stack_base ~limit:Region.mobile_stack_limit

let server () =
  create ~base:Region.server_stack_base ~limit:Region.server_stack_limit
