(* How server code reads and writes unified memory (paper Sections 3.2
   and 3.4): address-size conversion, endianness translation and
   function-pointer mapping, as one rewrite of each load and store.

   Unified memory holds every scalar the way the mobile device does:
   in the mobile byte order, pointers at the mobile width, and
   function pointers as mobile code addresses.  With U the integer
   type of the unified pointer width, a server load becomes

     r = load T a   ==>   a' = bitcast a to U*      T a pointer whose
                          u  = load U a'            width or byte order
                          u' = bswap U u            differs on the server
                          w  = zext u' to i64
                          p  = inttoptr w to T
                          r  = fn_map mobile->server p   T a fn pointer

   where the bswap appears only when the byte orders differ and the
   zext only when the widths do.  Any other scalar wider than a byte
   only gets the bswap.  A store runs the same steps backwards:
   fn_map server->mobile, ptrtoint, trunc, bitcast, bswap, store.

   Widening covers a 32-bit mobile and a 64-bit server, the paper's
   pair ("extend 32-bit pointers to 64-bit pointers for every memory
   access").  The paper's platforms share a byte order, so it inserts
   no swaps; the synthetic big-endian mobile exercises them. *)

module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Arch = No_arch.Arch

type stats = {
  fnptr_load_maps : int;
  fnptr_store_maps : int;
  addr_loads : int;                 (* pointer loads widened *)
  addr_stores : int;                (* pointer stores narrowed *)
  swaps : int;                      (* byte swaps inserted *)
}

let is_fn_ptr (ty : Ty.t) =
  match ty with
  | Ty.Fn_ptr _ -> true
  | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 | Ty.F32 | Ty.F64 | Ty.Ptr _
  | Ty.Struct _ | Ty.Array _ | Ty.Void -> false

let run ~(mobile : Arch.t) ~(server : Arch.t) (m : Ir.modul) :
    Ir.modul * stats =
  let bits = mobile.Arch.ptr_bits in
  let widen = bits <> server.Arch.ptr_bits in
  if widen && not (bits = 32 && server.Arch.ptr_bits = 64) then
    invalid_arg
      (Printf.sprintf
         "Server_access.run: no conversion of %d-bit unified pointers for \
          a %d-bit server"
         bits server.Arch.ptr_bits);
  let swap = mobile.Arch.endianness <> server.Arch.endianness in
  let uint = if bits = 64 then Ty.I64 else Ty.I32 in
  let wide = if widen then Ty.I64 else uint in
  (* Whether a pointer crosses memory as a U integer. *)
  let as_int ty = (widen || swap) && Ty.is_pointer ty in
  let swappable (ty : Ty.t) =
    swap
    &&
    match ty with
    | Ty.I16 | Ty.I32 | Ty.I64 | Ty.F32 | Ty.F64 -> true
    | Ty.I8 | Ty.Ptr _ | Ty.Fn_ptr _ | Ty.Struct _ | Ty.Array _ | Ty.Void ->
      false
  in
  let fn_loads = ref 0 and fn_stores = ref 0 in
  let addr_loads = ref 0 and addr_stores = ref 0 and swaps = ref 0 in
  let tally cond counter = if cond then incr counter in
  let expand supply (instr : Ir.instr) : Ir.instr list option =
    let before = ref [] in
    let emit rv =
      let r = Ir.fresh_reg supply in
      before := Ir.Assign (r, rv) :: !before;
      Ir.Reg r
    in
    (* A step of a load's chain: the value so far gets a register,
       which [f] reads.  A step of a store's chain: [f v] gets one. *)
    let step cond f rv = if cond then f (emit rv) else rv in
    let next cond f v = if cond then emit (f v) else v in
    let bitcast ty a =
      emit (Ir.Cast (Ir.Bitcast, Ty.Ptr ty, a, Ty.Ptr uint))
    in
    let last =
      match instr with
      | Ir.Assign (r, Ir.Load (ty, a)) ->
        let ptr = as_int ty and fn = is_fn_ptr ty in
        let ity = if ptr then uint else ty in
        tally fn fn_loads;
        tally (ptr && widen) addr_loads;
        tally (swappable ity) swaps;
        let a = if ptr then bitcast ty a else a in
        Some
          (Ir.Assign
             ( r,
               Ir.Load (ity, a)
               |> step (swappable ity) (fun x -> Ir.Bswap (ity, x))
               |> step (ptr && widen) (fun x ->
                      Ir.Cast (Ir.Zext, uint, x, Ty.I64))
               |> step ptr (fun x -> Ir.Cast (Ir.Int_to_ptr, wide, x, ty))
               |> step fn (fun x -> Ir.Fn_map (Ir.Mobile_to_server, x)) ))
      | Ir.Store (ty, v, a) ->
        let ptr = as_int ty and fn = is_fn_ptr ty in
        let ity = if ptr then uint else ty in
        tally fn fn_stores;
        tally (ptr && widen) addr_stores;
        tally (swappable ity) swaps;
        let v =
          v
          |> next fn (fun x -> Ir.Fn_map (Ir.Server_to_mobile, x))
          |> next ptr (fun x -> Ir.Cast (Ir.Ptr_to_int, ty, x, wide))
          |> next (ptr && widen) (fun x ->
                 Ir.Cast (Ir.Trunc, Ty.I64, x, uint))
        in
        let a = if ptr then bitcast ty a else a in
        let v = next (swappable ity) (fun x -> Ir.Bswap (ity, x)) v in
        Some (Ir.Store (ity, v, a))
      | Ir.Assign _ | Ir.Effect _ | Ir.Asm _ -> None
    in
    match (last, !before) with
    | Some last, _ :: _ -> Some (List.rev (last :: !before))
    | Some _, [] | None, _ -> None
  in
  let funcs = List.map (Rewrite.expand_instrs ~expand) m.Ir.m_funcs in
  ( { m with Ir.m_funcs = funcs },
    {
      fnptr_load_maps = !fn_loads;
      fnptr_store_maps = !fn_stores;
      addr_loads = !addr_loads;
      addr_stores = !addr_stores;
      swaps = !swaps;
    } )
