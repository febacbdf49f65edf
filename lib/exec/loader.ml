(* Materialization of module globals into a device memory.

   Global addresses are *device specific* (each back-end compiler
   places globals independently — the very problem the referenced-
   global reallocation pass of Section 3.2 solves), so each device gets
   its own address assignment from its own base. *)

module Arch = No_arch.Arch
module Layout = No_arch.Layout
module Ir = No_ir.Ir
module Ty = No_ir.Ty

(* Assign addresses to globals sequentially from [base], respecting
   alignment under [layout]. *)
let assign_addresses (layout : Layout.env) ~base (globals : Ir.global list) :
    (string * int) list * int =
  let assignments, next =
    List.fold_left
      (fun (acc, offset) (g : Ir.global) ->
        let addr = Layout.align_up offset (Layout.align_of layout g.Ir.g_ty) in
        ((g.Ir.g_name, addr) :: acc, addr + Layout.size_of layout g.Ir.g_ty))
      ([], base) globals
  in
  (List.rev assignments, next)

(* Write one initializer at [addr].  [fn_addr] resolves function names
   to this setup's code addresses (the unified convention stores mobile
   addresses). *)
let rec write_init ~(layout : Layout.env) ~(endianness : Arch.endianness)
    ~(write_byte : int -> int -> unit) ~(fn_addr : string -> int) ~addr
    (ty : Ty.t) (init : Ir.const_init) : unit =
  let store nbytes bits =
    No_mem.Scalar.store_int endianness ~write_byte addr nbytes bits
  in
  match init with
  | Ir.Zero_init ->
    let size = Layout.size_of layout ty in
    for i = 0 to size - 1 do
      write_byte (addr + i) 0
    done
  | Ir.Int_init (v, ity) -> store (Layout.size_of layout ity) v
  | Ir.Float_init (v, fty) ->
    let f32 = Ty.equal fty Ty.F32 in
    store (Layout.size_of layout fty) (No_mem.Scalar.float_to_bits ~f32 v)
  | Ir.Fn_init name -> store layout.Layout.ptr_bytes (Int64.of_int (fn_addr name))
  | Ir.String_init s ->
    String.iteri (fun i c -> write_byte (addr + i) (Char.code c)) s;
    write_byte (addr + String.length s) 0
  | Ir.Array_init items -> (
    match ty with
    | Ty.Array (elem, _) ->
      let esize = Layout.size_of layout elem in
      List.iteri
        (fun i item ->
          write_init ~layout ~endianness ~write_byte ~fn_addr
            ~addr:(addr + (i * esize)) elem item)
        items
    | _ -> invalid_arg "Loader.write_init: array init for non-array")
  | Ir.Struct_init items -> (
    match ty with
    | Ty.Struct sname ->
      let fields = Layout.struct_layout layout sname in
      List.iter2
        (fun item (_, offset, fty, _) ->
          write_init ~layout ~endianness ~write_byte ~fn_addr
            ~addr:(addr + offset) fty item)
        items fields
    | _ -> invalid_arg "Loader.write_init: struct init for non-struct")
