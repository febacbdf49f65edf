(* A device execution context: one machine running one IR module.

   A host bundles the architecture, the device memory and stack, the
   loaded globals, the function address table, the I/O devices, the
   simulated clock and the hook points through which the profiler and
   the offloading runtime observe and redirect execution. *)

module Arch = No_arch.Arch
module Cost = No_arch.Cost
module Layout = No_arch.Layout
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Memory = No_mem.Memory
module Uva = No_mem.Uva
module Stack_alloc = No_mem.Stack_alloc

type clock = { mutable now : float }

type hooks = {
  mutable on_enter : string -> unit;
  mutable on_exit : string -> unit;
  mutable on_block : (string -> string -> unit) option;
      (* function, label; None (the default) costs one test per block *)
  mutable fn_map : (Ir.fn_map_dir -> Value.t -> Value.t) option;
      (* function-pointer translation; None = identity (single host) *)
  mutable extern_call : (string -> Value.t list -> Value.t option) option;
      (* services the module's [m_externs]; returning None traps *)
  mutable builtin_override : (string -> Value.t list -> Value.t option) option;
      (* consulted before default builtins; lets the runtime intercept
         remote I/O and allocation on the server *)
}

let default_hooks () = {
  on_enter = (fun _ -> ());
  on_exit = (fun _ -> ());
  on_block = None;
  fn_map = None;
  extern_call = None;
  builtin_override = None;
}

(* {1 Pre-decoded function bodies}

   Each IR function is lowered once per module, before any host runs
   it, into the only form the interpreter executes.  A frame keeps its
   registers in one unboxed [float array] of slots: a slot holds an
   integer or pointer as its int64 bit pattern ([Int64.float_of_bits])
   and a float as itself.  A flat float array is the one unboxed
   mutable store the compiler gives us without flambda, so an
   instruction reads and writes slots and allocates nothing unless a
   value leaves the frame.  Registers take slots [0, f_nregs); the
   next slot receives results nobody reads; every constant operand
   (literal, global or function address) takes a slot of a pool after
   it, copied into each new frame.  So every operand is a slot index.

   Values are boxed as {!Value.t} only where they leave the frame:
   parameters, returns, the arguments and results of calls, builtins
   and externs, and the [fn_map] hook.  Lowering takes each such
   value's int or float kind from the types the IR declares.  Block
   labels become array indices, and per-instruction cycle costs become
   precomputed seconds under this host's cost model (the same float
   [Cost.seconds_of] gives, so the simulated clock advances
   bit-identically).

   Lowering is total over modules {!No_ir.Validate} accepts: every
   register, global, function address, block label, struct field and
   type size resolves here.  Anything that does not raises
   [Invalid_argument "Host.compile: <fn>: <what>"], which only a
   caller that skips validation can see. *)

(* A call site: the argument slots and whether each is boxed as a
   float, and the slot that takes the result (-1 drops it) and whether
   the result is a float. *)
type call = {
  args : int array;
  float_args : bool array;
  dst : int;
  float_ret : bool;
}

(* Slot operands; the destination slot comes first.  [s] and [z] are
   shift counts: an integer is sign-filled by [(x lsl s) asr s] and
   zero-filled by [(x lsl z) lsr z].  Each arithmetic and compare
   operator has a constructor of its own (dst, a, b), and so does a gep
   with exactly one dynamic index, the only kind the registry runs
   often: the interpreter dispatches once per instruction. *)
type cinstr =
  | I_add of int * int * int
  | I_sub of int * int * int
  | I_mul of int * int * int
  | I_sdiv of int * int * int
  | I_udiv of int * int * int
  | I_srem of int * int * int
  | I_urem of int * int * int
  | I_and of int * int * int
  | I_or of int * int * int
  | I_xor of int * int * int
  | I_shl of int * int * int
  | I_lshr of int * int * int
  | I_ashr of int * int * int
  | I_fadd of int * int * int
  | I_fsub of int * int * int
  | I_fmul of int * int * int
  | I_fdiv of int * int * int
  | I_eq of int * int * int
  | I_ne of int * int * int
  | I_slt of int * int * int
  | I_sle of int * int * int
  | I_sgt of int * int * int
  | I_sge of int * int * int
  | I_ult of int * int * int
  | I_ule of int * int * int
  | I_ugt of int * int * int
  | I_uge of int * int * int
  | I_feq of int * int * int
  | I_fne of int * int * int
  | I_flt of int * int * int
  | I_fle of int * int * int
  | I_fgt of int * int * int
  | I_fge of int * int * int
  | I_ext of int * int * int * int             (* dst, a, z, then s *)
  | I_fp_to_si of int * int * int              (* dst, a, s *)
  | I_si_to_fp of int * int
  | I_fp_trunc of int * int
  | I_move of int * int
  | I_select of int * int * int * int          (* dst, cond, a, b *)
  | I_load of int * int * int * int * bool     (* dst, addr, bytes, s, f32 *)
  | I_store of int * int * int * bool          (* value, addr, bytes, f32 *)
  | I_alloca of int * int * int                (* dst, size, align *)
  | I_gep1 of int * int * int * int * int
      (* dst, base, constant offset, index, element size *)
  | I_gep of int * int * int * (int * int) array
      (* dst, base, constant offset, (index, element size)s; any other
         number of dynamic indices *)
  | I_call of string * call
  | I_call_ind of int * call                   (* callee address *)
  | I_bswap of int * int * int * bool          (* dst, a, bytes, f32 *)
  | I_fn_map of Ir.fn_map_dir * int * int
  | I_asm

type cterm =
  | Ct_br of int
  | Ct_cbr of int * int * int
  | Ct_switch of int * (int64 * int) array * int
  | Ct_ret_void
  | Ct_ret of int * bool                       (* slot, float *)
  | Ct_unreachable

type cblock = {
  cb_label : string;
  cb_instrs : cinstr array;
  cb_costs : float array;       (* seconds per instruction, this arch *)
  cb_term : cterm;
  cb_term_cost : float;
}

type compiled = {
  c_func : Ir.func;
  c_blocks : cblock array;               (* entry block first *)
  c_slots : float array;
      (* a new frame's slots: registers and the drop slot zero, then
         the constant pool *)
  c_float_params : bool array;           (* per parameter *)
}

type t = {
  arch : Arch.t;
  mem : Memory.t;
  stack : Stack_alloc.t;
  layout : Layout.env;           (* layout the module was lowered with *)
  modul : Ir.modul;
  globals : (string, int) Hashtbl.t;
  fn_table : Fn_table.t;
  uva : Uva.t;
  console : Console.t;
  fs : Fs.t;
  clock : clock;
  hooks : hooks;
  sink : No_trace.Trace.sink;    (* runtime event spine; shared with the
                                    session that owns this host *)
  code : (string, compiled) Hashtbl.t;
  mutable instr_count : int;
  mutable fuel : int;
      (* instructions left, terminators included; -1 = unlimited.  It is
         debited a block at a time: a block runs only if the fuel
         covers all its instructions and its terminator, else
         [Interp.Out_of_fuel] is raised before any of them runs *)
  mutable slowdown : float;      (* execution-time multiplier; a shared,
                                    contended server runs its slice of
                                    the machine >1x slower.  1.0 (the
                                    multiplicative identity) is
                                    bit-for-bit the uncontended host *)
}

(* Sub-word integers are kept sign-extended, literals as much as every
   value the interpreter computes: signed arithmetic stays trivial, and
   unsigned operations mask explicitly. *)
let literal v ty = No_mem.Scalar.sign_extend v (Ty.scalar_bits ty / 8)

let compile_func ~(arch : Arch.t) ~(layout : Layout.env) ~(modul : Ir.modul)
    ~(globals : (string, int) Hashtbl.t) ~(fn_table : Fn_table.t)
    (f : Ir.func) : compiled =
  let nregs = f.Ir.f_nregs in
  let drop = nregs in
  let pool : (int64, int) Hashtbl.t = Hashtbl.create 16 in
  let const bits =
    match Hashtbl.find_opt pool bits with
    | Some slot -> slot
    | None ->
      let slot = drop + 1 + Hashtbl.length pool in
      Hashtbl.replace pool bits slot;
      slot
  in
  let reg r =
    if r < 0 || r >= nregs then
      invalid_arg (Printf.sprintf "register %%r%d out of bounds" r);
    r
  in
  let slot (op : Ir.operand) =
    match op with
    | Ir.Reg r -> reg r
    | Ir.Int (v, ty) -> const (literal v ty)
    | Ir.Float (v, _) -> const (Int64.bits_of_float v)
    | Ir.Null _ -> const 0L
    | Ir.Global name -> (
      match Hashtbl.find_opt globals name with
      | Some a -> const (Int64.of_int a)
      | None -> invalid_arg ("unknown global @" ^ name))
    | Ir.Fn_addr name -> const (Int64.of_int (Fn_table.addr_of fn_table name))
  in
  (* Top bits an integer of [ty] leaves for sign or zero fill. *)
  let fill (ty : Ty.t) = 64 - Ty.scalar_bits ty in
  let mem_bytes (ty : Ty.t) =
    match ty with
    | Ty.I8 -> 1
    | Ty.I16 -> 2
    | Ty.I32 | Ty.F32 -> 4
    | Ty.I64 | Ty.F64 -> 8
    | Ty.Ptr _ | Ty.Fn_ptr _ -> Arch.ptr_bytes arch
    | Ty.Struct _ | Ty.Array _ | Ty.Void ->
      invalid_arg ("memory access of " ^ Ty.to_string ty)
  in
  let is_f32 ty = Ty.equal ty Ty.F32 in
  let gep dst (pointee : Ty.t) base path =
    (* Static part of the layout walk: field offsets always, index
       scaling when the index is a literal.  Integer address addition
       is exact, so folding constants cannot change the result. *)
    let rec walk acc dyn (ty : Ty.t) = function
      | [] -> (
        match dyn with
        | [ (index, size) ] -> I_gep1 (dst, slot base, acc, index, size)
        | _ -> I_gep (dst, slot base, acc, Array.of_list (List.rev dyn)))
      | Ir.Field fname :: rest -> (
        match ty with
        | Ty.Struct sname ->
          walk
            (acc + Layout.field_offset layout sname fname)
            dyn
            (Layout.field_ty layout sname fname)
            rest
        | _ ->
          invalid_arg ("gep: field " ^ fname ^ " of " ^ Ty.to_string ty))
      | Ir.Index op :: rest -> (
        let elem = match ty with Ty.Array (e, _) -> e | _ -> ty in
        let size = Layout.size_of layout elem in
        match op with
        | Ir.Int (v, ity) ->
          walk (acc + (Int64.to_int (literal v ity) * size)) dyn elem rest
        | _ -> walk acc ((slot op, size) :: dyn) elem rest)
    in
    walk 0 [] pointee path
  in
  (* [sg] is None for an unknown callee, whose call traps before its
     arguments are used. *)
  let call_site dst (sg : Ty.signature option) args =
    let sg = Option.value sg ~default:(Ty.signature [] Ty.Void) in
    let floats = List.map Ty.is_float sg.Ty.args in
    {
      args = Array.of_list (List.map slot args);
      float_args =
        Array.of_list (List.mapi (fun i _ -> List.nth_opt floats i = Some true) args);
      dst;
      float_ret = Ty.is_float sg.Ty.ret;
    }
  in
  let crv dst (rv : Ir.rvalue) : cinstr =
    match rv with
    | Ir.Bin (op, a, b) -> (
      let a = slot a and b = slot b in
      match op with
      | Ir.Add -> I_add (dst, a, b)
      | Ir.Sub -> I_sub (dst, a, b)
      | Ir.Mul -> I_mul (dst, a, b)
      | Ir.Sdiv -> I_sdiv (dst, a, b)
      | Ir.Udiv -> I_udiv (dst, a, b)
      | Ir.Srem -> I_srem (dst, a, b)
      | Ir.Urem -> I_urem (dst, a, b)
      | Ir.And -> I_and (dst, a, b)
      | Ir.Or -> I_or (dst, a, b)
      | Ir.Xor -> I_xor (dst, a, b)
      | Ir.Shl -> I_shl (dst, a, b)
      | Ir.Lshr -> I_lshr (dst, a, b)
      | Ir.Ashr -> I_ashr (dst, a, b)
      | Ir.Fadd -> I_fadd (dst, a, b)
      | Ir.Fsub -> I_fsub (dst, a, b)
      | Ir.Fmul -> I_fmul (dst, a, b)
      | Ir.Fdiv -> I_fdiv (dst, a, b))
    | Ir.Cmp (op, a, b) -> (
      let a = slot a and b = slot b in
      match op with
      | Ir.Eq -> I_eq (dst, a, b)
      | Ir.Ne -> I_ne (dst, a, b)
      | Ir.Slt -> I_slt (dst, a, b)
      | Ir.Sle -> I_sle (dst, a, b)
      | Ir.Sgt -> I_sgt (dst, a, b)
      | Ir.Sge -> I_sge (dst, a, b)
      | Ir.Ult -> I_ult (dst, a, b)
      | Ir.Ule -> I_ule (dst, a, b)
      | Ir.Ugt -> I_ugt (dst, a, b)
      | Ir.Uge -> I_uge (dst, a, b)
      | Ir.Feq -> I_feq (dst, a, b)
      | Ir.Fne -> I_fne (dst, a, b)
      | Ir.Flt -> I_flt (dst, a, b)
      | Ir.Fle -> I_fle (dst, a, b)
      | Ir.Fgt -> I_fgt (dst, a, b)
      | Ir.Fge -> I_fge (dst, a, b))
    | Ir.Cast (op, src, a, ty) -> (
      let a = slot a in
      match op with
      | Ir.Zext -> I_ext (dst, a, fill src, fill ty)
      | Ir.Sext | Ir.Trunc | Ir.Ptr_to_int -> I_ext (dst, a, 0, fill ty)
      (* A narrower integer zero-extends to a pointer, as in LLVM. *)
      | Ir.Int_to_ptr -> I_ext (dst, a, fill src, 0)
      | Ir.Bitcast | Ir.Fp_ext -> I_move (dst, a)
      | Ir.Fp_to_si -> I_fp_to_si (dst, a, fill ty)
      | Ir.Si_to_fp -> I_si_to_fp (dst, a)
      | Ir.Fp_trunc -> I_fp_trunc (dst, a))
    | Ir.Select (c, a, b) -> I_select (dst, slot c, slot a, slot b)
    | Ir.Load (ty, a) ->
      (* Pointers load unsigned: no sign fill. *)
      let n = mem_bytes ty in
      I_load (dst, slot a, n, (if Ty.is_integer ty then 64 - (8 * n) else 0),
              is_f32 ty)
    | Ir.Alloca (ty, n) ->
      I_alloca (dst, Layout.size_of layout ty * n, Layout.align_of layout ty)
    | Ir.Gep (pointee, base, path) -> gep dst pointee base path
    | Ir.Call (name, args) ->
      I_call (name, call_site dst (No_ir.Validate.callee_sig modul name) args)
    | Ir.Call_ind (sg, fp, args) -> I_call_ind (slot fp, call_site dst (Some sg) args)
    | Ir.Bswap (ty, a) -> I_bswap (dst, slot a, Ty.scalar_bits ty / 8, is_f32 ty)
    | Ir.Fn_map (dir, a) -> I_fn_map (dir, dst, slot a)
  in
  let cinstr (instr : Ir.instr) : cinstr =
    match instr with
    | Ir.Assign (r, rv) -> crv (reg r) rv
    | Ir.Effect ((Ir.Call _ | Ir.Call_ind _) as rv) -> crv (-1) rv
    | Ir.Effect rv -> crv drop rv
    | Ir.Store (ty, v, a) -> I_store (slot v, slot a, mem_bytes ty, is_f32 ty)
    | Ir.Asm _ -> I_asm
  in
  let blocks = Array.of_list f.Ir.f_blocks in
  let index = Hashtbl.create (2 * Array.length blocks) in
  Array.iteri
    (fun i (b : Ir.block) -> Hashtbl.replace index b.Ir.label i)
    blocks;
  let idx label =
    match Hashtbl.find_opt index label with
    | Some i -> i
    | None -> invalid_arg ("jump to unknown block " ^ label)
  in
  let cterm (term : Ir.terminator) : cterm =
    match term with
    | Ir.Br l -> Ct_br (idx l)
    | Ir.Cbr (c, t, e) -> Ct_cbr (slot c, idx t, idx e)
    | Ir.Switch (v, cases, default) ->
      Ct_switch
        ( slot v,
          Array.of_list (List.map (fun (value, l) -> (value, idx l)) cases),
          idx default )
    | Ir.Ret None -> Ct_ret_void
    | Ir.Ret (Some op) -> Ct_ret (slot op, Ty.is_float f.Ir.f_ret)
    | Ir.Unreachable -> Ct_unreachable
  in
  let cblock (b : Ir.block) : cblock =
    {
      cb_label = b.Ir.label;
      cb_instrs = Array.of_list (List.map cinstr b.Ir.instrs);
      cb_costs =
        Array.of_list
          (List.map
             (fun i -> Cost.seconds_of arch (Cost.class_of_instr i))
             b.Ir.instrs);
      cb_term = cterm b.Ir.term;
      cb_term_cost = Cost.seconds_of arch (Cost.class_of_terminator b.Ir.term);
    }
  in
  match Array.map cblock blocks with
  | c_blocks ->
    let c_slots = Array.make (drop + 1 + Hashtbl.length pool) 0.0 in
    Hashtbl.iter (fun bits s -> c_slots.(s) <- Int64.float_of_bits bits) pool;
    {
      c_func = f;
      c_blocks;
      c_slots;
      c_float_params =
        Array.of_list (List.map (fun (_, ty) -> Ty.is_float ty) f.Ir.f_params);
    }
  | exception Invalid_argument what ->
    invalid_arg (Printf.sprintf "Host.compile: %s: %s" f.Ir.f_name what)

type role = Mobile | Server

let stack_of_role = function
  | Mobile -> Stack_alloc.mobile ()
  | Server -> Stack_alloc.server ()

let globals_base_of_role = function
  | Mobile -> No_mem.Region.globals_base
  | Server -> No_mem.Region.globals_base + 0x0200_0000

(* The function table ([fn_table], or [role]'s default over [modul]'s
   functions) and global addresses a host of [modul] in [role] uses:
   everything lowering resolves names against.  A global that ends
   past the globals region is refused here, as a [Memory.Bad_access]
   at its address that names it, before anything is materialized. *)
let link ~role ~(modul : Ir.modul) ~layout (fn_table : Fn_table.t option) =
  let fn_table =
    match fn_table with
    | Some table -> table
    | None -> (
      let names =
        List.map (fun (f : Ir.func) -> f.Ir.f_name) modul.Ir.m_funcs
      in
      match role with
      | Mobile -> Fn_table.mobile names
      | Server -> Fn_table.server names)
  in
  let assignments, _next =
    Loader.assign_addresses layout ~base:(globals_base_of_role role)
      modul.Ir.m_globals
  in
  let globals = Hashtbl.create 64 in
  List.iter2
    (fun (g : Ir.global) (name, addr) ->
      let size = Layout.size_of layout g.Ir.g_ty in
      if addr + size > No_mem.Region.globals_limit then
        raise
          (Memory.Bad_access
             ( addr,
               Printf.sprintf "global @%s (%d bytes) ends past the globals \
                               region (limit 0x%x)"
                 name size No_mem.Region.globals_limit ));
      Hashtbl.replace globals name addr)
    modul.Ir.m_globals assignments;
  (fn_table, globals)

(* Pre-decode [modul]'s functions without creating a host.  Everything
   the lowering depends on — cost model, layout walk results, global
   and function addresses — is a deterministic function of
   (arch, role, modul, layout, fn_table), so the returned table can be
   shared by every host created with equal inputs (pass it to [create]
   via [?code]); the table is immutable after this call.  A module
   naming something that does not resolve, which {!No_ir.Validate}
   rejects, raises [Invalid_argument "Host.compile: ..."]. *)
let compile_module ~arch ~role ~(modul : Ir.modul) ~layout
    ?(fn_table : Fn_table.t option) () : (string, compiled) Hashtbl.t =
  let fn_table, globals = link ~role ~modul ~layout fn_table in
  let code = Hashtbl.create 64 in
  List.iter
    (fun (f : Ir.func) ->
      Hashtbl.replace code f.Ir.f_name
        (compile_func ~arch ~layout ~modul ~globals ~fn_table f))
    modul.Ir.m_funcs;
  code

(* Create a host for [modul] on [arch] in [role].

   [layout] is the layout environment the module's GEPs were lowered
   with (native for an untransformed module, unified for partitioned
   ones).  [fn_addr_standard] resolves function names to the addresses
   stored in memory for function-pointer initializers: for unified
   setups this is the *mobile* table regardless of which device we
   are.  [uva], [console], [fs] and [clock] may be shared between the
   two hosts of an offloading session; [code] is a table
   [compile_module] built for equal inputs. *)
let create ~arch ~role ~(modul : Ir.modul) ~layout
    ?(fn_table : Fn_table.t option) ?(fn_addr_standard : (string -> int) option)
    ?(uva : Uva.t option) ?(console : Console.t option) ?(fs : Fs.t option)
    ?(clock : clock option) ?(sink = No_trace.Trace.null)
    ?(code : (string, compiled) Hashtbl.t option) () : t =
  let mem =
    Memory.create (match role with Mobile -> Memory.Home | Server -> Memory.Remote)
  in
  let fn_table, globals = link ~role ~modul ~layout fn_table in
  let fn_addr_standard =
    match fn_addr_standard with
    | Some resolve -> resolve
    | None -> Fn_table.addr_of fn_table
  in
  let code =
    match code with
    | Some shared -> shared
    | None -> compile_module ~arch ~role ~modul ~layout ~fn_table ()
  in
  let host =
    {
      arch;
      mem;
      stack = stack_of_role role;
      layout;
      modul;
      globals;
      fn_table;
      uva = (match uva with Some u -> u | None -> Uva.create ());
      console = (match console with Some c -> c | None -> Console.create ());
      fs = (match fs with Some f -> f | None -> Fs.create ());
      clock = (match clock with Some c -> c | None -> { now = 0.0 });
      hooks = default_hooks ();
      sink;
      code;
      instr_count = 0;
      fuel = -1;
      slowdown = 1.0;
    }
  in
  (* Materialize globals.  On a Remote host this would fault, so only
     Home memories get initial contents; a server reads globals it
     needs through copy-on-demand...  *except* that each device's
     non-UVA globals are its own (separate native addresses), so we
     install them directly as resident pages. *)
  let write_byte addr v =
    match role with
    | Mobile -> Memory.write_byte mem addr v
    | Server ->
      (* Install the page as resident before writing. *)
      let page = No_mem.Region.page_of_addr addr in
      if not (Memory.has_page mem page) then
        Memory.install_page mem page (Bytes.make No_mem.Region.page_size '\000');
      Memory.write_byte mem addr v
  in
  List.iter
    (fun (g : Ir.global) ->
      let addr = Hashtbl.find globals g.Ir.g_name in
      Loader.write_init ~layout ~endianness:arch.Arch.endianness ~write_byte
        ~fn_addr:fn_addr_standard ~addr g.Ir.g_ty g.Ir.g_init)
    modul.Ir.m_globals;
  if not (No_trace.Trace.is_null sink) then
    sink ~ts:host.clock.now
      (Module_load
         { role = (match role with Mobile -> "mobile" | Server -> "server");
           functions = List.length modul.Ir.m_funcs;
           globals = List.length modul.Ir.m_globals });
  host

let charge host cls =
  host.clock.now <-
    host.clock.now +. (Cost.seconds_of host.arch cls *. host.slowdown)

let charge_seconds host s =
  host.clock.now <- host.clock.now +. (s *. host.slowdown)

let global_addr host name =
  match Hashtbl.find_opt host.globals name with
  | Some addr -> addr
  | None -> invalid_arg (Printf.sprintf "Host.global_addr: %s" name)

let compiled host name = Hashtbl.find_opt host.code name
