(* Core data structures of the Native Offloader IR.

   The IR is a register-based, basic-block representation, close in
   spirit to LLVM IR.  A program is a {!modul}: named struct types,
   global variables with constant initializers, and functions.  A
   function is a list of basic blocks; the first block is the entry.
   Virtual registers are function-local and numbered densely from 0.

   Memory-unification passes of the paper (Section 3.2) rewrite these
   structures: GEPs are lowered to byte arithmetic against a unified
   layout, loads/stores gain byte-swaps under endianness translation,
   and pointer loads gain zero-extensions under address-size
   conversion. *)

type reg = int

type operand =
  | Reg of reg
  | Int of int64 * Ty.t        (* integer constant of an integer type *)
  | Float of float * Ty.t      (* float constant of F32/F64 *)
  | Null of Ty.t               (* null pointer of a pointer type *)
  | Global of string           (* address of a global variable *)
  | Fn_addr of string          (* address of a function *)

type binop =
  | Add | Sub | Mul | Sdiv | Udiv | Srem | Urem
  | And | Or | Xor | Shl | Lshr | Ashr
  | Fadd | Fsub | Fmul | Fdiv

type cmpop =
  | Eq | Ne
  | Slt | Sle | Sgt | Sge       (* signed integer / pointer compares *)
  | Ult | Ule | Ugt | Uge
  | Feq | Fne | Flt | Fle | Fgt | Fge

type castop =
  | Zext                        (* zero-extend integer *)
  | Sext                        (* sign-extend integer *)
  | Trunc                       (* truncate integer *)
  | Bitcast                     (* reinterpret pointer types *)
  | Fp_to_si
  | Si_to_fp
  | Fp_ext                      (* f32 -> f64 *)
  | Fp_trunc                    (* f64 -> f32 *)
  | Ptr_to_int
  | Int_to_ptr

(* Each opcode's name in the textual IR, one table per family: the
   printer and the parser both read these. *)
let binop_names =
  [ (Add, "add"); (Sub, "sub"); (Mul, "mul"); (Sdiv, "sdiv");
    (Udiv, "udiv"); (Srem, "srem"); (Urem, "urem"); (And, "and");
    (Or, "or"); (Xor, "xor"); (Shl, "shl"); (Lshr, "lshr");
    (Ashr, "ashr"); (Fadd, "fadd"); (Fsub, "fsub"); (Fmul, "fmul");
    (Fdiv, "fdiv") ]

let cmpop_names =
  [ (Eq, "eq"); (Ne, "ne"); (Slt, "slt"); (Sle, "sle"); (Sgt, "sgt");
    (Sge, "sge"); (Ult, "ult"); (Ule, "ule"); (Ugt, "ugt"); (Uge, "uge");
    (Feq, "feq"); (Fne, "fne"); (Flt, "flt"); (Fle, "fle"); (Fgt, "fgt");
    (Fge, "fge") ]

let castop_names =
  [ (Zext, "zext"); (Sext, "sext"); (Trunc, "trunc"); (Bitcast, "bitcast");
    (Fp_to_si, "fptosi"); (Si_to_fp, "sitofp"); (Fp_ext, "fpext");
    (Fp_trunc, "fptrunc"); (Ptr_to_int, "ptrtoint"); (Int_to_ptr, "inttoptr") ]

type gep_index =
  | Field of string             (* struct field by name *)
  | Index of operand            (* array element *)

(* Direction of a function-pointer translation (Section 3.4): mobile
   address to server address or back. *)
type fn_map_dir =
  | Mobile_to_server
  | Server_to_mobile

type rvalue =
  | Bin of binop * operand * operand
  | Cmp of cmpop * operand * operand
  | Cast of castop * Ty.t * operand * Ty.t   (* op, source ty, value, dest ty *)
  | Select of operand * operand * operand
  | Load of Ty.t * operand
  | Alloca of Ty.t * int        (* stack allocation of [n] elements *)
  | Gep of Ty.t * operand * gep_index list
      (* address of a sub-object: pointee type, base address, path.
         Lowered to byte arithmetic by the layout pass. *)
  | Call of string * operand list
  | Call_ind of Ty.signature * operand * operand list
  | Bswap of Ty.t * operand     (* inserted by endianness translation *)
  | Fn_map of fn_map_dir * operand
      (* inserted by function-pointer mapping *)

type instr =
  | Assign of reg * rvalue
  | Effect of rvalue            (* rvalue evaluated for side effects *)
  | Store of Ty.t * operand * operand   (* ty, value, address *)
  | Asm of string               (* inline assembly: machine specific *)

type terminator =
  | Br of string
  | Cbr of operand * string * string
  | Switch of operand * (int64 * string) list * string
  | Ret of operand option
  | Unreachable

type block = {
  label : string;
  instrs : instr list;
  term : terminator;
}

(* Constant initializers for globals. *)
type const_init =
  | Zero_init
  | Int_init of int64 * Ty.t
  | Float_init of float * Ty.t
  | Fn_init of string                  (* function address *)
  | Array_init of const_init list
  | Struct_init of const_init list
  | String_init of string              (* i8 array contents, NUL added *)

type global = {
  g_name : string;
  g_ty : Ty.t;
  g_init : const_init;
}

type func = {
  f_name : string;
  f_params : (reg * Ty.t) list;
  f_ret : Ty.t;
  f_blocks : block list;               (* entry block first *)
  f_nregs : int;                       (* registers are 0 .. f_nregs-1 *)
}

type struct_def = {
  s_name : string;
  s_fields : (string * Ty.t) list;
}

type modul = {
  m_name : string;
  m_structs : struct_def list;
  m_globals : global list;
  m_funcs : func list;
  m_externs : (string * Ty.signature) list;
      (* runtime-provided entry points the partitioner introduces,
         e.g. __offload$f and __uva_init_global$g *)
  m_uva_globals : global list;
      (* globals moved to the UVA heap by the referenced-global
         reallocation pass, with their original initializers; the
         runtime materializes them via __uva_init_global$g *)
}

(* {1 Accessors} *)

let find_func m name = List.find_opt (fun f -> String.equal f.f_name name) m.m_funcs

let find_func_exn m name =
  match find_func m name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Ir.find_func_exn: no function %S" name)

let find_struct m name =
  List.find_opt (fun s -> String.equal s.s_name name) m.m_structs

let find_struct_exn m name =
  match find_struct m name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Ir.find_struct_exn: no struct %S" name)

let find_global m name =
  List.find_opt (fun g -> String.equal g.g_name name) m.m_globals

let find_block f label =
  List.find_opt (fun b -> String.equal b.label label) f.f_blocks

let find_block_exn f label =
  match find_block f label with
  | Some b -> b
  | None ->
    invalid_arg
      (Printf.sprintf "Ir.find_block_exn: no block %S in %S" label f.f_name)

let entry_block f =
  match f.f_blocks with
  | b :: _ -> b
  | [] -> invalid_arg (Printf.sprintf "Ir.entry_block: %S has no blocks" f.f_name)

let successors term =
  match term with
  | Br l -> [ l ]
  | Cbr (_, t, e) -> [ t; e ]
  | Switch (_, cases, default) -> List.map snd cases @ [ default ]
  | Ret _ | Unreachable -> []

(* {1 Traversals used by transformation passes} *)

let operands_of_rvalue rv =
  match rv with
  | Bin (_, a, b) | Cmp (_, a, b) -> [ a; b ]
  | Cast (_, _, a, _) | Load (_, a) | Bswap (_, a) | Fn_map (_, a) -> [ a ]
  | Select (c, a, b) -> [ c; a; b ]
  | Alloca _ -> []
  | Gep (_, base, path) ->
    base
    :: List.filter_map
         (function Field _ -> None | Index op -> Some op)
         path
  | Call (_, args) -> args
  | Call_ind (_, f, args) -> f :: args

let operands_of_instr instr =
  match instr with
  | Assign (_, rv) | Effect rv -> operands_of_rvalue rv
  | Store (_, v, a) -> [ v; a ]
  | Asm _ -> []

(* Rebuild a function with every instruction list rewritten.  The
   rewriter may expand one instruction into several; this is how the
   unification passes insert translation code around memory accesses. *)
let map_instrs (rewrite : instr -> instr list) (f : func) : func =
  let map_block b = { b with instrs = List.concat_map rewrite b.instrs } in
  { f with f_blocks = List.map map_block f.f_blocks }

let map_module_instrs rewrite (m : modul) : modul =
  { m with m_funcs = List.map (map_instrs rewrite) m.m_funcs }

(* Fold over every instruction of a function. *)
let fold_instrs fn acc (f : func) =
  List.fold_left
    (fun acc b -> List.fold_left fn acc b.instrs)
    acc f.f_blocks

(* Every callee name appearing in direct calls of [f]. *)
let direct_callees (f : func) =
  fold_instrs
    (fun acc instr ->
      match instr with
      | Assign (_, Call (name, _)) | Effect (Call (name, _)) -> name :: acc
      | Assign (_, _) | Effect _ | Store _ | Asm _ -> acc)
    [] f
  |> List.sort_uniq String.compare

(* Does [f] contain an indirect call? *)
let has_indirect_call (f : func) =
  fold_instrs
    (fun acc instr ->
      acc
      ||
      match instr with
      | Assign (_, Call_ind _) | Effect (Call_ind _) -> true
      | Assign (_, _) | Effect _ | Store _ | Asm _ -> false)
    false f

(* Type of the object denoted by a GEP path starting from a pointee
   type.  [Index] on a non-array type means pointer-style indexing over
   elements of that same type (C's p[i]); [Index] on an array steps into
   the element type; [Field] projects a named struct field.  A step
   that does not apply raises [Invalid_argument] naming it. *)
let rec gep_result_ty ~structs (ty : Ty.t) (path : gep_index list) : Ty.t =
  match path with
  | [] -> ty
  | Index _ :: rest -> (
    match ty with
    | Ty.Array (elem, _) -> gep_result_ty ~structs elem rest
    | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 | Ty.F32 | Ty.F64 | Ty.Ptr _
    | Ty.Fn_ptr _ | Ty.Struct _ ->
      (* C-style p[i]: i-th element of type [ty]; only valid as the
         first step, enforced by the validator. *)
      gep_result_ty ~structs ty rest
    | Ty.Void -> invalid_arg "gep: index into void")
  | Field fname :: rest -> (
    match ty with
    | Ty.Struct sname -> (
      let sd : struct_def = structs sname in
      match List.assoc_opt fname sd.s_fields with
      | Some fty -> gep_result_ty ~structs fty rest
      | None ->
        invalid_arg
          (Printf.sprintf "gep: no field %s in struct %%%s" fname sname))
    | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 | Ty.F32 | Ty.F64 | Ty.Ptr _
    | Ty.Fn_ptr _ | Ty.Array _ | Ty.Void ->
      invalid_arg
        (Printf.sprintf "gep: field %s of non-struct %s" fname
           (Ty.to_string ty)))

(* Fresh-register supply when a pass needs scratch registers. *)
type reg_supply = { mutable next : int }

let reg_supply_of_func f = { next = f.f_nregs }
let fresh_reg supply =
  let r = supply.next in
  supply.next <- r + 1;
  r
