(* Human-readable rendering of IR modules, used by the CLI's dump
   command and by golden tests on the transformation passes. *)

open Ir

let pp_operand ppf op =
  match op with
  | Reg r -> Fmt.pf ppf "%%r%d" r
  | Int (v, ty) -> Fmt.pf ppf "%Ld:%a" v Ty.pp ty
  | Float (v, ty) -> Fmt.pf ppf "%g:%a" v Ty.pp ty
  | Null ty -> Fmt.pf ppf "null:%a" Ty.pp ty
  | Global name -> Fmt.pf ppf "@%s" name
  | Fn_addr name -> Fmt.pf ppf "&%s" name

let pp_gep_index ppf = function
  | Field name -> Fmt.pf ppf ".%s" name
  | Index op -> Fmt.pf ppf "[%a]" pp_operand op

let pp_rvalue ppf rv =
  match rv with
  | Bin (op, a, b) ->
    Fmt.pf ppf "%s %a, %a" (List.assoc op binop_names) pp_operand a
      pp_operand b
  | Cmp (op, a, b) ->
    Fmt.pf ppf "cmp %s %a, %a" (List.assoc op cmpop_names) pp_operand a
      pp_operand b
  | Cast (op, src, a, ty) ->
    Fmt.pf ppf "%s %a %a to %a" (List.assoc op castop_names) Ty.pp src
      pp_operand a Ty.pp ty
  | Select (c, a, b) ->
    Fmt.pf ppf "select %a, %a, %a" pp_operand c pp_operand a pp_operand b
  | Load (ty, a) -> Fmt.pf ppf "load %a, %a" Ty.pp ty pp_operand a
  | Alloca (ty, n) -> Fmt.pf ppf "alloca %a x %d" Ty.pp ty n
  | Gep (ty, base, path) ->
    Fmt.pf ppf "gep %a, %a%a" Ty.pp ty pp_operand base
      Fmt.(list ~sep:nop pp_gep_index) path
  | Call (name, args) ->
    Fmt.pf ppf "call %s(%a)" name Fmt.(list ~sep:(any ", ") pp_operand) args
  | Call_ind (sg, f, args) ->
    Fmt.pf ppf "call.ind %a %a(%a)" Ty.pp (Ty.Fn_ptr sg) pp_operand f
      Fmt.(list ~sep:(any ", ") pp_operand) args
  | Bswap (ty, a) -> Fmt.pf ppf "bswap %a %a" Ty.pp ty pp_operand a
  | Fn_map (Mobile_to_server, a) -> Fmt.pf ppf "m2sFcnMap %a" pp_operand a
  | Fn_map (Server_to_mobile, a) -> Fmt.pf ppf "s2mFcnMap %a" pp_operand a

let pp_instr ppf instr =
  match instr with
  | Assign (r, rv) -> Fmt.pf ppf "%%r%d = %a" r pp_rvalue rv
  | Effect rv -> pp_rvalue ppf rv
  | Store (ty, v, a) ->
    Fmt.pf ppf "store %a %a, %a" Ty.pp ty pp_operand v pp_operand a
  | Asm text -> Fmt.pf ppf "asm %S" text

let pp_terminator ppf term =
  match term with
  | Br l -> Fmt.pf ppf "br %s" l
  | Cbr (c, t, e) -> Fmt.pf ppf "cbr %a, %s, %s" pp_operand c t e
  | Switch (v, cases, default) ->
    let pp_case ppf (value, label) = Fmt.pf ppf "%Ld -> %s" value label in
    Fmt.pf ppf "switch %a [%a] default %s" pp_operand v
      Fmt.(list ~sep:(any "; ") pp_case) cases default
  | Ret None -> Fmt.string ppf "ret"
  | Ret (Some op) -> Fmt.pf ppf "ret %a" pp_operand op
  | Unreachable -> Fmt.string ppf "unreachable"

let pp_block ppf b =
  Fmt.pf ppf "@[<v 2>%s:@,%a%a@]" b.label
    Fmt.(list ~sep:nop (fun ppf i -> Fmt.pf ppf "%a@," pp_instr i))
    b.instrs pp_terminator b.term

let pp_func ppf f =
  let pp_param ppf (r, ty) = Fmt.pf ppf "%%r%d:%a" r Ty.pp ty in
  Fmt.pf ppf "@[<v 2>fn %s(%a) -> %a {@,%a@]@,}" f.f_name
    Fmt.(list ~sep:(any ", ") pp_param)
    f.f_params Ty.pp f.f_ret
    Fmt.(list ~sep:cut pp_block)
    f.f_blocks

let rec pp_const_init ppf init =
  match init with
  | Zero_init -> Fmt.string ppf "zero"
  | Int_init (v, ty) -> Fmt.pf ppf "%Ld:%a" v Ty.pp ty
  | Float_init (v, ty) -> Fmt.pf ppf "%g:%a" v Ty.pp ty
  | Fn_init name -> Fmt.pf ppf "&%s" name
  | Array_init items | Struct_init items ->
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp_const_init) items
  | String_init s -> Fmt.pf ppf "%S" s

let pp_global ppf g =
  Fmt.pf ppf "global @%s : %a = %a" g.g_name Ty.pp g.g_ty pp_const_init g.g_init

let pp_struct ppf s =
  let pp_field ppf (name, ty) = Fmt.pf ppf "%s: %a" name Ty.pp ty in
  Fmt.pf ppf "struct %%%s { %a }" s.s_name
    Fmt.(list ~sep:(any "; ") pp_field)
    s.s_fields

let pp_modul ppf m =
  Fmt.pf ppf "@[<v>module %s@,%a@,%a@,%a@]" m.m_name
    Fmt.(list ~sep:cut pp_struct)
    m.m_structs
    Fmt.(list ~sep:cut pp_global)
    m.m_globals
    Fmt.(list ~sep:cut pp_func)
    m.m_funcs

let modul_to_string m = Fmt.str "%a" pp_modul m
let func_to_string f = Fmt.str "%a" pp_func f
let instr_to_string i = Fmt.str "%a" pp_instr i
