(* Well-formedness and type checking of IR modules.

   Registers are not SSA: a register may be assigned several times
   (loop induction variables are), but every assignment must agree on
   one type, determined by the first assignment encountered in block
   order.  The checker verifies branch-target existence, register
   bounds, operand type agreement, call signatures, and that every
   block is properly terminated (guaranteed by construction via
   {!Builder}, re-checked here for hand-built or transformed IR).

   It is also the only gate in front of execution: every name a
   module uses (global, function address, struct, field, block label)
   resolves, and every type it lays out has a size, so lowering a
   module this checker accepts cannot fail. *)

open Ir

exception Ill_typed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Ill_typed s)) fmt

(* A type lowering can lay out: every struct it names is defined, and
   void appears only as a return type or behind a pointer.  The
   message names [where] (a function, global or struct) and [what]. *)
let rec check_ty m where what ?(void = false) (ty : Ty.t) =
  match ty with
  | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 | Ty.F32 | Ty.F64 -> ()
  | Ty.Void -> if not void then fail "%s: %s: void has no size" where what
  | Ty.Ptr t -> check_ty m where what ~void:true t
  | Ty.Fn_ptr sg -> check_sig m where what sg
  | Ty.Struct s ->
    if find_struct m s = None then
      fail "%s: %s: unknown struct %%%s" where what s
  | Ty.Array (t, _) -> check_ty m where what t

and check_sig m where what (sg : Ty.signature) =
  List.iter (check_ty m where what) sg.Ty.args;
  check_ty m where what ~void:true sg.Ty.ret

type ctx = {
  m : modul;
  f : func;
  reg_ty : Ty.t option array;
}

let global_ty ctx name =
  match find_global ctx.m name with
  | Some g -> Ty.Ptr g.g_ty
  | None -> fail "%s: unknown global @%s" ctx.f.f_name name

let sig_of_func f = Ty.signature (List.map snd f.f_params) f.f_ret

(* The declared signature of a direct callee: a function of the
   module, else a builtin, else an extern — the order in which the
   interpreter resolves a call. *)
let callee_sig m name =
  match find_func m name with
  | Some f -> Some (sig_of_func f)
  | None -> (
    match Builtins.signature_of name with
    | Some sg -> Some sg
    | None -> List.assoc_opt name m.m_externs)

let func_sig ctx name =
  match callee_sig ctx.m name with
  | Some sg -> sg
  | None ->
    (* Unknown external: callable, machine specific.  Treated as
       variadic returning i64. *)
    Ty.signature [] Ty.I64

let operand_ty ctx op =
  match op with
  | Reg r ->
    if r < 0 || r >= ctx.f.f_nregs then
      fail "%s: register %%r%d out of bounds" ctx.f.f_name r;
    (match ctx.reg_ty.(r) with
    | Some ty -> ty
    | None -> fail "%s: register %%r%d used before assignment" ctx.f.f_name r)
  | Int (_, ty) ->
    if not (Ty.is_integer ty) then
      fail "%s: integer constant of type %s" ctx.f.f_name (Ty.to_string ty);
    ty
  | Float (_, ty) ->
    if not (Ty.is_float ty) then
      fail "%s: float constant of type %s" ctx.f.f_name (Ty.to_string ty);
    ty
  | Null ty ->
    if not (Ty.is_pointer ty) then
      fail "%s: null of non-pointer type %s" ctx.f.f_name (Ty.to_string ty);
    check_ty ctx.m ctx.f.f_name "null" ty;
    ty
  | Global name -> global_ty ctx name
  | Fn_addr name -> (
    match find_func ctx.m name with
    | Some f -> Ty.Fn_ptr (sig_of_func f)
    | None ->
      fail "%s: &%s is not a function of this module" ctx.f.f_name name)

let check_same ctx what a b =
  if not (Ty.equal a b) then
    fail "%s: %s: type mismatch %s vs %s" ctx.f.f_name what (Ty.to_string a)
      (Ty.to_string b)

let rvalue_ty ctx rv : Ty.t =
  match rv with
  | Bin (op, a, b) -> (
    let ta = operand_ty ctx a and tb = operand_ty ctx b in
    check_same ctx "binop" ta tb;
    match op with
    | Add | Sub | Mul | Sdiv | Udiv | Srem | Urem | And | Or | Xor | Shl
    | Lshr | Ashr ->
      if not (Ty.is_integer ta) then
        fail "%s: integer binop on %s" ctx.f.f_name (Ty.to_string ta);
      ta
    | Fadd | Fsub | Fmul | Fdiv ->
      if not (Ty.is_float ta) then
        fail "%s: float binop on %s" ctx.f.f_name (Ty.to_string ta);
      ta)
  | Cmp (op, a, b) -> (
    let ta = operand_ty ctx a and tb = operand_ty ctx b in
    check_same ctx "cmp" ta tb;
    match op with
    | Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge ->
      if not (Ty.is_integer ta || Ty.is_pointer ta) then
        fail "%s: integer compare on %s" ctx.f.f_name (Ty.to_string ta);
      Ty.I8
    | Feq | Fne | Flt | Fle | Fgt | Fge ->
      if not (Ty.is_float ta) then
        fail "%s: float compare on %s" ctx.f.f_name (Ty.to_string ta);
      Ty.I8)
  | Cast (op, src, a, ty) -> (
    check_ty ctx.m ctx.f.f_name "cast" ty;
    let ta = operand_ty ctx a in
    check_same ctx "cast source" ta src;
    let want_int t =
      if not (Ty.is_integer t) then
        fail "%s: cast expects integer, got %s" ctx.f.f_name (Ty.to_string t)
    and want_float t =
      if not (Ty.is_float t) then
        fail "%s: cast expects float, got %s" ctx.f.f_name (Ty.to_string t)
    and want_ptr t =
      if not (Ty.is_pointer t) then
        fail "%s: cast expects pointer, got %s" ctx.f.f_name (Ty.to_string t)
    in
    match op with
    | Zext | Sext ->
      want_int ta;
      want_int ty;
      if Ty.scalar_bits ty < Ty.scalar_bits ta then
        fail "%s: widening cast to narrower type" ctx.f.f_name;
      ty
    | Trunc ->
      want_int ta;
      want_int ty;
      if Ty.scalar_bits ty > Ty.scalar_bits ta then
        fail "%s: trunc to wider type" ctx.f.f_name;
      ty
    | Bitcast -> want_ptr ta; want_ptr ty; ty
    | Fp_to_si -> want_float ta; want_int ty; ty
    | Si_to_fp -> want_int ta; want_float ty; ty
    | Fp_ext | Fp_trunc -> want_float ta; want_float ty; ty
    | Ptr_to_int -> want_ptr ta; want_int ty; ty
    | Int_to_ptr -> want_int ta; want_ptr ty; ty)
  | Select (c, a, b) ->
    let tc = operand_ty ctx c in
    if not (Ty.is_integer tc) then
      fail "%s: select condition must be integer" ctx.f.f_name;
    let ta = operand_ty ctx a and tb = operand_ty ctx b in
    check_same ctx "select" ta tb;
    ta
  | Load (ty, a) ->
    if not (Ty.is_scalar ty) then
      fail "%s: load of non-scalar %s" ctx.f.f_name (Ty.to_string ty);
    check_ty ctx.m ctx.f.f_name "load" ty;
    check_same ctx "load address" (operand_ty ctx a) (Ty.Ptr ty);
    ty
  | Alloca (ty, n) ->
    if n <= 0 then fail "%s: alloca of %d elements" ctx.f.f_name n;
    check_ty ctx.m ctx.f.f_name "alloca" ty;
    Ty.Ptr ty
  | Gep (pointee, base, path) -> (
    check_ty ctx.m ctx.f.f_name "gep" pointee;
    check_same ctx "gep base" (operand_ty ctx base) (Ty.Ptr pointee);
    List.iter
      (fun idx ->
        match idx with
        | Field _ -> ()
        | Index op ->
          if not (Ty.is_integer (operand_ty ctx op)) then
            fail "%s: gep index must be integer" ctx.f.f_name)
      path;
    match gep_result_ty ~structs:(find_struct_exn ctx.m) pointee path with
    | ty -> Ty.Ptr ty
    | exception Invalid_argument msg -> fail "%s: %s" ctx.f.f_name msg)
  | Call (name, args) ->
    let sg = func_sig ctx name in
    if
      Builtins.signature_of name <> None
      || find_func ctx.m name <> None
      || List.mem_assoc name ctx.m.m_externs
    then begin
      if List.length args <> List.length sg.Ty.args then
        fail "%s: call %s: arity mismatch" ctx.f.f_name name;
      List.iter2
        (fun arg want ->
          let got = operand_ty ctx arg in
          (* i8* parameters accept any pointer (C's void* idiom). *)
          match want with
          | Ty.Ptr Ty.I8 when Ty.is_pointer got -> ()
          | _ -> check_same ctx ("call " ^ name) got want)
        args sg.Ty.args
    end
    else List.iter (fun arg -> ignore (operand_ty ctx arg)) args;
    sg.Ty.ret
  | Call_ind (sg, f, args) ->
    check_sig ctx.m ctx.f.f_name "call.ind" sg;
    let tf = operand_ty ctx f in
    (match tf with
    | Ty.Fn_ptr got -> check_same ctx "indirect callee"
        (Ty.Fn_ptr got) (Ty.Fn_ptr sg)
    | Ty.I64 ->
      (* After address-size conversion an fn pointer may travel as i64;
         allowed only when produced by Fn_map, checked dynamically. *)
      ()
    | _ ->
      fail "%s: indirect call through %s" ctx.f.f_name (Ty.to_string tf));
    if List.length args <> List.length sg.Ty.args then
      fail "%s: indirect call arity mismatch" ctx.f.f_name;
    List.iter2
      (fun arg want ->
        let got = operand_ty ctx arg in
        match want with
        | Ty.Ptr Ty.I8 when Ty.is_pointer got -> ()
        | _ -> check_same ctx "indirect call" got want)
      args sg.Ty.args;
    sg.Ty.ret
  | Bswap (ty, a) ->
    if not (Ty.is_integer ty || Ty.is_float ty) then
      fail "%s: bswap of %s" ctx.f.f_name (Ty.to_string ty);
    check_same ctx "bswap" (operand_ty ctx a) ty;
    ty
  | Fn_map (_, a) ->
    let ta = operand_ty ctx a in
    (match ta with
    | Ty.Fn_ptr _ -> ta
    | _ -> fail "%s: fn_map of %s" ctx.f.f_name (Ty.to_string ta))

let check_instr ctx instr =
  match instr with
  | Assign (r, rv) ->
    if r < 0 || r >= ctx.f.f_nregs then
      fail "%s: assignment to out-of-bounds %%r%d" ctx.f.f_name r;
    let ty = rvalue_ty ctx rv in
    if Ty.equal ty Ty.Void then
      fail "%s: assignment of void to %%r%d" ctx.f.f_name r;
    (match ctx.reg_ty.(r) with
    | None -> ctx.reg_ty.(r) <- Some ty
    | Some prev -> check_same ctx (Printf.sprintf "register %%r%d" r) prev ty)
  | Effect rv -> ignore (rvalue_ty ctx rv)
  | Store (ty, v, a) ->
    if not (Ty.is_scalar ty) then
      fail "%s: store of non-scalar %s" ctx.f.f_name (Ty.to_string ty);
    check_ty ctx.m ctx.f.f_name "store" ty;
    check_same ctx "store value" (operand_ty ctx v) ty;
    check_same ctx "store address" (operand_ty ctx a) (Ty.Ptr ty)
  | Asm _ -> ()

let check_terminator ctx labels term =
  let check_label l =
    if not (List.mem l labels) then
      fail "%s: branch to unknown block %s" ctx.f.f_name l
  in
  match term with
  | Br l -> check_label l
  | Cbr (c, t, e) ->
    if not (Ty.is_integer (operand_ty ctx c)) then
      fail "%s: cbr condition must be integer" ctx.f.f_name;
    check_label t;
    check_label e
  | Switch (v, cases, default) ->
    if not (Ty.is_integer (operand_ty ctx v)) then
      fail "%s: switch value must be integer" ctx.f.f_name;
    List.iter (fun (_, l) -> check_label l) cases;
    check_label default
  | Ret None ->
    if not (Ty.equal ctx.f.f_ret Ty.Void) then
      fail "%s: ret without value in non-void function" ctx.f.f_name
  | Ret (Some op) ->
    check_same ctx "return" (operand_ty ctx op) ctx.f.f_ret
  | Unreachable -> ()

(* Two passes over the blocks: the first pass collects register types
   (a register may be read in a block that precedes its defining block
   in layout order, e.g. a loop header reading the induction variable
   incremented in the body), the second re-checks everything. *)
let check_func m (f : func) =
  if f.f_blocks = [] then fail "%s: no blocks" f.f_name;
  let labels = List.map (fun b -> b.label) f.f_blocks in
  let distinct = List.sort_uniq String.compare labels in
  if List.length distinct <> List.length labels then
    fail "%s: duplicate block labels" f.f_name;
  List.iter (fun (_, ty) -> check_ty m f.f_name "parameter" ty) f.f_params;
  check_ty m f.f_name "return" ~void:true f.f_ret;
  let ctx = { m; f; reg_ty = Array.make (max f.f_nregs 1) None } in
  List.iter (fun (r, ty) -> ctx.reg_ty.(r) <- Some ty) f.f_params;
  let collect_pass () =
    List.iter
      (fun b ->
        List.iter
          (fun instr ->
            match instr with
            | Assign (r, rv) -> (
              match ctx.reg_ty.(r) with
              | Some _ -> ()
              | None -> (
                match rvalue_ty ctx rv with
                | ty -> ctx.reg_ty.(r) <- Some ty
                | exception Ill_typed _ -> ()))
            | Effect _ | Store _ | Asm _ -> ())
          b.instrs)
      f.f_blocks
  in
  collect_pass ();
  collect_pass ();
  List.iter
    (fun b ->
      List.iter (check_instr ctx) b.instrs;
      check_terminator ctx labels b.term)
    f.f_blocks

let rec check_init m (ty : Ty.t) (init : const_init) =
  match init, ty with
  | Zero_init, _ -> ()
  | Int_init (_, ity), _ ->
    if not (Ty.equal ity ty) then
      fail "global initializer: %s vs %s" (Ty.to_string ity) (Ty.to_string ty)
  | Float_init (_, fty), _ ->
    if not (Ty.equal fty ty) then
      fail "global initializer: %s vs %s" (Ty.to_string fty) (Ty.to_string ty)
  | Fn_init name, Ty.Fn_ptr _ ->
    if find_func m name = None then
      fail "global initializer: unknown function %s" name
  | Fn_init _, _ -> fail "global initializer: fn address for non-fn-ptr"
  | Array_init items, Ty.Array (elem, n) ->
    if List.length items <> n then fail "global initializer: array arity";
    List.iter (check_init m elem) items
  | Array_init _, _ -> fail "global initializer: array for non-array"
  | Struct_init items, Ty.Struct sname ->
    let sd = find_struct_exn m sname in
    if List.length items <> List.length sd.s_fields then
      fail "global initializer: struct arity for %s" sname;
    List.iter2 (fun item (_, fty) -> check_init m fty item) items sd.s_fields
  | Struct_init _, _ -> fail "global initializer: struct for non-struct"
  | String_init s, Ty.Array (Ty.I8, n) ->
    if String.length s + 1 <> n then
      fail "global initializer: string length %d in [%d x i8]"
        (String.length s) n
  | String_init _, _ -> fail "global initializer: string for non-i8-array"

let check_distinct what names =
  let rec go = function
    | a :: (b :: _ as rest) ->
      if String.equal a b then fail "duplicate %s %s" what a else go rest
    | [] | [ _ ] -> ()
  in
  go (List.sort String.compare names)

(* Field types are sized and no struct contains itself by value, so
   [Layout.size_of] terminates on every struct. *)
let check_structs m =
  let state = Hashtbl.create 16 in   (* name -> finished? *)
  let rec visit sd =
    match Hashtbl.find_opt state sd.s_name with
    | Some true -> ()
    | Some false -> fail "struct %%%s contains itself" sd.s_name
    | None ->
      Hashtbl.replace state sd.s_name false;
      List.iter
        (fun (fname, fty) ->
          check_ty m ("struct %" ^ sd.s_name) ("field " ^ fname) fty;
          by_value fty)
        sd.s_fields;
      Hashtbl.replace state sd.s_name true
  and by_value (ty : Ty.t) =
    match ty with
    | Ty.Struct s -> visit (find_struct_exn m s)
    | Ty.Array (t, _) -> by_value t
    | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 | Ty.F32 | Ty.F64 | Ty.Ptr _
    | Ty.Fn_ptr _ | Ty.Void -> ()
  in
  List.iter visit m.m_structs

let check_module (m : modul) =
  check_distinct "struct" (List.map (fun s -> s.s_name) m.m_structs);
  check_distinct "global" (List.map (fun g -> g.g_name) m.m_globals);
  check_distinct "function" (List.map (fun f -> f.f_name) m.m_funcs);
  check_structs m;
  List.iter
    (fun (g : global) ->
      check_ty m ("global @" ^ g.g_name) "type" g.g_ty;
      check_init m g.g_ty g.g_init)
    m.m_globals;
  List.iter (check_func m) m.m_funcs

(* Result-typed wrapper for callers that prefer not to catch. *)
let check_module_result m =
  match check_module m with
  | () -> Ok ()
  | exception Ill_typed msg -> Error msg

(* {1 Type inference for transformation passes}

   Passes that rewrite instructions need the static type of operands
   (e.g. the GEP-lowering pass must widen an i32 index).  This reuses
   the checker's two collection passes without the full validation. *)

let reg_types (m : modul) (f : func) : Ty.t option array =
  let ctx = { m; f; reg_ty = Array.make (max f.f_nregs 1) None } in
  List.iter (fun (r, ty) -> ctx.reg_ty.(r) <- Some ty) f.f_params;
  let collect () =
    List.iter
      (fun b ->
        List.iter
          (fun instr ->
            match instr with
            | Assign (r, rv) -> (
              match ctx.reg_ty.(r) with
              | Some _ -> ()
              | None -> (
                match rvalue_ty ctx rv with
                | ty -> ctx.reg_ty.(r) <- Some ty
                | exception Ill_typed _ -> ()))
            | Effect _ | Store _ | Asm _ -> ())
          b.instrs)
      f.f_blocks
  in
  collect ();
  collect ();
  ctx.reg_ty

(* Static type of an operand given inferred register types. *)
let operand_ty_with (m : modul) (f : func) (reg_ty : Ty.t option array)
    (op : operand) : Ty.t =
  let ctx = { m; f; reg_ty } in
  operand_ty ctx op
