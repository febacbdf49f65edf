(* Parser for the textual IR syntax produced by {!Pretty}.

   Round-trips with the pretty-printer: [parse (Pretty.modul_to_string
   m)] reconstructs [m] up to formatting.  Useful for golden tests on
   transformation passes, for hand-writing small test inputs, and for
   the CLI's dump/load workflow.

   Grammar (one construct per line, '#' comments allowed):

     module NAME
     struct %Name { field: ty; ... }
     global @name : ty = init
     fn name(%rN:ty, ...) -> ty {
     label:
       %rN = <rvalue>
       <rvalue>
       store ty <operand>, <operand>
       asm "text"
       <terminator>
     }

   Types:     i8 i16 i32 i64 f32 f64 void %Struct [N x ty] ty* ret(args)*
   Operands:  %rN, 42:i64, 3.5:f64, null:ty, @global, &fn               *)

exception Parse_error of int * string   (* line number, message *)

let fail line fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

(* {1 Lexing helpers} *)

type cursor = {
  text : string;
  mutable pos : int;
  line : int;
}

let make_cursor line text = { text; pos = 0; line }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.text
    && (c.text.[c.pos] = ' ' || c.text.[c.pos] = '\t')
  do
    c.pos <- c.pos + 1
  done

let eof c =
  skip_ws c;
  c.pos >= String.length c.text

let expect c prefix =
  skip_ws c;
  let n = String.length prefix in
  if
    c.pos + n <= String.length c.text
    && String.equal (String.sub c.text c.pos n) prefix
  then c.pos <- c.pos + n
  else fail c.line "expected %S at %S" prefix
      (String.sub c.text c.pos (min 20 (String.length c.text - c.pos)))

let try_consume c prefix =
  skip_ws c;
  let n = String.length prefix in
  if
    c.pos + n <= String.length c.text
    && String.equal (String.sub c.text c.pos n) prefix
  then begin
    c.pos <- c.pos + n;
    true
  end
  else false

let is_ident_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '.' || ch = '$'

let ident c =
  skip_ws c;
  let start = c.pos in
  while c.pos < String.length c.text && is_ident_char c.text.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c.line "expected identifier";
  String.sub c.text start (c.pos - start)

(* Digits only: register numbers, array sizes. *)
let digits c =
  skip_ws c;
  let start = c.pos in
  while
    c.pos < String.length c.text
    && (match c.text.[c.pos] with '0' .. '9' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c.line "expected digits";
  let tok = String.sub c.text start (c.pos - start) in
  match int_of_string_opt tok with
  | Some n -> n
  | None -> fail c.line "number %s out of range" tok

(* [Validate] and [Host] size per-function arrays by the highest
   register number, so an absurd one would allocate gigabytes.  The
   largest registry function uses 85 registers. *)
let reg_limit = 65_535

let reg c =
  expect c "%r";
  let r = digits c in
  if r > reg_limit then fail c.line "register %%r%d above %%r%d" r reg_limit;
  r

let number_token c =
  skip_ws c;
  let start = c.pos in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  while
    c.pos < String.length c.text
    &&
    match c.text.[c.pos] with
    | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' | 'x' | 'a' .. 'd' | 'f'
    | 'A' .. 'F' | 'n' | 'i' -> true
    | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c.line "expected number";
  String.sub c.text start (c.pos - start)

(* The value of a [number_token], read by [conv]. *)
let number c conv tok =
  match conv tok with
  | Some v -> v
  | None -> fail c.line "bad number %S" tok

let quoted_string c =
  skip_ws c;
  expect c "\"";
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.line "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
      c.pos <- c.pos + 1;
      (match peek c with
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '"' -> Buffer.add_char buf '"'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some ('0' .. '9') ->
        (* decimal escape \DDD (what OCaml's %S emits) *)
        let d = ref 0 in
        for _ = 1 to 3 do
          match peek c with
          | Some ('0' .. '9' as ch) ->
            d := (!d * 10) + (Char.code ch - Char.code '0');
            c.pos <- c.pos + 1
          | Some _ | None -> ()
        done;
        Buffer.add_char buf (Char.chr (!d land 0xff));
        (* compensate for the unconditional advance below *)
        c.pos <- c.pos - 1
      | Some other -> Buffer.add_char buf other
      | None -> fail c.line "bad escape");
      c.pos <- c.pos + 1;
      go ()
    | Some ch ->
      Buffer.add_char buf ch;
      c.pos <- c.pos + 1;
      go ()
  in
  go ();
  Buffer.contents buf

(* {1 Types} *)

let rec parse_ty c : Ty.t =
  skip_ws c;
  let base =
    if try_consume c "i8" then Ty.I8
    else if try_consume c "i16" then Ty.I16
    else if try_consume c "i32" then Ty.I32
    else if try_consume c "i64" then Ty.I64
    else if try_consume c "f32" then Ty.F32
    else if try_consume c "f64" then Ty.F64
    else if try_consume c "void" then Ty.Void
    else if try_consume c "%" then Ty.Struct (ident c)
    else if try_consume c "[" then begin
      let n = digits c in
      expect c "x";
      let elem = parse_ty c in
      expect c "]";
      Ty.Array (elem, n)
    end
    else fail c.line "expected type"
  in
  (* suffixes: '*' for pointers, '(args)*' for function pointers *)
  let rec suffixes ty =
    skip_ws c;
    if try_consume c "(" then begin
      let args = ref [] in
      if not (try_consume c ")") then begin
        let rec loop () =
          args := parse_ty c :: !args;
          if try_consume c "," then loop () else expect c ")"
        in
        loop ()
      end;
      expect c "*";
      suffixes (Ty.Fn_ptr (Ty.signature (List.rev !args) ty))
    end
    else if try_consume c "*" then suffixes (Ty.Ptr ty)
    else ty
  in
  suffixes base

(* {1 Operands} *)

let parse_operand c : Ir.operand =
  skip_ws c;
  match peek c with
  | Some '%' -> Ir.Reg (reg c)
  | Some '@' ->
    expect c "@";
    Ir.Global (ident c)
  | Some '&' ->
    expect c "&";
    Ir.Fn_addr (ident c)
  | Some 'n' ->
    expect c "null:";
    Ir.Null (parse_ty c)
  | Some _ ->
    let tok = number_token c in
    expect c ":";
    let ty = parse_ty c in
    if Ty.is_float ty then Ir.Float (number c float_of_string_opt tok, ty)
    else Ir.Int (number c Int64.of_string_opt tok, ty)
  | None -> fail c.line "expected operand"

(* {1 Rvalues and instructions} *)

(* The opcode of [name] in one of [Ir]'s name tables. *)
let op_of_name names name =
  List.find_map (fun (op, n) -> if n = name then Some op else None) names

let parse_args c =
  expect c "(";
  let args = ref [] in
  if not (try_consume c ")") then begin
    let rec loop () =
      args := parse_operand c :: !args;
      if try_consume c "," then loop () else expect c ")"
    in
    loop ()
  end;
  List.rev !args

let parse_gep_path c =
  let rec go acc =
    skip_ws c;
    if try_consume c "." then go (Ir.Field (ident c) :: acc)
    else if try_consume c "[" then begin
      let op = parse_operand c in
      expect c "]";
      go (Ir.Index op :: acc)
    end
    else List.rev acc
  in
  go []

let parse_rvalue c : Ir.rvalue =
  skip_ws c;
  let save = c.pos in
  let word = ident c in
  match word with
  | "cmp" ->
    let opname = ident c in
    let op =
      match op_of_name Ir.cmpop_names opname with
      | Some op -> op
      | None -> fail c.line "unknown compare %s" opname
    in
    let a = parse_operand c in
    expect c ",";
    let b = parse_operand c in
    Ir.Cmp (op, a, b)
  | "select" ->
    let cond = parse_operand c in
    expect c ",";
    let a = parse_operand c in
    expect c ",";
    let b = parse_operand c in
    Ir.Select (cond, a, b)
  | "load" ->
    let ty = parse_ty c in
    expect c ",";
    Ir.Load (ty, parse_operand c)
  | "alloca" ->
    let ty = parse_ty c in
    expect c "x";
    Ir.Alloca (ty, digits c)
  | "gep" ->
    let ty = parse_ty c in
    expect c ",";
    let base = parse_operand c in
    Ir.Gep (ty, base, parse_gep_path c)
  | "call" ->
    let name = ident c in
    Ir.Call (name, parse_args c)
  | "call.ind" ->
    let fty = parse_ty c in
    let sg =
      match fty with
      | Ty.Fn_ptr sg -> sg
      | _ -> fail c.line "call.ind expects a function-pointer type"
    in
    let f = parse_operand c in
    Ir.Call_ind (sg, f, parse_args c)
  | "bswap" ->
    let ty = parse_ty c in
    Ir.Bswap (ty, parse_operand c)
  | "m2sFcnMap" -> Ir.Fn_map (Ir.Mobile_to_server, parse_operand c)
  | "s2mFcnMap" -> Ir.Fn_map (Ir.Server_to_mobile, parse_operand c)
  | other -> (
    match op_of_name Ir.binop_names other with
    | Some op ->
      let a = parse_operand c in
      expect c ",";
      let b = parse_operand c in
      Ir.Bin (op, a, b)
    | None -> (
      match op_of_name Ir.castop_names other with
      | Some op ->
        let src = parse_ty c in
        let a = parse_operand c in
        expect c "to";
        let dst = parse_ty c in
        Ir.Cast (op, src, a, dst)
      | None ->
        c.pos <- save;
        fail c.line "unknown rvalue head %s" other))

let parse_instr c : Ir.instr =
  skip_ws c;
  if try_consume c "store" then begin
    let ty = parse_ty c in
    let v = parse_operand c in
    expect c ",";
    let a = parse_operand c in
    Ir.Store (ty, v, a)
  end
  else if try_consume c "asm" then Ir.Asm (quoted_string c)
  else if peek c = Some '%' then begin
    let r = reg c in
    expect c "=";
    Ir.Assign (r, parse_rvalue c)
  end
  else Ir.Effect (parse_rvalue c)

let parse_terminator c : Ir.terminator option =
  skip_ws c;
  let save = c.pos in
  if try_consume c "br" then Some (Ir.Br (ident c))
  else if try_consume c "cbr" then begin
    let cond = parse_operand c in
    expect c ",";
    let t = ident c in
    expect c ",";
    let e = ident c in
    Some (Ir.Cbr (cond, t, e))
  end
  else if try_consume c "switch" then begin
    let v = parse_operand c in
    expect c "[";
    let cases = ref [] in
    if not (try_consume c "]") then begin
      let rec loop () =
        let value = number c Int64.of_string_opt (number_token c) in
        expect c "->";
        let label = ident c in
        cases := (value, label) :: !cases;
        if try_consume c ";" then loop () else expect c "]"
      in
      loop ()
    end;
    expect c "default";
    Some (Ir.Switch (v, List.rev !cases, ident c))
  end
  else if try_consume c "ret" then
    if eof c then Some (Ir.Ret None) else Some (Ir.Ret (Some (parse_operand c)))
  else if try_consume c "unreachable" then Some Ir.Unreachable
  else begin
    c.pos <- save;
    None
  end

(* {1 Initializers} *)

let rec parse_init c : Ir.const_init =
  skip_ws c;
  if try_consume c "zero" then Ir.Zero_init
  else if try_consume c "&" then Ir.Fn_init (ident c)
  else if peek c = Some '"' then Ir.String_init (quoted_string c)
  else if try_consume c "{" then begin
    let items = ref [] in
    if not (try_consume c "}") then begin
      let rec loop () =
        items := parse_init c :: !items;
        if try_consume c "," then loop () else expect c "}"
      in
      loop ()
    end;
    Ir.Array_init (List.rev !items)
  end
  else begin
    let tok = number_token c in
    expect c ":";
    let ty = parse_ty c in
    if Ty.is_float ty then
      Ir.Float_init (number c float_of_string_opt tok, ty)
    else Ir.Int_init (number c Int64.of_string_opt tok, ty)
  end

(* {1 Top level} *)

type pstate = {
  mutable p_name : string;
  mutable p_structs : Ir.struct_def list;
  mutable p_globals : Ir.global list;
  mutable p_funcs : Ir.func list;
  (* current function *)
  mutable cur_fn : (string * (Ir.reg * Ty.t) list * Ty.t) option;
  mutable cur_blocks : Ir.block list;
  mutable cur_label : string option;
  mutable cur_instrs : Ir.instr list;
  mutable max_reg : int;
}

let note_regs st (instr : Ir.instr) =
  let note op =
    match op with
    | Ir.Reg r -> if r > st.max_reg then st.max_reg <- r
    | Ir.Int _ | Ir.Float _ | Ir.Null _ | Ir.Global _ | Ir.Fn_addr _ -> ()
  in
  (match instr with
  | Ir.Assign (r, _) -> if r > st.max_reg then st.max_reg <- r
  | Ir.Effect _ | Ir.Store _ | Ir.Asm _ -> ());
  List.iter note (Ir.operands_of_instr instr)

let close_block st line term =
  match st.cur_label with
  | None -> fail line "terminator outside a block"
  | Some label ->
    st.cur_blocks <-
      { Ir.label; Ir.instrs = List.rev st.cur_instrs; Ir.term }
      :: st.cur_blocks;
    st.cur_label <- None;
    st.cur_instrs <- []

let close_fn st line =
  match st.cur_fn with
  | None -> fail line "} outside a function"
  | Some (name, params, ret) ->
    if st.cur_label <> None then fail line "unterminated block in %s" name;
    st.p_funcs <-
      {
        Ir.f_name = name;
        Ir.f_params = params;
        Ir.f_ret = ret;
        Ir.f_blocks = List.rev st.cur_blocks;
        Ir.f_nregs = st.max_reg + 1;
      }
      :: st.p_funcs;
    st.cur_fn <- None;
    st.cur_blocks <- []

let parse (text : string) : Ir.modul =
  let st =
    { p_name = "anonymous"; p_structs = []; p_globals = []; p_funcs = [];
      cur_fn = None; cur_blocks = []; cur_label = None; cur_instrs = [];
      max_reg = -1 }
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let trimmed = String.trim raw in
      if String.length trimmed = 0 || trimmed.[0] = '#' then ()
      else begin
        let c = make_cursor lineno trimmed in
        (if st.cur_fn <> None then begin
          (* inside a function *)
          if try_consume c "}" then close_fn st lineno
          else if
            String.length trimmed > 0
            && trimmed.[String.length trimmed - 1] = ':'
            && not (String.contains trimmed ' ')
          then begin
            if st.cur_label <> None then
              fail lineno "block started before previous terminated";
            st.cur_label <-
              Some (String.sub trimmed 0 (String.length trimmed - 1));
            c.pos <- String.length trimmed
          end
          else
            match parse_terminator c with
            | Some term ->
              List.iter (fun op ->
                  match op with
                  | Ir.Reg r -> if r > st.max_reg then st.max_reg <- r
                  | _ -> ())
                (match term with
                 | Ir.Cbr (op, _, _) | Ir.Switch (op, _, _)
                 | Ir.Ret (Some op) -> [ op ]
                 | Ir.Br _ | Ir.Ret None | Ir.Unreachable -> []);
              close_block st lineno term
            | None ->
              if st.cur_label = None then
                fail lineno "instruction outside a block";
              let instr = parse_instr c in
              note_regs st instr;
              st.cur_instrs <- instr :: st.cur_instrs
        end
        else if try_consume c "module" then st.p_name <- ident c
        else if try_consume c "struct" then begin
          expect c "%";
          let name = ident c in
          expect c "{";
          let fields = ref [] in
          if not (try_consume c "}") then begin
            let rec loop () =
              let fname = ident c in
              expect c ":";
              let fty = parse_ty c in
              fields := (fname, fty) :: !fields;
              if try_consume c ";" then
                (if not (try_consume c "}") then loop ())
              else expect c "}"
            in
            loop ()
          end;
          st.p_structs <-
            { Ir.s_name = name; Ir.s_fields = List.rev !fields }
            :: st.p_structs
        end
        else if try_consume c "global" then begin
          expect c "@";
          let name = ident c in
          expect c ":";
          let ty = parse_ty c in
          expect c "=";
          let init = parse_init c in
          (* struct initializers print identically to arrays; fix up *)
          let init =
            match init, ty with
            | Ir.Array_init items, Ty.Struct _ -> Ir.Struct_init items
            | other, _ -> other
          in
          st.p_globals <-
            { Ir.g_name = name; Ir.g_ty = ty; Ir.g_init = init }
            :: st.p_globals
        end
        else if try_consume c "fn" then begin
          let name = ident c in
          expect c "(";
          let params = ref [] in
          if not (try_consume c ")") then begin
            let rec loop () =
              let r = reg c in
              expect c ":";
              let ty = parse_ty c in
              params := (r, ty) :: !params;
              if try_consume c "," then loop () else expect c ")"
            in
            loop ()
          end;
          expect c "->";
          let ret = parse_ty c in
          expect c "{";
          st.cur_fn <- Some (name, List.rev !params, ret);
          st.max_reg <-
            List.fold_left (fun acc (r, _) -> max acc r) (-1) !params
        end
        else fail lineno "unrecognized line: %s" trimmed);
        (* Every construct takes a whole line. *)
        if not (eof c) then
          fail lineno "unexpected %S at end of line"
            (String.sub trimmed c.pos (String.length trimmed - c.pos))
      end)
    lines;
  if st.cur_fn <> None then fail (List.length lines) "unterminated function";
  {
    Ir.m_name = st.p_name;
    Ir.m_structs = List.rev st.p_structs;
    Ir.m_globals = List.rev st.p_globals;
    Ir.m_funcs = List.rev st.p_funcs;
    Ir.m_externs = [];
    Ir.m_uva_globals = [];
  }
