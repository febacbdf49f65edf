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
  mutable on_block : string -> string -> unit;   (* function, label *)
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
  on_block = (fun _ _ -> ());
  fn_map = None;
  extern_call = None;
  builtin_override = None;
}

(* {1 Pre-decoded function bodies}

   Each IR function is lowered once per module, before any host runs
   it, into the only form the interpreter executes: block labels
   become array indices, per-instruction cycle costs become
   precomputed seconds under this host's cost model (the same float
   [Cost.seconds_of] gives, so the simulated clock advances
   bit-identically), and constant operands (literals, globals,
   function addresses) become pre-boxed {!Value.t}s shared across
   executions, so the inner loop allocates only for values it
   actually computes.

   Lowering is total over modules {!No_ir.Validate} accepts: every
   global, function address, block label, struct field and type size
   resolves here.  Anything that does not raises [Invalid_argument
   "Host.compile: <fn>: <what>"], which only a caller that skips
   validation can see. *)

type cop =
  | C_reg of int
  | C_val of Value.t            (* pre-boxed constant, already canonical *)

type crv =
  | C_bin of Ir.binop * cop * cop
  | C_cmp of Ir.cmpop * cop * cop
  | C_cast of Ir.castop * Ty.t * cop * Ty.t
  | C_select of cop * cop * cop
  | C_load of Ty.t * cop
  | C_alloca of int * int                  (* size, align *)
  | C_gep of cop * int * (cop * int) array (* base + const + Σ idxᵢ·sizeᵢ *)
  | C_call of string * cop array
  | C_call_ind of cop * cop array
  | C_bswap of Ty.t * cop
  | C_fn_map of Ir.fn_map_dir * cop

(* {2 Fused straight-line chains}

   A run of integer instructions whose intermediates never escape the
   run is compiled to a [chain]: a micro-op program over a per-frame
   [float array] scratch.  Int64 bit patterns are stored with
   [Int64.float_of_bits] — a flat float array is the one unboxed
   mutable store the non-flambda compiler gives us, and bits_of_float/
   float_of_bits of values consumed by int64 primitives stay unboxed —
   so a fused add/xor/shift/load/store allocates nothing.  Only chain
   inputs (register preloads) and live-out results touch boxed
   {!Value.t}s.

   Observable equivalence: each micro-op performs the same fuel check,
   instruction count bump and clock charge (same floats, same order)
   as the instruction it replaces; loads and stores go through the
   same memory entry points (same faults, same dirty marks, same touch
   callbacks); division, float arithmetic and calls are never fused.
   Dead intermediates simply stop being written to the register file,
   which nothing can observe — hooks see labels, not registers, and an
   abandoned frame's registers die with it. *)

type micro = {
  mo_op : int;                  (* mo_* opcode below *)
  mo_dst : int;                 (* scratch slot; -1 for stores *)
  mo_a : int;                   (* first operand slot *)
  mo_b : int;                   (* second operand slot; -1 if absent *)
  mo_n : int;                   (* width in bytes / gep scale / shift *)
  mo_k : int;                   (* sign-extend shift / gep constant *)
}

(* Opcode space: 0..8 binops, 9..16 ordered integer compares (the
   operand order of [Int64.compare]/[unsigned_compare] is baked in),
   then memory and cast ops. *)
let mo_add = 0
let mo_sub = 1
let mo_mul = 2
let mo_and = 3
let mo_or = 4
let mo_xor = 5
let mo_shl = 6
let mo_lshr = 7
let mo_ashr = 8
let mo_slt = 9
let mo_sle = 10
let mo_sgt = 11
let mo_sge = 12
let mo_ult = 13
let mo_ule = 14
let mo_ugt = 15
let mo_uge = 16
let mo_load = 17                 (* mo_n bytes, then sign-shift mo_k *)
let mo_store = 18                (* value mo_a, addr mo_b, mo_n bytes *)
let mo_gep = 19                  (* base mo_a + mo_k + idx mo_b * mo_n *)
let mo_move = 20
let mo_canon = 21                (* (x shl mo_n) asr mo_n *)
let mo_zext = 22                 (* zero-fill mo_n then canon mo_k *)

type chain = {
  ch_pre : int array;            (* slot, reg pairs: boxed reads in *)
  ch_imm_slots : int array;      (* constant slots ... *)
  ch_imm_vals : float array;     (* ... and their bit patterns *)
  ch_ops : micro array;
  ch_costs : float array;        (* seconds per micro-op, this arch *)
  ch_post : int array;           (* reg, slot, is_bool triples out *)
  ch_slots : int;
}

type cinstr =
  | C_assign of int * crv
  | C_effect of crv
  | C_store of Ty.t * cop * cop            (* value, addr *)
  | C_asm
  | C_chain of chain

type cterm =
  | Ct_br of int
  | Ct_cbr of cop * int * int
  | Ct_switch of cop * (int64 * int) array * int
  | Ct_ret_void
  | Ct_ret of cop
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
  c_scratch : int;               (* chain scratch slots a frame needs *)
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
  mutable fuel : int;            (* instructions left; -1 = unlimited *)
  mutable slowdown : float;      (* execution-time multiplier; a shared,
                                    contended server runs its slice of
                                    the machine >1x slower.  1.0 (the
                                    multiplicative identity) is
                                    bit-for-bit the uncontended host *)
}

(* How many times each register is read, across the whole function
   (instruction operands, gep paths, call arguments, terminators).
   Fusion uses this to decide whether a chain-written register is
   dead — consumed entirely inside the chain — or must be boxed back
   into the register file. *)
let reg_read_counts (f : Ir.func) : int array =
  let counts = Array.make (max f.Ir.f_nregs 1) 0 in
  let op = function
    | Ir.Reg r -> if r >= 0 && r < Array.length counts then
        counts.(r) <- counts.(r) + 1
    | Ir.Int _ | Ir.Float _ | Ir.Null _ | Ir.Global _ | Ir.Fn_addr _ -> ()
  in
  let rv = function
    | Ir.Bin (_, a, b) | Ir.Cmp (_, a, b) -> op a; op b
    | Ir.Cast (_, _, a, _) | Ir.Load (_, a) | Ir.Bswap (_, a)
    | Ir.Fn_map (_, a) -> op a
    | Ir.Select (c, a, b) -> op c; op a; op b
    | Ir.Alloca _ -> ()
    | Ir.Gep (_, base, path) ->
      op base;
      List.iter (function Ir.Index o -> op o | Ir.Field _ -> ()) path
    | Ir.Call (_, args) -> List.iter op args
    | Ir.Call_ind (_, fp, args) -> op fp; List.iter op args
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (function
          | Ir.Assign (_, r) -> rv r
          | Ir.Effect r -> rv r
          | Ir.Store (_, v, a) -> op v; op a
          | Ir.Asm _ -> ())
        b.Ir.instrs;
      match b.Ir.term with
      | Ir.Cbr (c, _, _) -> op c
      | Ir.Switch (v, _, _) -> op v
      | Ir.Ret (Some o) -> op o
      | Ir.Br _ | Ir.Ret None | Ir.Unreachable -> ())
    f.Ir.f_blocks;
  counts

let int_binop_code (op : Ir.binop) =
  match op with
  | Ir.Add -> Some mo_add
  | Ir.Sub -> Some mo_sub
  | Ir.Mul -> Some mo_mul
  | Ir.And -> Some mo_and
  | Ir.Or -> Some mo_or
  | Ir.Xor -> Some mo_xor
  | Ir.Shl -> Some mo_shl
  | Ir.Lshr -> Some mo_lshr
  | Ir.Ashr -> Some mo_ashr
  (* Divisions trap on zero: their trap-vs-charge ordering stays on
     the interpreted path.  Float ops don't fit int slots. *)
  | Ir.Sdiv | Ir.Udiv | Ir.Srem | Ir.Urem
  | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv -> None

let int_cmp_code (op : Ir.cmpop) =
  match op with
  | Ir.Slt -> Some mo_slt
  | Ir.Sle -> Some mo_sle
  | Ir.Sgt -> Some mo_sgt
  | Ir.Sge -> Some mo_sge
  | Ir.Ult -> Some mo_ult
  | Ir.Ule -> Some mo_ule
  | Ir.Ugt -> Some mo_ugt
  | Ir.Uge -> Some mo_uge
  (* Eq/Ne go through [Value.equal], which tolerates mixed int/float
     operands; the slot representation would not. *)
  | Ir.Eq | Ir.Ne
  | Ir.Feq | Ir.Fne | Ir.Flt | Ir.Fle | Ir.Fgt | Ir.Fge -> None

let int_bits_of_ty (ty : Ty.t) =
  match ty with
  | Ty.I8 -> Some 8
  | Ty.I16 -> Some 16
  | Ty.I32 -> Some 32
  | Ty.I64 -> Some 64
  | Ty.F32 | Ty.F64 | Ty.Ptr _ | Ty.Fn_ptr _ | Ty.Struct _ | Ty.Array _
  | Ty.Void -> None

(* Load/store width and post-load sign shift; ptr-width accesses are
   unsigned (shift 0), matching [load_scalar]/[store_scalar].  Fused
   memory ops read the little-endian slab word directly, so big-endian
   hosts keep their loads and stores on the interpreted path. *)
let mem_params arch (ty : Ty.t) =
  if arch.Arch.endianness <> Arch.Little then None
  else
    match int_bits_of_ty ty with
    | Some bits -> Some (bits / 8, 64 - bits)
    | None -> (
      match ty with
      | Ty.Ptr _ | Ty.Fn_ptr _ -> Some (Arch.ptr_bytes arch, 0)
      | _ -> None)

let cast_params (op : Ir.castop) (src : Ty.t) (dst : Ty.t) =
  match op with
  | Ir.Zext -> (
    match (int_bits_of_ty src, int_bits_of_ty dst) with
    | Some sb, Some db -> Some (mo_zext, 64 - sb, 64 - db)
    | _ -> None)
  | Ir.Sext | Ir.Trunc -> (
    match int_bits_of_ty dst with
    | Some db -> Some (mo_canon, 64 - db, 0)
    | None -> None)
  | Ir.Ptr_to_int -> (
    match int_bits_of_ty dst with
    | Some db -> Some (mo_canon, 64 - db, 0)
    | None -> None)
  | Ir.Int_to_ptr -> Some (mo_move, 0, 0)
  | Ir.Bitcast                   (* identity on floats too; not fusible *)
  | Ir.Fp_to_si | Ir.Si_to_fp | Ir.Fp_ext | Ir.Fp_trunc -> None

(* Rewrite a compiled block, replacing maximal runs of fusible integer
   instructions with [C_chain] nodes.  Returns the block and the
   number of scratch slots its chains need. *)
let fuse_block ~arch ~(reads : int array) (cb : cblock) : cblock * int =
  let out = ref [] in                      (* (cinstr, cost), reversed *)
  let max_slots = ref 0 in
  (* Per-chain state. *)
  let next_slot = ref 0 in
  let slot_of_reg : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let imm_slot : (int64, int) Hashtbl.t = Hashtbl.create 8 in
  let pre = ref [] and imms = ref [] and ops = ref [] in
  let written : (int, bool) Hashtbl.t = Hashtbl.create 8 in
  let chain_reads : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let read_before_write : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let pending = ref [] in                  (* originals, for short chains *)
  let reset () =
    next_slot := 0;
    Hashtbl.reset slot_of_reg;
    Hashtbl.reset imm_slot;
    pre := []; imms := []; ops := [];
    Hashtbl.reset written;
    Hashtbl.reset chain_reads;
    Hashtbl.reset read_before_write;
    pending := []
  in
  let can_resolve = function
    | C_reg _ | C_val (Value.VInt _) -> true
    | C_val (Value.VFloat _) -> false
  in
  let resolve (c : cop) : int =
    match c with
    | C_reg r -> (
      Hashtbl.replace chain_reads r
        (1 + Option.value ~default:0 (Hashtbl.find_opt chain_reads r));
      match Hashtbl.find_opt slot_of_reg r with
      | Some s -> s
      | None ->
        if not (Hashtbl.mem written r) then
          Hashtbl.replace read_before_write r ();
        let s = !next_slot in
        incr next_slot;
        Hashtbl.replace slot_of_reg r s;
        pre := (s, r) :: !pre;
        s)
    | C_val (Value.VInt v) -> (
      match Hashtbl.find_opt imm_slot v with
      | Some s -> s
      | None ->
        let s = !next_slot in
        incr next_slot;
        Hashtbl.replace imm_slot v s;
        imms := (s, v) :: !imms;
        s)
    | C_val (Value.VFloat _) -> assert false
  in
  let bind_write r is_bool =
    let s = !next_slot in
    incr next_slot;
    Hashtbl.replace slot_of_reg r s;
    Hashtbl.replace written r is_bool;
    s
  in
  let add instr cost m =
    ops := (m, cost) :: !ops;
    pending := (instr, cost) :: !pending
  in
  let flush () =
    (if List.length !ops >= 2 then begin
       let post =
         Hashtbl.fold
           (fun r is_bool acc ->
             let total =
               if r < Array.length reads then reads.(r) else max_int
             in
             let inside =
               Option.value ~default:0 (Hashtbl.find_opt chain_reads r)
             in
             if total - inside > 0 || Hashtbl.mem read_before_write r then
               (r, Hashtbl.find slot_of_reg r, is_bool) :: acc
             else acc)
           written []
       in
       let ops_l = List.rev !ops in
       let flat3 l f =
         Array.of_list (List.concat_map f l)
       in
       let chain =
         {
           ch_pre =
             flat3 (List.rev !pre) (fun (s, r) -> [ s; r ]);
           ch_imm_slots =
             Array.of_list (List.rev_map (fun (s, _) -> s) !imms);
           ch_imm_vals =
             Array.of_list
               (List.rev_map (fun (_, v) -> Int64.float_of_bits v) !imms);
           ch_ops = Array.of_list (List.map fst ops_l);
           ch_costs = Array.of_list (List.map snd ops_l);
           ch_post =
             flat3 post (fun (r, s, b) -> [ r; s; (if b then 1 else 0) ]);
           ch_slots = !next_slot;
         }
       in
       max_slots := max !max_slots !next_slot;
       out := (C_chain chain, 0.0) :: !out
     end
     else List.iter (fun ic -> out := ic :: !out) (List.rev !pending));
    reset ()
  in
  let n = Array.length cb.cb_instrs in
  for i = 0 to n - 1 do
    let instr = cb.cb_instrs.(i) and cost = cb.cb_costs.(i) in
    let fused =
      match instr with
      | C_assign (r, C_bin (op, a, b)) -> (
        match int_binop_code op with
        | Some code when can_resolve a && can_resolve b ->
          let sa = resolve a in
          let sb = resolve b in
          let d = bind_write r false in
          add instr cost
            { mo_op = code; mo_dst = d; mo_a = sa; mo_b = sb;
              mo_n = 0; mo_k = 0 };
          true
        | _ -> false)
      | C_assign (r, C_cmp (op, a, b)) -> (
        match int_cmp_code op with
        | Some code when can_resolve a && can_resolve b ->
          let sa = resolve a in
          let sb = resolve b in
          let d = bind_write r true in
          add instr cost
            { mo_op = code; mo_dst = d; mo_a = sa; mo_b = sb;
              mo_n = 0; mo_k = 0 };
          true
        | _ -> false)
      | C_assign (r, C_load (ty, a)) -> (
        match mem_params arch ty with
        | Some (nbytes, shift) when can_resolve a ->
          let sa = resolve a in
          let d = bind_write r false in
          add instr cost
            { mo_op = mo_load; mo_dst = d; mo_a = sa; mo_b = -1;
              mo_n = nbytes; mo_k = shift };
          true
        | _ -> false)
      | C_store (ty, v, a) -> (
        match mem_params arch ty with
        | Some (nbytes, _) when can_resolve v && can_resolve a ->
          let sv = resolve v in
          let sa = resolve a in
          add instr cost
            { mo_op = mo_store; mo_dst = -1; mo_a = sv; mo_b = sa;
              mo_n = nbytes; mo_k = 0 };
          true
        | _ -> false)
      | C_assign (r, C_gep (base, const, dyn))
        when can_resolve base
             && Array.length dyn <= 1
             && (Array.length dyn = 0 || can_resolve (fst dyn.(0))) ->
        let sb = resolve base in
        let sidx, scale =
          if Array.length dyn = 0 then (-1, 0)
          else
            let c, size = dyn.(0) in
            (resolve c, size)
        in
        let d = bind_write r false in
        add instr cost
          { mo_op = mo_gep; mo_dst = d; mo_a = sb; mo_b = sidx;
            mo_n = scale; mo_k = const };
        true
      | C_assign (r, C_cast (op, src, a, dst)) -> (
        match cast_params op src dst with
        | Some (code, n, k) when can_resolve a ->
          let sa = resolve a in
          let d = bind_write r false in
          add instr cost
            { mo_op = code; mo_dst = d; mo_a = sa; mo_b = -1;
              mo_n = n; mo_k = k };
          true
        | _ -> false)
      | C_assign _ | C_effect _ | C_asm | C_chain _ -> false
    in
    if not fused then begin
      flush ();
      out := (instr, cost) :: !out
    end
  done;
  flush ();
  let l = List.rev !out in
  ( {
      cb with
      cb_instrs = Array.of_list (List.map fst l);
      cb_costs = Array.of_list (List.map snd l);
    },
    !max_slots )

let compile_func ~(arch : Arch.t) ~(layout : Layout.env)
    ~(globals : (string, int) Hashtbl.t) ~(fn_table : Fn_table.t)
    (f : Ir.func) : compiled =
  let addr a = C_val (Value.VInt (Int64.of_int a)) in
  let cop (op : Ir.operand) : cop =
    match op with
    | Ir.Reg r -> C_reg r
    | Ir.Int (v, ty) ->
      (* Sub-word literals are kept sign-extended, like every integer
         the interpreter computes. *)
      let bytes = Ty.scalar_bits ty / 8 in
      C_val (Value.VInt (No_mem.Scalar.sign_extend v bytes))
    | Ir.Float (v, _) -> C_val (Value.VFloat v)
    | Ir.Null _ -> C_val Value.zero
    | Ir.Global name -> (
      match Hashtbl.find_opt globals name with
      | Some a -> addr a
      | None -> invalid_arg ("unknown global @" ^ name))
    | Ir.Fn_addr name -> addr (Fn_table.addr_of fn_table name)
  in
  let gep (pointee : Ty.t) base path : crv =
    (* Static part of the layout walk: field offsets always, index
       scaling when the index is a literal.  Integer address addition
       is exact, so folding constants cannot change the result. *)
    let rec walk acc dyn (ty : Ty.t) = function
      | [] -> C_gep (cop base, acc, Array.of_list (List.rev dyn))
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
        match cop op with
        | C_val (Value.VInt v) ->
          walk (acc + (Int64.to_int v * size)) dyn elem rest
        | c -> walk acc ((c, size) :: dyn) elem rest)
    in
    walk 0 [] pointee path
  in
  let crv (rv : Ir.rvalue) : crv =
    match rv with
    | Ir.Bin (op, a, b) -> C_bin (op, cop a, cop b)
    | Ir.Cmp (op, a, b) -> C_cmp (op, cop a, cop b)
    | Ir.Cast (op, src, a, dst) -> C_cast (op, src, cop a, dst)
    | Ir.Select (c, a, b) -> C_select (cop c, cop a, cop b)
    | Ir.Load (ty, a) -> C_load (ty, cop a)
    | Ir.Alloca (ty, n) ->
      C_alloca (Layout.size_of layout ty * n, Layout.align_of layout ty)
    | Ir.Gep (pointee, base, path) -> gep pointee base path
    | Ir.Call (name, args) -> C_call (name, Array.of_list (List.map cop args))
    | Ir.Call_ind (_sg, fp, args) ->
      C_call_ind (cop fp, Array.of_list (List.map cop args))
    | Ir.Bswap (ty, a) -> C_bswap (ty, cop a)
    | Ir.Fn_map (dir, a) -> C_fn_map (dir, cop a)
  in
  let cinstr (instr : Ir.instr) : cinstr =
    match instr with
    | Ir.Assign (r, rv) -> C_assign (r, crv rv)
    | Ir.Effect rv -> C_effect (crv rv)
    | Ir.Store (ty, v, a) -> C_store (ty, cop v, cop a)
    | Ir.Asm _ -> C_asm
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
    | Ir.Cbr (c, t, e) -> Ct_cbr (cop c, idx t, idx e)
    | Ir.Switch (v, cases, default) ->
      Ct_switch
        ( cop v,
          Array.of_list (List.map (fun (value, l) -> (value, idx l)) cases),
          idx default )
    | Ir.Ret None -> Ct_ret_void
    | Ir.Ret (Some op) -> Ct_ret (cop op)
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
  let reads = reg_read_counts f in
  let scratch = ref 0 in
  match
    Array.map
      (fun b ->
        let fused, slots = fuse_block ~arch ~reads (cblock b) in
        if slots > !scratch then scratch := slots;
        fused)
      blocks
  with
  | c_blocks -> { c_func = f; c_blocks; c_scratch = !scratch }
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
   everything lowering resolves names against. *)
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
  List.iter (fun (name, addr) -> Hashtbl.replace globals name addr) assignments;
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
        (compile_func ~arch ~layout ~globals ~fn_table f))
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
  if not (No_trace.Trace.is_null sink) then begin
    let row = No_trace.Trace.Row.create () in
    No_trace.Trace.Row.set_module_load row
      ~role:(match role with Mobile -> "mobile" | Server -> "server")
      ~functions:(List.length modul.Ir.m_funcs)
      ~globals:(List.length modul.Ir.m_globals);
    sink ~ts:host.clock.now row
  end;
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

(* {1 Endianness-aware scalar memory access at native widths} *)

let scalar_mem_bytes host (ty : Ty.t) =
  match ty with
  | Ty.I8 -> 1
  | Ty.I16 -> 2
  | Ty.I32 | Ty.F32 -> 4
  | Ty.I64 | Ty.F64 -> 8
  | Ty.Ptr _ | Ty.Fn_ptr _ -> Arch.ptr_bytes host.arch
  | Ty.Struct _ | Ty.Array _ | Ty.Void ->
    invalid_arg "Host.scalar_mem_bytes: not a scalar"

(* Little-endian hosts hit the word-width slab path in [Memory];
   big-endian ones go through [Scalar]'s byte loop (the closure there
   is off the dominant path — the reference archs are all LE). *)
let load_bits host addr nbytes =
  match host.arch.Arch.endianness with
  | Arch.Little -> Memory.load_le host.mem addr nbytes
  | Arch.Big ->
    No_mem.Scalar.load_int Arch.Big
      ~read_byte:(fun a -> Memory.read_byte host.mem a)
      addr nbytes

let store_bits host addr nbytes bits =
  match host.arch.Arch.endianness with
  | Arch.Little -> Memory.store_le host.mem addr nbytes bits
  | Arch.Big ->
    No_mem.Scalar.store_int Arch.Big
      ~write_byte:(fun a b -> Memory.write_byte host.mem a b)
      addr nbytes bits

let load_scalar host (ty : Ty.t) addr : Value.t =
  let nbytes = scalar_mem_bytes host ty in
  let bits = load_bits host addr nbytes in
  match ty with
  | Ty.F32 -> Value.VFloat (No_mem.Scalar.float_of_bits ~f32:true bits)
  | Ty.F64 -> Value.VFloat (No_mem.Scalar.float_of_bits ~f32:false bits)
  | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 ->
    Value.VInt (No_mem.Scalar.sign_extend bits nbytes)
  | Ty.Ptr _ | Ty.Fn_ptr _ ->
    (* Addresses are unsigned: no sign extension. *)
    Value.VInt bits
  | Ty.Struct _ | Ty.Array _ | Ty.Void -> assert false

let store_scalar host (ty : Ty.t) addr (v : Value.t) : unit =
  let nbytes = scalar_mem_bytes host ty in
  let bits =
    match ty with
    | Ty.F32 -> No_mem.Scalar.float_to_bits ~f32:true (Value.to_float v)
    | Ty.F64 -> No_mem.Scalar.float_to_bits ~f32:false (Value.to_float v)
    | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 | Ty.Ptr _ | Ty.Fn_ptr _ ->
      Value.to_int v
    | Ty.Struct _ | Ty.Array _ | Ty.Void -> assert false
  in
  store_bits host addr nbytes bits
