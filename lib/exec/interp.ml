(* The IR interpreter.

   Executes a module on a {!Host}, charging each instruction its cycle
   cost under the host architecture's cost model, going through the
   host memory (and therefore through the page table: on a server
   host, touching a non-resident page invokes the copy-on-demand fault
   handler), and dispatching builtins to the host's devices.  The
   offloading runtime and the profiler attach through {!Host.hooks}. *)

module Arch = No_arch.Arch
module Cost = No_arch.Cost
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Builtins = No_ir.Builtins
module Memory = No_mem.Memory
module Scalar = No_mem.Scalar
module Uva = No_mem.Uva
module Stack_alloc = No_mem.Stack_alloc

exception Trap of string
exception Out_of_fuel

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

(* Console/file operation latencies on the local device (syscall-ish
   costs, on the simulated-CPU time scale; the network costs of
   *remote* I/O are added by the runtime's override). *)
let local_io_seconds = 1.0e-3

let width_bits (ty : Ty.t) =
  match ty with
  | Ty.I8 -> 8
  | Ty.I16 -> 16
  | Ty.I32 -> 32
  | Ty.I64 -> 64
  | Ty.F32 -> 32
  | Ty.F64 -> 64
  | Ty.Ptr _ | Ty.Fn_ptr _ | Ty.Struct _ | Ty.Array _ | Ty.Void ->
    trap "width_bits of %s" (Ty.to_string ty)

(* Canonical integer representation: sub-word values are kept
   sign-extended; this keeps signed arithmetic trivial and makes
   unsigned operations mask explicitly. *)
let canon (ty : Ty.t) v = Scalar.sign_extend v (width_bits ty / 8)

let mask_to_width (ty : Ty.t) v =
  let bits = width_bits ty in
  if bits >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L)

type frame = {
  host : Host.t;
  regs : Value.t array;
  func : Host.compiled;
  scratch : float array;
      (* unboxed int64 bit patterns for fused chains (Host.chain);
         per-frame so an effect suspension mid-chain cannot be
         clobbered by another session's client *)
}

let no_scratch : float array = [||]

let read_cstring host addr =
  let buf = Buffer.create 16 in
  let rec go a =
    let b = Memory.read_byte host.Host.mem a in
    if b <> 0 then begin
      Buffer.add_char buf (Char.chr b);
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents buf

let eval_binop (op : Ir.binop) a b : Value.t =
  match op with
  | Ir.Fadd -> Value.VFloat (Value.to_float a +. Value.to_float b)
  | Ir.Fsub -> Value.VFloat (Value.to_float a -. Value.to_float b)
  | Ir.Fmul -> Value.VFloat (Value.to_float a *. Value.to_float b)
  | Ir.Fdiv -> Value.VFloat (Value.to_float a /. Value.to_float b)
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.Sdiv | Ir.Udiv | Ir.Srem | Ir.Urem
  | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Lshr | Ir.Ashr -> (
    let x = Value.to_int a and y = Value.to_int b in
    let check_nonzero () = if Int64.equal y 0L then trap "division by zero" in
    match op with
    | Ir.Add -> Value.VInt (Int64.add x y)
    | Ir.Sub -> Value.VInt (Int64.sub x y)
    | Ir.Mul -> Value.VInt (Int64.mul x y)
    | Ir.Sdiv -> check_nonzero (); Value.VInt (Int64.div x y)
    | Ir.Udiv -> check_nonzero (); Value.VInt (Int64.unsigned_div x y)
    | Ir.Srem -> check_nonzero (); Value.VInt (Int64.rem x y)
    | Ir.Urem -> check_nonzero (); Value.VInt (Int64.unsigned_rem x y)
    | Ir.And -> Value.VInt (Int64.logand x y)
    | Ir.Or -> Value.VInt (Int64.logor x y)
    | Ir.Xor -> Value.VInt (Int64.logxor x y)
    | Ir.Shl -> Value.VInt (Int64.shift_left x (Int64.to_int y land 63))
    | Ir.Lshr ->
      Value.VInt (Int64.shift_right_logical x (Int64.to_int y land 63))
    | Ir.Ashr -> Value.VInt (Int64.shift_right x (Int64.to_int y land 63))
    | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv -> assert false)

let eval_cmp (op : Ir.cmpop) a b : Value.t =
  let vb =
    match op with
    | Ir.Eq -> Value.equal a b
    | Ir.Ne -> not (Value.equal a b)
    | Ir.Slt -> Int64.compare (Value.to_int a) (Value.to_int b) < 0
    | Ir.Sle -> Int64.compare (Value.to_int a) (Value.to_int b) <= 0
    | Ir.Sgt -> Int64.compare (Value.to_int a) (Value.to_int b) > 0
    | Ir.Sge -> Int64.compare (Value.to_int a) (Value.to_int b) >= 0
    | Ir.Ult -> Int64.unsigned_compare (Value.to_int a) (Value.to_int b) < 0
    | Ir.Ule -> Int64.unsigned_compare (Value.to_int a) (Value.to_int b) <= 0
    | Ir.Ugt -> Int64.unsigned_compare (Value.to_int a) (Value.to_int b) > 0
    | Ir.Uge -> Int64.unsigned_compare (Value.to_int a) (Value.to_int b) >= 0
    | Ir.Feq -> Value.to_float a = Value.to_float b
    | Ir.Fne -> Value.to_float a <> Value.to_float b
    | Ir.Flt -> Value.to_float a < Value.to_float b
    | Ir.Fle -> Value.to_float a <= Value.to_float b
    | Ir.Fgt -> Value.to_float a > Value.to_float b
    | Ir.Fge -> Value.to_float a >= Value.to_float b
  in
  Value.of_bool vb

let eval_cast (op : Ir.castop) (src : Ty.t) v (dst : Ty.t) : Value.t =
  match op with
  | Ir.Zext -> Value.VInt (canon dst (mask_to_width src (Value.to_int v)))
  | Ir.Sext -> Value.VInt (canon dst (Value.to_int v))
  | Ir.Trunc -> Value.VInt (canon dst (Value.to_int v))
  | Ir.Bitcast -> v
  | Ir.Fp_to_si -> Value.VInt (canon dst (Int64.of_float (Value.to_float v)))
  | Ir.Si_to_fp -> Value.VFloat (Int64.to_float (Value.to_int v))
  | Ir.Fp_ext -> v
  | Ir.Fp_trunc ->
    Value.VFloat (Int32.float_of_bits (Int32.bits_of_float (Value.to_float v)))
  | Ir.Ptr_to_int -> Value.VInt (canon dst (Value.to_int v))
  | Ir.Int_to_ptr -> Value.VInt (Value.to_int v)

let eval_bswap (ty : Ty.t) v : Value.t =
  let nbytes = width_bits ty / 8 in
  match ty with
  | Ty.F32 | Ty.F64 ->
    let f32 = Ty.equal ty Ty.F32 in
    let bits = Scalar.float_to_bits ~f32 (Value.to_float v) in
    Value.VFloat (Scalar.float_of_bits ~f32 (Scalar.bswap bits nbytes))
  | _ ->
    let x = Value.to_int v in
    Value.VInt (canon ty (Scalar.bswap (mask_to_width ty x) nbytes))

let eval_fn_map host dir v : Value.t =
  (* A lone host maps identically (it has only its own table); the
     offloading runtime installs the real mobile<->server translation
     and charges its cost. *)
  match host.Host.hooks.Host.fn_map with
  | Some translate -> translate dir v
  | None -> v

(* {1 Evaluation of pre-decoded code}

   [Host] lowered every operand, address and label when the module was
   compiled, so evaluating an operand is an array read or a pointer
   return. *)

let eval_cop frame (op : Host.cop) : Value.t =
  match op with
  | Host.C_reg r -> frame.regs.(r)
  | Host.C_val v -> v

let rec eval_args frame (args : Host.cop array) i : Value.t list =
  if i >= Array.length args then []
  else
    let v = eval_cop frame (Array.unsafe_get args i) in
    v :: eval_args frame args (i + 1)

let rec eval_crv frame (rv : Host.crv) : Value.t =
  let host = frame.host in
  match rv with
  | Host.C_bin (op, a, b) ->
    eval_binop op (eval_cop frame a) (eval_cop frame b)
  | Host.C_cmp (op, a, b) ->
    eval_cmp op (eval_cop frame a) (eval_cop frame b)
  | Host.C_cast (op, src, a, dst) -> eval_cast op src (eval_cop frame a) dst
  | Host.C_select (c, a, b) ->
    if Value.to_bool (eval_cop frame c) then eval_cop frame a
    else eval_cop frame b
  | Host.C_load (ty, a) ->
    Host.load_scalar host ty (Value.to_addr (eval_cop frame a))
  | Host.C_alloca (size, align) ->
    Value.VInt (Int64.of_int (Stack_alloc.alloc host.Host.stack size align))
  | Host.C_gep (base, const, dyn) ->
    let a = ref (Value.to_addr (eval_cop frame base) + const) in
    for i = 0 to Array.length dyn - 1 do
      let op, size = Array.unsafe_get dyn i in
      a := !a + (Int64.to_int (Value.to_int (eval_cop frame op)) * size)
    done;
    Value.VInt (Int64.of_int !a)
  | Host.C_call (name, args) -> call_by_name host name (eval_args frame args 0)
  | Host.C_call_ind (fp, args) -> (
    let addr = Value.to_addr (eval_cop frame fp) in
    let argv = eval_args frame args 0 in
    match Fn_table.name_of host.Host.fn_table addr with
    | name -> call_by_name host name argv
    | exception Fn_table.Not_a_function _ ->
      trap "indirect call through foreign or invalid address 0x%x" addr)
  | Host.C_bswap (ty, a) -> eval_bswap ty (eval_cop frame a)
  | Host.C_fn_map (dir, a) -> eval_fn_map host dir (eval_cop frame a)

(* {1 Builtins} *)

and charge_bulk host bytes =
  Host.charge_seconds host (Cost.seconds_per_byte host.Host.arch *. float_of_int bytes)

and default_builtin host name (argv : Value.t list) : Value.t =
  let arg n = List.nth argv n in
  let int_arg n = Value.to_int (arg n) in
  let addr_arg n = Value.to_addr (arg n) in
  let float_arg n = Value.to_float (arg n) in
  let console = host.Host.console in
  let io () = Host.charge_seconds host local_io_seconds in
  match name with
  | "malloc" | "u_malloc" ->
    Host.charge host Arch.Cls_alloc;
    Value.VInt (Int64.of_int (Uva.alloc host.Host.uva (Int64.to_int (int_arg 0))))
  | "free" | "u_free" ->
    Host.charge host Arch.Cls_alloc;
    Uva.dealloc host.Host.uva (addr_arg 0);
    Value.zero
  | "print_i64" | "r_print_i64" ->
    io ();
    Console.write_string console (Int64.to_string (int_arg 0));
    Value.zero
  | "print_f64" | "r_print_f64" ->
    io ();
    Console.write_string console (Printf.sprintf "%.6g" (float_arg 0));
    Value.zero
  | "print_str" | "r_print_str" ->
    io ();
    Console.write_string console (read_cstring host (addr_arg 0));
    Value.zero
  | "print_newline" | "r_print_newline" ->
    io ();
    Console.write_string console "\n";
    Value.zero
  | "scan_i64" ->
    io ();
    Value.VInt (Console.read_int console)
  | "scan_f64" ->
    io ();
    Value.VFloat (Console.read_float console)
  | "f_open" | "rf_open" ->
    io ();
    Value.VInt (Int64.of_int (Fs.open_file host.Host.fs (read_cstring host (addr_arg 0))))
  | "f_size" | "rf_size" ->
    io ();
    Value.VInt (Int64.of_int (Fs.size host.Host.fs (Int64.to_int (int_arg 0))))
  | "f_read" | "rf_read" ->
    io ();
    let chunk =
      Fs.read host.Host.fs (Int64.to_int (int_arg 0)) (Int64.to_int (int_arg 2))
    in
    Memory.write_block host.Host.mem (addr_arg 1) chunk;
    charge_bulk host (Bytes.length chunk);
    Value.VInt (Int64.of_int (Bytes.length chunk))
  | "f_close" | "rf_close" ->
    io ();
    Fs.close host.Host.fs (Int64.to_int (int_arg 0));
    Value.zero
  | "sqrt" -> Host.charge host Arch.Cls_math; Value.VFloat (sqrt (float_arg 0))
  | "sin" -> Host.charge host Arch.Cls_math; Value.VFloat (sin (float_arg 0))
  | "cos" -> Host.charge host Arch.Cls_math; Value.VFloat (cos (float_arg 0))
  | "exp" -> Host.charge host Arch.Cls_math; Value.VFloat (exp (float_arg 0))
  | "log" -> Host.charge host Arch.Cls_math; Value.VFloat (log (float_arg 0))
  | "fabs" ->
    Host.charge host Arch.Cls_math;
    Value.VFloat (Float.abs (float_arg 0))
  | "pow" ->
    Host.charge host Arch.Cls_math;
    Value.VFloat (Float.pow (float_arg 0) (float_arg 1))
  | "memcpy" ->
    let dst = addr_arg 0 and src = addr_arg 1 in
    let n = Int64.to_int (int_arg 2) in
    let data = Memory.read_block host.Host.mem src n in
    Memory.write_block host.Host.mem dst data;
    charge_bulk host (2 * n);
    Value.zero
  | "memset" ->
    let dst = addr_arg 0 in
    let v = Int64.to_int (int_arg 1) land 0xff in
    let n = Int64.to_int (int_arg 2) in
    Memory.write_block host.Host.mem dst (Bytes.make n (Char.chr v));
    charge_bulk host n;
    Value.zero
  | "syscall" ->
    (* Locally executable; never offloaded (the filter sees to it). *)
    io ();
    Value.zero
  | _ -> trap "call to unknown function %s" name

and call_by_name (host : Host.t) name (argv : Value.t list) : Value.t =
  Host.charge host Arch.Cls_branch;
  match Host.compiled host name with
  | Some compiled -> run_function host compiled argv
  | None -> (
    (* Session overrides see every non-IR call first. *)
    match host.Host.hooks.Host.builtin_override with
    | Some override when Builtins.is_builtin name -> (
      match override name argv with
      | Some result -> result
      | None -> default_builtin host name argv)
    | _ ->
      if Builtins.is_builtin name then default_builtin host name argv
      else (
        match List.assoc_opt name host.Host.modul.Ir.m_externs with
        | Some _ -> (
          match host.Host.hooks.Host.extern_call with
          | Some handler -> (
            match handler name argv with
            | Some result -> result
            | None -> trap "extern %s rejected by runtime" name)
          | None -> trap "extern %s with no runtime attached" name)
        | None -> trap "call to unknown function %s" name))

and run_function (host : Host.t) (compiled : Host.compiled) argv : Value.t =
  let f = compiled.Host.c_func in
  Host.charge host Arch.Cls_call;
  host.Host.hooks.Host.on_enter f.Ir.f_name;
  if List.length argv <> List.length f.Ir.f_params then
    trap "%s: called with %d arguments, expected %d" f.Ir.f_name
      (List.length argv) (List.length f.Ir.f_params);
  let regs = Array.make (max f.Ir.f_nregs 1) Value.zero in
  List.iteri (fun i v -> regs.(i) <- v) argv;
  let scratch =
    if compiled.Host.c_scratch = 0 then no_scratch
    else Array.make compiled.Host.c_scratch 0.0
  in
  let frame = { host; regs; func = compiled; scratch } in
  let mark = Stack_alloc.frame_mark host.Host.stack in
  let result = run_blocks frame 0 in
  Stack_alloc.release host.Host.stack mark;
  host.Host.hooks.Host.on_exit f.Ir.f_name;
  result

and run_blocks frame idx : Value.t =
  let host = frame.host in
  let fname = frame.func.Host.c_func.Ir.f_name in
  (* Fuel is also consumed per block so an instruction-free loop
     cannot spin forever under a fuel limit. *)
  if host.Host.fuel = 0 then raise Out_of_fuel;
  if host.Host.fuel > 0 then host.Host.fuel <- host.Host.fuel - 1;
  let b = frame.func.Host.c_blocks.(idx) in
  host.Host.hooks.Host.on_block fname b.Host.cb_label;
  let instrs = b.Host.cb_instrs in
  let costs = b.Host.cb_costs in
  for i = 0 to Array.length instrs - 1 do
    match Array.unsafe_get instrs i with
    | Host.C_chain ch ->
      (* Does its own per-micro-op fuel/count/charge bookkeeping. *)
      exec_chain frame ch
    | instr ->
      (* Same per-instruction sequence as the un-decoded interpreter:
         fuel, count, charge (precomputed seconds x slowdown — the
         very floats the old [Host.charge] added, so the clock is
         bit-identical), then execute. *)
      if host.Host.fuel = 0 then raise Out_of_fuel;
      if host.Host.fuel > 0 then host.Host.fuel <- host.Host.fuel - 1;
      host.Host.instr_count <- host.Host.instr_count + 1;
      host.Host.clock.Host.now <-
        host.Host.clock.Host.now
        +. (Array.unsafe_get costs i *. host.Host.slowdown);
      (match instr with
      | Host.C_assign (r, rv) -> frame.regs.(r) <- eval_crv frame rv
      | Host.C_effect rv -> ignore (eval_crv frame rv)
      | Host.C_store (ty, v, a) ->
        Host.store_scalar host ty
          (Value.to_addr (eval_cop frame a))
          (eval_cop frame v)
      | Host.C_asm ->
        (* Inline assembly runs only on its own machine; the filter
           keeps it off the server.  Behaviour: an opaque no-op. *)
        ()
      | Host.C_chain _ -> assert false)
  done;
  host.Host.clock.Host.now <-
    host.Host.clock.Host.now +. (b.Host.cb_term_cost *. host.Host.slowdown);
  host.Host.instr_count <- host.Host.instr_count + 1;
  match b.Host.cb_term with
  | Host.Ct_br next -> run_blocks frame next
  | Host.Ct_cbr (c, t, e) ->
    if Value.to_bool (eval_cop frame c) then run_blocks frame t
    else run_blocks frame e
  | Host.Ct_switch (v, cases, default) ->
    let scrutinee = Value.to_int (eval_cop frame v) in
    let n = Array.length cases in
    let target = ref default in
    let k = ref 0 in
    let searching = ref true in
    while !searching && !k < n do
      let value, i = Array.unsafe_get cases !k in
      if Int64.equal value scrutinee then begin
        target := i;
        searching := false
      end;
      incr k
    done;
    run_blocks frame !target
  | Host.Ct_ret_void -> Value.zero
  | Host.Ct_ret op -> eval_cop frame op
  | Host.Ct_unreachable -> trap "%s: reached unreachable" fname

(* Fused integer chain (see Host.chain): preload the boxed inputs
   into the frame's float-array scratch, run the micro-ops with the
   same per-instruction fuel/count/clock sequence the unfused
   instructions performed, then box the live-outs back into the
   register file.  All intermediate arithmetic stays unboxed: int64
   bit patterns live in the flat float array via
   [Int64.float_of_bits], and the compiler keeps values consumed
   directly by int64 primitives out of the heap. *)
and exec_chain frame (ch : Host.chain) : unit =
  let host = frame.host in
  let scratch = frame.scratch in
  let regs = frame.regs in
  let pre = ch.Host.ch_pre in
  let npre = Array.length pre in
  let p = ref 0 in
  while !p < npre do
    Array.unsafe_set scratch
      (Array.unsafe_get pre !p)
      (Int64.float_of_bits
         (Value.to_int (Array.unsafe_get regs (Array.unsafe_get pre (!p + 1)))));
    p := !p + 2
  done;
  let islots = ch.Host.ch_imm_slots and ivals = ch.Host.ch_imm_vals in
  for j = 0 to Array.length islots - 1 do
    Array.unsafe_set scratch (Array.unsafe_get islots j)
      (Array.unsafe_get ivals j)
  done;
  let ops = ch.Host.ch_ops and costs = ch.Host.ch_costs in
  for j = 0 to Array.length ops - 1 do
    if host.Host.fuel = 0 then raise Out_of_fuel;
    if host.Host.fuel > 0 then host.Host.fuel <- host.Host.fuel - 1;
    host.Host.instr_count <- host.Host.instr_count + 1;
    host.Host.clock.Host.now <-
      host.Host.clock.Host.now
      +. (Array.unsafe_get costs j *. host.Host.slowdown);
    let m = Array.unsafe_get ops j in
    let opc = m.Host.mo_op in
    if opc <= 16 then begin
      (* Binops and ordered compares: two slot operands. *)
      let x = Int64.bits_of_float (Array.unsafe_get scratch m.Host.mo_a) in
      let y = Int64.bits_of_float (Array.unsafe_get scratch m.Host.mo_b) in
      if opc <= 8 then
        Array.unsafe_set scratch m.Host.mo_dst
          (Int64.float_of_bits
             (match opc with
             | 0 -> Int64.add x y
             | 1 -> Int64.sub x y
             | 2 -> Int64.mul x y
             | 3 -> Int64.logand x y
             | 4 -> Int64.logor x y
             | 5 -> Int64.logxor x y
             | 6 -> Int64.shift_left x (Int64.to_int y land 63)
             | 7 -> Int64.shift_right_logical x (Int64.to_int y land 63)
             | _ -> Int64.shift_right x (Int64.to_int y land 63)))
      else
        Array.unsafe_set scratch m.Host.mo_dst
          (Int64.float_of_bits
             (if
                match opc with
                | 9 -> Int64.compare x y < 0
                | 10 -> Int64.compare x y <= 0
                | 11 -> Int64.compare x y > 0
                | 12 -> Int64.compare x y >= 0
                | 13 -> Int64.unsigned_compare x y < 0
                | 14 -> Int64.unsigned_compare x y <= 0
                | 15 -> Int64.unsigned_compare x y > 0
                | _ -> Int64.unsigned_compare x y >= 0
              then 1L
              else 0L))
    end
    else if opc = 17 (* load *) then begin
      let a64 = Int64.bits_of_float (Array.unsafe_get scratch m.Host.mo_a) in
      if Int64.compare a64 0L < 0 then
        raise (Value.Type_trap "negative address");
      let addr = Int64.to_int a64 in
      let nbytes = m.Host.mo_n in
      (* Only little-endian hosts fuse memory ops, so the slab's word
         order is the wire order; [load_base] performs the same
         checks, translation and fault service as [Memory.load_le]
         but hands back an offset instead of a boxed word. *)
      let mem = host.Host.mem in
      let base = Memory.load_base mem addr nbytes in
      let bits =
        if base >= 0 then
          match nbytes with
          | 8 -> Bytes.get_int64_le mem.Memory.slab base
          | 4 ->
            Int64.of_int
              (Bytes.get_uint16_le mem.Memory.slab base
              lor (Bytes.get_uint16_le mem.Memory.slab (base + 2) lsl 16))
          | 2 -> Int64.of_int (Bytes.get_uint16_le mem.Memory.slab base)
          | _ -> Int64.of_int (Bytes.get_uint8 mem.Memory.slab base)
        else Host.load_bits host addr nbytes
      in
      let s = m.Host.mo_k in
      Array.unsafe_set scratch m.Host.mo_dst
        (Int64.float_of_bits (Int64.shift_right (Int64.shift_left bits s) s))
    end
    else if opc = 18 (* store *) then begin
      let v = Int64.bits_of_float (Array.unsafe_get scratch m.Host.mo_a) in
      let a64 = Int64.bits_of_float (Array.unsafe_get scratch m.Host.mo_b) in
      if Int64.compare a64 0L < 0 then
        raise (Value.Type_trap "negative address");
      let addr = Int64.to_int a64 in
      let nbytes = m.Host.mo_n in
      let mem = host.Host.mem in
      let base = Memory.store_base mem addr nbytes in
      if base >= 0 then
        match nbytes with
        | 8 -> Bytes.set_int64_le mem.Memory.slab base v
        | 4 ->
          let x = Int64.to_int v in
          Bytes.set_uint16_le mem.Memory.slab base (x land 0xffff);
          Bytes.set_uint16_le mem.Memory.slab (base + 2)
            ((x lsr 16) land 0xffff)
        | 2 ->
          Bytes.set_uint16_le mem.Memory.slab base (Int64.to_int v land 0xffff)
        | _ -> Bytes.set_uint8 mem.Memory.slab base (Int64.to_int v land 0xff)
      else Host.store_bits host addr nbytes v
    end
    else if opc = 19 (* gep *) then begin
      let base = Int64.bits_of_float (Array.unsafe_get scratch m.Host.mo_a) in
      if Int64.compare base 0L < 0 then
        raise (Value.Type_trap "negative address");
      let withc = Int64.add base (Int64.of_int m.Host.mo_k) in
      let sum =
        if m.Host.mo_b >= 0 then
          Int64.add withc
            (Int64.mul
               (Int64.bits_of_float (Array.unsafe_get scratch m.Host.mo_b))
               (Int64.of_int m.Host.mo_n))
        else withc
      in
      (* Address arithmetic wraps at the native-int width, exactly as
         the interpreted walk's [int] accumulator did. *)
      Array.unsafe_set scratch m.Host.mo_dst
        (Int64.float_of_bits (Int64.of_int (Int64.to_int sum)))
    end
    else if opc = 20 (* move *) then
      Array.unsafe_set scratch m.Host.mo_dst
        (Array.unsafe_get scratch m.Host.mo_a)
    else begin
      (* canon (21) / zext-canon (22) *)
      let x = Int64.bits_of_float (Array.unsafe_get scratch m.Host.mo_a) in
      let x =
        if opc = 22 then
          Int64.shift_right_logical (Int64.shift_left x m.Host.mo_n)
            m.Host.mo_n
        else x
      in
      let s = if opc = 22 then m.Host.mo_k else m.Host.mo_n in
      Array.unsafe_set scratch m.Host.mo_dst
        (Int64.float_of_bits (Int64.shift_right (Int64.shift_left x s) s))
    end
  done;
  let post = ch.Host.ch_post in
  let npost = Array.length post in
  let q = ref 0 in
  while !q < npost do
    let r = Array.unsafe_get post !q in
    let s = Array.unsafe_get post (!q + 1) in
    let bits = Int64.bits_of_float (Array.unsafe_get scratch s) in
    Array.unsafe_set regs r
      (if Array.unsafe_get post (!q + 2) = 1 then
         if Int64.equal bits 0L then Value.vfalse else Value.vtrue
       else Value.VInt bits);
    q := !q + 3
  done

(* {1 Entry points} *)

let call host name argv =
  match Host.compiled host name with
  | Some compiled -> run_function host compiled argv
  | None -> trap "no function %s in module %s" name host.Host.modul.Ir.m_name

let run_main host = call host "main" []
