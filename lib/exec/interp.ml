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

(* Deepest chain of interpreted calls a run may hold, the entry
   function included.  The deepest any registry program reaches is 4
   frames (177.mesa), on profile inputs under every architecture and on
   eval inputs, so 10,000 leaves room for programs that recurse on their
   input.  Each interpreted call nests only a few native frames, so an
   unbounded recursion traps here within milliseconds instead of
   filling the OCaml stack for seconds. *)
let max_call_depth = 10_000

type frame = {
  host : Host.t;
  slots : float array;
      (* see Host's pre-decoded bodies; per frame, so a session that
         suspends inside a call (the fleet scheduler's effects) cannot
         have its registers clobbered by another client *)
  func : Host.compiled;
  depth : int;                   (* interpreted calls open, this one's
                                    included; a trap that unwinds frames
                                    leaves no counter to reset *)
}

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

(* {1 Slots}

   A slot holds an integer as its int64 bit pattern and a float as
   itself.  These helpers are inlined, so the int64s they pass stay
   unboxed: without flambda, a boxed number crossing a function return
   is allocated. *)

let[@inline] bits s i = Int64.bits_of_float (Array.unsafe_get s i)
let[@inline] set_bits s i x = Array.unsafe_set s i (Int64.float_of_bits x)

(* The slot of the integer 1, a compare's true. *)
let slot_true = Int64.float_of_bits 1L

(* An integer slot as a non-negative address, as {!Value.to_addr}. *)
let[@inline] addr s i =
  let a = bits s i in
  if Int64.compare a 0L < 0 then raise (Value.Type_trap "negative address");
  Int64.to_int a

let box s i is_float =
  if is_float then Value.VFloat (Array.unsafe_get s i) else Value.VInt (bits s i)

(* A value entering the frame; one of the other kind raises
   {!Value.Type_trap} here. *)
let unbox s i is_float v =
  if is_float then s.(i) <- Value.to_float v
  else s.(i) <- Int64.float_of_bits (Value.to_int v)

let rec box_args s (c : Host.call) i : Value.t list =
  if i >= Array.length c.Host.args then []
  else
    let v =
      box s (Array.unsafe_get c.Host.args i) (Array.unsafe_get c.Host.float_args i)
    in
    v :: box_args s c (i + 1)

let result s (c : Host.call) v =
  if c.Host.dst >= 0 then unbox s c.Host.dst c.Host.float_ret v

let eval_fn_map host dir v : Value.t =
  (* A lone host maps identically (it has only its own table); the
     offloading runtime installs the real mobile<->server translation
     and charges its cost. *)
  match host.Host.hooks.Host.fn_map with
  | Some translate -> translate dir v
  | None -> v

(* {1 Builtins} *)

let charge_bulk host bytes =
  Host.charge_seconds host (Cost.seconds_per_byte host.Host.arch *. float_of_int bytes)

let default_builtin host name (argv : Value.t list) : Value.t =
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

(* {1 Evaluation of pre-decoded code} *)

let rec call_by_name (host : Host.t) ~depth name (argv : Value.t list) :
    Value.t =
  Host.charge host Arch.Cls_branch;
  match Host.compiled host name with
  | Some compiled -> run_function host ~depth compiled argv
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

and run_function (host : Host.t) ~depth (compiled : Host.compiled) argv :
    Value.t =
  let f = compiled.Host.c_func in
  if depth > max_call_depth then
    trap "%s: call depth limit %d exceeded" f.Ir.f_name max_call_depth;
  Host.charge host Arch.Cls_call;
  host.Host.hooks.Host.on_enter f.Ir.f_name;
  if List.length argv <> List.length f.Ir.f_params then
    trap "%s: called with %d arguments, expected %d" f.Ir.f_name
      (List.length argv) (List.length f.Ir.f_params);
  let slots = Array.copy compiled.Host.c_slots in
  List.iteri (fun i v -> unbox slots i compiled.Host.c_float_params.(i) v) argv;
  let frame = { host; slots; func = compiled; depth } in
  let mark = Stack_alloc.frame_mark host.Host.stack in
  let result = run_blocks frame 0 in
  Stack_alloc.release host.Host.stack mark;
  host.Host.hooks.Host.on_exit f.Ir.f_name;
  result

(* One block, then the next by a tail call.  Every instruction writes
   its result into its slot inside this one match, so no int64 or float
   it computes is boxed. *)
and run_blocks frame idx : Value.t =
  let host = frame.host in
  let s = frame.slots in
  let fname = frame.func.Host.c_func.Ir.f_name in
  (* Fuel is also consumed per block so an instruction-free loop
     cannot spin forever under a fuel limit. *)
  if host.Host.fuel = 0 then raise Out_of_fuel;
  if host.Host.fuel > 0 then host.Host.fuel <- host.Host.fuel - 1;
  let b = frame.func.Host.c_blocks.(idx) in
  host.Host.hooks.Host.on_block fname b.Host.cb_label;
  let little = host.Host.arch.Arch.endianness = Arch.Little in
  let instrs = b.Host.cb_instrs in
  let costs = b.Host.cb_costs in
  for i = 0 to Array.length instrs - 1 do
    (* Fuel, count, charge (precomputed seconds x slowdown: the very
       floats [Host.charge] adds, so the clock is bit-identical), then
       execute. *)
    if host.Host.fuel = 0 then raise Out_of_fuel;
    if host.Host.fuel > 0 then host.Host.fuel <- host.Host.fuel - 1;
    host.Host.instr_count <- host.Host.instr_count + 1;
    host.Host.clock.Host.now <-
      host.Host.clock.Host.now
      +. (Array.unsafe_get costs i *. host.Host.slowdown);
    match Array.unsafe_get instrs i with
    | Host.I_bin (((Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv) as op), d, a, b) ->
      let x = Array.unsafe_get s a and y = Array.unsafe_get s b in
      Array.unsafe_set s d
        (match op with
        | Ir.Fadd -> x +. y
        | Ir.Fsub -> x -. y
        | Ir.Fmul -> x *. y
        | _ -> x /. y)
    | Host.I_bin (op, d, a, b) ->
      let x = bits s a and y = bits s b in
      (match op with
      | (Ir.Sdiv | Ir.Udiv | Ir.Srem | Ir.Urem) when Int64.equal y 0L ->
        trap "division by zero"
      | _ -> ());
      (* [Int64.float_of_bits] applied to the match itself, not through
         [set_bits]: a match bound to an inlined function's parameter
         is boxed in every arm. *)
      Array.unsafe_set s d
        (Int64.float_of_bits
           (match op with
           | Ir.Add -> Int64.add x y
           | Ir.Sub -> Int64.sub x y
           | Ir.Mul -> Int64.mul x y
           | Ir.Sdiv -> Int64.div x y
           | Ir.Udiv -> Int64.unsigned_div x y
           | Ir.Srem -> Int64.rem x y
           | Ir.Urem -> Int64.unsigned_rem x y
           | Ir.And -> Int64.logand x y
           | Ir.Or -> Int64.logor x y
           | Ir.Xor -> Int64.logxor x y
           | Ir.Shl -> Int64.shift_left x (Int64.to_int y land 63)
           | Ir.Lshr -> Int64.shift_right_logical x (Int64.to_int y land 63)
           | Ir.Ashr -> Int64.shift_right x (Int64.to_int y land 63)
           | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv -> assert false))
    | Host.I_cmp
        (((Ir.Feq | Ir.Fne | Ir.Flt | Ir.Fle | Ir.Fgt | Ir.Fge) as op), d, a, b)
      ->
      (* IEEE compares: a NaN is unequal to everything, itself too. *)
      let x = Array.unsafe_get s a and y = Array.unsafe_get s b in
      Array.unsafe_set s d
        (if
           match op with
           | Ir.Feq -> x = y
           | Ir.Fne -> x <> y
           | Ir.Flt -> x < y
           | Ir.Fle -> x <= y
           | Ir.Fgt -> x > y
           | _ -> x >= y
         then slot_true
         else 0.0)
    | Host.I_cmp (op, d, a, b) ->
      let x = bits s a and y = bits s b in
      Array.unsafe_set s d
        (if
           match op with
           | Ir.Eq -> Int64.equal x y
           | Ir.Ne -> not (Int64.equal x y)
           | Ir.Slt -> Int64.compare x y < 0
           | Ir.Sle -> Int64.compare x y <= 0
           | Ir.Sgt -> Int64.compare x y > 0
           | Ir.Sge -> Int64.compare x y >= 0
           | Ir.Ult -> Int64.unsigned_compare x y < 0
           | Ir.Ule -> Int64.unsigned_compare x y <= 0
           | Ir.Ugt -> Int64.unsigned_compare x y > 0
           | _ -> Int64.unsigned_compare x y >= 0
         then slot_true
         else 0.0)
    | Host.I_ext (d, a, z, sg) ->
      let x = Int64.shift_right_logical (Int64.shift_left (bits s a) z) z in
      set_bits s d (Int64.shift_right (Int64.shift_left x sg) sg)
    | Host.I_fp_to_si (d, a, sg) ->
      let x = Int64.of_float (Array.unsafe_get s a) in
      set_bits s d (Int64.shift_right (Int64.shift_left x sg) sg)
    | Host.I_si_to_fp (d, a) -> Array.unsafe_set s d (Int64.to_float (bits s a))
    | Host.I_fp_trunc (d, a) ->
      Array.unsafe_set s d
        (Int32.float_of_bits (Int32.bits_of_float (Array.unsafe_get s a)))
    | Host.I_move (d, a) -> Array.unsafe_set s d (Array.unsafe_get s a)
    | Host.I_select (d, c, a, b) ->
      Array.unsafe_set s d
        (Array.unsafe_get s (if Int64.equal (bits s c) 0L then b else a))
    | Host.I_load (d, a, n, sg, f32) ->
      let p = addr s a in
      (* A little-endian host reads a word inside one page straight off
         the slab: [load_base] performs the checks, touch, translation
         and fault service, and hands back an offset instead of a boxed
         word.  Page-straddling words and big-endian hosts take
         [Memory.load_word]. *)
      let mem = host.Host.mem in
      let base = if little then Memory.load_base mem p n else -1 in
      let x =
        if base >= 0 then
          match n with
          | 8 -> Bytes.get_int64_le mem.Memory.slab base
          | 4 ->
            Int64.of_int
              (Bytes.get_uint16_le mem.Memory.slab base
              lor (Bytes.get_uint16_le mem.Memory.slab (base + 2) lsl 16))
          | 2 -> Int64.of_int (Bytes.get_uint16_le mem.Memory.slab base)
          | _ -> Int64.of_int (Bytes.get_uint8 mem.Memory.slab base)
        else Memory.load_word mem host.Host.arch.Arch.endianness p n
      in
      if f32 then Array.unsafe_set s d (Int32.float_of_bits (Int64.to_int32 x))
      else set_bits s d (Int64.shift_right (Int64.shift_left x sg) sg)
    | Host.I_store (v, a, n, f32) ->
      let x =
        if f32 then Int64.of_int32 (Int32.bits_of_float (Array.unsafe_get s v))
        else bits s v
      in
      let p = addr s a in
      let mem = host.Host.mem in
      let base = if little then Memory.store_base mem p n else -1 in
      if base >= 0 then
        match n with
        | 8 -> Bytes.set_int64_le mem.Memory.slab base x
        | 4 ->
          let w = Int64.to_int x in
          Bytes.set_uint16_le mem.Memory.slab base (w land 0xffff);
          Bytes.set_uint16_le mem.Memory.slab (base + 2) ((w lsr 16) land 0xffff)
        | 2 -> Bytes.set_uint16_le mem.Memory.slab base (Int64.to_int x land 0xffff)
        | _ -> Bytes.set_uint8 mem.Memory.slab base (Int64.to_int x land 0xff)
      else Memory.store_word mem host.Host.arch.Arch.endianness p n x
    | Host.I_alloca (d, size, align) ->
      set_bits s d (Int64.of_int (Stack_alloc.alloc host.Host.stack size align))
    | Host.I_gep (d, base, const, dyn) ->
      (* Address arithmetic wraps at the native-int width. *)
      let p = ref (addr s base + const) in
      for j = 0 to Array.length dyn - 1 do
        let o, size = Array.unsafe_get dyn j in
        p := !p + (Int64.to_int (bits s o) * size)
      done;
      set_bits s d (Int64.of_int !p)
    | Host.I_call (name, c) ->
      result s c (call_by_name host ~depth:(frame.depth + 1) name (box_args s c 0))
    | Host.I_call_ind (fp, c) -> (
      let p = addr s fp in
      let argv = box_args s c 0 in
      match Fn_table.name_of host.Host.fn_table p with
      | name -> result s c (call_by_name host ~depth:(frame.depth + 1) name argv)
      | exception Fn_table.Not_a_function _ ->
        trap "indirect call through foreign or invalid address 0x%x" p)
    | Host.I_bswap (d, a, n, f32) ->
      if f32 then
        Array.unsafe_set s d
          (Int32.float_of_bits
             (Int64.to_int32
                (Scalar.bswap
                   (Int64.of_int32 (Int32.bits_of_float (Array.unsafe_get s a)))
                   4)))
      else
        let sg = 64 - (8 * n) in
        set_bits s d
          (Int64.shift_right (Int64.shift_left (Scalar.bswap (bits s a) n) sg) sg)
    | Host.I_fn_map (dir, d, a) ->
      set_bits s d (Value.to_int (eval_fn_map host dir (Value.VInt (bits s a))))
    | Host.I_asm ->
      (* Inline assembly runs only on its own machine; the filter keeps
         it off the server.  Behaviour: an opaque no-op. *)
      ()
  done;
  host.Host.clock.Host.now <-
    host.Host.clock.Host.now +. (b.Host.cb_term_cost *. host.Host.slowdown);
  host.Host.instr_count <- host.Host.instr_count + 1;
  match b.Host.cb_term with
  | Host.Ct_br next -> run_blocks frame next
  | Host.Ct_cbr (c, t, e) ->
    run_blocks frame (if Int64.equal (bits s c) 0L then e else t)
  | Host.Ct_switch (v, cases, default) ->
    let scrutinee = bits s v in
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
  | Host.Ct_ret (r, is_float) -> box s r is_float
  | Host.Ct_unreachable -> trap "%s: reached unreachable" fname

(* {1 Entry points} *)

let call host name argv =
  match Host.compiled host name with
  | Some compiled -> run_function host ~depth:1 compiled argv
  | None -> trap "no function %s in module %s" name host.Host.modul.Ir.m_name

let run_main host = call host "main" []
