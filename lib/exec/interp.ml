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
   itself.  A frame's slots are a flat [float array], so an integer
   slot is read and written in place as the 8 bytes it occupies, with
   the compiler's own unaligned-word primitives: no C call (as
   [Int64.bits_of_float] is) and no allocation.  Native byte order on
   both sides makes the bits those of [Int64.bits_of_float].  [bits]
   and [set_bits] are inlined; pass [set_bits] a plain expression, not
   a [match]: a [match] bound to an inlined function's parameter is
   boxed in every arm (without flambda, a boxed number crossing a
   function return is allocated). *)

external get64 : float array -> int -> int64 = "%caml_bytes_get64u"
external set64 : float array -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The view needs float arrays stored flat, OCaml's default; a compiler
   configured with -no-flat-float-array boxes each element. *)
let () =
  if Obj.tag (Obj.repr (Array.make 1 0.0)) <> Obj.double_array_tag then
    failwith
      "No_exec.Interp: float arrays are not flat (compiler configured \
       with -no-flat-float-array); the slot view needs them flat"

let[@inline] bits s i = get64 s (i lsl 3)
let[@inline] set_bits s i x = set64 s (i lsl 3) x

(* A compare's outcome: the integer 1 or 0. *)
let[@inline] set_flag s i c = set64 s (i lsl 3) (if c then 1L else 0L)

(* An integer slot as a non-negative address, as {!Value.to_addr}. *)
let[@inline] addr s i =
  let a = bits s i in
  if a < 0L then raise (Value.Type_trap "negative address");
  Int64.to_int a

(* A division's right operand, trapping on zero. *)
let[@inline] divisor s i =
  let y = bits s i in
  if y = 0L then trap "division by zero";
  y

(* Unsigned order is signed order shifted by 2^63. *)
let[@inline] unsigned x = Int64.sub x Int64.min_int

let box s i is_float =
  if is_float then Value.VFloat (Array.unsafe_get s i) else Value.VInt (bits s i)

(* A value entering the frame; one of the other kind raises
   {!Value.Type_trap} here.  Values enter rarely, so the slot index
   stays bounds-checked. *)
let unbox s i is_float v =
  if is_float then s.(i) <- Value.to_float v
  else if i < Array.length s then set_bits s i (Value.to_int v)
  else invalid_arg "index out of bounds"

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
   it computes is boxed, and each costs one dispatch and one clock add.

   Fuel and the instruction count are settled once per block.  Under a
   fuel limit a block runs only if the fuel left covers its
   instructions and its terminator, and is debited for all of them
   before any runs; otherwise [Out_of_fuel] is raised and none runs.
   The count takes the whole block up front and gives back, if an
   instruction raises, the ones after it (the one that raised counts,
   as does a terminator that traps). *)
and run_blocks frame idx : Value.t =
  let host = frame.host in
  let s = frame.slots in
  let b = frame.func.Host.c_blocks.(idx) in
  let instrs = b.Host.cb_instrs in
  let n = Array.length instrs in
  let fuel = host.Host.fuel in
  if fuel >= 0 then begin
    if fuel <= n then raise Out_of_fuel;
    host.Host.fuel <- fuel - n - 1
  end;
  (match host.Host.hooks.Host.on_block with
  | Some on_block -> on_block frame.func.Host.c_func.Ir.f_name b.Host.cb_label
  | None -> ());
  host.Host.instr_count <- host.Host.instr_count + n + 1;
  let little = host.Host.arch.Arch.endianness = Arch.Little in
  let costs = b.Host.cb_costs in
  let clock = host.Host.clock in
  let i = ref 0 in
  (match
     while !i < n do
       (* Charge (precomputed seconds x slowdown: the very floats
          [Host.charge] adds, so the clock is bit-identical), then
          execute. *)
       clock.Host.now <-
         clock.Host.now +. (Array.unsafe_get costs !i *. host.Host.slowdown);
       (match Array.unsafe_get instrs !i with
       | Host.I_add (d, a, b) -> set_bits s d (Int64.add (bits s a) (bits s b))
       | Host.I_sub (d, a, b) -> set_bits s d (Int64.sub (bits s a) (bits s b))
       | Host.I_mul (d, a, b) -> set_bits s d (Int64.mul (bits s a) (bits s b))
       | Host.I_sdiv (d, a, b) ->
         set_bits s d (Int64.div (bits s a) (divisor s b))
       | Host.I_udiv (d, a, b) ->
         set_bits s d (Int64.unsigned_div (bits s a) (divisor s b))
       | Host.I_srem (d, a, b) ->
         set_bits s d (Int64.rem (bits s a) (divisor s b))
       | Host.I_urem (d, a, b) ->
         set_bits s d (Int64.unsigned_rem (bits s a) (divisor s b))
       | Host.I_and (d, a, b) -> set_bits s d (Int64.logand (bits s a) (bits s b))
       | Host.I_or (d, a, b) -> set_bits s d (Int64.logor (bits s a) (bits s b))
       | Host.I_xor (d, a, b) -> set_bits s d (Int64.logxor (bits s a) (bits s b))
       | Host.I_shl (d, a, b) ->
         set_bits s d
           (Int64.shift_left (bits s a) (Int64.to_int (bits s b) land 63))
       | Host.I_lshr (d, a, b) ->
         set_bits s d
           (Int64.shift_right_logical (bits s a) (Int64.to_int (bits s b) land 63))
       | Host.I_ashr (d, a, b) ->
         set_bits s d
           (Int64.shift_right (bits s a) (Int64.to_int (bits s b) land 63))
       | Host.I_fadd (d, a, b) ->
         Array.unsafe_set s d (Array.unsafe_get s a +. Array.unsafe_get s b)
       | Host.I_fsub (d, a, b) ->
         Array.unsafe_set s d (Array.unsafe_get s a -. Array.unsafe_get s b)
       | Host.I_fmul (d, a, b) ->
         Array.unsafe_set s d (Array.unsafe_get s a *. Array.unsafe_get s b)
       | Host.I_fdiv (d, a, b) ->
         Array.unsafe_set s d (Array.unsafe_get s a /. Array.unsafe_get s b)
       | Host.I_eq (d, a, b) -> set_flag s d (bits s a = bits s b)
       | Host.I_ne (d, a, b) -> set_flag s d (bits s a <> bits s b)
       | Host.I_slt (d, a, b) -> set_flag s d (bits s a < bits s b)
       | Host.I_sle (d, a, b) -> set_flag s d (bits s a <= bits s b)
       | Host.I_sgt (d, a, b) -> set_flag s d (bits s a > bits s b)
       | Host.I_sge (d, a, b) -> set_flag s d (bits s a >= bits s b)
       | Host.I_ult (d, a, b) ->
         set_flag s d (unsigned (bits s a) < unsigned (bits s b))
       | Host.I_ule (d, a, b) ->
         set_flag s d (unsigned (bits s a) <= unsigned (bits s b))
       | Host.I_ugt (d, a, b) ->
         set_flag s d (unsigned (bits s a) > unsigned (bits s b))
       | Host.I_uge (d, a, b) ->
         set_flag s d (unsigned (bits s a) >= unsigned (bits s b))
       (* IEEE compares: a NaN is unequal to everything, itself too. *)
       | Host.I_feq (d, a, b) ->
         set_flag s d (Array.unsafe_get s a = Array.unsafe_get s b)
       | Host.I_fne (d, a, b) ->
         set_flag s d (Array.unsafe_get s a <> Array.unsafe_get s b)
       | Host.I_flt (d, a, b) ->
         set_flag s d (Array.unsafe_get s a < Array.unsafe_get s b)
       | Host.I_fle (d, a, b) ->
         set_flag s d (Array.unsafe_get s a <= Array.unsafe_get s b)
       | Host.I_fgt (d, a, b) ->
         set_flag s d (Array.unsafe_get s a > Array.unsafe_get s b)
       | Host.I_fge (d, a, b) ->
         set_flag s d (Array.unsafe_get s a >= Array.unsafe_get s b)
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
           (Array.unsafe_get s (if bits s c = 0L then b else a))
       | Host.I_load (d, a, n, sg, f32) ->
         let p = addr s a in
         (* A little-endian host reads a word inside one page straight
            off the slab: [load_base] performs the checks, touch,
            translation and fault service, and hands back an offset
            instead of a boxed word.  Page-straddling words and
            big-endian hosts take [Memory.load_word]. *)
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
           | 2 ->
             Bytes.set_uint16_le mem.Memory.slab base (Int64.to_int x land 0xffff)
           | _ -> Bytes.set_uint8 mem.Memory.slab base (Int64.to_int x land 0xff)
         else Memory.store_word mem host.Host.arch.Arch.endianness p n x
       | Host.I_alloca (d, size, align) ->
         set_bits s d (Int64.of_int (Stack_alloc.alloc host.Host.stack size align))
       (* Address arithmetic wraps at the native-int width. *)
       | Host.I_gep1 (d, base, const, o, size) ->
         set_bits s d
           (Int64.of_int (addr s base + const + (Int64.to_int (bits s o) * size)))
       | Host.I_gep (d, base, const, dyn) ->
         let p = ref (addr s base + const) in
         for j = 0 to Array.length dyn - 1 do
           let o, size = Array.unsafe_get dyn j in
           p := !p + (Int64.to_int (bits s o) * size)
         done;
         set_bits s d (Int64.of_int !p)
       | Host.I_call (name, c) ->
         result s c
           (call_by_name host ~depth:(frame.depth + 1) name (box_args s c 0))
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
         (* Inline assembly runs only on its own machine; the filter
            keeps it off the server.  Behaviour: an opaque no-op. *)
         ());
       incr i
     done
   with
  | () -> ()
  | exception e ->
    host.Host.instr_count <- host.Host.instr_count - (n - !i);
    raise e);
  clock.Host.now <- clock.Host.now +. (b.Host.cb_term_cost *. host.Host.slowdown);
  match b.Host.cb_term with
  | Host.Ct_br next -> run_blocks frame next
  | Host.Ct_cbr (c, t, e) -> run_blocks frame (if bits s c = 0L then e else t)
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
  | Host.Ct_unreachable ->
    trap "%s: reached unreachable" frame.func.Host.c_func.Ir.f_name

(* {1 Entry points} *)

let call host name argv =
  match Host.compiled host name with
  | Some compiled -> run_function host ~depth:1 compiled argv
  | None -> trap "no function %s in module %s" name host.Host.modul.Ir.m_name

let run_main host = call host "main" []
