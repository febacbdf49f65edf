(* Instruction cost classification.

   The interpreter charges each executed IR instruction the cycle cost
   of its class under the executing device's cost model; simulated time
   advances by cycles / clock.  Builtin calls carge an additional body
   cost (their work is not expressed in IR instructions). *)

open No_ir

(* Multiplication by a power-of-two constant is strength-reduced to a
   shift by any real back end. *)
let is_pow2_const (op : Ir.operand) =
  match op with
  | Ir.Int (v, _) -> Int64.compare v 0L > 0 && Int64.logand v (Int64.pred v) = 0L
  | Ir.Reg _ | Ir.Float _ | Ir.Null _ | Ir.Global _ | Ir.Fn_addr _ -> false

let class_of_rvalue (rv : Ir.rvalue) : Arch.instr_class =
  match rv with
  | Ir.Bin (op, a, b) -> (
    match op with
    | Ir.Mul ->
      if is_pow2_const a || is_pow2_const b then Arch.Cls_alu
      else Arch.Cls_mul
    | Ir.Sdiv | Ir.Udiv | Ir.Srem | Ir.Urem -> Arch.Cls_div
    | Ir.Fadd | Ir.Fsub | Ir.Fmul -> Arch.Cls_fpu
    | Ir.Fdiv -> Arch.Cls_fdiv
    | Ir.Add | Ir.Sub | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Lshr
    | Ir.Ashr -> Arch.Cls_alu)
  | Ir.Cast ((Ir.Bitcast | Ir.Ptr_to_int | Ir.Int_to_ptr), _, _, _) ->
    (* Pure reinterpretations: free in hardware. *)
    Arch.Cls_free
  | Ir.Cmp _ | Ir.Cast _ | Ir.Select _ | Ir.Bswap _ -> Arch.Cls_alu
  | Ir.Load _ -> Arch.Cls_load
  | Ir.Alloca _ -> Arch.Cls_alu
  | Ir.Gep _ -> Arch.Cls_alu
  | Ir.Call _ | Ir.Call_ind _ -> Arch.Cls_call
  | Ir.Fn_map _ ->
    (* The table lookup itself; the runtime adds the translation
       bookkeeping cost (Figure 7's "function pointer translation"). *)
    Arch.Cls_load

let class_of_instr (instr : Ir.instr) : Arch.instr_class =
  match instr with
  | Ir.Assign (_, rv) | Ir.Effect rv -> class_of_rvalue rv
  | Ir.Store _ -> Arch.Cls_store
  | Ir.Asm _ -> Arch.Cls_alu

let class_of_terminator (term : Ir.terminator) : Arch.instr_class =
  match term with
  | Ir.Br _ | Ir.Cbr _ | Ir.Switch _ -> Arch.Cls_branch
  | Ir.Ret _ | Ir.Unreachable -> Arch.Cls_branch

let cycles_of (arch : Arch.t) (cls : Arch.instr_class) : float =
  arch.Arch.cost.Arch.cpi cls

let seconds_of (arch : Arch.t) (cls : Arch.instr_class) : float =
  cycles_of arch cls /. arch.Arch.cost.Arch.clock_hz

(* Per-byte time for memcpy/memset-style builtins. *)
let seconds_per_byte (arch : Arch.t) : float =
  cycles_of arch Arch.Cls_load /. 8.0 /. arch.Arch.cost.Arch.clock_hz
