(** Instruction cost classification.

    The interpreter charges each executed IR instruction the cycle
    cost of its class under the executing device's cost model;
    simulated time advances by cycles / clock.  Two artifact-removal
    rules keep interpreted costs close to native ones: pointer
    reinterpretation casts are free, and multiplication by a
    power-of-two constant prices as ALU (strength reduction). *)

val class_of_rvalue : No_ir.Ir.rvalue -> Arch.instr_class
val class_of_instr : No_ir.Ir.instr -> Arch.instr_class
val class_of_terminator : No_ir.Ir.terminator -> Arch.instr_class

val cycles_of : Arch.t -> Arch.instr_class -> float
val seconds_of : Arch.t -> Arch.instr_class -> float

val seconds_per_byte : Arch.t -> float
(** Bulk-copy rate for memcpy/memset-style builtins. *)
