(** The machine-specific function filter (paper §3.1).

    A function cannot be offloaded if it contains inline assembly,
    performs a system call, calls an unknown external, performs
    interactive input — or (transitively) calls a function that does.
    Output and file I/O do {e not} disqualify: the remote-I/O rewrite
    (§3.4) makes them server-executable; they are recorded so the
    partitioner knows to rewrite them. *)

module String_set = Callgraph.String_set
module String_map : Map.S with type key = string

type reason =
  | Has_asm
  | Has_syscall
  | Has_unknown_external of string
  | Has_interactive_input of string
  | Calls_machine_specific of string

type verdict = {
  v_func : string;
  v_machine_specific : reason option;  (** [None] = offloadable *)
  v_output_io : String_set.t;          (** output builtins used *)
  v_file_io : String_set.t;            (** file builtins used *)
  v_uses_fn_ptr : bool;                (** has indirect calls *)
}

type t = verdict String_map.t

val reason_to_string : reason -> string

val local_verdict : No_ir.Ir.modul -> No_ir.Ir.func -> verdict
(** Intrinsic verdict, ignoring callees. *)

val analyze : No_ir.Ir.modul -> t
(** Full analysis: machine-specificity propagated through the call
    graph to a fixpoint. *)

val verdict_of : t -> string -> verdict option
val is_offloadable : t -> string -> bool
