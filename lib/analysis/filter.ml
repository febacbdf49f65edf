(* The machine-specific function filter (paper Section 3.1).

   "The filter considers an instruction machine specific if the
   instruction is one of the following: assembly instruction, system
   call, unknown external library call, I/O instruction.  [...] if the
   I/O functions are remotely executable through remote I/O functions,
   the filter excludes the I/O instructions from the machine specific
   instructions."

   Interactive input (the scan builtins) is never remotable (it needs
   the user);
   output and file I/O are remotable, so they do not disqualify a
   task, but we record them — the partitioner must rewrite them and
   the estimator should know the task will pay remote-I/O costs.
   Machine-specificity propagates up the call graph: a caller of a
   machine-specific function cannot be offloaded either. *)

module Ir = No_ir.Ir
module Builtins = No_ir.Builtins
module String_set = Callgraph.String_set
module String_map = Map.Make (String)

type reason =
  | Has_asm
  | Has_syscall
  | Has_unknown_external of string
  | Has_interactive_input of string
  | Calls_machine_specific of string

type verdict = {
  v_func : string;
  v_machine_specific : reason option;      (* None = offloadable *)
  v_output_io : String_set.t;              (* output builtins used *)
  v_file_io : String_set.t;                (* file builtins used *)
  v_uses_fn_ptr : bool;                    (* has indirect calls *)
}

let reason_to_string = function
  | Has_asm -> "contains inline assembly"
  | Has_syscall -> "performs a system call"
  | Has_unknown_external name -> "calls unknown external " ^ name
  | Has_interactive_input name -> "performs interactive input via " ^ name
  | Calls_machine_specific callee -> "calls machine-specific " ^ callee

let first_some a b = match a with Some _ -> a | None -> b

(* Intrinsic verdict for one function, ignoring callees. *)
let local_verdict (m : Ir.modul) (f : Ir.func) : verdict =
  let module_fn name = Ir.find_func m name <> None in
  let extern name = List.mem_assoc name m.Ir.m_externs in
  let result =
    Ir.fold_instrs
      (fun (specific, outputs, files) instr ->
        match instr with
        | Ir.Asm _ -> (Some Has_asm, outputs, files)
        | Ir.Assign (_, rv) | Ir.Effect rv -> (
          match rv with
          | Ir.Call (name, _) when not (module_fn name) -> (
            match Builtins.kind_of name with
            | Builtins.Syscall ->
              (first_some specific (Some Has_syscall), outputs, files)
            | Builtins.Input_io ->
              ( first_some specific (Some (Has_interactive_input name)),
                outputs, files )
            | Builtins.Unknown when not (extern name) ->
              ( first_some specific (Some (Has_unknown_external name)),
                outputs, files )
            | Builtins.Output_io ->
              (specific, String_set.add name outputs, files)
            | Builtins.File_io -> (specific, outputs, String_set.add name files)
            | Builtins.Alloc | Builtins.Dealloc | Builtins.Uva_alloc
            | Builtins.Uva_dealloc | Builtins.Remote_io | Builtins.Pure
            | Builtins.Memory | Builtins.Unknown ->
              (specific, outputs, files))
          | Ir.Call _ | Ir.Bin _ | Ir.Cmp _ | Ir.Cast _ | Ir.Select _
          | Ir.Load _ | Ir.Alloca _ | Ir.Gep _ | Ir.Call_ind _ | Ir.Bswap _
          | Ir.Fn_map _ -> (specific, outputs, files))
        | Ir.Store _ -> (specific, outputs, files))
      (None, String_set.empty, String_set.empty)
      f
  in
  let specific, outputs, files = result in
  {
    v_func = f.Ir.f_name;
    v_machine_specific = specific;
    v_output_io = outputs;
    v_file_io = files;
    v_uses_fn_ptr = Ir.has_indirect_call f;
  }

type t = verdict String_map.t

(* Full filter: propagate machine-specificity through the call graph
   to a fixpoint.  Indirect calls are *not* propagated through — the
   function-pointer mapping optimization (Section 3.4) makes indirect
   calls offloadable, and address-taken machine-specific functions are
   guarded at run time (the runtime traps a server-side indirect call
   into a machine-specific target; our workloads never do this, as the
   paper's evaluation programs never do). *)
let analyze (m : Ir.modul) : t =
  let base =
    List.fold_left
      (fun acc (f : Ir.func) ->
        String_map.add f.Ir.f_name (local_verdict m f) acc)
      String_map.empty m.Ir.m_funcs
  in
  let cg = Callgraph.build m in
  let rec fixpoint verdicts =
    let verdicts', changed =
      String_map.fold
        (fun name v (acc, changed) ->
          match v.v_machine_specific with
          | Some _ -> (acc, changed)
          | None -> (
            let bad_callee =
              String_set.fold
                (fun callee found ->
                  match found with
                  | Some _ -> found
                  | None -> (
                    match String_map.find_opt callee acc with
                    | Some cv when cv.v_machine_specific <> None -> Some callee
                    | Some _ | None -> None))
                (Callgraph.callees_of cg name)
                None
            in
            match bad_callee with
            | Some callee ->
              ( String_map.add name
                  { v with v_machine_specific = Some (Calls_machine_specific callee) }
                  acc,
                true )
            | None -> (acc, changed)))
        verdicts (verdicts, false)
    in
    if changed then fixpoint verdicts' else verdicts'
  in
  fixpoint base

let verdict_of (t : t) name = String_map.find_opt name t

let is_offloadable (t : t) name =
  match String_map.find_opt name t with
  | Some v -> v.v_machine_specific = None
  | None -> false
