(* Referenced global variable reallocation (paper Section 3.2,
   Figure 3(b) lines 11/17/19).

   Back-end compilers place globals at device-specific native
   addresses, so a pointer to a mobile global dereferenced on the
   server would read the wrong object.  The pass moves every
   *referenced* global to the UVA heap: the original global @g is
   replaced by a slot global @g__re of pointer type; main's entry
   gains a call to the runtime's __uva_init_global$g (which allocates
   UVA space, writes g's original initializer, and returns the
   address); every use of @g becomes a load of the slot.

   At offload initialization the runtime copies the slot values to the
   server's own slots — the server partition never executes main. *)

module Ir = No_ir.Ir
module Ty = No_ir.Ty
module String_set = Set.Make (String)

let slot_name g = g ^ "__re"
let init_prefix = "__uva_init_global$"
let init_extern g = init_prefix ^ g

type stats = {
  reallocated : string list;          (* globals moved to UVA *)
  untouched : string list;            (* never-referenced globals *)
}

(* Globals referenced by any instruction operand in any function. *)
let referenced_globals (m : Ir.modul) : String_set.t =
  List.fold_left
    (fun acc (f : Ir.func) ->
      Ir.fold_instrs
        (fun acc instr ->
          List.fold_left
            (fun acc op ->
              match op with
              | Ir.Global name -> String_set.add name acc
              | Ir.Reg _ | Ir.Int _ | Ir.Float _ | Ir.Null _ | Ir.Fn_addr _ ->
                acc)
            acc
            (Ir.operands_of_instr instr))
        acc f)
    String_set.empty m.Ir.m_funcs

let run (m : Ir.modul) : Ir.modul * stats =
  let referenced = referenced_globals m in
  let moved, kept =
    List.partition
      (fun (g : Ir.global) -> String_set.mem g.Ir.g_name referenced)
      m.Ir.m_globals
  in
  let slot_of =
    List.fold_left
      (fun acc (g : Ir.global) ->
        (g.Ir.g_name, (slot_name g.Ir.g_name, g.Ir.g_ty)) :: acc)
      [] moved
  in
  (* Slot globals: @g__re : ty*, zero-initialized. *)
  let slots =
    List.map
      (fun (g : Ir.global) ->
        {
          Ir.g_name = slot_name g.Ir.g_name;
          Ir.g_ty = Ty.Ptr g.Ir.g_ty;
          Ir.g_init = Ir.Zero_init;
        })
      moved
  in
  (* Rewrite uses: Global g  ==>  load ptr-to-ty @g__re. *)
  let rewrite supply op =
    match op with
    | Ir.Global name -> (
      match List.assoc_opt name slot_of with
      | None -> None
      | Some (slot, ty) ->
        let r = Ir.fresh_reg supply in
        Some
          ( [ Ir.Assign (r, Ir.Load (Ty.Ptr ty, Ir.Global slot)) ],
            Ir.Reg r ))
    | Ir.Reg _ | Ir.Int _ | Ir.Float _ | Ir.Null _ | Ir.Fn_addr _ -> None
  in
  let funcs =
    List.map (Rewrite.rewrite_operands ~rewrite) m.Ir.m_funcs
  in
  (* Prepend the slot initialization to main's entry block. *)
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        if not (String.equal f.Ir.f_name "main") then f
        else
          let supply = Ir.reg_supply_of_func f in
          let init_instrs =
            List.concat_map
              (fun (g : Ir.global) ->
                let r = Ir.fresh_reg supply in
                [
                  Ir.Assign (r, Ir.Call (init_extern g.Ir.g_name, []));
                  Ir.Store
                    ( Ty.Ptr g.Ir.g_ty,
                      Ir.Reg r,
                      Ir.Global (slot_name g.Ir.g_name) );
                ])
              moved
          in
          match f.Ir.f_blocks with
          | entry :: rest ->
            {
              f with
              Ir.f_blocks =
                { entry with Ir.instrs = init_instrs @ entry.Ir.instrs }
                :: rest;
              Ir.f_nregs = supply.Ir.next;
            }
          | [] -> f)
      funcs
  in
  let externs =
    List.map
      (fun (g : Ir.global) ->
        (init_extern g.Ir.g_name, Ty.signature [] (Ty.Ptr g.Ir.g_ty)))
      moved
  in
  ( {
      m with
      Ir.m_globals = kept @ slots;
      Ir.m_funcs = funcs;
      Ir.m_externs = m.Ir.m_externs @ externs;
      Ir.m_uva_globals = m.Ir.m_uva_globals @ moved;
    },
    {
      reallocated = List.map (fun (g : Ir.global) -> g.Ir.g_name) moved;
      untouched = List.map (fun (g : Ir.global) -> g.Ir.g_name) kept;
    } )
