(* The partitioner (paper Section 3.3, Figure 3(b)/(c)).

   From the unified module and the selected targets it produces:

   Mobile partition — for every target f, a dispatch wrapper

       __dispatch$f(args):
         if __should_offload$f():      // dynamic estimation (runtime)
           return __offload$f(args)    // offloading execution (runtime)
         else:
           return f(args)              // local execution

   and every direct call to f is redirected to the wrapper — the
   compiled form of Figure 3(b) lines 33-41.

   Server partition — for every target f, a typed unmarshalling stub
   __serve$f (receives arguments from the runtime's argument queue,
   calls f, posts the return value), plus the dispatcher

       __listen_client():
         while (id = __accept_offload()) >= 0:
           switch id: case ID_f: __serve$f()

   which is Figure 3(c) lines 27-41, and unused-function removal
   (getPlayerTurn is deleted, line 66-67).  Stack reallocation is the
   runtime's responsibility: the server host allocates frames from the
   server stack region of the UVA space. *)

module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Reachability = No_analysis.Reachability

let dispatch_name f = "__dispatch$" ^ f
let should_offload_prefix = "__should_offload$"
let should_offload_extern f = should_offload_prefix ^ f
let offload_prefix = "__offload$"
let offload_extern f = offload_prefix ^ f
let serve_name f = "__serve$" ^ f
let listener_name = "__listen_client"
let accept_extern = "__accept_offload"
let arg_i64_extern = "__arg_i64"
let arg_f64_extern = "__arg_f64"
let ret_i64_extern = "__ret_i64"
let ret_f64_extern = "__ret_f64"
let ret_void_extern = "__ret_void"

type target = {
  t_name : string;
  t_id : int;
}

type result = {
  p_mobile : Ir.modul;
  p_server : Ir.modul;
  p_targets : target list;
  p_removed : string list;       (* functions removed server-side *)
}

let server_externs =
  [
    (accept_extern, Ty.signature [] Ty.I64);
    (arg_i64_extern, Ty.signature [ Ty.I64 ] Ty.I64);
    (arg_f64_extern, Ty.signature [ Ty.I64 ] Ty.F64);
    (ret_i64_extern, Ty.signature [ Ty.I64 ] Ty.Void);
    (ret_f64_extern, Ty.signature [ Ty.F64 ] Ty.Void);
    (ret_void_extern, Ty.signature [] Ty.Void);
  ]

(* {1 Mobile side} *)

let make_dispatch (f : Ir.func) : Ir.func =
  let params = List.map snd f.Ir.f_params in
  let args = List.map (fun (r, _) -> Ir.Reg r) f.Ir.f_params in
  let supply = { Ir.next = List.length params } in
  let fresh () = Ir.fresh_reg supply in
  let decision = fresh () in
  let is_void = Ty.equal f.Ir.f_ret Ty.Void in
  let call_into target_label call_name =
    if is_void then
      {
        Ir.label = target_label;
        Ir.instrs = [ Ir.Effect (Ir.Call (call_name, args)) ];
        Ir.term = Ir.Ret None;
      }
    else
      let r = fresh () in
      {
        Ir.label = target_label;
        Ir.instrs = [ Ir.Assign (r, Ir.Call (call_name, args)) ];
        Ir.term = Ir.Ret (Some (Ir.Reg r));
      }
  in
  let entry =
    {
      Ir.label = "entry";
      Ir.instrs =
        [ Ir.Assign (decision, Ir.Call (should_offload_extern f.Ir.f_name, [])) ];
      Ir.term = Ir.Cbr (Ir.Reg decision, "offload", "local");
    }
  in
  let blocks =
    [
      entry;
      call_into "offload" (offload_extern f.Ir.f_name);
      call_into "local" f.Ir.f_name;
    ]
  in
  {
    Ir.f_name = dispatch_name f.Ir.f_name;
    Ir.f_params = f.Ir.f_params;
    Ir.f_ret = f.Ir.f_ret;
    Ir.f_blocks = blocks;
    Ir.f_nregs = supply.Ir.next;
  }

let mobile_partition (m : Ir.modul) (targets : target list) : Ir.modul =
  let target_names = List.map (fun t -> t.t_name) targets in
  let rename name =
    if List.mem name target_names then Some (dispatch_name name) else None
  in
  let redirected = List.map (Rewrite.rename_calls ~rename) m.Ir.m_funcs in
  let dispatchers =
    List.map
      (fun t -> make_dispatch (Ir.find_func_exn m t.t_name))
      targets
  in
  let externs =
    List.concat_map
      (fun t ->
        let f = Ir.find_func_exn m t.t_name in
        let sg = Ty.signature (List.map snd f.Ir.f_params) f.Ir.f_ret in
        [
          (should_offload_extern t.t_name, Ty.signature [] Ty.I8);
          (offload_extern t.t_name, sg);
        ])
      targets
  in
  {
    m with
    Ir.m_funcs = redirected @ dispatchers;
    Ir.m_externs = m.Ir.m_externs @ externs;
  }

(* {1 Server side} *)

let make_serve (f : Ir.func) : Ir.func =
  let supply = { Ir.next = 0 } in
  let fresh () = Ir.fresh_reg supply in
  let instrs = ref [] in
  let emit i = instrs := i :: !instrs in
  let unmarshal k (ty : Ty.t) : Ir.operand =
    match ty with
    | Ty.I64 ->
      let r = fresh () in
      emit (Ir.Assign (r, Ir.Call (arg_i64_extern, [ Ir.Int (Int64.of_int k, Ty.I64) ])));
      Ir.Reg r
    | Ty.I8 | Ty.I16 | Ty.I32 ->
      let raw = fresh () and r = fresh () in
      emit (Ir.Assign (raw, Ir.Call (arg_i64_extern, [ Ir.Int (Int64.of_int k, Ty.I64) ])));
      emit (Ir.Assign (r, Ir.Cast (Ir.Trunc, Ty.I64, Ir.Reg raw, ty)));
      Ir.Reg r
    | Ty.F64 ->
      let r = fresh () in
      emit (Ir.Assign (r, Ir.Call (arg_f64_extern, [ Ir.Int (Int64.of_int k, Ty.I64) ])));
      Ir.Reg r
    | Ty.F32 ->
      let raw = fresh () and r = fresh () in
      emit (Ir.Assign (raw, Ir.Call (arg_f64_extern, [ Ir.Int (Int64.of_int k, Ty.I64) ])));
      emit (Ir.Assign (r, Ir.Cast (Ir.Fp_trunc, Ty.F64, Ir.Reg raw, ty)));
      Ir.Reg r
    | Ty.Ptr _ | Ty.Fn_ptr _ ->
      let raw = fresh () and r = fresh () in
      emit (Ir.Assign (raw, Ir.Call (arg_i64_extern, [ Ir.Int (Int64.of_int k, Ty.I64) ])));
      emit (Ir.Assign (r, Ir.Cast (Ir.Int_to_ptr, Ty.I64, Ir.Reg raw, ty)));
      Ir.Reg r
    | Ty.Struct _ | Ty.Array _ | Ty.Void ->
      invalid_arg "Partition.make_serve: non-scalar parameter"
  in
  let args = List.mapi (fun k (_, ty) -> unmarshal k ty) f.Ir.f_params in
  (match f.Ir.f_ret with
  | Ty.Void ->
    emit (Ir.Effect (Ir.Call (f.Ir.f_name, args)));
    emit (Ir.Effect (Ir.Call (ret_void_extern, [])))
  | Ty.F64 ->
    let r = fresh () in
    emit (Ir.Assign (r, Ir.Call (f.Ir.f_name, args)));
    emit (Ir.Effect (Ir.Call (ret_f64_extern, [ Ir.Reg r ])))
  | Ty.F32 ->
    let r = fresh () and widened = fresh () in
    emit (Ir.Assign (r, Ir.Call (f.Ir.f_name, args)));
    emit (Ir.Assign (widened, Ir.Cast (Ir.Fp_ext, Ty.F32, Ir.Reg r, Ty.F64)));
    emit (Ir.Effect (Ir.Call (ret_f64_extern, [ Ir.Reg widened ])))
  | Ty.I64 ->
    let r = fresh () in
    emit (Ir.Assign (r, Ir.Call (f.Ir.f_name, args)));
    emit (Ir.Effect (Ir.Call (ret_i64_extern, [ Ir.Reg r ])))
  | Ty.I8 | Ty.I16 | Ty.I32 ->
    let r = fresh () and widened = fresh () in
    emit (Ir.Assign (r, Ir.Call (f.Ir.f_name, args)));
    emit (Ir.Assign (widened, Ir.Cast (Ir.Sext, f.Ir.f_ret, Ir.Reg r, Ty.I64)));
    emit (Ir.Effect (Ir.Call (ret_i64_extern, [ Ir.Reg widened ])))
  | Ty.Ptr _ | Ty.Fn_ptr _ ->
    let r = fresh () and as_int = fresh () in
    emit (Ir.Assign (r, Ir.Call (f.Ir.f_name, args)));
    emit (Ir.Assign (as_int, Ir.Cast (Ir.Ptr_to_int, f.Ir.f_ret, Ir.Reg r, Ty.I64)));
    emit (Ir.Effect (Ir.Call (ret_i64_extern, [ Ir.Reg as_int ])))
  | Ty.Struct _ | Ty.Array _ ->
    invalid_arg "Partition.make_serve: non-scalar return");
  {
    Ir.f_name = serve_name f.Ir.f_name;
    Ir.f_params = [];
    Ir.f_ret = Ty.Void;
    Ir.f_blocks =
      [ { Ir.label = "entry"; Ir.instrs = List.rev !instrs; Ir.term = Ir.Ret None } ];
    Ir.f_nregs = supply.Ir.next;
  }

let make_listener (targets : target list) : Ir.func =
  let supply = { Ir.next = 0 } in
  let id = Ir.fresh_reg supply in
  let cond = Ir.fresh_reg supply in
  let case_label t = Printf.sprintf "case.%s" t.t_name in
  let header =
    {
      Ir.label = "listen.cond";
      Ir.instrs =
        [
          Ir.Assign (id, Ir.Call (accept_extern, []));
          Ir.Assign (cond, Ir.Cmp (Ir.Sge, Ir.Reg id, Ir.Int (0L, Ty.I64)));
        ];
      Ir.term = Ir.Cbr (Ir.Reg cond, "dispatch", "listen.end");
    }
  in
  let dispatch =
    {
      Ir.label = "dispatch";
      Ir.instrs = [];
      Ir.term =
        Ir.Switch
          ( Ir.Reg id,
            List.map (fun t -> (Int64.of_int t.t_id, case_label t)) targets,
            "bad.target" );
    }
  in
  let cases =
    List.map
      (fun t ->
        {
          Ir.label = case_label t;
          Ir.instrs = [ Ir.Effect (Ir.Call (serve_name t.t_name, [])) ];
          Ir.term = Ir.Br "listen.cond";
        })
      targets
  in
  let bad =
    { Ir.label = "bad.target"; Ir.instrs = []; Ir.term = Ir.Unreachable }
  in
  let finish =
    { Ir.label = "listen.end"; Ir.instrs = []; Ir.term = Ir.Ret None }
  in
  {
    Ir.f_name = listener_name;
    Ir.f_params = [];
    Ir.f_ret = Ty.Void;
    Ir.f_blocks = [ header; dispatch ] @ cases @ [ bad; finish ];
    Ir.f_nregs = supply.Ir.next;
  }

let server_partition (m : Ir.modul) (targets : target list) :
    Ir.modul * string list =
  let serves =
    List.map (fun t -> make_serve (Ir.find_func_exn m t.t_name)) targets
  in
  let listener = make_listener targets in
  let with_stubs =
    {
      m with
      Ir.m_funcs = m.Ir.m_funcs @ serves @ [ listener ];
      Ir.m_externs = m.Ir.m_externs @ server_externs;
    }
  in
  Reachability.remove_unused with_stubs ~roots:[ listener_name ]

(* {1 Driver} *)

let run (m : Ir.modul) ~(targets : string list) : result =
  let targets =
    List.mapi (fun i name -> { t_name = name; t_id = i + 1 }) targets
  in
  List.iter
    (fun t ->
      match Ir.find_func m t.t_name with
      | Some _ -> ()
      | None ->
        invalid_arg
          (Printf.sprintf "Partition.run: unknown target %s" t.t_name))
    targets;
  let p_mobile = mobile_partition m targets in
  let p_server, p_removed = server_partition m targets in
  { p_mobile; p_server; p_targets = targets; p_removed }
