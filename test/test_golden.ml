(* Golden local runs: two MD5 digests that pin what the interpreter
   computes, so a change to how it evaluates can show that it changed
   no result.

   - Registry runs: every [Registry.spec] and [Registry.synthetic]
     program on its profile input through [Local_run.run], under four
     architectures.  Each run contributes its console, return value,
     instruction count and the bits of its simulated time.
   - Opcode grid: every binop, compare, cast, bswap, select, gep, load
     and store on edge operands, on a little- and a big-endian 32-bit
     host and a 64-bit one.  Each case runs alone, on constant
     operands, and again chained: its operands and its result pass
     through a run of integer moves.  A case contributes its result as
     a bit pattern (or its trap), the bytes around its store, and the
     instruction count and clock bits after it.

   Both digests were recorded before the interpreter moved to one
   unboxed register file.  The grid's was recorded again when
   [inttoptr] began zero-filling a narrower integer, as LLVM does:
   only the result bits of the inttoptr rows whose source has its top
   bit set moved.

   A third digest pins what offloaded sessions report: every
   [Session.report] field of 101 runs covering the configurations,
   fault plans, migration scenarios and a filling admission queue.  It
   was recorded while the session still kept its own overhead counters
   beside the trace fold.

   A fourth pins the rendered ablation tables, byte for byte what
   [offload-cli report ablations] prints; it was recorded when they
   moved there from the bench harness. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Validate = No_ir.Validate
module Arch = No_arch.Arch
module Layout = No_arch.Layout
module Memory = No_mem.Memory
module Host = No_exec.Host
module Interp = No_exec.Interp
module Value = No_exec.Value
module Local_run = No_runtime.Local_run
module Session = No_runtime.Session
module Registry = No_workloads.Registry
module Compiler = Native_offloader.Compiler
module Experiment = Native_offloader.Experiment
module Evaluation = Native_offloader.Evaluation
module Table = No_report.Table
module Fault_plan = No_fault.Plan
module Server_load = No_sched.Server_load
module Sim = No_sched.Sim

let registry_md5 = "f4e757b4ae70b0b1fe46218fc0500dc8"
let grid_md5 = "57dc74c9bc728fd18a72d528164ba95d"
let sessions_md5 = "c95eeab7e4cbf6548a4b9e338b957b19"
let ablations_md5 = "4215223a09fb1b0e067d0d9daa779b10"

let value_bits (v : Value.t) =
  match v with
  | Value.VInt i -> Printf.sprintf "i%016Lx" i
  | Value.VFloat f -> Printf.sprintf "f%016Lx" (Int64.bits_of_float f)

let registry_text () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (arch : Arch.t) ->
      List.iter
        (fun (e : Registry.entry) ->
          let r =
            Local_run.run ~arch ~script:e.Registry.e_profile_script
              ~files:e.Registry.e_files (e.Registry.e_build ())
          in
          Printf.bprintf buf "%s %s %s %d %016Lx %s\n" arch.Arch.name
            e.Registry.e_name
            (value_bits r.Local_run.lr_result)
            r.Local_run.lr_instrs
            (Int64.bits_of_float r.Local_run.lr_total_s)
            (Digest.to_hex (Digest.string r.Local_run.lr_console)))
        (Registry.spec @ Registry.synthetic))
    [ Arch.arm32; Arch.x86_64; Arch.x86_32; Arch.arm32_be ];
  Buffer.contents buf

(* {1 The opcode grid} *)

let ints =
  [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x8000_0000L; 0xffff_ffffL;
    63L; 64L; 65L ]

let floats =
  [ 0.0; -0.0; 1.0; -1.0; infinity; neg_infinity; Float.nan;
    Int64.float_of_bits 0x7ff8_0000_0000_0123L;  (* NaN with a payload *)
    Int64.float_of_bits 1L;                      (* smallest subnormal *)
    0.1;                                         (* rounds as f32 *)
    16777217.0 ]                                 (* 2^24 + 1 *)

let pairs l = List.concat_map (fun a -> List.map (fun b -> (a, b)) l) l
let int_tys = [ Ty.I64; Ty.I32; Ty.I16; Ty.I8 ]
let float_tys = [ Ty.F64; Ty.F32 ]
let ptr = Ty.Ptr Ty.I8
let cint ty v = Ir.Int (v, ty)
let cfloat ty v = Ir.Float (v, ty)
let to_ptr fb ty v = B.cast fb Ir.Int_to_ptr ~src:Ty.I64 (cint Ty.I64 v) ~dst:ty

(* Edge operands of a scalar type, each with a printable name; pointers
   are edge integers cast to the type. *)
let operands (ty : Ty.t) : (string * (B.fb -> Ir.operand)) list =
  match ty with
  | Ty.F32 | Ty.F64 ->
    List.map (fun v -> (Printf.sprintf "%h" v, fun _ -> cfloat ty v)) floats
  | Ty.Ptr _ -> List.map (fun v -> (Int64.to_string v, fun fb -> to_ptr fb ty v)) ints
  | _ -> List.map (fun v -> (Int64.to_string v, fun _ -> cint ty v)) ints

(* Byte windows the memory cases store into: one inside the first page
   of [buf], and one whose words straddle its first page boundary
   ([buf] is the first global, so it starts on a page). *)
let aligned_off = 64
let straddle_off = 4093
let window = 24

(* A case emits its operation over operands passed through [pass] and
   returns its result, of type [c_ty]. *)
type case = {
  c_name : string;
  c_ty : Ty.t;
  c_mem : bool;                  (* record the byte windows after it *)
  c_emit : B.fb -> (Ty.t -> Ir.operand -> Ir.operand) -> Ir.operand;
}

let case ?(mem = false) c_ty fmt =
  Printf.ksprintf
    (fun c_name c_emit -> { c_name; c_ty; c_mem = mem; c_emit })
    fmt

let binops =
  let op name o ty =
    List.map
      (fun ((sa, a), (sb, b)) ->
        case ty "%s.%s.%s.%s" name (Ty.to_string ty) sa sb (fun fb pass ->
            B.bin fb o (pass ty (a fb)) (pass ty (b fb))))
      (pairs (operands ty))
  in
  List.concat_map
    (fun ty ->
      Ir.[ op "add" Add ty; op "sub" Sub ty; op "mul" Mul ty;
           op "sdiv" Sdiv ty; op "udiv" Udiv ty; op "srem" Srem ty;
           op "urem" Urem ty; op "and" And ty; op "or" Or ty; op "xor" Xor ty;
           op "shl" Shl ty; op "lshr" Lshr ty; op "ashr" Ashr ty ]
      |> List.concat)
    int_tys
  @ List.concat_map
      (fun ty ->
        List.concat
          Ir.[ op "fadd" Fadd ty; op "fsub" Fsub ty; op "fmul" Fmul ty;
               op "fdiv" Fdiv ty ])
      float_tys

let compares =
  let op name o ty values =
    List.map
      (fun ((sa, a), (sb, b)) ->
        case Ty.I8 "%s.%s.%s.%s" name (Ty.to_string ty) sa sb (fun fb pass ->
            B.cmp fb o (pass ty (a fb)) (pass ty (b fb))))
      (pairs values)
  in
  let few_ptrs =
    List.filteri (fun i _ -> i = 0 || i = 1 || i = 5 || i = 6) (operands ptr)
  in
  List.concat_map
    (fun (name, o) ->
      List.concat_map (fun ty -> op name o ty (operands ty)) [ Ty.I64; Ty.I32; Ty.I8 ]
      @ op name o ptr few_ptrs)
    Ir.[ ("eq", Eq); ("ne", Ne); ("slt", Slt); ("sle", Sle); ("sgt", Sgt);
         ("sge", Sge); ("ult", Ult); ("ule", Ule); ("ugt", Ugt); ("uge", Uge) ]
  @ List.concat_map
      (fun (name, o) ->
        List.concat_map (fun ty -> op name o ty (operands ty)) float_tys)
      Ir.[ ("feq", Feq); ("fne", Fne); ("flt", Flt); ("fle", Fle); ("fgt", Fgt);
           ("fge", Fge) ]

let casts =
  let cast name o src dst =
    List.map
      (fun (s, v) ->
        case dst "%s.%s.%s.%s" name (Ty.to_string src) (Ty.to_string dst) s
          (fun fb pass -> B.cast fb o ~src (pass src (v fb)) ~dst))
      (operands src)
  in
  let widenings =
    [ (Ty.I8, Ty.I8); (Ty.I8, Ty.I16); (Ty.I8, Ty.I32); (Ty.I8, Ty.I64);
      (Ty.I16, Ty.I32); (Ty.I32, Ty.I64); (Ty.I64, Ty.I64) ]
  in
  List.concat_map
    (fun (narrow, wide) ->
      cast "zext" Ir.Zext narrow wide
      @ cast "sext" Ir.Sext narrow wide
      @ cast "trunc" Ir.Trunc wide narrow)
    widenings
  @ List.concat_map
      (fun ity ->
        List.concat_map
          (fun fty ->
            cast "fptosi" Ir.Fp_to_si fty ity @ cast "sitofp" Ir.Si_to_fp ity fty)
          float_tys
        @ cast "ptrtoint" Ir.Ptr_to_int ptr ity
        @ cast "inttoptr" Ir.Int_to_ptr ity ptr)
      int_tys
  @ cast "fpext" Ir.Fp_ext Ty.F32 Ty.F64
  @ cast "fptrunc" Ir.Fp_trunc Ty.F64 Ty.F32
  @ cast "bitcast" Ir.Bitcast ptr (Ty.Ptr Ty.I64)

let bswaps =
  List.concat_map
    (fun ty ->
      let extra =
        if Ty.is_integer ty then [ ("pattern", fun _ -> cint ty 0x0102_0304_0506_0708L) ]
        else []
      in
      List.map
        (fun (s, v) ->
          case ty "bswap.%s.%s" (Ty.to_string ty) s (fun fb pass ->
              B.rval fb (Ir.Bswap (ty, pass ty (v fb)))))
        (extra @ operands ty))
    (int_tys @ float_tys)

let selects =
  List.concat_map
    (fun (cty, c) ->
      [ case Ty.I64 "select.%s.%Ld.int" (Ty.to_string cty) c (fun fb pass ->
            B.select fb (pass cty (cint cty c)) (pass Ty.I64 (cint Ty.I64 7L))
              (pass Ty.I64 (cint Ty.I64 Int64.min_int)));
        case Ty.F64 "select.%s.%Ld.float" (Ty.to_string cty) c (fun fb pass ->
            B.select fb (pass cty (cint cty c)) (cfloat Ty.F64 (-0.0))
              (cfloat Ty.F64 Float.nan)) ])
    (List.concat_map
       (fun c -> [ (Ty.I64, c); (Ty.I8, c) ])
       [ 0L; 1L; -1L; 2L; 256L; Int64.min_int ])

(* Geps from a pointer made of an edge integer: byte-indexed, and
   through an array of structs to a field.  Address arithmetic only;
   no memory is touched. *)
let geps =
  let arr = Ty.Array (Ty.Struct "pair", 4) in
  List.concat_map
    (fun (base, idx) ->
      [ case ptr "gep.i8.%Ld.%Ld" base idx (fun fb pass ->
            let p = pass ptr (to_ptr fb ptr base) in
            B.gep fb Ty.I8 p [ Ir.Index (pass Ty.I64 (cint Ty.I64 idx)) ]);
        case (Ty.Ptr Ty.F64) "gep.pair.%Ld.%Ld" base idx (fun fb pass ->
            let p = pass (Ty.Ptr arr) (to_ptr fb (Ty.Ptr arr) base) in
            B.gep fb arr p [ Ir.Index (pass Ty.I32 (cint Ty.I32 idx)); Ir.Field "b" ]) ])
    (pairs [ 0L; 1L; -1L; 0x1_0000L; Int64.max_int; Int64.min_int; 0xffff_ffffL ])

(* Store each edge value of each scalar type at an aligned and at a
   page-straddling address and load it back; load every type from a
   byte pattern; then fault on the null guard, a negative address and
   unmapped ones. *)
let memory =
  let tys = int_tys @ [ Ty.Ptr Ty.I32 ] @ float_tys in
  let global_size = function "buf" -> 8192 | _ -> 17 in
  let addr fb ty global off =
    let base =
      B.cast fb Ir.Ptr_to_int
        ~src:(Ty.Ptr (Ty.Array (Ty.I8, global_size global)))
        (Ir.Global global) ~dst:Ty.I64
    in
    B.cast fb Ir.Int_to_ptr ~src:Ty.I64
      (B.iadd fb base (cint Ty.I64 (Int64.of_int off)))
      ~dst:(Ty.Ptr ty)
  in
  List.concat_map
    (fun ty ->
      List.concat_map
        (fun off ->
          List.map
            (fun (s, v) ->
              case ~mem:true ty "store.%s.%d.%s" (Ty.to_string ty) off s
                (fun fb pass ->
                  let p = pass (Ty.Ptr ty) (addr fb ty "buf" off) in
                  B.store fb ty (pass ty (v fb)) p;
                  B.load fb ty (pass (Ty.Ptr ty) p)))
            (operands ty))
        [ aligned_off; straddle_off ]
      @ List.map
          (fun off ->
            case ty "load.%s.pattern.%d" (Ty.to_string ty) off (fun fb pass ->
                B.load fb ty (pass (Ty.Ptr ty) (addr fb ty "pattern" off))))
          [ 0; 1; 3; 8 ])
    tys
  @ List.concat_map
      (fun a ->
        [ case Ty.I64 "load.fault.%Ld" a (fun fb pass ->
              B.load fb Ty.I64 (pass (Ty.Ptr Ty.I64) (to_ptr fb (Ty.Ptr Ty.I64) a)));
          case Ty.I64 "store.fault.%Ld" a (fun fb pass ->
              B.store fb Ty.F64 (cfloat Ty.F64 1.5)
                (pass (Ty.Ptr Ty.F64) (to_ptr fb (Ty.Ptr Ty.F64) a));
              cint Ty.I64 0L) ])
      [ 8L; -8L; 0x0400_0000L; 0x1000_0000L ]

let cases = binops @ compares @ casts @ bswaps @ selects @ geps @ memory

(* Alone, an inline-assembly no-op follows each operand, so the case's
   operation never shares a run of integer ops with its operands'
   producers.  Chained, an operand goes through a fusible integer op
   of its own type: xor with 0, or a pointer's round trip through i64;
   floats have no such op and pass as they are. *)
let pass_alone fb _ o =
  B.asm fb "nop";
  o

let pass_through fb ty (o : Ir.operand) =
  if Ty.is_integer ty then B.ixor fb o (cint ty 0L)
  else if Ty.is_pointer ty then
    B.cast fb Ir.Int_to_ptr ~src:Ty.I64 (B.cast fb Ir.Ptr_to_int ~src:ty o ~dst:Ty.I64)
      ~dst:ty
  else o

let fn_name i chained = Printf.sprintf "case%d%s" i (if chained then "c" else "")

let grid_module () =
  let t = B.create "grid" in
  let _ = B.struct_ t "pair" [ ("a", Ty.I8); ("b", Ty.F64) ] in
  B.global t "buf" (Ty.Array (Ty.I8, 8192)) Ir.Zero_init;
  B.global t "pattern" (Ty.Array (Ty.I8, 17))
    (Ir.String_init "\x81\xfe\x7f\xff\x00\x80\x01\xc3\x55\xaa\xf0\x0f\x7f\xf0\x00\x01");
  List.iteri
    (fun i c ->
      List.iter
        (fun chained ->
          ignore
            (B.func t (fn_name i chained) ~params:[] ~ret:c.c_ty (fun fb _ ->
                 let pass = if chained then pass_through fb else pass_alone fb in
                 if chained then ignore (B.iadd fb (cint Ty.I64 0L) (cint Ty.I64 0L));
                 let r = c.c_emit fb pass in
                 B.ret fb (Some (pass c.c_ty r)))))
        [ false; true ])
    cases;
  B.finish t

(* One line per (arch, case, context): the outcome (result bits or
   trap, and the byte windows of memory cases), then the instruction
   count and clock bits. *)
let grid_runs () =
  let m = grid_module () in
  Validate.check_module m;
  List.concat_map
    (fun (arch : Arch.t) ->
      let layout = Layout.env_of_arch arch ~structs:(Ir.find_struct_exn m) in
      let host = Host.create ~arch ~role:Host.Mobile ~modul:m ~layout () in
      let base = Host.global_addr host "buf" in
      let windows = [ base + aligned_off - 8; base + straddle_off - 8 ] in
      List.concat
        (List.mapi
           (fun i c ->
             List.map
               (fun chained ->
                 List.iter
                   (fun a ->
                     Memory.write_block host.Host.mem a (Bytes.make window '\000'))
                   windows;
                 let result =
                   match Interp.call host (fn_name i chained) [] with
                   | v -> value_bits v
                   | exception Interp.Trap msg -> "trap " ^ msg
                   | exception Value.Type_trap msg -> "type-trap " ^ msg
                   | exception Memory.Bad_access (a, msg) ->
                     Printf.sprintf "bad-access %x %s" a msg
                 in
                 let bytes =
                   if not c.c_mem then ""
                   else
                     String.concat ""
                       (List.map
                          (fun a ->
                            " " ^ Digest.to_hex
                                    (Digest.bytes
                                       (Memory.read_block host.Host.mem a window)))
                          windows)
                 in
                 ( Printf.sprintf "%s %s %s" arch.Arch.name c.c_name
                     (if chained then "chained" else "alone"),
                   result ^ bytes,
                   Printf.sprintf "%d %016Lx" host.Host.instr_count
                     (Int64.bits_of_float host.Host.clock.Host.now) ))
               [ false; true ])
           cases))
    [ Arch.arm32; Arch.x86_64; Arch.arm32_be ]

let md5 s = Digest.to_hex (Digest.string s)

let test_registry () =
  Alcotest.(check string) "registry local runs" registry_md5 (md5 (registry_text ()))

let test_grid () =
  let runs = grid_runs () in
  let text =
    String.concat ""
      (List.map (fun (key, outcome, meta) -> Printf.sprintf "%s %s %s\n" key outcome meta) runs)
  in
  Alcotest.(check string) "opcode grid" grid_md5 (md5 text);
  (* Alone and chained, a case has one outcome. *)
  let rec agree = function
    | (key, alone, _) :: (_, chained, _) :: rest ->
      Alcotest.(check string) key alone chained;
      agree rest
    | [] | [ _ ] -> ()
  in
  agree runs

(* {1 Session reports} *)

type field = Int of (Session.report -> int) | Float of (Session.report -> float)

(* Every report field after the result and console, in record order. *)
let fields =
  Session.
    [
      ("total_s", Float (fun r -> r.rep_total_s));
      ("energy_mj", Float (fun r -> r.rep_energy_mj));
      ("mobile_compute_s", Float (fun r -> r.rep_mobile_compute_s));
      ("server_span_s", Float (fun r -> r.rep_server_span_s));
      ("comm_s", Float (fun r -> r.rep_comm_s));
      ("fnptr_s", Float (fun r -> r.rep_fnptr_s));
      ("remote_io_s", Float (fun r -> r.rep_remote_io_s));
      ("offloads", Int (fun r -> r.rep_offloads));
      ("refusals", Int (fun r -> r.rep_refusals));
      ("faults", Int (fun r -> r.rep_faults));
      ("prefetched_pages", Int (fun r -> r.rep_prefetched_pages));
      ("fnptr_translations", Int (fun r -> r.rep_fnptr_translations));
      ("remote_io_ops", Int (fun r -> r.rep_remote_io_ops));
      ("bytes_to_server", Int (fun r -> r.rep_bytes_to_server));
      ("bytes_to_mobile", Int (fun r -> r.rep_bytes_to_mobile));
      ("wire_bytes_to_mobile", Int (fun r -> r.rep_wire_bytes_to_mobile));
      ("rpc_timeouts", Int (fun r -> r.rep_rpc_timeouts));
      ("retries", Int (fun r -> r.rep_retries));
      ("fallbacks", Int (fun r -> r.rep_fallbacks));
      ("recovery_s", Float (fun r -> r.rep_recovery_s));
      ("queued", Int (fun r -> r.rep_queued));
      ("queue_wait_s", Float (fun r -> r.rep_queue_wait_s));
      ("rejects", Int (fun r -> r.rep_rejects));
      ("checkpoints", Int (fun r -> r.rep_checkpoints));
      ("migrations", Int (fun r -> r.rep_migrations));
      ("migrations_done", Int (fun r -> r.rep_migrations_done));
      ("migrate_transfer_s", Float (fun r -> r.rep_migrate_transfer_s));
      ("migrate_resume_s", Float (fun r -> r.rep_migrate_resume_s));
    ]

let report_line label (r : Session.report) =
  String.concat " "
    (label
    :: value_bits r.Session.rep_result
    :: Digest.to_hex (Digest.string r.Session.rep_console)
    :: List.map
         (fun (_, f) ->
           match f with
           | Int get -> string_of_int (get r)
           | Float get -> Printf.sprintf "%016Lx" (Int64.bits_of_float (get r)))
         fields)

let compiled_entry =
  let cache = Hashtbl.create 32 in
  fun (e : Registry.entry) ->
    match Hashtbl.find_opt cache e.Registry.e_name with
    | Some c -> c
    | None ->
      let c = Compiler.compile_entry e in
      Hashtbl.replace cache e.Registry.e_name c;
      c

let session_report ~config (e : Registry.entry) =
  let c = compiled_entry e in
  Session.run
    (Session.create ~config ~script:e.Registry.e_profile_script
       ~files:e.Registry.e_files c.Compiler.c_output ~seeds:c.Compiler.c_seeds)

let plan text =
  match Fault_plan.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.failf "plan %S: %s" text msg

let fleet_reports label ~config clients =
  List.map
    (fun (c : Sim.client_result) ->
      (Printf.sprintf "%s c%d" label c.Sim.cr_id, c.Sim.cr_report))
    (Sim.run ~config clients).Sim.r_clients

(* (label, report) of every run: the registry on its profile inputs
   under the three offloaded configurations; three programs without
   prefetch, so pages fault on demand; the life-cycle tests' fault
   plans; every client of the migration scenarios with migration on
   and off; and a one-slot fleet whose queue of one fills. *)
let session_runs () =
  let entry name = Option.get (Registry.by_name name) in
  List.concat_map
    (fun (cname, config) ->
      List.map
        (fun (e : Registry.entry) ->
          (cname ^ " " ^ e.Registry.e_name, session_report ~config e))
        (Registry.spec @ Registry.synthetic))
    [ ("slow", Experiment.slow_config ()); ("fast", Experiment.fast_config ());
      ("ideal", Experiment.ideal_config ()) ]
  @ List.map
      (fun name ->
        ( "no-prefetch " ^ name,
          session_report
            ~config:{ (Experiment.fast_config ()) with Session.prefetch = false }
            (entry name) ))
      [ "164.gzip"; "458.sjeng"; "429.mcf" ]
  @ List.map
      (fun (name, faults) ->
        ( Printf.sprintf "faults %s %s" name faults,
          session_report
            ~config:
              { (Session.default_config ()) with
                Session.faults = Some (plan faults) }
            (entry name) ))
      [ ("164.gzip", "outage=0.5:2.0,seed=7");
        ("164.gzip", "drop=0.2,corrupt=0.1,seed=3");
        ("458.sjeng", "crash=1.0,seed=7") ]
  @ List.concat_map
      (fun name ->
        List.concat_map
          (fun migrate ->
            let sc = Sim.scenario ~migrate name in
            fleet_reports
              (Printf.sprintf "%s migrate=%b" name migrate)
              ~config:sc.Sim.sc_config sc.Sim.sc_clients)
          [ true; false ])
      Sim.scenario_names
  @ fleet_reports "queue"
      ~config:
        { Sim.default_config with
          Sim.s_load =
            { Server_load.default with Server_load.slots = 1; queue_cap = 1 } }
      (Sim.make_clients ~stagger_s:0.0 ~workloads:[ "164.gzip"; "429.mcf" ]
         ~count:6 ())

let test_sessions () =
  let runs = session_runs () in
  Alcotest.(check int) "runs" 101 (List.length runs);
  (* Every count and sum is exercised by some run, so the digest pins
     it. *)
  List.iter
    (fun (name, f) ->
      let nonzero (_, r) =
        match f with Int get -> get r <> 0 | Float get -> get r <> 0.0
      in
      Alcotest.(check bool) (name ^ " nonzero in some run") true
        (List.exists nonzero runs))
    fields;
  let text =
    String.concat "" (List.map (fun (l, r) -> report_line l r ^ "\n") runs)
  in
  Alcotest.(check string) "session reports" sessions_md5 (md5 text)

(* Tables one blank line apart, as the CLI prints them. *)
let test_ablations () =
  let text =
    String.concat "\n"
      (List.map (fun t -> Table.render t ^ "\n") (Evaluation.ablations ()))
  in
  Alcotest.(check string) "ablation tables" ablations_md5 (md5 text)

let tests =
  [
    Alcotest.test_case "registry local runs" `Quick test_registry;
    Alcotest.test_case "opcode grid" `Quick test_grid;
    Alcotest.test_case "session reports" `Quick test_sessions;
    Alcotest.test_case "ablation tables" `Quick test_ablations;
  ]
