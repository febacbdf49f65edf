(* Additional interpreter coverage: file I/O builtins, bulk memory
   builtins, switch dispatch, unsigned arithmetic, select, casts, and
   the fuel limiter. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Validate = No_ir.Validate
module Arch = No_arch.Arch
module Layout = No_arch.Layout
module Host = No_exec.Host
module Interp = No_exec.Interp
module Value = No_exec.Value
module Console = No_exec.Console
module Fs = No_exec.Fs

let make_host ?(script = []) ?(files = []) (m : Ir.modul) =
  Validate.check_module m;
  let layout =
    Layout.env_of_arch Arch.arm32 ~structs:(Ir.find_struct_exn m)
  in
  let fs = Fs.create () in
  List.iter (fun (name, data) -> Fs.add_file fs name data) files;
  Host.create ~arch:Arch.arm32 ~role:Host.Mobile ~modul:m ~layout
    ~console:(Console.create ~script ()) ~fs ()

let run ?script ?files m =
  Value.to_int (Interp.run_main (make_host ?script ?files m))

let test_file_io () =
  let t = B.create "fileio" in
  let path = B.cstr t "input.dat" in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let fd = B.call fb "f_open" [ path ] in
        let size = B.call fb "f_size" [ fd ] in
        let buf = B.call fb "malloc" [ size ] in
        let got = B.call fb "f_read" [ fd; buf; size ] in
        B.call_void fb "f_close" [ fd ];
        (* sum the bytes *)
        let buf8 = buf in
        let acc = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) acc;
        B.for_ fb ~name:"sum" ~from:(B.i64 0) ~below:got (fun i ->
            let b = B.load fb Ty.I8 (B.gep fb Ty.I8 buf8 [ Ir.Index i ]) in
            let b64 = B.cast fb Ir.Sext ~src:Ty.I8 b ~dst:Ty.I64 in
            let cur = B.load fb Ty.I64 acc in
            B.store fb Ty.I64 (B.iadd fb cur (B.iand fb b64 (B.i64 255))) acc);
        B.ret fb (Some (B.load fb Ty.I64 acc)))
  in
  let m = B.finish t in
  let data = Bytes.of_string "\x01\x02\x03\x04" in
  Alcotest.(check int64) "sum of bytes" 10L
    (run ~files:[ ("input.dat", data) ] m);
  (* missing file traps via Fs exception *)
  match run ~files:[] m with
  | _ -> Alcotest.fail "expected missing-file failure"
  | exception Fs.No_such_file "input.dat" -> ()

let test_memcpy_memset () =
  let t = B.create "bulk" in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let a = B.call fb "malloc" [ B.i64 64 ] in
        let b = B.call fb "malloc" [ B.i64 64 ] in
        B.call_void fb "memset" [ a; B.i64 7; B.i64 64 ];
        B.call_void fb "memcpy" [ b; a; B.i64 64 ] ;
        let v = B.load fb Ty.I8 (B.gep fb Ty.I8 b [ Ir.Index (B.i64 63) ]) in
        B.ret fb (Some (B.cast fb Ir.Sext ~src:Ty.I8 v ~dst:Ty.I64)))
  in
  Alcotest.(check int64) "memset+memcpy" 7L (run (B.finish t))

let test_switch () =
  let t = B.create "switch" in
  let _ =
    B.func t "classify" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let x = List.nth args 0 in
        B.switch fb x [ (1L, "one"); (2L, "two") ] "other";
        B.open_block fb "one";
        B.ret fb (Some (B.i64 100));
        B.open_block fb "two";
        B.ret fb (Some (B.i64 200));
        B.open_block fb "other";
        B.ret fb (Some (B.i64 999)))
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let a = B.call fb "classify" [ B.i64 1 ] in
        let b = B.call fb "classify" [ B.i64 2 ] in
        let c = B.call fb "classify" [ B.i64 5 ] in
        B.ret fb (Some (B.iadd fb a (B.iadd fb b c))))
  in
  Alcotest.(check int64) "switch" 1299L (run (B.finish t))

let test_unsigned_and_select () =
  let t = B.create "unsigned" in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        (* -1 as unsigned is huge: udiv by 2 gives 2^63 - 1 *)
        let neg = B.i64 (-1) in
        let udiv = B.bin fb Ir.Udiv neg (B.i64 2) in
        let expect = B.i64' 0x7FFFFFFFFFFFFFFFL in
        let ok1 = B.cmp fb Ir.Eq udiv expect in
        (* unsigned compare: -1 > 1 unsigned *)
        let ok2 = B.cmp fb Ir.Ugt neg (B.i64 1) in
        (* signed compare: -1 < 1 *)
        let ok3 = B.cmp fb Ir.Slt neg (B.i64 1) in
        let both = B.iand fb ok1 (B.iand fb ok2 ok3) in
        let r = B.select fb both (B.i64 42) (B.i64 0) in
        B.ret fb (Some r))
  in
  Alcotest.(check int64) "unsigned semantics" 42L (run (B.finish t))

let test_casts () =
  let t = B.create "casts" in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        (* trunc 0x1FF to i8 = -1 (sign-extended canonical) *)
        let t8 = B.cast fb Ir.Trunc ~src:Ty.I64 (B.i64 0x1FF) ~dst:Ty.I8 in
        let sext = B.cast fb Ir.Sext ~src:Ty.I8 t8 ~dst:Ty.I64 in
        (* zext of the same i8 = 255 *)
        let zext = B.cast fb Ir.Zext ~src:Ty.I8 t8 ~dst:Ty.I64 in
        (* fp roundtrip *)
        let f = B.cast fb Ir.Si_to_fp ~src:Ty.I64 (B.i64 40) ~dst:Ty.F64 in
        let i = B.cast fb Ir.Fp_to_si ~src:Ty.F64 f ~dst:Ty.I64 in
        (* (-1) + 255 + 40 = 294 *)
        B.ret fb (Some (B.iadd fb sext (B.iadd fb zext i))))
  in
  Alcotest.(check int64) "cast semantics" 294L (run (B.finish t))

let test_fuel_limit () =
  let t = B.create "spin" in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.while_ fb ~name:"forever" ~cond:(fun () -> B.i8 1)
          ~body:(fun () -> ())
          ();
        B.ret fb (Some (B.i64 0)))
  in
  let host = make_host (B.finish t) in
  host.Host.fuel <- 10_000;
  match Interp.run_main host with
  | _ -> Alcotest.fail "expected fuel exhaustion"
  | exception Interp.Out_of_fuel -> ()

(* Fuel is debited a block at a time, the terminator included: a
   [main] of [k] instructions and [ret] runs on [k + 1] and leaves none,
   and on [k] raises [Out_of_fuel] before any of it runs. *)
let test_fuel_per_block () =
  let k = 5 in
  let t = B.create "block" in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let x = ref (B.i64 1) in
        for _ = 1 to k do
          x := B.iadd fb !x (B.i64 1)
        done;
        B.ret fb (Some !x))
  in
  let m = B.finish t in
  let entry = List.hd (List.hd m.Ir.m_funcs).Ir.f_blocks in
  Alcotest.(check int) "entry block size" k (List.length entry.Ir.instrs);
  let host = make_host m in
  host.Host.fuel <- k + 1;
  Alcotest.(check int64) "returns on k + 1" (Int64.of_int (k + 1))
    (Value.to_int (Interp.run_main host));
  Alcotest.(check int) "fuel left" 0 host.Host.fuel;
  Alcotest.(check int) "instructions run" (k + 1) host.Host.instr_count;
  let host = make_host m in
  host.Host.fuel <- k;
  (match Interp.run_main host with
  | _ -> Alcotest.fail "expected fuel exhaustion on k"
  | exception Interp.Out_of_fuel -> ());
  Alcotest.(check int) "nothing runs on k" 0 host.Host.instr_count;
  Alcotest.(check int) "fuel kept" k host.Host.fuel

let test_asm_is_local_noop () =
  let t = B.create "asm" in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.asm fb "dmb ish";
        B.ret fb (Some (B.i64 1)))
  in
  Alcotest.(check int64) "asm no-op" 1L (run (B.finish t))

let test_math_builtins () =
  let t = B.create "math" in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let s = B.call fb "sqrt" [ B.f64 16.0 ] in
        let p = B.call fb "pow" [ B.f64 2.0; B.f64 10.0 ] in
        let total = B.fadd fb s p in
        B.ret fb (Some (B.cast fb Ir.Fp_to_si ~src:Ty.F64 total ~dst:Ty.I64)))
  in
  Alcotest.(check int64) "sqrt+pow" 1028L (run (B.finish t))

(* A global that ends past the globals region is refused when the host
   links the module, at the global's address and by its name, before
   any of it is written. *)
let test_oversized_global () =
  let t = B.create "bigglobal" in
  B.global t "big" (Ty.Array (Ty.I8, 99_999_999)) Ir.Zero_init;
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ -> B.ret fb (Some (B.i64 0)))
  in
  match make_host (B.finish t) with
  | _ -> Alcotest.fail "expected the link to refuse @big"
  | exception No_mem.Memory.Bad_access (addr, msg) ->
    Alcotest.(check int) "at the global" No_mem.Region.globals_base addr;
    Alcotest.(check bool) ("names the global: " ^ msg) true
      (String.starts_with ~prefix:"global @big " msg)

let tests =
  [
    Alcotest.test_case "file io" `Quick test_file_io;
    Alcotest.test_case "memcpy/memset" `Quick test_memcpy_memset;
    Alcotest.test_case "switch" `Quick test_switch;
    Alcotest.test_case "unsigned + select" `Quick test_unsigned_and_select;
    Alcotest.test_case "casts" `Quick test_casts;
    Alcotest.test_case "fuel limit" `Quick test_fuel_limit;
    Alcotest.test_case "asm local no-op" `Quick test_asm_is_local_noop;
    Alcotest.test_case "math builtins" `Quick test_math_builtins;
    Alcotest.test_case "oversized global refused at link" `Quick
      test_oversized_global;
    Alcotest.test_case "fuel debited a block at a time" `Quick
      test_fuel_per_block;
  ]
