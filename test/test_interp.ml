(* End-to-end interpreter tests: build small programs with the
   builder, validate them, run them on a mobile host, check results,
   console output, clock advancement and memory behaviour. *)

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

let structs_of m name = Ir.find_struct_exn m name

let make_host ?(arch = Arch.arm32) ?(script = []) (m : Ir.modul) =
  Validate.check_module m;
  let layout = Layout.env_of_arch arch ~structs:(structs_of m) in
  let host =
    Host.create ~arch ~role:Host.Mobile ~modul:m ~layout
      ~console:(Console.create ~script ()) ()
  in
  host

let run_main_int ?arch ?script m =
  let host = make_host ?arch ?script m in
  Value.to_int (Interp.run_main host)

(* sum of 0..9 via a counted loop *)
let test_loop_sum () =
  let t = B.create "loop_sum" in
  let _f =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let acc = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) acc;
        B.for_ fb ~name:"for_i" ~from:(B.i64 0) ~below:(B.i64 10) (fun iv ->
            let cur = B.load fb Ty.I64 acc in
            let next = B.iadd fb cur iv in
            B.store fb Ty.I64 next acc);
        let result = B.load fb Ty.I64 acc in
        B.ret fb (Some result))
  in
  let m = B.finish t in
  Alcotest.(check int64) "sum 0..9" 45L (run_main_int m)

(* recursion: fibonacci *)
let test_fib () =
  let t = B.create "fib" in
  let _ =
    B.func t "fib" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let n = List.nth args 0 in
        let is_small = B.cmp fb Ir.Slt n (B.i64 2) in
        B.if_ fb is_small ~then_:(fun () -> B.ret fb (Some n)) ();
        let a = B.call fb "fib" [ B.isub fb n (B.i64 1) ] in
        let b = B.call fb "fib" [ B.isub fb n (B.i64 2) ] in
        B.ret fb (Some (B.iadd fb a b)))
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.ret fb (Some (B.call fb "fib" [ B.i64 12 ])))
  in
  let m = B.finish t in
  Alcotest.(check int64) "fib 12" 144L (run_main_int m)

(* struct field access through GEP, heap allocation *)
let test_struct_heap () =
  let t = B.create "struct_heap" in
  let move_ty =
    B.struct_ t "Move" [ ("from", Ty.I8); ("to", Ty.I8); ("score", Ty.F64) ]
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let raw = B.call fb "malloc" [ B.i64 64 ] in
        let p = B.cast fb Ir.Bitcast ~src:(Ty.Ptr Ty.I8) raw ~dst:(Ty.Ptr move_ty) in
        let score_addr = B.gep fb move_ty p [ Ir.Field "score" ] in
        B.store fb Ty.F64 (B.f64 2.5) score_addr;
        let from_addr = B.gep fb move_ty p [ Ir.Field "from" ] in
        B.store fb Ty.I8 (B.i8 7) from_addr;
        let score = B.load fb Ty.F64 score_addr in
        let doubled = B.fmul fb score (B.f64 2.0) in
        let as_int = B.cast fb Ir.Fp_to_si ~src:Ty.F64 doubled ~dst:Ty.I64 in
        let from = B.load fb Ty.I8 from_addr in
        let from64 = B.cast fb Ir.Sext ~src:Ty.I8 from ~dst:Ty.I64 in
        B.effect fb (Ir.Call ("free", [ raw ]));
        B.ret fb (Some (B.iadd fb as_int from64)))
  in
  let m = B.finish t in
  Alcotest.(check int64) "5 + 7" 12L (run_main_int m)

(* global variables with initializers *)
let test_globals () =
  let t = B.create "globals" in
  B.global t "counter" Ty.I64 (Ir.Int_init (40L, Ty.I64));
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let v = B.load fb Ty.I64 (Ir.Global "counter") in
        let v2 = B.iadd fb v (B.i64 2) in
        B.store fb Ty.I64 v2 (Ir.Global "counter");
        B.ret fb (Some (B.load fb Ty.I64 (Ir.Global "counter"))))
  in
  let m = B.finish t in
  Alcotest.(check int64) "global rmw" 42L (run_main_int m)

(* console I/O: scripted input, captured output *)
let test_console_io () =
  let t = B.create "console" in
  let hello = B.cstr t "answer=" in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let a = B.call fb "scan_i64" [] in
        let b = B.call fb "scan_i64" [] in
        let sum = B.iadd fb a b in
        B.call_void fb "print_str" [ hello ];
        B.call_void fb "print_i64" [ sum ];
        B.call_void fb "print_newline" [];
        B.ret fb (Some sum))
  in
  let m = B.finish t in
  let host =
    make_host ~script:[ Console.In_int 19L; Console.In_int 23L ] m
  in
  let result = Value.to_int (Interp.run_main host) in
  Alcotest.(check int64) "sum" 42L result;
  Alcotest.(check string) "output" "answer=42\n"
    (Console.contents host.Host.console)

(* indirect calls through a function-pointer table global *)
let test_fn_ptr_table () =
  let t = B.create "fnptr" in
  let sg = Ty.signature [ Ty.I64 ] Ty.I64 in
  let fp = Ty.Fn_ptr sg in
  B.global t "handlers" (Ty.Array (fp, 2))
    (Ir.Array_init [ Ir.Fn_init "double_it"; Ir.Fn_init "square_it" ]);
  let _ =
    B.func t "double_it" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        B.ret fb (Some (B.imul fb (List.nth args 0) (B.i64 2))))
  in
  let _ =
    B.func t "square_it" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let x = List.nth args 0 in
        B.ret fb (Some (B.imul fb x x)))
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let table = Ty.Array (fp, 2) in
        let slot1 =
          B.gep fb table (Ir.Global "handlers") [ Ir.Index (B.i64 1) ]
        in
        let f = B.load fb fp slot1 in
        let squared = B.call_ind fb sg f [ B.i64 6 ] in
        B.ret fb (Some squared))
  in
  let m = B.finish t in
  Alcotest.(check int64) "square via table" 36L (run_main_int m)

(* clock advances; mobile is slower than server on the same program *)
let test_clock_and_ratio () =
  let build () =
    let t = B.create "spin" in
    let _ =
      B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
          let acc = B.alloca fb Ty.I64 1 in
          B.store fb Ty.I64 (B.i64 0) acc;
          B.for_ fb ~name:"spin" ~from:(B.i64 0) ~below:(B.i64 1000)
            (fun iv ->
              let cur = B.load fb Ty.I64 acc in
              B.store fb Ty.I64 (B.iadd fb cur iv) acc);
          B.ret fb (Some (B.load fb Ty.I64 acc)))
    in
    B.finish t
  in
  let time_on arch =
    let host = make_host ~arch (build ()) in
    ignore (Interp.run_main host);
    host.Host.clock.Host.now
  in
  let tm = time_on Arch.arm32 and ts = time_on Arch.x86_64 in
  Alcotest.(check bool) "mobile time positive" true (tm > 0.0);
  let ratio = tm /. ts in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f in [3,9]" ratio)
    true
    (ratio > 3.0 && ratio < 9.0)

(* traps *)
let test_traps () =
  let div_zero () =
    let t = B.create "divz" in
    let _ =
      B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
          let zero_reg = B.iadd fb (B.i64 0) (B.i64 0) in
          B.ret fb (Some (B.idiv fb (B.i64 1) zero_reg)))
    in
    B.finish t
  in
  (match Interp.run_main (make_host (div_zero ())) with
  | _ -> Alcotest.fail "expected div-by-zero trap"
  | exception Interp.Trap _ -> ());
  (* down(n) calls down(n + 1) forever: the depth limit stops it at
     once, before the native stack fills. *)
  let recurse () =
    let t = B.create "recurse" in
    let _ =
      B.func t "down" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
          let next = B.iadd fb (List.hd args) (B.i64 1) in
          B.ret fb (Some (B.call fb "down" [ next ])))
    in
    let _ =
      B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
          B.ret fb (Some (B.call fb "down" [ B.i64 0 ])))
    in
    B.finish t
  in
  (match Interp.run_main (make_host (recurse ())) with
  | _ -> Alcotest.fail "expected call-depth trap"
  | exception Interp.Trap msg ->
    Alcotest.(check string) "depth trap"
      (Printf.sprintf "down: call depth limit %d exceeded" Interp.max_call_depth)
      msg);
  let null_deref () =
    let t = B.create "nullderef" in
    let _ =
      B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
          let p =
            B.cast fb Ir.Int_to_ptr ~src:Ty.I64 (B.i64 8) ~dst:(Ty.Ptr Ty.I64)
          in
          B.ret fb (Some (B.load fb Ty.I64 p)))
    in
    B.finish t
  in
  match Interp.run_main (make_host (null_deref ())) with
  | _ -> Alcotest.fail "expected null-deref trap"
  | exception No_mem.Memory.Bad_access (addr, _) ->
    Alcotest.(check bool) "fault in null guard" true (addr < 0x1_0000)

(* A word that runs past the end of its region traps before any byte
   moves, at the same address on every host (its last byte), whatever
   the byte order: an i32 load two bytes below the globals limit and
   an i16 store of 0x0107 into the last byte of the mobile stack. *)
let test_straddling_traps () =
  let module Region = No_mem.Region in
  let module Memory = No_mem.Memory in
  let load_at = Region.globals_limit - 2 in
  let store_at = Region.mobile_stack_limit - 1 in
  let t = B.create "edges" in
  let ptr fb ty addr =
    B.cast fb Ir.Int_to_ptr ~src:Ty.I64 (B.i64 addr) ~dst:(Ty.Ptr ty)
  in
  let _ =
    B.func t "load_edge" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let v = B.load fb Ty.I32 (ptr fb Ty.I32 load_at) in
        B.ret fb (Some (B.cast fb Ir.Sext ~src:Ty.I32 v ~dst:Ty.I64)))
  in
  let _ =
    B.func t "store_edge" ~params:[] ~ret:Ty.Void (fun fb _ ->
        B.store fb Ty.I16 (B.i16 0x0107) (ptr fb Ty.I16 store_at);
        B.ret_void fb)
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.ret fb (Some (B.i64 0)))
  in
  let m = B.finish t in
  List.iter
    (fun (arch : Arch.t) ->
      let host = make_host ~arch m in
      let traps name ~at =
        match Interp.call host name [] with
        | _ -> Alcotest.failf "%s: %s did not trap" arch.Arch.name name
        | exception Memory.Bad_access (addr, reason) ->
          Alcotest.(check (pair int string))
            (Printf.sprintf "%s: %s trap" arch.Arch.name name)
            (at, "unmapped address") (addr, reason)
      in
      traps "load_edge" ~at:(load_at + 3);
      traps "store_edge" ~at:(store_at + 1);
      Alcotest.(check int)
        (arch.Arch.name ^ ": no page materialized")
        0
        (Memory.resident_count host.Host.mem);
      Alcotest.(check int)
        (arch.Arch.name ^ ": stack byte unwritten")
        0
        (Memory.read_byte host.Host.mem store_at))
    [ Arch.arm32; Arch.arm32_be; Arch.x86_64 ]

(* A register read before any write on the executed path holds
   all-zero bits: a float one reads +0.0, so [f] takes the branch that
   skips the assignment and returns 0.0 + 1.0. *)
let test_unwritten_register () =
  let m =
    No_ir.Parser.parse
      {|module unwritten
fn f(%r0:i64) -> f64 {
entry:
  cbr %r0, set, use
set:
  %r2 = fadd 1.0:f64, 2.0:f64
  br use
use:
  %r3 = fadd %r2, 1.0:f64
  ret %r3
}
|}
  in
  let v = Interp.call (make_host m) "f" [ Value.VInt 0L ] in
  Alcotest.(check int64) "returns 1.0" (Int64.bits_of_float 1.0)
    (Int64.bits_of_float (Value.to_float v))

(* A narrower integer zero-extends into a pointer, as LLVM's inttoptr
   does: a 32-bit address at or above 2^31 keeps its value on every
   host, through the round trip back to i64. *)
let test_inttoptr_zero_fills () =
  let t = B.create "inttoptr" in
  let ptr = Ty.Ptr Ty.I8 in
  let _ =
    B.func t "f" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let p =
          B.cast fb Ir.Int_to_ptr ~src:Ty.I32 (B.i32 0x9000_0010) ~dst:ptr
        in
        B.ret fb (Some (B.cast fb Ir.Ptr_to_int ~src:ptr p ~dst:Ty.I64)))
  in
  let m = B.finish t in
  List.iter
    (fun (arch : Arch.t) ->
      Alcotest.(check int64) arch.Arch.name 2415919120L
        (Value.to_int (Interp.call (make_host ~arch m) "f" [])))
    Arch.all

(* The interpreter loop allocates nothing per instruction: a local run
   allocates only for host set-up, calls, builtins and values leaving
   the frame, well under one word per twenty instructions (about 0.003
   on both programs).  An integer slot write that boxes its int64 reads
   2.09 and 1.32 here. *)
let test_allocation_per_instruction () =
  List.iter
    (fun name ->
      let e = Option.get (No_workloads.Registry.by_name name) in
      let m = e.No_workloads.Registry.e_build () in
      let before = Gc.minor_words () in
      let r =
        No_runtime.Local_run.run ~script:e.No_workloads.Registry.e_profile_script
          ~files:e.No_workloads.Registry.e_files m
      in
      let words = Gc.minor_words () -. before in
      let per = words /. float_of_int r.No_runtime.Local_run.lr_instrs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f words per instruction over %d" name per
           r.No_runtime.Local_run.lr_instrs)
        true (per < 0.05))
    [ "183.equake"; "470.lbm" ]

let tests =
  [
    Alcotest.test_case "loop sum" `Quick test_loop_sum;
    Alcotest.test_case "fibonacci recursion" `Quick test_fib;
    Alcotest.test_case "struct + heap" `Quick test_struct_heap;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "console io" `Quick test_console_io;
    Alcotest.test_case "fn ptr table" `Quick test_fn_ptr_table;
    Alcotest.test_case "clock and ratio" `Quick test_clock_and_ratio;
    Alcotest.test_case "traps" `Quick test_traps;
    Alcotest.test_case "straddling traps agree across hosts" `Quick
      test_straddling_traps;
    Alcotest.test_case "unwritten register reads zero bits" `Quick
      test_unwritten_register;
    Alcotest.test_case "inttoptr zero-fills" `Quick test_inttoptr_zero_fills;
    Alcotest.test_case "interpreter loop allocates nothing per instruction"
      `Quick test_allocation_per_instruction;
  ]
