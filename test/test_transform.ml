(* Transformation pass tests: each Section 3.2-3.4 pass in isolation,
   plus pipeline-level invariants. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Validate = No_ir.Validate
module Arch = No_arch.Arch
module Layout = No_arch.Layout
module Host = No_exec.Host
module Interp = No_exec.Interp
module Value = No_exec.Value
module Heap_replace = No_transform.Heap_replace
module Global_realloc = No_transform.Global_realloc
module Lower_gep = No_transform.Lower_gep
module Server_access = No_transform.Server_access
module Remote_io = No_transform.Remote_io
module Partition = No_transform.Partition
module Pipeline = No_transform.Pipeline

let count_calls_to name (m : Ir.modul) =
  List.fold_left
    (fun acc f ->
      Ir.fold_instrs
        (fun acc instr ->
          match instr with
          | Ir.Assign (_, Ir.Call (n, _)) | Ir.Effect (Ir.Call (n, _))
            when String.equal n name ->
            acc + 1
          | Ir.Assign _ | Ir.Effect _ | Ir.Store _ | Ir.Asm _ -> acc)
        acc f)
    0 m.Ir.m_funcs

let test_heap_replace () =
  let t = B.create "heap" in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let p = B.call fb "malloc" [ B.i64 64 ] in
        let q = B.call fb "malloc" [ B.i64 32 ] in
        B.call_void fb "free" [ p ];
        B.call_void fb "free" [ q ];
        B.ret fb (Some (B.i64 0)))
  in
  let m = B.finish t in
  let m', stats = Heap_replace.run m in
  Alcotest.(check int) "malloc sites" 2 stats.Heap_replace.malloc_sites;
  Alcotest.(check int) "free sites" 2 stats.Heap_replace.free_sites;
  Alcotest.(check int) "no malloc left" 0 (count_calls_to "malloc" m');
  Alcotest.(check int) "u_malloc present" 2 (count_calls_to "u_malloc" m');
  Validate.check_module m'

let structs_of m name = Ir.find_struct_exn m name

let run_main ?(arch = Arch.arm32) ?layout ?(script = []) m =
  let layout =
    match layout with
    | Some l -> l
    | None -> Layout.env_of_arch arch ~structs:(structs_of m)
  in
  let host =
    Host.create ~arch ~role:Host.Mobile ~modul:m ~layout
      ~console:(No_exec.Console.create ~script ()) ()
  in
  (host, Interp.run_main host)

let build_global_module () =
  let t = B.create "globals" in
  B.global t "counter" Ty.I64 (Ir.Int_init (40L, Ty.I64));
  B.global t "unused_global" Ty.I64 Ir.Zero_init;
  let _ =
    B.func t "bump" ~params:[] ~ret:Ty.Void (fun fb _ ->
        let v = B.load fb Ty.I64 (Ir.Global "counter") in
        B.store fb Ty.I64 (B.iadd fb v (B.i64 1)) (Ir.Global "counter");
        B.ret_void fb)
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.call_void fb "bump" [];
        B.call_void fb "bump" [];
        B.ret fb (Some (B.load fb Ty.I64 (Ir.Global "counter"))))
  in
  B.finish t

let test_global_realloc () =
  let m = build_global_module () in
  let m', stats = Global_realloc.run m in
  Validate.check_module m';
  Alcotest.(check (list string)) "counter reallocated" [ "counter" ]
    stats.Global_realloc.reallocated;
  Alcotest.(check (list string)) "unused untouched" [ "unused_global" ]
    stats.Global_realloc.untouched;
  (* slot global exists, original gone *)
  Alcotest.(check bool) "slot present" true
    (Ir.find_global m' "counter__re" <> None);
  Alcotest.(check bool) "original gone" true
    (Ir.find_global m' "counter" = None);
  Alcotest.(check int) "init extern call in main" 1
    (count_calls_to "__uva_init_global$counter" m');
  (* behaviour preserved when an extern handler services the init *)
  let layout = Layout.env_of_arch Arch.arm32 ~structs:(structs_of m') in
  let host =
    Host.create ~arch:Arch.arm32 ~role:Host.Mobile ~modul:m' ~layout ()
  in
  host.Host.hooks.Host.extern_call <-
    Some
      (fun name _args ->
        match name with
        | "__uva_init_global$counter" ->
          let addr = No_mem.Uva.alloc host.Host.uva 8 in
          No_mem.Memory.store_word host.Host.mem Arch.Little addr 8 40L;
          Some (Value.VInt (Int64.of_int addr))
        | _ -> None);
  Alcotest.(check int64) "reallocated behaviour" 42L
    (Value.to_int (Interp.run_main host))

(* Explicit GEP lowering computes the same addresses as symbolic GEP
   interpretation under the same layout. *)
let build_struct_module () =
  let t = B.create "structs" in
  let pair = B.struct_ t "Pair" [ ("a", Ty.I8); ("b", Ty.F64) ] in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let arr = B.alloca fb pair 4 in
        B.for_ fb ~name:"fill" ~from:(B.i64 0) ~below:(B.i64 4) (fun i ->
            let cell = B.gep fb pair arr [ Ir.Index i ] in
            let i8v = B.cast fb Ir.Trunc ~src:Ty.I64 i ~dst:Ty.I8 in
            B.store fb Ty.I8 i8v (B.gep fb pair cell [ Ir.Field "a" ]);
            let fv = B.cast fb Ir.Si_to_fp ~src:Ty.I64 i ~dst:Ty.F64 in
            B.store fb Ty.F64 fv (B.gep fb pair cell [ Ir.Field "b" ]));
        let acc = B.alloca fb Ty.F64 1 in
        B.store fb Ty.F64 (B.f64 0.0) acc;
        B.for_ fb ~name:"sum" ~from:(B.i64 0) ~below:(B.i64 4) (fun i ->
            let cell = B.gep fb pair arr [ Ir.Index i ] in
            let b = B.load fb Ty.F64 (B.gep fb pair cell [ Ir.Field "b" ]) in
            let a = B.load fb Ty.I8 (B.gep fb pair cell [ Ir.Field "a" ]) in
            let a64 = B.cast fb Ir.Sext ~src:Ty.I8 a ~dst:Ty.I64 in
            let af = B.cast fb Ir.Si_to_fp ~src:Ty.I64 a64 ~dst:Ty.F64 in
            let cur = B.load fb Ty.F64 acc in
            B.store fb Ty.F64 (B.fadd fb cur (B.fadd fb b af)) acc);
        let total = B.load fb Ty.F64 acc in
        B.ret fb (Some (B.cast fb Ir.Fp_to_si ~src:Ty.F64 total ~dst:Ty.I64)))
  in
  B.finish t

let test_lower_gep_preserves_semantics () =
  let m = build_struct_module () in
  let _, symbolic = run_main m in
  let layout = Layout.env_of_arch Arch.arm32 ~structs:(structs_of m) in
  let m', stats = Lower_gep.run layout m in
  Validate.check_module m';
  Alcotest.(check bool) "geps lowered" true (stats.Lower_gep.geps_lowered > 4);
  (* no symbolic GEP remains *)
  let remaining =
    List.fold_left
      (fun acc f ->
        Ir.fold_instrs
          (fun acc instr ->
            match instr with
            | Ir.Assign (_, Ir.Gep _) | Ir.Effect (Ir.Gep _) -> acc + 1
            | Ir.Assign _ | Ir.Effect _ | Ir.Store _ | Ir.Asm _ -> acc)
          acc f)
      0 m'.Ir.m_funcs
  in
  Alcotest.(check int) "no geps left" 0 remaining;
  let _, lowered = run_main ~layout m' in
  Alcotest.(check bool) "same result" true (Value.equal symbolic lowered)

(* One module with i8, i32, pointer and fn-pointer loads and stores;
   the fn-pointer store and load each sit alone in a function, so that
   function's body is exactly their rewrite.  Run on the server's
   machine with the identity fn map it returns 5 whatever the pair. *)
let build_access_module () =
  let t = B.create "access" in
  let sg = Ty.signature [] Ty.I64 in
  B.global t "slot_p" (Ty.Ptr Ty.I32) Ir.Zero_init;
  B.global t "slot_f" (Ty.Fn_ptr sg) Ir.Zero_init;
  let _ =
    B.func t "target" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.ret fb (Some (B.i64 5)))
  in
  let _ =
    B.func t "put_fn" ~params:[] ~ret:Ty.Void (fun fb _ ->
        B.store fb (Ty.Fn_ptr sg) (Ir.Fn_addr "target") (Ir.Global "slot_f");
        B.ret_void fb)
  in
  let _ =
    B.func t "get_fn" ~params:[] ~ret:(Ty.Fn_ptr sg) (fun fb _ ->
        B.ret fb (Some (B.load fb (Ty.Fn_ptr sg) (Ir.Global "slot_f"))))
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let p = B.alloca fb Ty.I32 1 in
        B.store fb Ty.I32 (B.i32 7) p;
        let q = B.alloca fb Ty.I8 1 in
        B.store fb Ty.I8 (B.i8 1) q;
        let b = B.load fb Ty.I8 q in
        B.store fb (Ty.Ptr Ty.I32) p (Ir.Global "slot_p");
        let p' = B.load fb (Ty.Ptr Ty.I32) (Ir.Global "slot_p") in
        let v = B.load fb Ty.I32 p' in
        B.call_void fb "put_fn" [];
        let f = B.call fb "get_fn" [] in
        let r = B.call_ind fb sg f [] in
        let v = B.cast fb Ir.Sext ~src:Ty.I32 v ~dst:Ty.I64 in
        let b = B.cast fb Ir.Sext ~src:Ty.I8 b ~dst:Ty.I64 in
        (* 5 + (7 - 7) + (1 - 1) *)
        B.ret fb
          (Some (B.iadd fb r (B.isub fb (B.iadd fb v b) (B.i64 8)))))
  in
  B.finish t

let access_shape (instr : Ir.instr) =
  match instr with
  | Ir.Assign (_, Ir.Cast (op, _, _, _)) -> List.assoc op Ir.castop_names
  | Ir.Assign (_, Ir.Load (ty, _)) -> "load " ^ Ty.to_string ty
  | Ir.Store (ty, _, _) -> "store " ^ Ty.to_string ty
  | Ir.Assign (_, Ir.Bswap _) -> "bswap"
  | Ir.Assign (_, Ir.Fn_map _) -> "fn_map"
  | Ir.Assign _ | Ir.Effect _ | Ir.Asm _ -> "other"

let body_shape m name =
  List.rev
    (Ir.fold_instrs
       (fun acc instr -> access_shape instr :: acc)
       [] (Ir.find_func_exn m name))

(* The one rewrite of server loads and stores on the four
   (same/different width) x (same/different byte order) pairs, and
   what it must give on each.  The three tests below each check one
   part of the rewrite on every pair. *)
type access_case = {
  mobile : Arch.t;
  server : Arch.t;
  widened : int list;          (* pointer loads widened, stores narrowed *)
  swaps : int;                 (* the i32 and pointer accesses, not i8 *)
  fn_load : string list;       (* the fn-pointer load, step by step *)
  fn_store : string list;      (* the fn-pointer store, step by step *)
}

let access_cases =
  let fn = "i64()*" in
  [
    { mobile = Arch.arm32; server = Arch.x86_32; widened = [ 0; 0 ];
      swaps = 0;
      fn_load = [ "load " ^ fn; "fn_map" ];
      fn_store = [ "fn_map"; "store " ^ fn ] };
    { mobile = Arch.arm32; server = Arch.x86_64; widened = [ 2; 2 ];
      swaps = 0;
      fn_load = [ "bitcast"; "load i32"; "zext"; "inttoptr"; "fn_map" ];
      fn_store = [ "fn_map"; "ptrtoint"; "trunc"; "bitcast"; "store i32" ] };
    { mobile = Arch.arm32_be; server = Arch.x86_32; widened = [ 0; 0 ];
      swaps = 6;
      fn_load = [ "bitcast"; "load i32"; "bswap"; "inttoptr"; "fn_map" ];
      fn_store = [ "fn_map"; "ptrtoint"; "bitcast"; "bswap"; "store i32" ] };
    { mobile = Arch.arm32_be; server = Arch.x86_64; widened = [ 2; 2 ];
      swaps = 6;
      fn_load =
        [ "bitcast"; "load i32"; "bswap"; "zext"; "inttoptr"; "fn_map" ];
      fn_store =
        [ "fn_map"; "ptrtoint"; "trunc"; "bitcast"; "bswap"; "store i32" ] };
  ]

(* Rewrite the access module for every case, check the result
   validates, and hand [f] the case, its label, the rewritten module
   and the pass's counts. *)
let each_access_case f =
  let m = build_access_module () in
  List.iter
    (fun c ->
      let m', s = Server_access.run ~mobile:c.mobile ~server:c.server m in
      Validate.check_module m';
      let pair =
        Printf.sprintf "%s -> %s: " c.mobile.Arch.name c.server.Arch.name
      in
      f c pair m' s)
    access_cases

(* Address-size conversion: pointer loads widen and stores narrow
   exactly when the widths differ, no pointer-typed access is left
   once the width or the byte order differs, and a server narrower
   than the unified pointers is refused by name. *)
let test_addr_convert () =
  each_access_case (fun c pair m' s ->
      Alcotest.(check (list int)) (pair ^ "addr loads, addr stores") c.widened
        [ s.Server_access.addr_loads; s.Server_access.addr_stores ];
      let ptr_accesses =
        List.fold_left
          (fun acc f ->
            Ir.fold_instrs
              (fun acc instr ->
                match instr with
                | Ir.Assign (_, Ir.Load ((Ty.Ptr _ | Ty.Fn_ptr _), _))
                | Ir.Store ((Ty.Ptr _ | Ty.Fn_ptr _), _, _) -> acc + 1
                | Ir.Assign _ | Ir.Effect _ | Ir.Store _ | Ir.Asm _ -> acc)
              acc f)
          0 m'.Ir.m_funcs
      in
      let unchanged =
        c.mobile.Arch.ptr_bits = c.server.Arch.ptr_bits
        && c.mobile.Arch.endianness = c.server.Arch.endianness
      in
      Alcotest.(check int) (pair ^ "pointer-typed accesses left")
        (if unchanged then 4 else 0)
        ptr_accesses);
  Alcotest.check_raises "64-bit mobile, 32-bit server"
    (Invalid_argument
       "Server_access.run: no conversion of 64-bit unified pointers for a \
        32-bit server")
    (fun () ->
      ignore
        (Server_access.run ~mobile:Arch.x86_64 ~server:Arch.x86_32
           (build_access_module ())))

(* Endianness translation: one swap per access wider than a byte,
   exactly when the byte orders differ. *)
let test_endian_translate () =
  each_access_case (fun c pair _ s ->
      Alcotest.(check int) (pair ^ "swaps") c.swaps s.Server_access.swaps)

(* Function-pointer mapping: every fn-pointer load and store is mapped
   on every pair, last on a load and first on a store, and on the
   server's machine under the identity map the module still returns 5. *)
let test_fnptr_map () =
  each_access_case (fun c pair m' s ->
      Alcotest.(check (list int)) (pair ^ "fn loads, fn stores") [ 1; 1 ]
        [ s.Server_access.fnptr_load_maps; s.Server_access.fnptr_store_maps ];
      Alcotest.(check (list string)) (pair ^ "fn-pointer load") c.fn_load
        (body_shape m' "get_fn");
      Alcotest.(check (list string)) (pair ^ "fn-pointer store") c.fn_store
        (body_shape m' "put_fn");
      let _, result = run_main ~arch:c.server m' in
      Alcotest.(check int64) (pair ^ "identity fn map") 5L
        (Value.to_int result))

let test_remote_io_pass () =
  let t = B.create "rio" in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.call_void fb "print_i64" [ B.i64 1 ];
        B.call_void fb "print_newline" [];
        let buf = B.alloca fb Ty.I8 8 in
        let fd = B.call fb "f_open" [ buf ] in
        B.call_void fb "f_close" [ fd ];
        B.ret fb (Some (B.i64 0)))
  in
  let m = B.finish t in
  let m', stats = Remote_io.run m in
  Alcotest.(check int) "four sites" 4 stats.Remote_io.sites_rewritten;
  Alcotest.(check int) "r_print_i64" 1 (count_calls_to "r_print_i64" m');
  Alcotest.(check int) "rf_open" 1 (count_calls_to "rf_open" m');
  Alcotest.(check int) "no local print left" 0 (count_calls_to "print_i64" m')

let test_partition_listener_shape () =
  let t = B.create "part" in
  let _ =
    B.func t "hot_a" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        B.ret fb (Some (B.imul fb (List.nth args 0) (B.i64 2))))
  in
  let _ =
    B.func t "hot_b" ~params:[ Ty.F64 ] ~ret:Ty.F64 (fun fb args ->
        B.ret fb (Some (B.fmul fb (List.nth args 0) (B.f64 2.0))))
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let a = B.call fb "hot_a" [ B.i64 21 ] in
        B.effect fb (Ir.Call ("hot_b", [ B.f64 1.0 ]));
        B.ret fb (Some a))
  in
  let m = B.finish t in
  let parts = Partition.run m ~targets:[ "hot_a"; "hot_b" ] in
  Validate.check_module parts.Partition.p_mobile;
  Validate.check_module parts.Partition.p_server;
  Alcotest.(check int) "ids assigned" 2 (List.length parts.Partition.p_targets);
  (* mobile: calls redirected to dispatchers *)
  Alcotest.(check int) "main calls dispatcher" 1
    (count_calls_to "__dispatch$hot_a" parts.Partition.p_mobile);
  Alcotest.(check int) "original call gone from main" 1
    (count_calls_to "hot_a" parts.Partition.p_mobile);
  (* the remaining direct call is inside the dispatcher's local arm *)
  (* server: listener + serves + targets, no main *)
  Alcotest.(check bool) "listener" true
    (Ir.find_func parts.Partition.p_server Partition.listener_name <> None);
  Alcotest.(check bool) "serve a" true
    (Ir.find_func parts.Partition.p_server "__serve$hot_a" <> None);
  Alcotest.(check bool) "main removed" true
    (Ir.find_func parts.Partition.p_server "main" = None);
  Alcotest.(check bool) "removed list mentions main" true
    (List.mem "main" parts.Partition.p_removed)

let test_pipeline_end_to_end_validates () =
  let m = build_struct_module () in
  let out =
    Pipeline.run ~mobile:Arch.arm32 ~server:Arch.x86_64 ~targets:[ "main" ] m
  in
  (* main as target is degenerate but exercises every pass *)
  Validate.check_module out.Pipeline.o_mobile;
  Validate.check_module out.Pipeline.o_server;
  Alcotest.(check bool) "stats populated" true
    (out.Pipeline.o_stats.Pipeline.st_total_functions >= 1)

let tests =
  [
    Alcotest.test_case "heap replacement" `Quick test_heap_replace;
    Alcotest.test_case "global reallocation" `Quick test_global_realloc;
    Alcotest.test_case "gep lowering preserves semantics" `Quick
      test_lower_gep_preserves_semantics;
    Alcotest.test_case "address size conversion" `Quick test_addr_convert;
    Alcotest.test_case "endianness translation" `Quick test_endian_translate;
    Alcotest.test_case "fn pointer mapping" `Quick test_fnptr_map;
    Alcotest.test_case "remote io rewrite" `Quick test_remote_io_pass;
    Alcotest.test_case "partition shape" `Quick test_partition_listener_shape;
    Alcotest.test_case "pipeline validates" `Quick
      test_pipeline_end_to_end_validates;
  ]
