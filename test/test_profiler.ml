(* Direct profiler tests on a program with known counts: function
   invocations, loop invocations vs iterations, inclusive times,
   per-task memory footprints, recursion handling, the memory touch
   hook's once-per-page contract, and hook restoration on detach. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Arch = No_arch.Arch
module Layout = No_arch.Layout
module Host = No_exec.Host
module Interp = No_exec.Interp
module Profiler = No_profiler.Profiler
module Memory = No_mem.Memory
module Region = No_mem.Region

let build () =
  let t = B.create "profiled" in
  let _ =
    B.func t "leaf" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let n = List.nth args 0 in
        let acc = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) acc;
        B.for_ fb ~name:"leaf_loop" ~from:(B.i64 0) ~below:(B.i64 10)
          (fun iv ->
            let c = B.load fb Ty.I64 acc in
            B.store fb Ty.I64 (B.iadd fb c iv) acc);
        B.ret fb (Some (B.iadd fb n (B.load fb Ty.I64 acc))))
  in
  let _ =
    B.func t "toucher" ~params:[] ~ret:Ty.Void (fun fb _ ->
        (* touch 4 pages of heap *)
        let buf = B.call fb "malloc" [ B.i64 (4 * 4096) ] in
        B.for_ fb ~name:"touch_loop" ~from:(B.i64 0) ~below:(B.i64 4)
          (fun i ->
            let off = B.imul fb i (B.i64 4096) in
            let p = B.gep fb Ty.I8 buf [ Ir.Index off ] in
            B.store fb Ty.I8 (B.i8 1) p);
        B.ret_void fb)
  in
  let _ =
    B.func t "rec" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let n = List.nth args 0 in
        let base = B.cmp fb Ir.Sle n (B.i64 0) in
        B.if_ fb base ~then_:(fun () -> B.ret fb (Some (B.i64 0))) ();
        let r = B.call fb "rec" [ B.isub fb n (B.i64 1) ] in
        B.ret fb (Some (B.iadd fb r (B.i64 1))))
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.for_ fb ~name:"main_loop" ~from:(B.i64 0) ~below:(B.i64 3)
          (fun iv -> B.effect fb (Ir.Call ("leaf", [ iv ])));
        B.call_void fb "toucher" [];
        B.effect fb (Ir.Call ("rec", [ B.i64 5 ]));
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

let profile () =
  let m = build () in
  let layout = Layout.env_of_arch Arch.arm32 ~structs:(Ir.find_struct_exn m) in
  let host = Host.create ~arch:Arch.arm32 ~role:Host.Mobile ~modul:m ~layout () in
  let profiler = Profiler.attach host in
  ignore (Interp.run_main host);
  Profiler.detach profiler;
  Profiler.results profiler

let sample samples kind name =
  match Profiler.find_sample samples ~kind ~name with
  | Some s -> s
  | None -> Alcotest.failf "no sample for %s" name

let test_counts () =
  let samples = profile () in
  let leaf = sample samples Profiler.Func "leaf" in
  Alcotest.(check int) "leaf invocations" 3 leaf.Profiler.s_invocations;
  let loop = sample samples Profiler.Loop "leaf_loop" in
  Alcotest.(check int) "loop invocations" 3 loop.Profiler.s_invocations;
  Alcotest.(check int) "loop iterations" 33 loop.Profiler.s_iterations
  (* 3 invocations x (10 body entries + 1 exit check) per the header-
     entry counting convention *)

let test_inclusive_times () =
  let samples = profile () in
  let main = sample samples Profiler.Func "main" in
  let leaf = sample samples Profiler.Func "leaf" in
  let toucher = sample samples Profiler.Func "toucher" in
  Alcotest.(check bool) "main includes leaf" true
    (main.Profiler.s_time >= leaf.Profiler.s_time);
  Alcotest.(check bool) "main includes toucher" true
    (main.Profiler.s_time >= toucher.Profiler.s_time);
  Alcotest.(check bool) "times positive" true (leaf.Profiler.s_time > 0.0)

let test_memory_footprint () =
  let samples = profile () in
  let toucher = sample samples Profiler.Func "toucher" in
  (* 4 heap pages + a stack page or two *)
  Alcotest.(check bool)
    (Printf.sprintf "toucher footprint %d in [4,8] pages"
       (toucher.Profiler.s_mem_bytes / 4096))
    true
    (toucher.Profiler.s_mem_bytes >= 4 * 4096
    && toucher.Profiler.s_mem_bytes <= 8 * 4096)

let test_recursion () =
  let samples = profile () in
  let rec_s = sample samples Profiler.Func "rec" in
  (* every activation counts as an invocation; time only for the
     outermost (no double counting) *)
  Alcotest.(check int) "rec invocations" 6 rec_s.Profiler.s_invocations;
  let main = sample samples Profiler.Func "main" in
  Alcotest.(check bool) "rec time <= main time" true
    (rec_s.Profiler.s_time <= main.Profiler.s_time)

(* {1 The touch hook}

   Every memory entry point reports each page its bytes cover exactly
   once, in ascending order — whether the access stays in one page,
   crosses into the next, or is a multi-page block, and in either byte
   order on the word path.  An access the region map refuses raises
   [Bad_access]: a word reports no page, a block only the pages before
   its first unmapped byte. *)

type access =
  | Load of Arch.endianness * int * int  (* byte order, addr, width *)
  | Store of Arch.endianness * int * int
  | Load_base of int * int         (* slab admission, else load_word *)
  | Store_base of int * int
  | Read_byte of int
  | Write_byte of int
  | Read_block of int * int        (* addr, length *)
  | Write_block of int * int

let span = function
  | Load (_, a, w) | Store (_, a, w) | Load_base (a, w) | Store_base (a, w) ->
    (a, w)
  | Read_byte a | Write_byte a -> (a, 1)
  | Read_block (a, n) | Write_block (a, n) -> (a, n)

let show_access acc =
  let a, n = span acc in
  let order = function Arch.Little -> "le" | Arch.Big -> "be" in
  let kind =
    match acc with
    | Load (e, _, _) -> "load_word " ^ order e
    | Store (e, _, _) -> "store_word " ^ order e
    | Load_base _ -> "load_base"
    | Store_base _ -> "store_base" | Read_byte _ -> "read_byte"
    | Write_byte _ -> "write_byte" | Read_block _ -> "read_block"
    | Write_block _ -> "write_block"
  in
  Printf.sprintf "%s 0x%x (%d bytes)" kind a n

let perform m = function
  | Load (e, a, w) -> ignore (Memory.load_word m e a w)
  | Store (e, a, w) -> Memory.store_word m e a w 0x0102030405060708L
  | Load_base (a, w) ->
    if Memory.load_base m a w < 0 then
      ignore (Memory.load_word m Arch.Little a w)
  | Store_base (a, w) ->
    if Memory.store_base m a w < 0 then Memory.store_word m Arch.Little a w 7L
  | Read_byte a -> ignore (Memory.read_byte m a)
  | Write_byte a -> Memory.write_byte m a 0x5a
  | Read_block (a, n) -> ignore (Memory.read_block m a n)
  | Write_block (a, n) -> Memory.write_block m a (Bytes.make n 'x')

(* Accesses to six consecutive pages: heap pages 0-5 (all mapped), or
   from two pages below [Region.null_guard_end] (the two refused) or
   [Region.globals_limit] (the four above refused).  One list keeps to
   one area, so a refused access often follows an access to its mapped
   neighbour, a TLB hit there, or repeats itself. *)
let gen_access_near first_page =
  QCheck.Gen.(
    let page = int_range first_page (first_page + 5) in
    (* Offsets cluster at both page edges so crossings are common. *)
    let offset =
      oneof
        [ int_range 0 16;
          int_range (Region.page_size - 16) (Region.page_size - 1);
          int_range 0 (Region.page_size - 1) ]
    in
    let addr = map2 (fun p o -> (p * Region.page_size) + o) page offset in
    let width = oneofl [ 1; 2; 4; 8 ] in
    let order = oneofl [ Arch.Little; Arch.Big ] in
    let len = int_range 0 (3 * Region.page_size) in
    oneof
      [ map3 (fun e a w -> Load (e, a, w)) order addr width;
        map3 (fun e a w -> Store (e, a, w)) order addr width;
        map2 (fun a w -> Load_base (a, w)) addr width;
        map2 (fun a w -> Store_base (a, w)) addr width;
        map (fun a -> Read_byte a) addr;
        map (fun a -> Write_byte a) addr;
        map2 (fun a n -> Read_block (a, n)) addr len;
        map2 (fun a n -> Write_block (a, n)) addr len ])

let gen_accesses =
  QCheck.Gen.(
    oneofl
      [ Region.page_of_addr Region.heap_base;
        Region.page_of_addr Region.null_guard_end - 2;
        Region.page_of_addr Region.globals_limit - 2 ]
    >>= fun first -> list_size (int_range 1 8) (gen_access_near first))

let mapped a =
  match Region.region_of_addr a with
  | Region.Null_guard | Region.Unmapped -> false
  | Region.Globals | Region.Mobile_stack | Region.Server_stack | Region.Heap ->
    true

(* The lowest address of [a, a + n) the region map refuses, byte by
   byte. *)
let first_unmapped a n =
  let rec go x =
    if x >= a + n then None else if mapped x then go (x + 1) else Some x
  in
  go a

let pages_of a n =
  if n = 0 then []
  else
    List.init
      (Region.page_of_addr (a + n - 1) - Region.page_of_addr a + 1)
      (fun k -> Region.page_of_addr a + k)

let prop_touch_once_per_page =
  QCheck.Test.make ~name:"touch hook sees each covered page once" ~count:500
    (QCheck.make ~print:(QCheck.Print.list show_access) gen_accesses)
    (fun accesses ->
      let m = Memory.create Memory.Home in
      m.Memory.track_dirty <- true;
      let seen = ref [] in
      Memory.set_touch_callback m (Some (fun page -> seen := page :: !seen));
      List.for_all
        (fun acc ->
          seen := [];
          let refused =
            match perform m acc with
            | () -> false
            | exception Memory.Bad_access _ -> true
          in
          let a, n = span acc in
          let block =
            match acc with Read_block _ | Write_block _ -> true | _ -> false
          in
          let expected_refused, expected =
            match first_unmapped a n with
            | None -> (false, pages_of a n)
            | Some u -> (true, if block then pages_of a (u - a) else [])
          in
          refused = expected_refused && List.rev !seen = expected)
        accesses)

(* A hot loop that loads, adds and stores an i64 per page, straight
   on the slab: its footprint is exactly the [sweep_pages] heap pages
   it writes, since the induction variable lives in a register and
   malloc's 16-byte alignment keeps each word inside its page. *)
let sweep_pages = 5

let build_sweep () =
  let t = B.create "sweep" in
  let _ =
    B.func t "sweep" ~params:[] ~ret:Ty.Void (fun fb _ ->
        let buf = B.call fb "malloc" [ B.i64 (sweep_pages * 4096) ] in
        B.for_ fb ~name:"sweep_loop" ~from:(B.i64 0) ~below:(B.i64 sweep_pages)
          (fun i ->
            let p = B.gep fb Ty.I8 buf [ Ir.Index (B.imul fb i (B.i64 4096)) ] in
            let c = B.load fb Ty.I64 p in
            B.store fb Ty.I64 (B.iadd fb c i) p);
        B.ret_void fb)
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.call_void fb "sweep" [];
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

let host_of m =
  let layout = Layout.env_of_arch Arch.arm32 ~structs:(Ir.find_struct_exn m) in
  Host.create ~arch:Arch.arm32 ~role:Host.Mobile ~modul:m ~layout ()

let test_fused_chain_footprint () =
  let host = host_of (build_sweep ()) in
  let profiler = Profiler.attach host in
  ignore (Interp.run_main host);
  Profiler.detach profiler;
  let samples = Profiler.results profiler in
  let loop = sample samples Profiler.Loop "sweep_loop" in
  Alcotest.(check int) "loop footprint" (sweep_pages * Region.page_size)
    loop.Profiler.s_mem_bytes;
  let sweep = sample samples Profiler.Func "sweep" in
  Alcotest.(check bool) "function footprint covers the loop's" true
    (sweep.Profiler.s_mem_bytes >= loop.Profiler.s_mem_bytes)

(* Detach puts back whatever hooks were installed before attach. *)
let test_detach_restores_hooks () =
  let host = host_of (build ()) in
  let entered = ref 0 in
  let custom _ = incr entered in
  host.Host.hooks.Host.on_enter <- custom;
  let profiler = Profiler.attach host in
  ignore (Interp.run_main host);
  Alcotest.(check int) "profiler replaces the hook while attached" 0 !entered;
  Profiler.detach profiler;
  Alcotest.(check bool) "on_enter restored" true
    (host.Host.hooks.Host.on_enter == custom);
  Alcotest.(check bool) "touch hook removed" true
    (Option.is_none host.Host.mem.Memory.on_touch);
  ignore (Interp.run_main host);
  Alcotest.(check bool) "custom hook runs after detach" true (!entered > 0)

let tests =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "inclusive times" `Quick test_inclusive_times;
    Alcotest.test_case "memory footprint" `Quick test_memory_footprint;
    Alcotest.test_case "recursion" `Quick test_recursion;
    QCheck_alcotest.to_alcotest prop_touch_once_per_page;
    Alcotest.test_case "fused chain footprint" `Quick
      test_fused_chain_footprint;
    Alcotest.test_case "detach restores hooks" `Quick
      test_detach_restores_hooks;
  ]
