(* Memory subsystem tests: device memories, page faulting, dirty
   tracking, the UVA allocator (with QCheck properties), stack
   regions, and endianness-aware scalar encoding. *)

module Arch = No_arch.Arch
module Memory = No_mem.Memory
module Region = No_mem.Region
module Scalar = No_mem.Scalar
module Uva = No_mem.Uva
module Stack_alloc = No_mem.Stack_alloc

let heap_addr offset = Region.heap_base + offset

let test_home_memory () =
  let m = Memory.create Memory.Home in
  Alcotest.(check int) "zero before write" 0 (Memory.read_byte m (heap_addr 5));
  Memory.write_byte m (heap_addr 5) 0xAB;
  Alcotest.(check int) "read back" 0xAB (Memory.read_byte m (heap_addr 5));
  Alcotest.(check int) "masked" 0x01 (
    Memory.write_byte m (heap_addr 6) 0x101;
    Memory.read_byte m (heap_addr 6))

let test_remote_faults () =
  let home = Memory.create Memory.Home in
  Memory.write_byte home (heap_addr 100) 42;
  let remote = Memory.create Memory.Remote in
  (* no handler: fault escapes *)
  (match Memory.read_byte remote (heap_addr 100) with
  | _ -> Alcotest.fail "expected fault"
  | exception Memory.Page_fault page ->
    Alcotest.(check int) "faulting page" (Region.page_of_addr (heap_addr 100))
      page);
  (* copy-on-demand handler *)
  let faults = ref 0 in
  remote.Memory.on_fault <-
    Some
      (fun mem page ->
        incr faults;
        Memory.install_page mem page (Memory.page_copy home page));
  Alcotest.(check int) "served by handler" 42
    (Memory.read_byte remote (heap_addr 100));
  Alcotest.(check int) "one fault" 1 !faults;
  (* resident now: no second fault *)
  ignore (Memory.read_byte remote (heap_addr 101));
  Alcotest.(check int) "still one fault" 1 !faults

let test_dirty_tracking () =
  let m = Memory.create Memory.Home in
  m.Memory.track_dirty <- true;
  Memory.write_byte m (heap_addr 0) 1;
  Memory.write_byte m (heap_addr 1) 2;
  Memory.write_byte m (heap_addr Region.page_size) 3;
  Alcotest.(check int) "two dirty pages" 2
    (List.length (Memory.dirty_pages m));
  ignore (Memory.read_byte m (heap_addr (2 * Region.page_size)));
  Alcotest.(check int) "reads do not dirty" 2
    (List.length (Memory.dirty_pages m));
  Memory.clear_dirty m;
  Alcotest.(check int) "cleared" 0 (List.length (Memory.dirty_pages m))

let test_block_ops () =
  let m = Memory.create Memory.Home in
  let data = Bytes.of_string "native offloader" in
  Memory.write_block m (heap_addr 10) data;
  Alcotest.(check string) "roundtrip" "native offloader"
    (Bytes.to_string (Memory.read_block m (heap_addr 10) (Bytes.length data)))

let test_region_map () =
  Alcotest.(check string) "null guard" "null-guard"
    (Region.region_to_string (Region.region_of_addr 0));
  Alcotest.(check string) "heap" "heap"
    (Region.region_to_string (Region.region_of_addr Region.heap_base));
  Alcotest.(check string) "mobile stack" "mobile-stack"
    (Region.region_to_string (Region.region_of_addr Region.mobile_stack_base));
  Alcotest.(check string) "server stack" "server-stack"
    (Region.region_to_string (Region.region_of_addr Region.server_stack_base));
  Alcotest.(check bool) "stacks disjoint" true
    (Region.mobile_stack_limit <= Region.server_stack_base)

let test_uva_basics () =
  let u = Uva.create () in
  let a = Uva.alloc u 100 in
  let b = Uva.alloc u 200 in
  Alcotest.(check bool) "disjoint" true (b >= a + 100);
  Alcotest.(check bool) "aligned" true (a mod 16 = 0 && b mod 16 = 0);
  Alcotest.(check int) "live bytes" (112 + 208) (Uva.live_bytes u);
  Uva.dealloc u a;
  Alcotest.(check int) "after free" 208 (Uva.live_bytes u);
  (* freed space is reused *)
  let c = Uva.alloc u 50 in
  Alcotest.(check int) "first fit reuse" a c;
  (match Uva.dealloc u (a + 16) with
  | () -> Alcotest.fail "expected invalid free"
  | exception Uva.Invalid_free _ -> ())

let test_uva_coalescing () =
  let u = Uva.create () in
  let blocks = List.init 8 (fun _ -> Uva.alloc u 64) in
  List.iter (Uva.dealloc u) blocks;
  (* all 8 blocks coalesce into one range, so a large allocation fits
     without growing the break *)
  let hwm = Uva.high_water_mark u in
  let big = Uva.alloc u (8 * 64) in
  Alcotest.(check int) "reused coalesced space" (List.hd blocks) big;
  Alcotest.(check int) "no growth" hwm (Uva.high_water_mark u)

(* QCheck: after any sequence of allocs and frees, live allocations
   never overlap and live_bytes is consistent. *)
let prop_uva_no_overlap =
  QCheck.Test.make ~name:"uva allocations never overlap" ~count:100
    QCheck.(list (int_range 1 500))
    (fun sizes ->
      let u = Uva.create () in
      let live = ref [] in
      List.iteri
        (fun i size ->
          if i mod 3 = 2 && !live <> [] then begin
            match !live with
            | (addr, _) :: rest ->
              Uva.dealloc u addr;
              live := rest
            | [] -> ()
          end
          else begin
            let addr = Uva.alloc u size in
            live := (addr, size) :: !live
          end)
        sizes;
      let sorted =
        List.sort (fun (a, _) (b, _) -> compare a b) !live
      in
      let rec disjoint = function
        | (a, sa) :: ((b, _) :: _ as rest) ->
          a + sa <= b && disjoint rest
        | _ -> true
      in
      disjoint sorted)

let test_stack_regions () =
  let s = Stack_alloc.mobile () in
  let mark = Stack_alloc.frame_mark s in
  let a = Stack_alloc.alloc s 24 8 in
  let b = Stack_alloc.alloc s 8 8 in
  Alcotest.(check bool) "stack grows" true (b >= a + 24);
  Stack_alloc.release s mark;
  let c = Stack_alloc.alloc s 8 8 in
  Alcotest.(check int) "frame released" a c;
  Alcotest.(check bool) "high water survives" true
    (Stack_alloc.high_water_bytes s >= 32)

(* Endianness encode/decode roundtrips and bswap involution. *)
let prop_scalar_roundtrip =
  QCheck.Test.make ~name:"scalar store/load roundtrip (LE and BE)" ~count:200
    QCheck.(pair int64 (int_range 1 8))
    (fun (v, nbytes) ->
      let check endianness =
        let buf = Bytes.make 16 '\000' in
        Scalar.store_int endianness
          ~write_byte:(fun a b -> Bytes.set buf a (Char.chr b))
          0 nbytes v;
        let got =
          Scalar.load_int endianness
            ~read_byte:(fun a -> Char.code (Bytes.get buf a))
            0 nbytes
        in
        Int64.equal got (Int64.logand v (Scalar.mask_of_bytes nbytes))
      in
      check Arch.Little && check Arch.Big)

let prop_bswap_involution =
  QCheck.Test.make ~name:"bswap twice is identity" ~count:200
    QCheck.(pair int64 (int_range 1 8))
    (fun (v, nbytes) ->
      let masked = Int64.logand v (Scalar.mask_of_bytes nbytes) in
      Int64.equal (Scalar.bswap (Scalar.bswap masked nbytes) nbytes) masked)

let test_cross_endian_bytes () =
  (* An LE store read back BE gives the swapped pattern — the bug the
     endianness translation pass exists to fix. *)
  let buf = Bytes.make 8 '\000' in
  Scalar.store_int Arch.Little
    ~write_byte:(fun a b -> Bytes.set buf a (Char.chr b))
    0 4 0x11223344L;
  let be =
    Scalar.load_int Arch.Big
      ~read_byte:(fun a -> Char.code (Bytes.get buf a))
      0 4
  in
  Alcotest.(check int64) "byte swapped" 0x44332211L be;
  Alcotest.(check int64) "bswap recovers" 0x11223344L (Scalar.bswap be 4)

let test_sign_extension () =
  Alcotest.(check int64) "0xFF as i8 = -1" (-1L) (Scalar.sign_extend 0xFFL 1);
  Alcotest.(check int64) "0x7F as i8 = 127" 127L (Scalar.sign_extend 0x7FL 1);
  Alcotest.(check int64) "i64 unchanged" Int64.min_int
    (Scalar.sign_extend Int64.min_int 8)

let tests =
  [
    Alcotest.test_case "home memory" `Quick test_home_memory;
    Alcotest.test_case "remote faults" `Quick test_remote_faults;
    Alcotest.test_case "dirty tracking" `Quick test_dirty_tracking;
    Alcotest.test_case "block ops" `Quick test_block_ops;
    Alcotest.test_case "region map" `Quick test_region_map;
    Alcotest.test_case "uva basics" `Quick test_uva_basics;
    Alcotest.test_case "uva coalescing" `Quick test_uva_coalescing;
    QCheck_alcotest.to_alcotest prop_uva_no_overlap;
    Alcotest.test_case "stack regions" `Quick test_stack_regions;
    QCheck_alcotest.to_alcotest prop_scalar_roundtrip;
    QCheck_alcotest.to_alcotest prop_bswap_involution;
    Alcotest.test_case "cross endian bytes" `Quick test_cross_endian_bytes;
    Alcotest.test_case "sign extension" `Quick test_sign_extension;
  ]
