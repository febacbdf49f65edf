(* 300.twolf — standard-cell placement and routing (SPEC CPU2000).

   Table 4 row: 17.8k LoC, 157.8 s, target utemp, coverage 99.84 %,
   1 invocation, 3.3 MB communication.  Its Figure 7 trait: "During
   the offloading execution, 300.twolf reads a file about cell
   information to optimally place cells" — remote *input* operations
   with expensive round trips, giving a high remote-I/O share and
   extra battery draw (Section 5.2).

   Kernel: read the cell netlist from a file in chunks inside the hot
   region, then iterative pairwise placement refinement. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "300.twolf"
let description = "Standard-cell place and route"
let targets = [ "utemp" ]

let cell_file = "twolf.cells"
let chunk = 1024

let build () =
  let t = B.create name in
  W.add_xrand t;
  B.global t "cells" W.i64p Ir.Zero_init;
  let path = B.cstr t cell_file in

  (* utemp(ncells, passes) -> wirelength *)
  let _ =
    B.func t "utemp" ~params:[ Ty.I64; Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let ncells = List.nth args 0 and passes = List.nth args 1 in
        let cells = B.load fb W.i64p (Ir.Global "cells") in
        (* read the cell file into the array, chunk by chunk: this is
           the remote-input behaviour of the paper *)
        let fd = B.call fb "f_open" [ path ] in
        let total = B.call fb "f_size" [ fd ] in
        let offset = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) offset;
        let cells_i8 =
          B.cast fb Ir.Bitcast ~src:W.i64p cells ~dst:W.i8p
        in
        B.while_ fb ~name:"read_cells"
          ~cond:(fun () ->
            let off = B.load fb Ty.I64 offset in
            B.cmp fb Ir.Slt off total)
          ~body:(fun () ->
            let off = B.load fb Ty.I64 offset in
            let dst = B.gep fb Ty.I8 cells_i8 [ Ir.Index off ] in
            let got = B.call fb "f_read" [ fd; dst; B.i64 chunk ] in
            let stop = B.cmp fb Ir.Sle got (B.i64 0) in
            B.if_ fb stop
              ~then_:(fun () -> B.store fb Ty.I64 total offset)
              ~else_:(fun () ->
                B.store fb Ty.I64 (B.iadd fb off got) offset)
              ())
          ();
        B.call_void fb "f_close" [ fd ];
        (* refinement passes over the netlist *)
        let wirelen = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) wirelen;
        B.for_ fb ~name:"utemp_pass" ~from:(B.i64 0) ~below:passes (fun _p ->
            B.store fb Ty.I64 (B.i64 0) wirelen;
            B.for_ fb ~name:"utemp_cells" ~from:(B.i64 0)
              ~below:(B.isub fb ncells (B.i64 1)) (fun i ->
                let a = B.load fb Ty.I64 (B.gep fb Ty.I64 cells [ Ir.Index i ]) in
                let next = B.iadd fb i (B.i64 1) in
                let slot_b = B.gep fb Ty.I64 cells [ Ir.Index next ] in
                let b = B.load fb Ty.I64 slot_b in
                let am = B.iand fb a (B.i64 0xFFFF) in
                let bm = B.iand fb b (B.i64 0xFFFF) in
                let diff = B.isub fb am bm in
                let neg = B.cmp fb Ir.Slt diff (B.i64 0) in
                let mag = B.select fb neg (B.isub fb (B.i64 0) diff) diff in
                (* swap-sort step to reduce wirelength *)
                let out_of_order = B.cmp fb Ir.Sgt am bm in
                B.if_ fb out_of_order
                  ~then_:(fun () ->
                    B.store fb Ty.I64 a slot_b;
                    B.store fb Ty.I64 b
                      (B.gep fb Ty.I64 cells [ Ir.Index i ]))
                  ();
                let cur = B.load fb Ty.I64 wirelen in
                B.store fb Ty.I64 (B.iadd fb cur mag) wirelen));
        B.ret fb (Some (B.load fb Ty.I64 wirelen)))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let ncells, passes = W.scan2 fb in
        let cells = W.malloc_words fb (B.imul fb ncells (B.i64 8)) in
        B.store fb W.i64p cells (Ir.Global "cells");
        let wirelen = B.call fb "utemp" [ ncells; passes ] in
        W.print_result t fb ~label:"wirelength" wirelen;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: cells, refinement passes.  The cell file carries
   ncells*8 bytes. *)
let profile_script = W.script_of_ints [ 512; 6 ]
let eval_script = W.script_of_ints [ 2048; 40 ]
let eval_scale = 20.0

let files =
  [ (cell_file, W.synthetic_file ~seed:300 ~bytes:(2048 * 8)) ]
