(* 179.art — image recognition with an ART neural network
   (SPEC CPU2000).

   Table 4 row: 5.7k LoC, 325.5 s, target scan_recognize, coverage
   85.44 % (the lowest of the compute programs: training setup stays
   on the mobile side), 1 invocation, 16.4 MB communication.  Another
   near-ideal speedup case.

   Kernel: scan windows of a synthetic image against the F1/F2 layer
   weights — dot products and winner selection. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "179.art"
let description = "Neural-network image recognition"
let targets = [ "scan_recognize" ]

let feature_dim = 256

let build () =
  let t = B.create name in
  B.global t "weights" W.f64p Ir.Zero_init;
  B.global t "image" W.f64p Ir.Zero_init;

  (* Dot product of one image window against one category's weights. *)
  let _ =
    B.func t "match_category" ~params:[ W.f64p; W.f64p; Ty.I64 ] ~ret:Ty.F64
      (fun fb args ->
        let window = List.nth args 0
        and weights = List.nth args 1
        and category = List.nth args 2 in
        let base = B.imul fb category (B.i64 feature_dim) in
        let acc = B.alloca fb Ty.F64 1 in
        B.store fb Ty.F64 (B.f64 0.0) acc;
        B.for_ fb ~name:"dot" ~from:(B.i64 0) ~below:(B.i64 feature_dim)
          (fun k ->
            let w =
              B.load fb Ty.F64
                (B.gep fb Ty.F64 weights [ Ir.Index (B.iadd fb base k) ])
            in
            let x = B.load fb Ty.F64 (B.gep fb Ty.F64 window [ Ir.Index k ]) in
            let cur = B.load fb Ty.F64 acc in
            B.store fb Ty.F64 (B.fadd fb cur (B.fmul fb w x)) acc);
        B.ret fb (Some (B.load fb Ty.F64 acc)))
  in

  (* scan_recognize(windows, categories) -> sum of winning scores *)
  let _ =
    B.func t "scan_recognize" ~params:[ Ty.I64; Ty.I64 ] ~ret:Ty.F64
      (fun fb args ->
        let windows = List.nth args 0 and categories = List.nth args 1 in
        let image = B.load fb W.f64p (Ir.Global "image") in
        let weights = B.load fb W.f64p (Ir.Global "weights") in
        let total = B.alloca fb Ty.F64 1 in
        B.store fb Ty.F64 (B.f64 0.0) total;
        B.for_ fb ~name:"scan_windows" ~from:(B.i64 0) ~below:windows
          (fun w ->
            let offset = B.imul fb w (B.i64 16) in
            let window = B.gep fb Ty.F64 image [ Ir.Index offset ] in
            let best = B.alloca fb Ty.F64 1 in
            B.store fb Ty.F64 (B.f64 (-1e30)) best;
            B.for_ fb ~name:"scan_cats" ~from:(B.i64 0) ~below:categories
              (fun cat ->
                let score =
                  B.call fb "match_category" [ window; weights; cat ]
                in
                let b = B.load fb Ty.F64 best in
                let improved = B.cmp fb Ir.Fgt score b in
                B.if_ fb improved
                  ~then_:(fun () -> B.store fb Ty.F64 score best)
                  ());
            let cur = B.load fb Ty.F64 total in
            B.store fb Ty.F64 (B.fadd fb cur (B.load fb Ty.F64 best)) total);
        B.ret fb (Some (B.load fb Ty.F64 total)))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let windows, categories = W.scan2 fb in
        let image_count =
          B.iadd fb (B.imul fb windows (B.i64 16)) (B.i64 feature_dim)
        in
        let image = W.malloc_f64 fb image_count in
        B.store fb W.f64p image (Ir.Global "image");
        W.fill_f64 fb ~name:"init_image" image ~count:image_count ~scale:1e-3;
        let wcount = B.imul fb categories (B.i64 feature_dim) in
        let weights = W.malloc_f64 fb wcount in
        B.store fb W.f64p weights (Ir.Global "weights");
        W.fill_f64 fb ~name:"init_weights" weights ~count:wcount ~scale:7e-4;
        let score = B.call fb "scan_recognize" [ windows; categories ] in
        W.print_result_f64 t fb ~label:"recognized" score;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: windows, categories. *)
let profile_script = W.script_of_ints [ 20; 8 ]
let eval_script = W.script_of_ints [ 110; 12 ]
let eval_scale = 8.2
let files = []
