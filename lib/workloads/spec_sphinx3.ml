(* 482.sphinx3 — speech recognition (SPEC CPU2006).

   Table 4 row: 13.1k LoC, 375.2 s, target main_for.cond, coverage
   98.39 %, 1 invocation, 34.0 MB communication.  Section 5.2 lists
   sphinx3 among the programs that "consume relatively more battery
   than the ideal execution" because of remote I/O: acoustic frames
   stream in from a file during decoding.

   Kernel: GMM scoring — for every frame read from the feature file,
   evaluate every Gaussian density (diagonal covariance) and
   accumulate the best. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "482.sphinx3"
let description = "Speech recognition"
let targets = [ "main_for.cond" ]

let feat_file = "sphinx.feats"
let dim = 32                     (* feature dimensionality *)

let build () =
  let t = B.create name in
  B.global t "means" W.f64p Ir.Zero_init;
  B.global t "variances" W.f64p Ir.Zero_init;
  B.global t "frame_buf" W.f64p Ir.Zero_init;
  let path = B.cstr t feat_file in

  (* Score one frame against one density. *)
  let _ =
    B.func t "gmm_score" ~params:[ W.f64p; Ty.I64 ] ~ret:Ty.F64
      (fun fb args ->
        let frame = List.nth args 0 and density = List.nth args 1 in
        let means = B.load fb W.f64p (Ir.Global "means") in
        let variances = B.load fb W.f64p (Ir.Global "variances") in
        let base = B.imul fb density (B.i64 dim) in
        let acc = B.alloca fb Ty.F64 1 in
        B.store fb Ty.F64 (B.f64 0.0) acc;
        B.for_ fb ~name:"gmm_dim" ~from:(B.i64 0) ~below:(B.i64 dim)
          (fun k ->
            let x = B.load fb Ty.F64 (B.gep fb Ty.F64 frame [ Ir.Index k ]) in
            let idx = B.iadd fb base k in
            let mu = B.load fb Ty.F64 (B.gep fb Ty.F64 means [ Ir.Index idx ]) in
            let var =
              B.load fb Ty.F64 (B.gep fb Ty.F64 variances [ Ir.Index idx ])
            in
            let d = B.fsub fb x mu in
            let term = B.fdiv fb (B.fmul fb d d) (B.fadd fb var (B.f64 0.01)) in
            let cur = B.load fb Ty.F64 acc in
            B.store fb Ty.F64 (B.fadd fb cur term) acc);
        B.ret fb (Some (B.fsub fb (B.f64 0.0) (B.load fb Ty.F64 acc))))
  in

  (* main_for.cond(frames, densities) -> total log-likelihood *)
  let _ =
    B.func t "main_for.cond" ~params:[ Ty.I64; Ty.I64 ] ~ret:Ty.F64
      (fun fb args ->
        let frames = List.nth args 0 and densities = List.nth args 1 in
        let frame = B.load fb W.f64p (Ir.Global "frame_buf") in
        let fd = B.call fb "f_open" [ path ] in
        let total = B.alloca fb Ty.F64 1 in
        B.store fb Ty.F64 (B.f64 0.0) total;
        B.for_ fb ~name:"decode_frames" ~from:(B.i64 0) ~below:frames
          (fun _f ->
            (* stream the next frame from the feature file *)
            let frame_i8 =
              B.cast fb Ir.Bitcast ~src:W.f64p frame ~dst:W.i8p
            in
            B.effect fb (Ir.Call ("f_read", [ fd; frame_i8; B.i64 (dim * 8) ]));
            let best = B.alloca fb Ty.F64 1 in
            B.store fb Ty.F64 (B.f64 (-1e30)) best;
            B.for_ fb ~name:"decode_densities" ~from:(B.i64 0)
              ~below:densities (fun d ->
                let s = B.call fb "gmm_score" [ frame; d ] in
                let b = B.load fb Ty.F64 best in
                let better = B.cmp fb Ir.Fgt s b in
                B.if_ fb better ~then_:(fun () -> B.store fb Ty.F64 s best) ());
            let cur = B.load fb Ty.F64 total in
            B.store fb Ty.F64 (B.fadd fb cur (B.load fb Ty.F64 best)) total);
        B.call_void fb "f_close" [ fd ];
        B.ret fb (Some (B.load fb Ty.F64 total)))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let frames, densities = W.scan2 fb in
        let model_count = B.imul fb densities (B.i64 dim) in
        let means = W.malloc_f64 fb model_count in
        let variances = W.malloc_f64 fb model_count in
        let frame = W.malloc_f64 fb (B.i64 dim) in
        B.store fb W.f64p means (Ir.Global "means");
        B.store fb W.f64p variances (Ir.Global "variances");
        B.store fb W.f64p frame (Ir.Global "frame_buf");
        W.fill_f64 fb ~name:"init_means" means ~count:model_count ~scale:2e-3;
        W.fill_f64 fb ~name:"init_vars" variances ~count:model_count
          ~scale:1e-3;
        let ll = B.call fb "main_for.cond" [ frames; densities ] in
        W.print_result_f64 t fb ~label:"log_likelihood" ll;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: frames, densities. *)
let profile_script = W.script_of_ints [ 8; 24 ]
let eval_script = W.script_of_ints [ 48; 64 ]
let eval_scale = 16.0

let files =
  [ (feat_file, W.synthetic_file ~seed:482 ~bytes:(64 * dim * 8)) ]
