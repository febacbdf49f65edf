(* 183.equake — seismic wave propagation (SPEC CPU2000).

   Table 4 row: 1.0k LoC, 334.0 s, target main_for.cond548 (an
   outlined time-stepping loop), coverage 99.44 %, 1 invocation,
   16.5 MB communication.  A classic stencil: compute-heavy, modest
   working set, near-ideal speedups (named in Section 5.1 among the
   programs that "require little communication compared to
   computation").

   Kernel: 5-point wave-equation stencil over two rolling grids. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "183.equake"
let description = "Seismic wave propagation"
let targets = [ "main_for.cond548" ]

let dim = 96

let build () =
  let t = B.create name in
  B.global t "wave_cur" W.f64p Ir.Zero_init;
  B.global t "wave_prev" W.f64p Ir.Zero_init;

  (* One time step: next = 2*cur - prev + c * laplacian(cur), written
     into prev (rolling buffers swapped by the caller loop index). *)
  let _ =
    B.func t "wave_step" ~params:[ W.f64p; W.f64p ] ~ret:Ty.Void
      (fun fb args ->
        let cur = List.nth args 0 and prev = List.nth args 1 in
        let n = B.i64 dim in
        B.for_ fb ~name:"step_rows" ~from:(B.i64 1)
          ~below:(B.isub fb n (B.i64 1)) (fun r ->
            B.for_ fb ~name:"step_cols" ~from:(B.i64 1)
              ~below:(B.isub fb n (B.i64 1)) (fun c ->
                let at buf dr dc =
                  let idx =
                    B.iadd fb
                      (B.imul fb (B.iadd fb r (B.i64 dr)) n)
                      (B.iadd fb c (B.i64 dc))
                  in
                  B.gep fb Ty.F64 buf [ Ir.Index idx ]
                in
                let center = B.load fb Ty.F64 (at cur 0 0) in
                let north = B.load fb Ty.F64 (at cur (-1) 0) in
                let south = B.load fb Ty.F64 (at cur 1 0) in
                let west = B.load fb Ty.F64 (at cur 0 (-1)) in
                let east = B.load fb Ty.F64 (at cur 0 1) in
                let old = B.load fb Ty.F64 (at prev 0 0) in
                let lap =
                  B.fsub fb
                    (B.fadd fb (B.fadd fb north south) (B.fadd fb west east))
                    (B.fmul fb (B.f64 4.0) center)
                in
                let next =
                  B.fadd fb
                    (B.fsub fb (B.fmul fb (B.f64 2.0) center) old)
                    (B.fmul fb (B.f64 0.24) lap)
                in
                B.store fb Ty.F64 next (at prev 0 0)));
        B.ret_void fb)
  in

  (* main_for.cond548(steps) -> energy estimate *)
  let _ =
    B.func t "main_for.cond548" ~params:[ Ty.I64 ] ~ret:Ty.F64 (fun fb args ->
        let steps = List.nth args 0 in
        let cur_slot = Ir.Global "wave_cur" in
        let prev_slot = Ir.Global "wave_prev" in
        B.for_ fb ~name:"time_loop" ~from:(B.i64 0) ~below:steps (fun s ->
            let cur = B.load fb W.f64p cur_slot in
            let prev = B.load fb W.f64p prev_slot in
            let odd = B.irem fb s (B.i64 2) in
            let is_odd = B.cmp fb Ir.Eq odd (B.i64 1) in
            let a = B.select fb is_odd prev cur in
            let b = B.select fb is_odd cur prev in
            B.call_void fb "wave_step" [ a; b ]);
        let cur = B.load fb W.f64p cur_slot in
        let energy =
          W.sum_f64 fb ~name:"energy" cur ~count:(B.i64 (dim * dim))
        in
        B.ret fb (Some energy))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let steps, _unused = W.scan2 fb in
        let count = B.i64 (dim * dim) in
        let cur = W.malloc_f64 fb count in
        let prev = W.malloc_f64 fb count in
        B.store fb W.f64p cur (Ir.Global "wave_cur");
        B.store fb W.f64p prev (Ir.Global "wave_prev");
        W.fill_f64 fb ~name:"init_cur" cur ~count ~scale:1e-3;
        W.fill_f64 fb ~name:"init_prev" prev ~count ~scale:1e-3;
        let energy = B.call fb "main_for.cond548" [ steps ] in
        W.print_result_f64 t fb ~label:"energy" energy;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: time steps, unused. *)
let profile_script = W.script_of_ints [ 3; 0 ]
let eval_script = W.script_of_ints [ 24; 0 ]
let eval_scale = 8.0
let files = []
