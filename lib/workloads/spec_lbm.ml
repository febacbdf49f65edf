(* 470.lbm — fluid dynamics, lattice Boltzmann method (SPEC CPU2006).

   Table 4 row: 0.9k LoC, 1444.9 s (the longest program), target
   main_for.cond (the outlined time loop), coverage 99.70 %,
   1 invocation, 643.6 MB communication (the largest).  The trait:
   enormous state relative to the network, so communication takes a
   visible share on the slow network (Figure 7) yet the huge compute
   still makes offloading profitable.

   Kernel: D2Q5 lattice Boltzmann — stream + collide over five
   distribution planes, double buffered. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "470.lbm"
let description = "Fluid dynamics (lattice Boltzmann)"
let targets = [ "main_for.cond" ]

let dim = 110          (* dim x dim sites, 5 planes, two grids *)
let planes = 5

let build () =
  let t = B.create name in
  B.global t "grid_a" W.f64p Ir.Zero_init;
  B.global t "grid_b" W.f64p Ir.Zero_init;

  let sites = dim * dim in

  (* One LBM step from src into dst. *)
  let _ =
    B.func t "stream_collide" ~params:[ W.f64p; W.f64p ] ~ret:Ty.Void
      (fun fb args ->
        let src = List.nth args 0 and dst = List.nth args 1 in
        let n = B.i64 dim in
        B.for_ fb ~name:"lbm_rows" ~from:(B.i64 1)
          ~below:(B.isub fb n (B.i64 1)) (fun r ->
            B.for_ fb ~name:"lbm_cols" ~from:(B.i64 1)
              ~below:(B.isub fb n (B.i64 1)) (fun c ->
                let site = B.iadd fb (B.imul fb r n) c in
                let plane_at p dr dc =
                  let neighbour =
                    B.iadd fb
                      (B.imul fb (B.iadd fb r (B.i64 dr)) n)
                      (B.iadd fb c (B.i64 dc))
                  in
                  B.iadd fb (B.imul fb (B.i64 p) (B.i64 sites)) neighbour
                in
                (* gather the five inbound distributions *)
                let f0 = B.load fb Ty.F64 (B.gep fb Ty.F64 src [ Ir.Index (plane_at 0 0 0) ]) in
                let f1 = B.load fb Ty.F64 (B.gep fb Ty.F64 src [ Ir.Index (plane_at 1 0 (-1)) ]) in
                let f2 = B.load fb Ty.F64 (B.gep fb Ty.F64 src [ Ir.Index (plane_at 2 0 1) ]) in
                let f3 = B.load fb Ty.F64 (B.gep fb Ty.F64 src [ Ir.Index (plane_at 3 (-1) 0) ]) in
                let f4 = B.load fb Ty.F64 (B.gep fb Ty.F64 src [ Ir.Index (plane_at 4 1 0) ]) in
                let rho =
                  B.fadd fb f0 (B.fadd fb (B.fadd fb f1 f2) (B.fadd fb f3 f4))
                in
                let eq = B.fmul fb rho (B.f64 0.2) in
                let relax f =
                  B.fadd fb (B.fmul fb f (B.f64 0.9))
                    (B.fmul fb eq (B.f64 0.1))
                in
                let store_plane p v =
                  let idx =
                    B.iadd fb (B.imul fb (B.i64 p) (B.i64 sites)) site
                  in
                  B.store fb Ty.F64 v (B.gep fb Ty.F64 dst [ Ir.Index idx ])
                in
                store_plane 0 (relax f0);
                store_plane 1 (relax f1);
                store_plane 2 (relax f2);
                store_plane 3 (relax f3);
                store_plane 4 (relax f4)));
        B.ret_void fb)
  in

  (* main_for.cond(steps) -> mass estimate *)
  let _ =
    B.func t "main_for.cond" ~params:[ Ty.I64 ] ~ret:Ty.F64 (fun fb args ->
        let steps = List.nth args 0 in
        B.for_ fb ~name:"lbm_time" ~from:(B.i64 0) ~below:steps (fun s ->
            let a = B.load fb W.f64p (Ir.Global "grid_a") in
            let b = B.load fb W.f64p (Ir.Global "grid_b") in
            let odd = B.irem fb s (B.i64 2) in
            let is_odd = B.cmp fb Ir.Eq odd (B.i64 1) in
            let src = B.select fb is_odd b a in
            let dst = B.select fb is_odd a b in
            B.call_void fb "stream_collide" [ src; dst ]);
        let a = B.load fb W.f64p (Ir.Global "grid_a") in
        let mass =
          W.sum_f64 fb ~name:"mass" a ~count:(B.i64 (sites * planes))
        in
        B.ret fb (Some mass))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let steps, _unused = W.scan2 fb in
        let words = B.i64 (sites * planes) in
        let a = W.malloc_f64 fb words in
        let b = W.malloc_f64 fb words in
        B.store fb W.f64p a (Ir.Global "grid_a");
        B.store fb W.f64p b (Ir.Global "grid_b");
        W.fill_f64 fb ~name:"init_a" a ~count:words ~scale:2e-5;
        W.fill_f64 fb ~name:"init_b" b ~count:words ~scale:2e-5;
        let mass = B.call fb "main_for.cond" [ steps ] in
        W.print_result_f64 t fb ~label:"mass" mass;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: time steps, unused. *)
let profile_script = W.script_of_ints [ 1; 0 ]
let eval_script = W.script_of_ints [ 12; 0 ]
let eval_scale = 12.0
let files = []
