(* 433.milc — lattice quantum chromodynamics (SPEC CPU2006).

   Table 4 row: 9.6k LoC, 365.8 s, target update, coverage 96.21 %,
   **2 invocations** ("The Native Offloader compiler [...] executes
   the same target multiple times if the target is invoked multiple
   times like AMMPmonitor, update and think"), 13.4 MB communication
   per invocation.

   Kernel: SU(3)-flavoured sweeps — per lattice site, a 3x3 complex
   matrix-matrix multiply against a neighbour's link matrix. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "433.milc"
let description = "Lattice quantum chromodynamics"
let targets = [ "update" ]

(* Each site carries a 3x3 complex matrix: 18 doubles. *)
let site_doubles = 18

let build () =
  let t = B.create name in
  B.global t "lattice" W.f64p Ir.Zero_init;
  B.global t "staple" W.f64p Ir.Zero_init;

  (* Multiply site matrix by neighbour matrix, write back scaled. *)
  let _ =
    B.func t "su3_mult_site" ~params:[ W.f64p; W.f64p; Ty.I64; Ty.I64 ]
      ~ret:Ty.Void (fun fb args ->
        let lattice = List.nth args 0
        and staple = List.nth args 1
        and site = List.nth args 2
        and nbr = List.nth args 3 in
        let sbase = B.imul fb site (B.i64 site_doubles) in
        let nbase = B.imul fb nbr (B.i64 site_doubles) in
        (* 3x3 complex matmul: for i,j: sum_k a[i,k]*b[k,j] *)
        B.for_ fb ~name:"su3_i" ~from:(B.i64 0) ~below:(B.i64 3) (fun i ->
            B.for_ fb ~name:"su3_j" ~from:(B.i64 0) ~below:(B.i64 3) (fun j ->
                let re = B.alloca fb Ty.F64 1 in
                let im = B.alloca fb Ty.F64 1 in
                B.store fb Ty.F64 (B.f64 0.0) re;
                B.store fb Ty.F64 (B.f64 0.0) im;
                B.for_ fb ~name:"su3_k" ~from:(B.i64 0) ~below:(B.i64 3)
                  (fun k ->
                    let idx base row col =
                      B.iadd fb base
                        (B.iadd fb
                           (B.imul fb
                              (B.iadd fb (B.imul fb row (B.i64 3)) col)
                              (B.i64 2))
                           (B.i64 0))
                    in
                    let a_re_slot =
                      B.gep fb Ty.F64 lattice [ Ir.Index (idx sbase i k) ]
                    in
                    let a_im_slot =
                      B.gep fb Ty.F64 lattice
                        [ Ir.Index (B.iadd fb (idx sbase i k) (B.i64 1)) ]
                    in
                    let b_re_slot =
                      B.gep fb Ty.F64 lattice [ Ir.Index (idx nbase k j) ]
                    in
                    let b_im_slot =
                      B.gep fb Ty.F64 lattice
                        [ Ir.Index (B.iadd fb (idx nbase k j) (B.i64 1)) ]
                    in
                    let ar = B.load fb Ty.F64 a_re_slot in
                    let ai = B.load fb Ty.F64 a_im_slot in
                    let br = B.load fb Ty.F64 b_re_slot in
                    let bi = B.load fb Ty.F64 b_im_slot in
                    let prod_re =
                      B.fsub fb (B.fmul fb ar br) (B.fmul fb ai bi)
                    in
                    let prod_im =
                      B.fadd fb (B.fmul fb ar bi) (B.fmul fb ai br)
                    in
                    B.store fb Ty.F64
                      (B.fadd fb (B.load fb Ty.F64 re) prod_re) re;
                    B.store fb Ty.F64
                      (B.fadd fb (B.load fb Ty.F64 im) prod_im) im);
                let out =
                  B.iadd fb sbase
                    (B.imul fb (B.iadd fb (B.imul fb i (B.i64 3)) j) (B.i64 2))
                in
                let damp v = B.fmul fb v (B.f64 0.5) in
                B.store fb Ty.F64
                  (damp (B.load fb Ty.F64 re))
                  (B.gep fb Ty.F64 staple [ Ir.Index out ]);
                B.store fb Ty.F64
                  (damp (B.load fb Ty.F64 im))
                  (B.gep fb Ty.F64 staple
                     [ Ir.Index (B.iadd fb out (B.i64 1)) ])));
        B.ret_void fb)
  in

  (* update(sites, sweeps) -> plaquette estimate *)
  let _ =
    B.func t "update" ~params:[ Ty.I64; Ty.I64 ] ~ret:Ty.F64 (fun fb args ->
        let sites = List.nth args 0 and sweeps = List.nth args 1 in
        let lattice = B.load fb W.f64p (Ir.Global "lattice") in
        let staple = B.load fb W.f64p (Ir.Global "staple") in
        B.for_ fb ~name:"update_sweep" ~from:(B.i64 0) ~below:sweeps
          (fun s ->
            B.for_ fb ~name:"update_sites" ~from:(B.i64 0) ~below:sites
              (fun site ->
                let nbr =
                  B.irem fb (B.iadd fb site (B.iadd fb s (B.i64 1))) sites
                in
                B.call_void fb "su3_mult_site" [ lattice; staple; site; nbr ]);
            (* write staples back into the lattice *)
            let words = B.imul fb sites (B.i64 site_doubles) in
            B.for_ fb ~name:"update_copy" ~from:(B.i64 0) ~below:words
              (fun w ->
                let v = B.load fb Ty.F64 (B.gep fb Ty.F64 staple [ Ir.Index w ]) in
                let cur = B.load fb Ty.F64 (B.gep fb Ty.F64 lattice [ Ir.Index w ]) in
                B.store fb Ty.F64
                  (B.fadd fb (B.fmul fb cur (B.f64 0.5)) v)
                  (B.gep fb Ty.F64 lattice [ Ir.Index w ])));
        let words = B.imul fb sites (B.i64 site_doubles) in
        let plaq = W.sum_f64 fb ~name:"plaquette" lattice ~count:words in
        B.ret fb (Some plaq))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let sites, sweeps = W.scan2 fb in
        let words = B.imul fb sites (B.i64 site_doubles) in
        let lattice = W.malloc_f64 fb words in
        let staple = W.malloc_f64 fb words in
        B.store fb W.f64p lattice (Ir.Global "lattice");
        B.store fb W.f64p staple (Ir.Global "staple");
        W.fill_f64 fb ~name:"init_lattice" lattice ~count:words ~scale:1e-4;
        (* Two invocations of the offloading target, as in the paper. *)
        let p1 = B.call fb "update" [ sites; sweeps ] in
        W.print_result_f64 t fb ~label:"plaquette1" p1;
        let p2 = B.call fb "update" [ sites; sweeps ] in
        W.print_result_f64 t fb ~label:"plaquette2" p2;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: lattice sites, sweeps per invocation. *)
let profile_script = W.script_of_ints [ 32; 2 ]
let eval_script = W.script_of_ints [ 256; 3 ]
let eval_scale = 12.0
let files = []
