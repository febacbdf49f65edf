(* 177.mesa — 3-D graphics library (SPEC CPU2000).

   Table 4 row: 42.2k LoC, 120.2 s, target Render, coverage 99.02 %,
   1 invocation, 20.3 MB communication, 1169 function-pointer uses
   (mesa's driver tables).

   Kernel: software rasterization of a triangle list into an f32
   framebuffer, with the fragment shader selected per triangle
   through a function-pointer table. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "177.mesa"
let description = "3-D graphics rendering"
let targets = [ "Render" ]

let fb_dim = 128

let shader_sig = Ty.signature [ Ty.F64; Ty.F64 ] Ty.F64
let shader_names = [ "shade_flat"; "shade_gouraud"; "shade_textured" ]

let build () =
  let t = B.create name in
  W.add_xrand t;
  B.global t "framebuffer" W.f64p Ir.Zero_init;
  B.global t "shaders"
    (Ty.Array (Ty.Fn_ptr shader_sig, 3))
    (Ir.Array_init (List.map (fun n -> Ir.Fn_init n) shader_names));

  let make_shader fname body =
    let _ =
      B.func t fname ~params:[ Ty.F64; Ty.F64 ] ~ret:Ty.F64 (fun fb args ->
          let u = List.nth args 0 and v = List.nth args 1 in
          B.ret fb (Some (body fb u v)))
    in
    ()
  in
  make_shader "shade_flat" (fun fb u v ->
      B.fadd fb (B.fmul fb u (B.f64 0.5)) (B.fmul fb v (B.f64 0.25)));
  make_shader "shade_gouraud" (fun fb u v ->
      let uv = B.fmul fb u v in
      B.fadd fb uv (B.fmul fb (B.fadd fb u v) (B.f64 0.125)));
  make_shader "shade_textured" (fun fb u v ->
      let s = B.call fb "sin" [ B.fmul fb u (B.f64 12.9898) ] in
      B.fadd fb (B.fmul fb s (B.f64 0.5)) (B.fmul fb v (B.f64 0.3)));

  (* Rasterize one axis-aligned triangle (half of a bounding box). *)
  let _ =
    B.func t "raster_triangle"
      ~params:[ Ty.I64; Ty.I64; Ty.I64; Ty.I64 ] ~ret:Ty.Void (fun fb args ->
        let x0 = List.nth args 0
        and y0 = List.nth args 1
        and size = List.nth args 2
        and shader_idx = List.nth args 3 in
        let fbuf = B.load fb W.f64p (Ir.Global "framebuffer") in
        let table = Ty.Array (Ty.Fn_ptr shader_sig, 3) in
        let slot = B.gep fb table (Ir.Global "shaders") [ Ir.Index shader_idx ] in
        let shader = B.load fb (Ty.Fn_ptr shader_sig) slot in
        B.for_ fb ~name:"raster_rows" ~from:(B.i64 0) ~below:size (fun dy ->
            (* upper-left triangle: row dy spans size-dy pixels *)
            let span = B.isub fb size dy in
            B.for_ fb ~name:"raster_cols" ~from:(B.i64 0) ~below:span
              (fun dx ->
                let x = B.irem fb (B.iadd fb x0 dx) (B.i64 fb_dim) in
                let y = B.irem fb (B.iadd fb y0 dy) (B.i64 fb_dim) in
                let sizef = B.cast fb Ir.Si_to_fp ~src:Ty.I64 size ~dst:Ty.F64 in
                let u =
                  B.fdiv fb
                    (B.cast fb Ir.Si_to_fp ~src:Ty.I64 dx ~dst:Ty.F64)
                    sizef
                in
                let v =
                  B.fdiv fb
                    (B.cast fb Ir.Si_to_fp ~src:Ty.I64 dy ~dst:Ty.F64)
                    sizef
                in
                let color = B.call_ind fb shader_sig shader [ u; v ] in
                let idx = B.iadd fb (B.imul fb y (B.i64 fb_dim)) x in
                let pixel = B.gep fb Ty.F64 fbuf [ Ir.Index idx ] in
                let old = B.load fb Ty.F64 pixel in
                (* alpha blend *)
                B.store fb Ty.F64
                  (B.fadd fb (B.fmul fb old (B.f64 0.5))
                     (B.fmul fb color (B.f64 0.5)))
                  pixel));
        B.ret_void fb)
  in

  (* Render(triangles, max_size) -> luminance sum *)
  let _ =
    B.func t "Render" ~params:[ Ty.I64; Ty.I64 ] ~ret:Ty.F64 (fun fb args ->
        let triangles = List.nth args 0 and max_size = List.nth args 1 in
        let state = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0x177) state;
        B.for_ fb ~name:"render_tris" ~from:(B.i64 0) ~below:triangles
          (fun _i ->
            let r1 = B.call fb "xrand" [ state ] in
            let r2 = B.call fb "xrand" [ state ] in
            let x0 = B.iand fb r1 (B.i64 (fb_dim - 1)) in
            let y0 = B.iand fb r2 (B.i64 (fb_dim - 1)) in
            let size =
              B.iadd fb
                (B.irem fb (B.iand fb r1 (B.i64 0xFFFF)) max_size)
                (B.i64 4)
            in
            let shader = B.irem fb r2 (B.i64 3) in
            let shader =
              B.select fb (B.cmp fb Ir.Slt shader (B.i64 0))
                (B.iadd fb shader (B.i64 3))
                shader
            in
            B.call_void fb "raster_triangle" [ x0; y0; size; shader ]);
        let lum =
          W.sum_f64 fb ~name:"luminance" (B.load fb W.f64p (Ir.Global "framebuffer"))
            ~count:(B.i64 (fb_dim * fb_dim))
        in
        B.ret fb (Some lum))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let triangles, max_size = W.scan2 fb in
        let count = B.i64 (fb_dim * fb_dim) in
        let fbuf = W.malloc_f64 fb count in
        B.store fb W.f64p fbuf (Ir.Global "framebuffer");
        W.fill_f64 fb ~name:"clear_fb" fbuf ~count ~scale:0.0;
        let lum = B.call fb "Render" [ triangles; max_size ] in
        W.print_result_f64 t fb ~label:"luminance" lum;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: triangles, max triangle size. *)
let profile_script = W.script_of_ints [ 12; 24 ]
let eval_script = W.script_of_ints [ 90; 32 ]
let eval_scale = 10.0
let files = []
