(* 464.h264ref — video encoder (SPEC CPU2006).

   Table 4 row: 59.5k LoC, 78.2 s, target encode_sequence, coverage
   99.79 %, 1 invocation, 17.1 MB communication, 457 function-pointer
   uses.  Two Figure 7 traits: it "reads a video file to encode"
   (remote input) and it selects SAD (sum-of-absolute-differences)
   routines through function pointers per block, paying translation
   costs.

   Kernel: block motion estimation between two frames read from a
   file, with the SAD metric dispatched through a 4-entry table. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "464.h264ref"
let description = "H.264 video encoder"
let targets = [ "encode_sequence" ]

let frame_file = "h264.frames"
let frame_dim = 64                       (* 64x64 pixels, one byte each *)
let block = 8

let sad_sig = Ty.signature [ Ty.I64; Ty.I64 ] Ty.I64
let sad_names = [ "sad_full"; "sad_half"; "sad_quarter"; "sad_skip" ]

let build () =
  let t = B.create name in
  B.global t "frame_ref" W.i8p Ir.Zero_init;
  B.global t "frame_cur" W.i8p Ir.Zero_init;
  B.global t "sad_table"
    (Ty.Array (Ty.Fn_ptr sad_sig, 4))
    (Ir.Array_init (List.map (fun n -> Ir.Fn_init n) sad_names));
  let path = B.cstr t frame_file in

  (* The SAD variants differ in sampling stride. *)
  List.iteri
    (fun i fname ->
      let stride = 1 lsl (i / 2) in
      let _ =
        B.func t fname ~params:[ Ty.I64; Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
            let cur_off = List.nth args 0 and ref_off = List.nth args 1 in
            let cur = B.load fb W.i8p (Ir.Global "frame_cur") in
            let refp = B.load fb W.i8p (Ir.Global "frame_ref") in
            let acc = B.alloca fb Ty.I64 1 in
            B.store fb Ty.I64 (B.i64 0) acc;
            B.for_ fb ~name:(fname ^ "_rows") ~from:(B.i64 0)
              ~below:(B.i64 (block / stride)) (fun r ->
                B.for_ fb ~name:(fname ^ "_cols") ~from:(B.i64 0)
                  ~below:(B.i64 (block / stride)) (fun c ->
                    let pix base offset =
                      let idx =
                        B.iadd fb offset
                          (B.iadd fb
                             (B.imul fb
                                (B.imul fb r (B.i64 stride))
                                (B.i64 frame_dim))
                             (B.imul fb c (B.i64 stride)))
                      in
                      let slot = B.gep fb Ty.I8 base [ Ir.Index idx ] in
                      let v = B.load fb Ty.I8 slot in
                      let v64 = B.cast fb Ir.Sext ~src:Ty.I8 v ~dst:Ty.I64 in
                      B.iand fb v64 (B.i64 255)
                    in
                    let a = pix cur cur_off in
                    let b = pix refp ref_off in
                    let d = B.isub fb a b in
                    let neg = B.cmp fb Ir.Slt d (B.i64 0) in
                    let mag = B.select fb neg (B.isub fb (B.i64 0) d) d in
                    let acc_v = B.load fb Ty.I64 acc in
                    B.store fb Ty.I64 (B.iadd fb acc_v mag) acc));
            B.ret fb (Some (B.load fb Ty.I64 acc)))
      in
      ())
    sad_names;

  (* encode_sequence(search) -> total distortion *)
  let _ =
    B.func t "encode_sequence" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let search = List.nth args 0 in
        let frame_bytes = frame_dim * frame_dim in
        (* read both frames remotely *)
        let fd = B.call fb "f_open" [ path ] in
        let cur = B.load fb W.i8p (Ir.Global "frame_cur") in
        let refp = B.load fb W.i8p (Ir.Global "frame_ref") in
        let read_frame dst =
          let offset = B.alloca fb Ty.I64 1 in
          B.store fb Ty.I64 (B.i64 0) offset;
          B.while_ fb ~name:(B.fresh_label fb "read_frame")
            ~cond:(fun () ->
              let off = B.load fb Ty.I64 offset in
              B.cmp fb Ir.Slt off (B.i64 frame_bytes))
            ~body:(fun () ->
              let off = B.load fb Ty.I64 offset in
              let p = B.gep fb Ty.I8 dst [ Ir.Index off ] in
              let got = B.call fb "f_read" [ fd; p; B.i64 1024 ] in
              let stop = B.cmp fb Ir.Sle got (B.i64 0) in
              B.if_ fb stop
                ~then_:(fun () ->
                  B.store fb Ty.I64 (B.i64 frame_bytes) offset)
                ~else_:(fun () ->
                  B.store fb Ty.I64 (B.iadd fb off got) offset)
                ())
            ()
        in
        read_frame refp;
        read_frame cur;
        B.call_void fb "f_close" [ fd ];
        (* motion estimation per block *)
        let blocks_per_row = frame_dim / block in
        let total = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) total;
        B.for_ fb ~name:"enc_blocks" ~from:(B.i64 0)
          ~below:(B.i64 (blocks_per_row * blocks_per_row)) (fun bidx ->
            let br = B.idiv fb bidx (B.i64 blocks_per_row) in
            let bc = B.irem fb bidx (B.i64 blocks_per_row) in
            let cur_off =
              B.iadd fb
                (B.imul fb (B.imul fb br (B.i64 block)) (B.i64 frame_dim))
                (B.imul fb bc (B.i64 block))
            in
            let best = B.alloca fb Ty.I64 1 in
            B.store fb Ty.I64 (B.i64 0x7FFFFFFF) best;
            B.for_ fb ~name:"enc_search" ~from:(B.i64 0) ~below:search
              (fun s ->
                (* candidate displacement from the search index *)
                let dr = B.isub fb (B.irem fb s (B.i64 7)) (B.i64 3) in
                let dc = B.isub fb (B.idiv fb s (B.i64 7)) (B.i64 3) in
                let rr =
                  B.iadd fb (B.imul fb br (B.i64 block)) (B.iadd fb dr (B.i64 3))
                in
                let cc =
                  B.iadd fb (B.imul fb bc (B.i64 block)) (B.iadd fb dc (B.i64 3))
                in
                let ref_off =
                  B.iadd fb (B.imul fb rr (B.i64 frame_dim)) cc
                in
                (* choose the SAD variant per candidate *)
                let which = B.iand fb s (B.i64 3) in
                let table = Ty.Array (Ty.Fn_ptr sad_sig, 4) in
                let slot =
                  B.gep fb table (Ir.Global "sad_table") [ Ir.Index which ]
                in
                let sad = B.load fb (Ty.Fn_ptr sad_sig) slot in
                let d = B.call_ind fb sad_sig sad [ cur_off; ref_off ] in
                let b = B.load fb Ty.I64 best in
                let better = B.cmp fb Ir.Slt d b in
                B.if_ fb better ~then_:(fun () -> B.store fb Ty.I64 d best) ());
            let cur_total = B.load fb Ty.I64 total in
            B.store fb Ty.I64 (B.iadd fb cur_total (B.load fb Ty.I64 best))
              total);
        B.ret fb (Some (B.load fb Ty.I64 total)))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let search, _unused = W.scan2 fb in
        let frame_bytes = B.i64 (frame_dim * frame_dim) in
        let alloc () =
          B.call fb "malloc" [ frame_bytes ]
        in
        let refp = alloc () and cur = alloc () in
        B.store fb W.i8p refp (Ir.Global "frame_ref");
        B.store fb W.i8p cur (Ir.Global "frame_cur");
        let distortion = B.call fb "encode_sequence" [ search ] in
        W.print_result t fb ~label:"distortion" distortion;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: search positions per block. *)
let profile_script = W.script_of_ints [ 6; 0 ]
let eval_script = W.script_of_ints [ 40; 0 ]
let eval_scale = 6.7

let files =
  [ (frame_file, W.synthetic_file ~seed:464 ~bytes:(2 * frame_dim * frame_dim)) ]
