(* 401.bzip2 — compression (SPEC CPU2006).

   Table 4 row: 5.7k LoC, 27.0 s, target spec_compress, coverage
   98.79 %, 1 invocation, 134.3 MB communication.  Like 164.gzip, a
   streaming kernel whose communication-to-compute ratio makes the
   slow network unprofitable.

   Kernel: a block transform (neighbour mixing, a move-to-front-style
   remap through a small table) followed by run-length packing —
   more passes per word than gzip, on a somewhat smaller block. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "401.bzip2"
let description = "Compression"
let targets = [ "spec_compress" ]

let build () =
  let t = B.create name in
  W.add_checksum t;
  B.global t "block" W.i64p Ir.Zero_init;
  B.global t "scratch" W.i64p Ir.Zero_init;

  (* Pass 1: forward transform mixing each word with its predecessor. *)
  let _ =
    B.func t "block_transform" ~params:[ W.i64p; W.i64p; Ty.I64 ] ~ret:Ty.Void
      (fun fb args ->
        let src = List.nth args 0
        and dst = List.nth args 1
        and nwords = List.nth args 2 in
        let prev = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) prev;
        B.for_ fb ~name:"bwt_pass" ~from:(B.i64 0) ~below:nwords (fun i ->
            let v = B.load fb Ty.I64 (B.gep fb Ty.I64 src [ Ir.Index i ]) in
            let p = B.load fb Ty.I64 prev in
            let mixed = B.ixor fb v (B.ilshr fb p (B.i64 3)) in
            B.store fb Ty.I64 mixed (B.gep fb Ty.I64 dst [ Ir.Index i ]);
            B.store fb Ty.I64 v prev);
        B.ret_void fb)
  in

  (* Pass 2: move-to-front-style remap through a 16-entry table kept
     on the stack, then run-length pack in place; returns words out. *)
  let _ =
    B.func t "mtf_rle" ~params:[ W.i64p; W.i64p; Ty.I64 ] ~ret:Ty.I64
      (fun fb args ->
        let src = List.nth args 0
        and dst = List.nth args 1
        and nwords = List.nth args 2 in
        let table = B.alloca fb Ty.I64 16 in
        B.for_ fb ~name:"mtf_init" ~from:(B.i64 0) ~below:(B.i64 16) (fun i ->
            B.store fb Ty.I64 (B.imul fb i (B.i64' 0x0101010101010101L))
              (B.gep fb Ty.I64 table [ Ir.Index i ]));
        let out = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) out;
        B.for_ fb ~name:"mtf_pass" ~from:(B.i64 0) ~below:nwords (fun i ->
            let v = B.load fb Ty.I64 (B.gep fb Ty.I64 src [ Ir.Index i ]) in
            let idx = B.iand fb v (B.i64 15) in
            let sub = B.load fb Ty.I64 (B.gep fb Ty.I64 table [ Ir.Index idx ]) in
            let coded = B.ixor fb v sub in
            B.store fb Ty.I64 (B.ixor fb sub coded)
              (B.gep fb Ty.I64 table [ Ir.Index idx ]);
            (* pack: skip zero words, copy the rest *)
            let nz = B.cmp fb Ir.Ne coded (B.i64 0) in
            B.if_ fb nz
              ~then_:(fun () ->
                let o = B.load fb Ty.I64 out in
                B.store fb Ty.I64 coded (B.gep fb Ty.I64 dst [ Ir.Index o ]);
                B.store fb Ty.I64 (B.iadd fb o (B.i64 1)) out)
              ());
        B.ret fb (Some (B.load fb Ty.I64 out)))
  in

  let _ =
    B.func t "spec_compress" ~params:[ W.i64p; W.i64p; Ty.I64 ] ~ret:Ty.I64
      (fun fb args ->
        let block = List.nth args 0
        and scratch = List.nth args 1
        and nwords = List.nth args 2 in
        B.call_void fb "block_transform" [ block; scratch; nwords ];
        let out = B.call fb "mtf_rle" [ scratch; block; nwords ] in
        B.ret fb (Some (B.imul fb out (B.i64 8))))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let nwords, run_shift = W.scan2 fb in
        let bytes = B.imul fb nwords (B.i64 8) in
        let block = W.malloc_words fb bytes in
        let scratch = W.malloc_words fb bytes in
        B.store fb W.i64p block (Ir.Global "block");
        B.store fb W.i64p scratch (Ir.Global "scratch");
        W.fill_runs fb ~name:"fill_block" block ~words:nwords ~run_shift
          ~seed:(B.i64 11);
        let out_bytes = B.call fb "spec_compress" [ block; scratch; nwords ] in
        W.print_result t fb ~label:"compressed_bytes" out_bytes;
        let ck = B.call fb "checksum" [ block; out_bytes ] in
        W.print_result t fb ~label:"checksum" ck;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

let profile_script = W.script_of_ints [ 4_000; 3 ]
let eval_script = W.script_of_ints [ 36_000; 3 ]
let eval_scale = 9.0
let files = []
