(* 164.gzip — compression (SPEC CPU2000).

   Table 4 row: 5.5k LoC, 15.3 s, target spec_compress, coverage
   98.90 %, 1 invocation, 151.5 MB communication.  The defining trait:
   the hot kernel streams over a large buffer doing little arithmetic
   per byte, so communication dwarfs the compute gain on the slow
   network and the dynamic estimator refuses to offload there
   (Section 5.1 names 164.gzip as the example of this refusal).

   Kernel: word-granularity run-length compression of a
   run-structured input buffer. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "164.gzip"
let description = "Compression"
let targets = [ "spec_compress" ]

let build () =
  let t = B.create name in
  W.add_checksum t;
  B.global t "src" W.i64p Ir.Zero_init;
  B.global t "dst" W.i64p Ir.Zero_init;

  (* spec_compress(src, nwords, dst) -> bytes written *)
  let _ =
    B.func t "spec_compress" ~params:[ W.i64p; Ty.I64; W.i64p ] ~ret:Ty.I64
      (fun fb args ->
        let src = List.nth args 0
        and nwords = List.nth args 1
        and dst = List.nth args 2 in
        let out = B.alloca fb Ty.I64 1 in
        let prev = B.alloca fb Ty.I64 1 in
        let run = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) out;
        B.store fb Ty.I64 (B.i64' Int64.min_int) prev;
        B.store fb Ty.I64 (B.i64 0) run;
        let emit () =
          (* dst[out] = prev; dst[out+1] = run; out += 2 *)
          let o = B.load fb Ty.I64 out in
          let p = B.load fb Ty.I64 prev in
          let r = B.load fb Ty.I64 run in
          B.store fb Ty.I64 p (B.gep fb Ty.I64 dst [ Ir.Index o ]);
          let o1 = B.iadd fb o (B.i64 1) in
          B.store fb Ty.I64 r (B.gep fb Ty.I64 dst [ Ir.Index o1 ]);
          B.store fb Ty.I64 (B.iadd fb o (B.i64 2)) out
        in
        B.for_ fb ~name:"compress_loop" ~from:(B.i64 0) ~below:nwords
          (fun i ->
            let v = B.load fb Ty.I64 (B.gep fb Ty.I64 src [ Ir.Index i ]) in
            let p = B.load fb Ty.I64 prev in
            let same = B.cmp fb Ir.Eq v p in
            B.if_ fb same
              ~then_:(fun () ->
                let r = B.load fb Ty.I64 run in
                B.store fb Ty.I64 (B.iadd fb r (B.i64 1)) run)
              ~else_:(fun () ->
                let r = B.load fb Ty.I64 run in
                let started = B.cmp fb Ir.Sgt r (B.i64 0) in
                B.if_ fb started ~then_:(fun () -> emit ()) ();
                B.store fb Ty.I64 v prev;
                B.store fb Ty.I64 (B.i64 1) run)
              ());
        let r = B.load fb Ty.I64 run in
        let started = B.cmp fb Ir.Sgt r (B.i64 0) in
        B.if_ fb started ~then_:(fun () -> emit ()) ();
        let words_out = B.load fb Ty.I64 out in
        B.ret fb (Some (B.imul fb words_out (B.i64 8))))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let nwords, run_shift = W.scan2 fb in
        let bytes = B.imul fb nwords (B.i64 8) in
        let src = W.malloc_words fb bytes in
        B.store fb W.i64p src (Ir.Global "src");
        W.fill_runs fb ~name:"fill_src" src ~words:nwords ~run_shift ~seed:(B.i64 7);
        let dst = W.malloc_words fb (B.iadd fb bytes (B.i64 64)) in
        B.store fb W.i64p dst (Ir.Global "dst");
        let out_bytes = B.call fb "spec_compress" [ src; nwords; dst ] in
        W.print_result t fb ~label:"compressed_bytes" out_bytes;
        let ck = B.call fb "checksum" [ dst; out_bytes ] in
        W.print_result t fb ~label:"checksum" ck;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: word count, run-length shift (runs of 2^k words). *)
let profile_script = W.script_of_ints [ 8_000; 4 ]
let eval_script = W.script_of_ints [ 80_000; 4 ]
let eval_scale = 10.0
let files = []
