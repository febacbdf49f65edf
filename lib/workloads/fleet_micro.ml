(* fleet.micro — synthetic scheduler-stress workload.

   Not a SPEC program: a deliberately tiny session (one page of heap,
   a short compute kernel) whose interpreter cost is a fraction of a
   millisecond, so the discrete-event core can sweep fleets of 10^3 -
   10^4 clients in seconds.  The kernel still dominates execution the
   way a Table-4 target does (the fill is a single cheap pass), so the
   profiler picks it and the estimator offloads it like any real
   workload — the scheduling behaviour under contention is the same,
   only the per-session price shrinks.

   Parameters (console script): words, iters.  The kernel makes
   [iters] mixing sweeps over a [words]-word buffer; the heavy variant
   below runs the same program with several times the sweeps, giving
   fleet mixes a long-task class for saturation and policy-flip
   scenarios. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "fleet.micro"
let description = "Synthetic fleet scheduling micro-task"
let targets = [ "micro_kernel" ]

let build () =
  let t = B.create name in
  W.add_checksum ~stride:8 t;

  (* micro_kernel(buf, words, iters) -> checksum: [iters] in-place
     mixing sweeps, then a fold.  Word-at-a-time integer work — the
     same shape as the real kernels, just small. *)
  let _ =
    B.func t "micro_kernel" ~params:[ W.i64p; Ty.I64; Ty.I64 ] ~ret:Ty.I64
      (fun fb args ->
        let buf = List.nth args 0
        and words = List.nth args 1
        and iters = List.nth args 2 in
        B.for_ fb ~name:"sweep" ~from:(B.i64 0) ~below:iters (fun r ->
            B.for_ fb ~name:"mix" ~from:(B.i64 0) ~below:words (fun i ->
                let slot = B.gep fb Ty.I64 buf [ Ir.Index i ] in
                let v = B.load fb Ty.I64 slot in
                let v = B.ixor fb v (B.ilshr fb v (B.i64 7)) in
                let v =
                  B.iadd fb (B.imul fb v (B.i64' 0x9E3779B97F4A7C15L)) r
                in
                B.store fb Ty.I64 v slot));
        let bytes = B.imul fb words (B.i64 8) in
        B.ret fb (Some (B.call fb "checksum" [ buf; bytes ])))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let words, iters = W.scan2 fb in
        let buf = W.malloc_words fb (B.imul fb words (B.i64 8)) in
        W.fill_pattern fb ~name:"fill" buf ~words ~seed:(B.i64 1)
          ~step:(B.i64 3);
        let sum = B.call fb "micro_kernel" [ buf; words; iters ] in
        W.print_result t fb ~label:"micro" sum;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* A 1 KiB buffer — one page of heap; profile and eval inputs share
   the buffer size so the footprint estimate transfers. *)
let profile_script = W.script_of_ints [ 128; 4 ]
let eval_script = W.script_of_ints [ 128; 16 ]
let eval_scale = 4.0
let files = []

(* The heavy variant replays the same program with 8x the sweeps —
   long tasks for saturation scenarios.  It names only what differs;
   the registry includes it over this module. *)
module Heavy = struct
  let name = "fleet.micro.heavy"
  let description = "Synthetic fleet micro-task, long-running variant"
  let profile_script = W.script_of_ints [ 128; 32 ]
  let eval_script = W.script_of_ints [ 128; 128 ]
end
