(* 462.libquantum — quantum computer simulation (SPEC CPU2006).

   Table 4 row: 2.6k LoC, 71.0 s, target quantum_exp_mod_n, coverage
   92.56 %, 1 invocation, 6.3 MB communication.  A state-vector
   simulator: every gate sweeps the full amplitude vector.

   Kernel: controlled rotations over a 2^q complex state vector
   (interleaved re/im f64 pairs), applied by a modular-exponentiation
   gate schedule. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "462.libquantum"
let description = "Quantum computing (Shor)"
let targets = [ "quantum_exp_mod_n" ]

let build () =
  let t = B.create name in
  B.global t "state_vec" W.f64p Ir.Zero_init;

  (* Apply one rotation mixing amplitude pairs separated by [stride]. *)
  let _ =
    B.func t "apply_gate" ~params:[ W.f64p; Ty.I64; Ty.I64; Ty.F64 ]
      ~ret:Ty.Void (fun fb args ->
        let vec = List.nth args 0
        and size = List.nth args 1
        and stride = List.nth args 2
        and angle = List.nth args 3 in
        let c = B.call fb "cos" [ angle ] in
        let s = B.call fb "sin" [ angle ] in
        let pairs = B.idiv fb size (B.i64 2) in
        B.for_ fb ~name:"gate_sweep" ~from:(B.i64 0) ~below:pairs (fun i ->
            let j = B.irem fb (B.iadd fb i stride) pairs in
            let re_i = B.gep fb Ty.F64 vec [ Ir.Index (B.imul fb i (B.i64 2)) ] in
            let im_i =
              B.gep fb Ty.F64 vec
                [ Ir.Index (B.iadd fb (B.imul fb i (B.i64 2)) (B.i64 1)) ]
            in
            let re_j = B.gep fb Ty.F64 vec [ Ir.Index (B.imul fb j (B.i64 2)) ] in
            let a = B.load fb Ty.F64 re_i in
            let b = B.load fb Ty.F64 im_i in
            let x = B.load fb Ty.F64 re_j in
            let new_a = B.fsub fb (B.fmul fb c a) (B.fmul fb s b) in
            let new_b = B.fadd fb (B.fmul fb s a) (B.fmul fb c b) in
            let new_a = B.fadd fb new_a (B.fmul fb (B.f64 1e-6) x) in
            B.store fb Ty.F64 new_a re_i;
            B.store fb Ty.F64 new_b im_i);
        B.ret_void fb)
  in

  (* quantum_exp_mod_n(vec, size, gates) -> norm estimate *)
  let _ =
    B.func t "quantum_exp_mod_n" ~params:[ W.f64p; Ty.I64; Ty.I64 ]
      ~ret:Ty.F64 (fun fb args ->
        let vec = List.nth args 0
        and size = List.nth args 1
        and gates = List.nth args 2 in
        B.for_ fb ~name:"schedule" ~from:(B.i64 0) ~below:gates (fun g ->
            let stride = B.iadd fb (B.irem fb g (B.i64 13)) (B.i64 1) in
            let gf = B.cast fb Ir.Si_to_fp ~src:Ty.I64 g ~dst:Ty.F64 in
            let angle = B.fmul fb gf (B.f64 0.1234) in
            B.call_void fb "apply_gate" [ vec; size; stride; angle ]);
        let norm = W.sum_f64 fb ~name:"norm" vec ~count:size in
        B.ret fb (Some norm))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let qubits, gates = W.scan2 fb in
        let pairs = B.ishl fb (B.i64 1) qubits in
        let size = B.imul fb pairs (B.i64 2) in
        let vec = W.malloc_f64 fb size in
        B.store fb W.f64p vec (Ir.Global "state_vec");
        W.fill_f64 fb ~name:"init_state" vec ~count:size ~scale:1e-4;
        let norm = B.call fb "quantum_exp_mod_n" [ vec; size; gates ] in
        W.print_result_f64 t fb ~label:"norm" norm;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: qubits, gate count. *)
let profile_script = W.script_of_ints [ 8; 12 ]
let eval_script = W.script_of_ints [ 11; 24 ]
let eval_scale = 16.0
let files = []
