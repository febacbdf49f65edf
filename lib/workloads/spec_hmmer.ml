(* 456.hmmer — gene sequence search (SPEC CPU2006).

   Table 4 row: 20.6k LoC, 31.3 s, target main_loop_serial, coverage
   99.99 %, 1 invocation, 0.3 MB communication.  The paper's
   near-ideal case: "the offloaded function [...] takes only the
   initialized parameters as its inputs", so almost nothing crosses
   the network and the speedup approaches the ideal bar.

   Kernel: Viterbi-style dynamic programming of a profile HMM against
   a synthetic sequence, integer scores, two rolling rows. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "456.hmmer"
let description = "Gene sequence search"
let targets = [ "main_loop_serial" ]

let build () =
  let t = B.create name in
  W.add_xrand t;
  B.global t "seq" W.i64p Ir.Zero_init;
  B.global t "model" W.i64p Ir.Zero_init;

  (* main_loop_serial(seq, L, model, S) -> best score *)
  let _ =
    B.func t "main_loop_serial" ~params:[ W.i64p; Ty.I64; W.i64p; Ty.I64 ]
      ~ret:Ty.I64 (fun fb args ->
        let seq = List.nth args 0
        and len = List.nth args 1
        and model = List.nth args 2
        and states = List.nth args 3 in
        let cur = B.alloca fb Ty.I64 64 in
        let nxt = B.alloca fb Ty.I64 64 in
        B.for_ fb ~name:"vit_init" ~from:(B.i64 0) ~below:states (fun s ->
            B.store fb Ty.I64 (B.i64 0) (B.gep fb Ty.I64 cur [ Ir.Index s ]));
        let best = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) best;
        B.for_ fb ~name:"vit_seq" ~from:(B.i64 0) ~below:len (fun i ->
            let sym = B.load fb Ty.I64 (B.gep fb Ty.I64 seq [ Ir.Index i ]) in
            B.for_ fb ~name:"vit_state" ~from:(B.i64 0) ~below:states
              (fun s ->
                (* emit = model[2s] ^ sym folded; trans = model[2s+1] *)
                let s2 = B.imul fb s (B.i64 2) in
                let emit =
                  B.load fb Ty.I64 (B.gep fb Ty.I64 model [ Ir.Index s2 ])
                in
                let s2p = B.iadd fb s2 (B.i64 1) in
                let trans =
                  B.load fb Ty.I64 (B.gep fb Ty.I64 model [ Ir.Index s2p ])
                in
                let score =
                  B.iand fb (B.ixor fb emit sym) (B.i64 1023)
                in
                let stay =
                  B.load fb Ty.I64 (B.gep fb Ty.I64 cur [ Ir.Index s ])
                in
                let prev_idx =
                  B.iand fb (B.isub fb s (B.i64 1))
                    (B.isub fb states (B.i64 1))
                in
                let move =
                  B.load fb Ty.I64 (B.gep fb Ty.I64 cur [ Ir.Index prev_idx ])
                in
                let move = B.iadd fb move (B.iand fb trans (B.i64 255)) in
                let better = B.cmp fb Ir.Sgt stay move in
                let chosen = B.select fb better stay move in
                let total = B.iadd fb chosen score in
                B.store fb Ty.I64 total
                  (B.gep fb Ty.I64 nxt [ Ir.Index s ]);
                let b = B.load fb Ty.I64 best in
                let improved = B.cmp fb Ir.Sgt total b in
                B.if_ fb improved
                  ~then_:(fun () -> B.store fb Ty.I64 total best)
                  ());
            (* roll rows *)
            B.for_ fb ~name:"vit_roll" ~from:(B.i64 0) ~below:states
              (fun s ->
                let v = B.load fb Ty.I64 (B.gep fb Ty.I64 nxt [ Ir.Index s ]) in
                B.store fb Ty.I64 v (B.gep fb Ty.I64 cur [ Ir.Index s ])));
        B.ret fb (Some (B.load fb Ty.I64 best)))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let len, states = W.scan2 fb in
        let seq = W.malloc_words fb (B.imul fb len (B.i64 8)) in
        B.store fb W.i64p seq (Ir.Global "seq");
        let state = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0xDEAD) state;
        B.for_ fb ~name:"gen_seq" ~from:(B.i64 0) ~below:len (fun i ->
            let r = B.call fb "xrand" [ state ] in
            let sym = B.iand fb r (B.i64 3) in
            B.store fb Ty.I64 sym (B.gep fb Ty.I64 seq [ Ir.Index i ]));
        let model =
          W.malloc_words fb (B.imul fb states (B.i64 16))
        in
        B.store fb W.i64p model (Ir.Global "model");
        let mwords = B.imul fb states (B.i64 2) in
        W.fill_pattern fb ~name:"gen_model" model ~words:mwords
          ~seed:(B.i64 5) ~step:(B.i64 97);
        let score = B.call fb "main_loop_serial" [ seq; len; model; states ] in
        W.print_result t fb ~label:"best_score" score;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: sequence length, states (max 64). *)
let profile_script = W.script_of_ints [ 80; 42 ]
let eval_script = W.script_of_ints [ 560; 42 ]
let eval_scale = 7.0
let files = []
