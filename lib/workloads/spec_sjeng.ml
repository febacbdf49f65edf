(* 458.sjeng — chess engine (SPEC CPU2006).

   Table 4 row: 10.5k LoC, 950.8 s (second longest), target think,
   coverage 99.95 %, **3 invocations**, 240.2 MB communication per
   invocation.  Section 5.1: "Native Offloader achieves performance
   improvement for 458.sjeng that invokes think multiple times even
   on the slow network environment.  Considering that 458.sjeng, a
   chess game, is one of the representative user-interactive
   applications..." — and Figure 8(a) shows the three offload
   spikes.  It also carries the evalRoutines function-pointer table
   (heavy translation share in Figure 7).

   Kernel: think — a deterministic game-tree walk touching a large
   transposition table (the traffic source), evaluating leaves
   through the evalRoutines table. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "458.sjeng"
let description = "Chess engine"
let targets = [ "think" ]

let eval_sig = Ty.signature [ Ty.I64 ] Ty.I64
let eval_names =
  [ "eval_pawn"; "eval_minor"; "eval_rook"; "eval_queen"; "eval_king";
    "eval_empty" ]

let build () =
  let t = B.create name in
  W.add_xrand t;
  B.global t "tt" W.i64p Ir.Zero_init;            (* transposition table *)
  B.global t "tt_words" Ty.I64 Ir.Zero_init;
  B.global t "evalRoutines"
    (Ty.Array (Ty.Fn_ptr eval_sig, 6))
    (Ir.Array_init (List.map (fun n -> Ir.Fn_init n) eval_names));

  List.iteri
    (fun i fname ->
      let _ =
        B.func t fname ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
            let h = List.nth args 0 in
            let acc = B.alloca fb Ty.I64 1 in
            B.store fb Ty.I64 h acc;
            B.for_ fb ~name:(fname ^ "_loop") ~from:(B.i64 0)
              ~below:(B.i64 (12 + (4 * i))) (fun k ->
                let cur = B.load fb Ty.I64 acc in
                let rotated =
                  B.ior fb
                    (B.ishl fb cur (B.i64 7))
                    (B.ilshr fb cur (B.i64 57))
                in
                B.store fb Ty.I64 (B.iadd fb rotated k) acc);
            B.ret fb (Some (B.load fb Ty.I64 acc)))
      in
      ())
    eval_names;

  (* think(nodes, seed) -> best value.  Each node hashes into the
     transposition table (read-modify-write: the table is what makes
     sjeng's communication huge) and evaluates through the table. *)
  let _ =
    B.func t "think" ~params:[ Ty.I64; Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let nodes = List.nth args 0 and seed = List.nth args 1 in
        let tt = B.load fb W.i64p (Ir.Global "tt") in
        let tt_words = B.load fb Ty.I64 (Ir.Global "tt_words") in
        let state = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 seed state;
        let best = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64' Int64.min_int) best;
        B.for_ fb ~name:"search" ~from:(B.i64 0) ~below:nodes (fun _n ->
            let h = B.call fb "xrand" [ state ] in
            let slot_idx =
              B.irem fb (B.iand fb h (B.i64 0x7FFF_FFFF)) tt_words
            in
            let slot = B.gep fb Ty.I64 tt [ Ir.Index slot_idx ] in
            let cached = B.load fb Ty.I64 slot in
            let piece = B.iand fb h (B.i64 7) in
            let small = B.cmp fb Ir.Slt piece (B.i64 6) in
            let piece = B.select fb small piece (B.i64 5) in
            let table = Ty.Array (Ty.Fn_ptr eval_sig, 6) in
            let eslot =
              B.gep fb table (Ir.Global "evalRoutines") [ Ir.Index piece ]
            in
            let eval = B.load fb (Ty.Fn_ptr eval_sig) eslot in
            let value = B.call_ind fb eval_sig eval [ B.ixor fb h cached ] in
            B.store fb Ty.I64 value slot;
            let b = B.load fb Ty.I64 best in
            let better = B.cmp fb Ir.Sgt value b in
            B.if_ fb better ~then_:(fun () -> B.store fb Ty.I64 value best) ());
        B.ret fb (Some (B.load fb Ty.I64 best)))
  in

  (* main: an interactive game of three AI turns (scan the opponent
     move, think, print). *)
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let nodes, tt_kwords = W.scan2 fb in
        let tt_words = B.imul fb tt_kwords (B.i64 1024) in
        let tt = W.malloc_words fb (B.imul fb tt_words (B.i64 8)) in
        B.store fb W.i64p tt (Ir.Global "tt");
        B.store fb Ty.I64 tt_words (Ir.Global "tt_words");
        W.fill_pattern fb ~name:"init_tt" tt ~words:tt_words ~seed:(B.i64 1)
          ~step:(B.i64 0x9E37);
        B.for_ fb ~name:"turns" ~from:(B.i64 0) ~below:(B.i64 3) (fun _turn ->
            let opponent = B.call fb "scan_i64" [] in
            let value = B.call fb "think" [ nodes; opponent ] in
            W.print_result t fb ~label:"move_value" value);
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: search nodes per think, transposition kilo-words; then
   one opponent move per turn. *)
let profile_script = W.script_of_ints [ 1_500; 8; 11; 22; 33 ]
let eval_script = W.script_of_ints [ 18_000; 40; 11; 22; 33 ]
let eval_scale = 12.0
let files = []
