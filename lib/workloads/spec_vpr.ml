(* 175.vpr — FPGA placement (SPEC CPU2000).

   Table 4 row: 11.3k LoC, 26.9 s, target try_place_while.cond (an
   outlined hot loop), coverage 99.07 %, 1 invocation, only 0.8 MB of
   communication — a compute-dominated annealer over a small grid, so
   it speeds up on both networks.

   Kernel: simulated-annealing placement — swap two cells, evaluate
   the local wirelength delta against 4-neighbourhoods, accept
   improving or occasionally worsening moves. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "175.vpr"
let description = "FPGA circuit placement"
let targets = [ "try_place_while.cond" ]

let grid = 32

let build () =
  let t = B.create name in
  W.add_xrand t;
  B.global t "place" W.i64p Ir.Zero_init;

  (* Local cost of cell at (idx): sum of |cell - neighbour|. *)
  let _ =
    B.func t "cell_cost" ~params:[ W.i64p; Ty.I64 ] ~ret:Ty.I64
      (fun fb args ->
        let place = List.nth args 0 and idx = List.nth args 1 in
        let n = B.i64 (grid * grid) in
        let v = B.load fb Ty.I64 (B.gep fb Ty.I64 place [ Ir.Index idx ]) in
        let cost = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) cost;
        let add_neighbour offset =
          let nidx = B.iadd fb idx (B.i64 offset) in
          let wrapped = B.irem fb (B.iadd fb nidx n) n in
          let nv =
            B.load fb Ty.I64 (B.gep fb Ty.I64 place [ Ir.Index wrapped ])
          in
          let diff = B.isub fb v nv in
          let neg = B.cmp fb Ir.Slt diff (B.i64 0) in
          let mag = B.select fb neg (B.isub fb (B.i64 0) diff) diff in
          let c = B.load fb Ty.I64 cost in
          B.store fb Ty.I64 (B.iadd fb c mag) cost
        in
        add_neighbour 1;
        add_neighbour (-1);
        add_neighbour grid;
        add_neighbour (-grid);
        B.ret fb (Some (B.load fb Ty.I64 cost)))
  in

  (* try_place_while.cond(place, moves) -> final total cost *)
  let _ =
    B.func t "try_place_while.cond" ~params:[ W.i64p; Ty.I64 ] ~ret:Ty.I64
      (fun fb args ->
        let place = List.nth args 0 and moves = List.nth args 1 in
        let n = B.i64 (grid * grid) in
        let state = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0xBEEF) state;
        B.for_ fb ~name:"anneal" ~from:(B.i64 0) ~below:moves (fun it ->
            let ra = B.call fb "xrand" [ state ] in
            let rb = B.call fb "xrand" [ state ] in
            let a = B.irem fb (B.iand fb ra (B.i64 0xFFFF)) n in
            let b = B.irem fb (B.iand fb rb (B.i64 0xFFFF)) n in
            let before =
              B.iadd fb
                (B.call fb "cell_cost" [ place; a ])
                (B.call fb "cell_cost" [ place; b ])
            in
            (* swap *)
            let pa = B.gep fb Ty.I64 place [ Ir.Index a ] in
            let pb = B.gep fb Ty.I64 place [ Ir.Index b ] in
            let va = B.load fb Ty.I64 pa in
            let vb = B.load fb Ty.I64 pb in
            B.store fb Ty.I64 vb pa;
            B.store fb Ty.I64 va pb;
            let after =
              B.iadd fb
                (B.call fb "cell_cost" [ place; a ])
                (B.call fb "cell_cost" [ place; b ])
            in
            let worse = B.cmp fb Ir.Sgt after before in
            (* temperature: accept worsening moves early on *)
            let hot = B.cmp fb Ir.Slt it (B.idiv fb moves (B.i64 4)) in
            let lucky =
              B.cmp fb Ir.Eq (B.iand fb ra (B.i64 7)) (B.i64 0)
            in
            let tolerated = B.ior fb hot lucky in
            let revert = B.iand fb worse (B.ixor fb tolerated (B.i8 1)) in
            B.if_ fb revert
              ~then_:(fun () ->
                B.store fb Ty.I64 va pa;
                B.store fb Ty.I64 vb pb)
              ());
        (* final cost *)
        let total = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) total;
        B.for_ fb ~name:"final_cost" ~from:(B.i64 0) ~below:n (fun i ->
            let c = B.call fb "cell_cost" [ place; i ] in
            let cur = B.load fb Ty.I64 total in
            B.store fb Ty.I64 (B.iadd fb cur c) total);
        B.ret fb (Some (B.load fb Ty.I64 total)))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let moves, seed = W.scan2 fb in
        let n = B.i64 (grid * grid) in
        let place = W.malloc_words fb (B.imul fb n (B.i64 8)) in
        B.store fb W.i64p place (Ir.Global "place");
        W.fill_pattern fb ~name:"init_place" place ~words:n ~seed
          ~step:(B.i64 37);
        let cost = B.call fb "try_place_while.cond" [ place; moves ] in
        W.print_result t fb ~label:"final_cost" cost;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: annealing moves, placement seed. *)
let profile_script = W.script_of_ints [ 600; 3 ]
let eval_script = W.script_of_ints [ 5_000; 3 ]
let eval_scale = 8.3
let files = []
