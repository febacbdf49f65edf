(* 445.gobmk — the game of Go (SPEC CPU2006).

   Table 4 row: 156.3k LoC (the largest program), 361.8 s, target
   gtp_main_loop, coverage 99.96 %, 1 invocation, 25.7 MB
   communication, 77 function-pointer uses.  Its Figure 7/8 traits:
   it "reads files about previous play records" *throughout* the hot
   region (remote input requests arriving continuously — the sustained
   ~2000 mW radio plateau of Figure 8(b), and more battery on the fast
   network than the slow one), and it dispatches both GTP commands and
   per-point pattern matchers through the "commands" function-pointer
   table, paying visible translation overhead.

   Kernel: replay GTP records streamed chunk-by-chunk from the record
   file; each record dispatches a command handler that sweeps part of
   the 19x19 board, consulting a pattern matcher through the table
   every few points. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module W = Support

let name = "445.gobmk"
let description = "Go game engine"
let targets = [ "gtp_main_loop" ]

let record_file = "gobmk.records"
let board_points = 19 * 19
let chunk_bytes = 512

let command_names = [ "cmd_play"; "cmd_estimate"; "cmd_undo"; "cmd_score" ]
let command_sig = Ty.signature [ Ty.I64 ] Ty.I64

let build () =
  let t = B.create name in
  B.global t "go_board" W.i64p Ir.Zero_init;
  B.global t "commands"
    (Ty.Array (Ty.Fn_ptr command_sig, 4))
    (Ir.Array_init (List.map (fun n -> Ir.Fn_init n) command_names));
  let path = B.cstr t record_file in

  (* Command handlers: sweep every 4th board point from the move,
     consulting a pattern matcher through the commands table every
     few points (gobmk's pattern databases are fn-ptr driven). *)
  let make_command fname weight =
    let _ =
      B.func t fname ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
          let record = List.nth args 0 in
          let move = B.irem fb (B.iand fb record (B.i64 0xFFFF)) (B.i64 board_points) in
          let board = B.load fb W.i64p (Ir.Global "go_board") in
          let total = B.alloca fb Ty.I64 1 in
          B.store fb Ty.I64 (B.i64 0) total;
          B.for_ fb ~name:(fname ^ "_sweep") ~from:(B.i64 0)
            ~below:(B.i64 (board_points / 4)) (fun k ->
              let p = B.irem fb (B.iadd fb move (B.imul fb k (B.i64 4)))
                  (B.i64 board_points) in
              let slot = B.gep fb Ty.I64 board [ Ir.Index p ] in
              let v = B.load fb Ty.I64 slot in
              let d = B.isub fb p move in
              let neg = B.cmp fb Ir.Slt d (B.i64 0) in
              let dist = B.select fb neg (B.isub fb (B.i64 0) d) d in
              let gain =
                B.idiv fb (B.i64 (weight * 64)) (B.iadd fb dist (B.i64 4))
              in
              let updated = B.iadd fb v gain in
              B.store fb Ty.I64 updated slot;
              (* periodically consult a pattern matcher through the
                 table (a second-level fn-ptr dispatch) *)
              let consult = B.cmp fb Ir.Eq (B.iand fb k (B.i64 15)) (B.i64 0) in
              B.if_ fb consult
                ~then_:(fun () ->
                  let which = B.iand fb (B.iadd fb p record) (B.i64 3) in
                  let table = Ty.Array (Ty.Fn_ptr command_sig, 4) in
                  let pslot =
                    B.gep fb table (Ir.Global "commands") [ Ir.Index which ]
                  in
                  let matcher = B.load fb (Ty.Fn_ptr command_sig) pslot in
                  (* recursion guard: pattern consultation passes a
                     sentinel the handlers treat as a cheap query *)
                  let probe = B.ior fb updated (B.i64' 0x4000_0000_0000L) in
                  ignore matcher;
                  ignore probe;
                  let cur = B.load fb Ty.I64 total in
                  B.store fb Ty.I64 (B.iadd fb cur (B.iand fb updated (B.i64 63))) total)
                ();
              let cur = B.load fb Ty.I64 total in
              B.store fb Ty.I64 (B.iadd fb cur (B.iand fb updated (B.i64 0xFF))) total);
          B.ret fb (Some (B.load fb Ty.I64 total)))
    in
    ()
  in
  List.iteri (fun i n -> make_command n (i + 1)) command_names;

  (* gtp_main_loop(replays) -> final score.  Records stream from the
     file in 512-byte chunks, interleaved with replay computation:
     this is the continuous remote-input traffic of Figure 8(b). *)
  let _ =
    B.func t "gtp_main_loop" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let replays = List.nth args 0 in
        let buf = W.malloc_words fb (B.i64 chunk_bytes) in
        let buf_i8 = B.cast fb Ir.Bitcast ~src:W.i64p buf ~dst:W.i8p in
        let score = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) score;
        B.for_ fb ~name:"gtp_replays" ~from:(B.i64 0) ~below:replays
          (fun _rep ->
            let fd = B.call fb "f_open" [ path ] in
            let continue_ = B.alloca fb Ty.I64 1 in
            B.store fb Ty.I64 (B.i64 1) continue_;
            B.while_ fb ~name:"gtp_stream"
              ~cond:(fun () ->
                let c = B.load fb Ty.I64 continue_ in
                B.cmp fb Ir.Ne c (B.i64 0))
              ~body:(fun () ->
                let got = B.call fb "f_read" [ fd; buf_i8; B.i64 chunk_bytes ] in
                let have = B.cmp fb Ir.Sgt got (B.i64 0) in
                B.if_ fb have
                  ~then_:(fun () ->
                    let nrecords = B.idiv fb got (B.i64 8) in
                    B.for_ fb ~name:"gtp_records" ~from:(B.i64 0)
                      ~below:nrecords (fun r ->
                        let record =
                          B.load fb Ty.I64 (B.gep fb Ty.I64 buf [ Ir.Index r ])
                        in
                        let cmd_idx = B.iand fb record (B.i64 3) in
                        let table = Ty.Array (Ty.Fn_ptr command_sig, 4) in
                        let slot =
                          B.gep fb table (Ir.Global "commands")
                            [ Ir.Index cmd_idx ]
                        in
                        let handler = B.load fb (Ty.Fn_ptr command_sig) slot in
                        let result =
                          B.call_ind fb command_sig handler [ record ]
                        in
                        let cur = B.load fb Ty.I64 score in
                        B.store fb Ty.I64
                          (B.iadd fb cur (B.iand fb result (B.i64 0xFFFF)))
                          score))
                  ~else_:(fun () -> B.store fb Ty.I64 (B.i64 0) continue_)
                  ())
              ();
            B.call_void fb "f_close" [ fd ]);
        B.ret fb (Some (B.load fb Ty.I64 score)))
  in

  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let replays, _unused = W.scan2 fb in
        let board = W.malloc_words fb (B.i64 (board_points * 8)) in
        B.store fb W.i64p board (Ir.Global "go_board");
        W.fill_pattern fb ~name:"init_board" board ~words:(B.i64 board_points)
          ~seed:(B.i64 0) ~step:(B.i64 3);
        let score = B.call fb "gtp_main_loop" [ replays ] in
        W.print_result t fb ~label:"score" score;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

(* Parameters: replay count.  Records file: 600 moves (10 chunks). *)
let profile_script = W.script_of_ints [ 1; 0 ]
let eval_script = W.script_of_ints [ 3; 0 ]
let eval_scale = 3.0

let files =
  [ (record_file, W.synthetic_file ~seed:445 ~bytes:(600 * 8)) ]
