(* IR-level tests: type helpers, builder structure, validator
   acceptance/rejection, pretty-printer sanity, builtin
   classification. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Validate = No_ir.Validate
module Pretty = No_ir.Pretty
module Parser = No_ir.Parser
module Builtins = No_ir.Builtins

let test_ty_helpers () =
  Alcotest.(check bool) "i32 integer" true (Ty.is_integer Ty.I32);
  Alcotest.(check bool) "f64 float" true (Ty.is_float Ty.F64);
  Alcotest.(check bool) "ptr pointer" true (Ty.is_pointer (Ty.Ptr Ty.I8));
  Alcotest.(check bool) "fn ptr pointer" true
    (Ty.is_pointer (Ty.Fn_ptr (Ty.signature [] Ty.Void)));
  Alcotest.(check bool) "struct not scalar" false
    (Ty.is_scalar (Ty.Struct "S"));
  Alcotest.(check int) "i16 bits" 16 (Ty.scalar_bits Ty.I16);
  Alcotest.(check bool) "equal nested" true
    (Ty.equal (Ty.Ptr (Ty.Array (Ty.I8, 3))) (Ty.Ptr (Ty.Array (Ty.I8, 3))));
  Alcotest.(check bool) "unequal arity" false
    (Ty.equal (Ty.Array (Ty.I8, 3)) (Ty.Array (Ty.I8, 4)));
  Alcotest.(check string) "pp" "[4 x i64*]*"
    (Ty.to_string (Ty.Ptr (Ty.Array (Ty.Ptr Ty.I64, 4))))

let test_builder_blocks () =
  let t = B.create "blocks" in
  let f =
    B.func t "f" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let x = List.nth args 0 in
        let c = B.cmp fb Ir.Sgt x (B.i64 0) in
        B.if_ fb c
          ~then_:(fun () -> B.ret fb (Some (B.i64 1)))
          ~else_:(fun () -> B.ret fb (Some (B.i64 0)))
          ();
        (* join block unreachable but well-formed *)
        B.ret fb (Some (B.i64 99)))
  in
  Alcotest.(check string) "entry first" "entry"
    (Ir.entry_block f).Ir.label;
  Alcotest.(check int) "block count" 4 (List.length f.Ir.f_blocks);
  Validate.check_module (B.finish t)

let test_builder_catches_missing_return () =
  let t = B.create "noret" in
  match
    B.func t "f" ~params:[] ~ret:Ty.I64 (fun _fb _ -> ())
  with
  | _ -> Alcotest.fail "expected missing-return error"
  | exception Invalid_argument _ -> ()

let expect_ill_typed name build =
  let m = build () in
  match Validate.check_module m with
  | () -> Alcotest.failf "%s: expected Ill_typed" name
  | exception Validate.Ill_typed _ -> ()

let test_validator_rejections () =
  (* type mismatch in binop *)
  expect_ill_typed "int+float" (fun () ->
      let t = B.create "bad1" in
      let _ =
        B.func t "f" ~params:[] ~ret:Ty.I64 (fun fb _ ->
            B.ret fb (Some (B.iadd fb (B.i64 1) (B.f64 2.0))))
      in
      B.finish t);
  (* branch to unknown label *)
  expect_ill_typed "bad label" (fun () ->
      let f =
        {
          Ir.f_name = "f";
          Ir.f_params = [];
          Ir.f_ret = Ty.Void;
          Ir.f_blocks =
            [ { Ir.label = "entry"; Ir.instrs = []; Ir.term = Ir.Br "nowhere" } ];
          Ir.f_nregs = 0;
        }
      in
      { Ir.m_name = "bad2"; Ir.m_structs = []; Ir.m_globals = [];
        Ir.m_funcs = [ f ]; Ir.m_externs = []; Ir.m_uva_globals = [] });
  (* return type mismatch *)
  expect_ill_typed "wrong return" (fun () ->
      let t = B.create "bad3" in
      let _ =
        B.func t "f" ~params:[] ~ret:Ty.F64 (fun fb _ ->
            B.ret fb (Some (B.i64 1)))
      in
      B.finish t);
  (* register retyped *)
  expect_ill_typed "register retyped" (fun () ->
      let f =
        {
          Ir.f_name = "f";
          Ir.f_params = [];
          Ir.f_ret = Ty.Void;
          Ir.f_blocks =
            [
              {
                Ir.label = "entry";
                Ir.instrs =
                  [
                    Ir.Assign (0, Ir.Bin (Ir.Add, Ir.Int (1L, Ty.I64), Ir.Int (2L, Ty.I64)));
                    Ir.Assign (0, Ir.Bin (Ir.Fadd, Ir.Float (1.0, Ty.F64), Ir.Float (2.0, Ty.F64)));
                  ];
                Ir.term = Ir.Ret None;
              };
            ];
          Ir.f_nregs = 1;
        }
      in
      { Ir.m_name = "bad4"; Ir.m_structs = []; Ir.m_globals = [];
        Ir.m_funcs = [ f ]; Ir.m_externs = []; Ir.m_uva_globals = [] });
  (* store type mismatch *)
  expect_ill_typed "store mismatch" (fun () ->
      let t = B.create "bad5" in
      let _ =
        B.func t "f" ~params:[] ~ret:Ty.Void (fun fb _ ->
            let p = B.alloca fb Ty.I32 1 in
            B.store fb Ty.I64 (B.i64 1) p;
            B.ret_void fb)
      in
      B.finish t);
  (* global initializer arity *)
  expect_ill_typed "bad init" (fun () ->
      let t = B.create "bad6" in
      B.global t "g" (Ty.Array (Ty.I64, 2)) (Ir.Array_init [ Ir.Int_init (1L, Ty.I64) ]);
      B.finish t);
  (* Names and types lowering could not resolve: each is rejected with
     a message that starts with where it is. *)
  let program ?(top = "") body =
    Printf.sprintf
      "module bad\n%s\nfn main() -> i64 {\nentry:\n%s\n  ret 0:i64\n}\n" top
      body
  in
  List.iter
    (fun (where, src) ->
      match Validate.check_module (Parser.parse src) with
      | () -> Alcotest.failf "expected Ill_typed from %s" src
      | exception Validate.Ill_typed msg ->
        if not (String.starts_with ~prefix:where msg) then
          Alcotest.failf "%S does not start with %S" msg where)
    [
      ("main: &print_i64",
       program "%r0 = ptrtoint void(i64)* &print_i64 to i64");
      ("main: alloca: void", program "%r0 = alloca void x 1");
      ("main: alloca: unknown struct %nope",
       program "%r0 = alloca %nope x 1");
      ("global @g: type: unknown struct %nope",
       program ~top:"global @g : %nope = zero" "");
      ("struct %s: field b: unknown struct %nope",
       program ~top:"struct %s { a: i64; b: %nope* }" "");
      ("struct %s contains itself",
       program ~top:"struct %s { a: i64; b: [2 x %s] }" "");
      ("f: parameter: unknown struct %nope",
       program ~top:"fn f(%r0:%nope*) -> i64 {\nentry:\n  ret 0:i64\n}" "");
      ("f: return: unknown struct %nope",
       program ~top:"fn f() -> %nope {\nentry:\n  unreachable\n}" "");
      ("main: gep: unknown struct %nope",
       program "%r0 = alloca i64 x 1\n%r1 = gep %nope, %r0[1:i64]");
      ("main: cast: unknown struct %nope",
       program "%r0 = inttoptr i64 64:i64 to %nope*");
      ("main: load: unknown struct %nope",
       program "%r0 = alloca i64 x 1\n%r1 = load %nope*, %r0");
      ("main: store: unknown struct %nope",
       program "%r0 = alloca i64 x 1\nstore %nope* null:%nope*, %r0");
      ("main: call.ind: unknown struct %nope",
       program "%r0 = add 0:i64, 0:i64\n%r1 = call.ind i64(%nope*)* %r0()");
      ("main: gep: field f of non-struct i64",
       program "%r0 = alloca i64 x 1\n%r1 = gep i64, %r0.f");
      ("main: gep: no field zz in struct %s",
       program ~top:"struct %s { a: i64 }"
         "%r0 = alloca %s x 1\n%r1 = gep %s, %r0.zz");
      ("main: unknown global @nope", program "call mystery(@nope)");
      ("duplicate global g",
       program ~top:"global @g : i64 = zero\nglobal @g : i8 = zero" "");
    ]

let test_validator_accepts_loop_reg () =
  (* A loop header reads the induction register assigned later in
     layout order: the two-pass collection must handle it. *)
  let t = B.create "loopreg" in
  let _ =
    B.func t "f" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let acc = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) acc;
        B.for_ fb ~name:"l" ~from:(B.i64 0) ~below:(B.i64 4) (fun iv ->
            let c = B.load fb Ty.I64 acc in
            B.store fb Ty.I64 (B.iadd fb c iv) acc);
        B.ret fb (Some (B.load fb Ty.I64 acc)))
  in
  Validate.check_module (B.finish t)

let test_pretty_output () =
  let t = B.create "pretty" in
  B.global t "g" Ty.I64 (Ir.Int_init (5L, Ty.I64));
  let _ =
    B.func t "f" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        B.ret fb (Some (B.iadd fb (List.nth args 0) (B.i64 1))))
  in
  let text = Pretty.modul_to_string (B.finish t) in
  let contains needle =
    let nlen = String.length needle and hlen = String.length text in
    let rec go i =
      i + nlen <= hlen && (String.equal (String.sub text i nlen) needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains needle))
    [ "module pretty"; "global @g"; "fn f"; "add" ]

let test_builtin_classification () =
  Alcotest.(check bool) "scan machine specific" true
    (Builtins.is_machine_specific "scan_i64");
  Alcotest.(check bool) "syscall machine specific" true
    (Builtins.is_machine_specific "syscall");
  Alcotest.(check bool) "unknown machine specific" true
    (Builtins.is_machine_specific "mystery_extern");
  Alcotest.(check bool) "print not specific" false
    (Builtins.is_machine_specific "print_f64");
  Alcotest.(check bool) "file io not specific" false
    (Builtins.is_machine_specific "f_read");
  Alcotest.(check (option string)) "remote print" (Some "r_print_f64")
    (Builtins.remote_counterpart "print_f64");
  Alcotest.(check (option string)) "remote read" (Some "rf_read")
    (Builtins.remote_counterpart "f_read");
  Alcotest.(check (option string)) "no remote scan" None
    (Builtins.remote_counterpart "scan_i64")

let test_gep_result_ty () =
  let move =
    { Ir.s_name = "Move";
      Ir.s_fields = [ ("from", Ty.I8); ("score", Ty.F64) ] }
  in
  let structs _ = move in
  Alcotest.(check bool) "field" true
    (Ty.equal Ty.F64
       (Ir.gep_result_ty ~structs (Ty.Struct "Move") [ Ir.Field "score" ]));
  Alcotest.(check bool) "index then field" true
    (Ty.equal Ty.I8
       (Ir.gep_result_ty ~structs (Ty.Struct "Move")
          [ Ir.Index (Ir.Int (2L, Ty.I64)); Ir.Field "from" ]));
  Alcotest.(check bool) "array elem" true
    (Ty.equal Ty.I32
       (Ir.gep_result_ty ~structs (Ty.Array (Ty.I32, 8))
          [ Ir.Index (Ir.Int (1L, Ty.I64)) ]))

let tests =
  [
    Alcotest.test_case "ty helpers" `Quick test_ty_helpers;
    Alcotest.test_case "builder blocks" `Quick test_builder_blocks;
    Alcotest.test_case "builder missing return" `Quick
      test_builder_catches_missing_return;
    Alcotest.test_case "validator rejections" `Quick test_validator_rejections;
    Alcotest.test_case "validator loop registers" `Quick
      test_validator_accepts_loop_reg;
    Alcotest.test_case "pretty output" `Quick test_pretty_output;
    Alcotest.test_case "builtin classification" `Quick
      test_builtin_classification;
    Alcotest.test_case "gep result type" `Quick test_gep_result_ty;
  ]
