(* IR parser tests: hand-written sources, error reporting, and the
   pretty-printer round trip over every workload module — parsing the
   printed form of a module must reproduce a module that validates and
   prints identically. *)

module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Parser = No_ir.Parser
module Pretty = No_ir.Pretty
module Validate = No_ir.Validate
module Registry = No_workloads.Registry
module Arch = No_arch.Arch
module Layout = No_arch.Layout
module Host = No_exec.Host

let test_parse_minimal () =
  let src =
    {|
# a comment
module tiny
struct %Pair { a: i8; b: f64 }
global @answer : i64 = 42:i64
global @table : [2 x i64(i64)*] = {&double_it, &double_it}
fn double_it(%r0:i64) -> i64 {
entry:
  %r1 = mul %r0, 2:i64
  ret %r1
}
fn main() -> i64 {
entry:
  %r0 = load i64, @answer
  %r1 = call double_it(%r0)
  ret %r1
}
|}
  in
  let m = Parser.parse src in
  Validate.check_module m;
  Alcotest.(check string) "name" "tiny" m.Ir.m_name;
  Alcotest.(check int) "structs" 1 (List.length m.Ir.m_structs);
  Alcotest.(check int) "globals" 2 (List.length m.Ir.m_globals);
  Alcotest.(check int) "functions" 2 (List.length m.Ir.m_funcs);
  let f = Ir.find_func_exn m "double_it" in
  Alcotest.(check int) "nregs" 2 f.Ir.f_nregs

let test_parse_control_flow () =
  let src =
    {|
module cf
fn classify(%r0:i64) -> i64 {
entry:
  switch %r0 [1 -> one; 2 -> two] default other
one:
  ret 100:i64
two:
  %r1 = cmp sgt %r0, 0:i64
  cbr %r1, one, other
other:
  unreachable
}
|}
  in
  let m = Parser.parse src in
  Validate.check_module m;
  let f = Ir.find_func_exn m "classify" in
  Alcotest.(check int) "blocks" 4 (List.length f.Ir.f_blocks)

let test_parse_errors () =
  let expect_error src =
    match Parser.parse src with
    | _ -> Alcotest.fail "expected parse error"
    | exception Parser.Parse_error (line, _) ->
      Alcotest.(check bool) "line number positive" true (line > 0)
  in
  expect_error "nonsense line";
  expect_error "module m\nfn f() -> i64 {\nentry:\n  ret 1:i64\n";
  (* unterminated fn *)
  expect_error "module m\nfn f() -> i64 {\n  %r0 = add 1:i64, 2:i64\n}\n";
  (* instr outside block *)
  (* text left after an instruction or a terminator *)
  let body lines = "module m\nfn f() -> i64 {\nentry:\n" ^ lines ^ "\n}\n" in
  expect_error (body "  %r0 = add 1:i64, 2:i64 this is junk\n  ret %r0");
  expect_error (body "  %r0 = add 1:i64, 2:i64\n  ret %r0 garbage here");
  (* literals that do not convert *)
  expect_error (body "  ret 3.5:void");
  expect_error "module m\nglobal @g : [99999999999999999999 x i8] = zero\n";
  (* register numbers past the limit, which would size huge arrays *)
  expect_error (body "  %r99999999 = add 1:i64, 2:i64\n  ret 0:i64");
  expect_error (body "  ret %r999999999999")

let roundtrip (m : Ir.modul) =
  let printed = Pretty.modul_to_string m in
  let reparsed =
    try Parser.parse printed
    with Parser.Parse_error (line, msg) ->
      Alcotest.failf "%s: parse error at line %d: %s\n--- around:\n%s"
        m.Ir.m_name line msg
        (let lines = String.split_on_char '\n' printed in
         String.concat "\n"
           (List.filteri (fun i _ -> i >= line - 3 && i <= line + 1) lines))
  in
  Validate.check_module reparsed;
  let reprinted = Pretty.modul_to_string reparsed in
  Alcotest.(check string) (m.Ir.m_name ^ " fixpoint") printed reprinted

let test_roundtrip_workloads () =
  List.iter
    (fun (e : Registry.entry) -> roundtrip (e.Registry.e_build ()))
    Registry.spec;
  roundtrip (No_workloads.Chess.build ())

(* {1 Mutated registry modules}

   One line of a printed registry module is changed in one of three
   ways: a global, function, struct or label name becomes another
   name of the module or an unknown one; a type becomes [void] or
   [%nope]; or junk is appended.  Only [Parse_error] and [Ill_typed]
   may escape the front end, and every module [Validate] accepts must
   lower on both reference layouts: lowering has no fallback for
   anything validation lets through. *)

(* Maximal identifier runs of [line], as (start, length). *)
let ident_runs line =
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else if Parser.is_ident_char line.[i] then begin
      let j = ref i in
      while !j < n && Parser.is_ident_char line.[!j] do incr j done;
      go !j ((i, !j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* Spots (line, start, length) to rewrite, grouped by the kind of line
   they are on: struct, global, function header, or body.  A mutant
   picks a group first, so the few declaration lines, where most
   types are laid out, are hit as often as the thousands of body
   lines. *)
type spots = (int * int * int) array array

type mutable_module = {
  lines : string array;
  names : string array;                  (* the module's, and "nope" *)
  name_spots : spots;
  type_spots : spots;
  line_ends : spots;
}

let mutable_module (m : Ir.modul) =
  let lines =
    Array.of_list (String.split_on_char '\n' (Pretty.modul_to_string m))
  in
  let structs = List.map (fun s -> s.Ir.s_name) m.Ir.m_structs in
  let names =
    structs
    @ List.map (fun g -> g.Ir.g_name) m.Ir.m_globals
    @ List.concat_map
        (fun f ->
          f.Ir.f_name :: List.map (fun b -> b.Ir.label) f.Ir.f_blocks)
        m.Ir.m_funcs
    |> List.sort_uniq String.compare
  in
  let group (i, _, _) =
    match String.split_on_char ' ' (String.trim lines.(i)) with
    | "struct" :: _ -> 0
    | "global" :: _ -> 1
    | "fn" :: _ -> 2
    | _ -> 3
  in
  let grouped all : spots =
    List.init 4 (fun g -> List.filter (fun spot -> group spot = g) all)
    |> List.filter (( <> ) [])
    |> List.map Array.of_list |> Array.of_list
  in
  (* Identifier runs that [spot] turns into the span to replace. *)
  let spots spot =
    Array.to_list lines
    |> List.mapi (fun i line ->
           List.filter_map
             (fun (start, len) ->
               spot line (String.sub line start len) start len
               |> Option.map (fun (s, l) -> (i, s, l)))
             (ident_runs line))
    |> List.concat |> grouped
  in
  {
    lines;
    names = Array.of_list ("nope" :: names);
    name_spots =
      spots (fun _ tok start len ->
          if List.mem tok names then Some (start, len) else None);
    type_spots =
      spots (fun line tok start len ->
          if List.mem tok [ "i8"; "i16"; "i32"; "i64"; "f32"; "f64" ] then
            Some (start, len)
          else if start > 0 && line.[start - 1] = '%' && List.mem tok structs
          then Some (start - 1, len + 1)
          else None);
    line_ends =
      grouped
        (List.mapi
           (fun i line -> (i, String.length line, 0))
           (Array.to_list lines));
  }

let registry_modules =
  lazy
    (Array.of_list
       (List.map
          (fun (e : Registry.entry) ->
            mutable_module (e.Registry.e_build ()))
          Registry.spec
       @ [ mutable_module (No_workloads.Chess.build ()) ]))

(* Module [mi] with one line rewritten: a name swap ([kind] 0), a type
   swap (1) or appended junk (2); [pick] and [choice] select the spot
   and the replacement.  Returns a description and the text. *)
let mutant (mi, kind, pick, choice) =
  let modules = Lazy.force registry_modules in
  let mm = modules.(mi mod Array.length modules) in
  let from a = a.(choice mod Array.length a) in
  let groups, replacement =
    match kind with
    | 0 -> (mm.name_spots, from mm.names)
    | 1 -> (mm.type_spots, from [| "void"; "%nope" |])
    | _ ->
      ( mm.line_ends,
        from [| " junk"; " 1:i64"; ","; " %r0"; " @nope"; "]" |] )
  in
  let spots = groups.(pick mod Array.length groups) in
  let line, start, len =
    spots.(pick / Array.length groups mod Array.length spots)
  in
  let old = mm.lines.(line) in
  let lines = Array.copy mm.lines in
  lines.(line) <-
    String.sub old 0 start ^ replacement
    ^ String.sub old (start + len) (String.length old - start - len);
  ( Printf.sprintf "line %d: %S -> %S" (line + 1) old lines.(line),
    String.concat "\n" (Array.to_list lines) )

let prop_front_end_total =
  QCheck.Test.make ~name:"mutated registry IR is rejected by name or lowers"
    ~count:1000
    (QCheck.make
       ~print:(fun c -> fst (mutant c))
       QCheck.Gen.(
         let any = int_bound 1_000_000 in
         quad any (int_bound 2) any any))
    (fun c ->
      match Parser.parse (snd (mutant c)) with
      | exception Parser.Parse_error _ -> true
      | m -> (
        match Validate.check_module m with
        | exception Validate.Ill_typed _ -> true
        | () ->
          List.iter
            (fun arch ->
              let layout =
                Layout.env_of_arch arch ~structs:(Ir.find_struct_exn m)
              in
              ignore
                (Host.create ~arch ~role:Host.Mobile ~modul:m ~layout ()))
            [ Arch.arm32; Arch.x86_64 ];
          true))

let tests =
  [
    Alcotest.test_case "parse minimal" `Quick test_parse_minimal;
    Alcotest.test_case "parse control flow" `Quick test_parse_control_flow;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "roundtrip all workloads" `Quick
      test_roundtrip_workloads;
    QCheck_alcotest.to_alcotest prop_front_end_total;
  ]
