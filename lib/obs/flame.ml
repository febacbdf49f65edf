(* Span-tree renderers: collapsed-stack flamegraph export and a
   deterministic plain-text tree.

   The collapsed format is the one Brendan Gregg's flamegraph.pl and
   speedscope ingest: one line per stack, frames joined by ';', the
   weight being the stack's *exclusive* time (frontends re-derive
   inclusive totals by summing children).  Weights are integer
   microseconds; stacks that round to zero are dropped. *)

let weight_us self_s = int_of_float (Float.round (self_s *. 1e6))

let to_collapsed (root : Span.node) : string =
  let buf = Buffer.create 1024 in
  let rec go path (n : Span.node) =
    let path = n.Span.name :: path in
    let w = weight_us n.Span.self_s in
    if w > 0 then
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n" (String.concat ";" (List.rev path)) w);
    List.iter (go path) n.Span.children
  in
  go [] root;
  Buffer.contents buf

(* Deterministic plain-text rendering, for terminals and golden
   tests.  Leaves print one number (their total is their self time);
   interior nodes print total and self. *)
let to_text (root : Span.node) : string =
  let buf = Buffer.create 1024 in
  let line prefix connector (n : Span.node) =
    let label =
      if n.Span.count > 1 then
        Printf.sprintf "%s x%d" n.Span.name n.Span.count
      else n.Span.name
    in
    let times =
      let s v = No_trace.Trace.text_float ~digits:6 v ^ "s" in
      if n.Span.children = [] then s n.Span.total_s
      else Printf.sprintf "total %s  self %s" (s n.Span.total_s) (s n.Span.self_s)
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s  %s\n" prefix connector label times)
  in
  let rec go prefix (n : Span.node) =
    let rec children = function
      | [] -> ()
      | [ last ] ->
        line prefix "`- " last;
        go (prefix ^ "   ") last
      | child :: rest ->
        line prefix "|- " child;
        go (prefix ^ "|  ") child;
        children rest
    in
    children n.Span.children
  in
  line "" "" root;
  go "" root;
  Buffer.contents buf
