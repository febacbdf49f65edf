(* Natural-loop detection.

   A back edge is an edge u -> h where h dominates u; the natural loop
   of the edge is h plus every block that reaches u without passing
   through h.  The builder names loop headers "name.cond", so detected
   loops carry the source-level names the paper's tables use
   ("for_i", "try_place_while.cond", "main_for.cond548", ...). *)

module Ir = No_ir.Ir
module String_set = Set.Make (String)
module String_map = Map.Make (String)

type loop = {
  l_func : string;
  l_header : string;           (* header block label *)
  l_name : string;             (* display name: header minus ".cond" *)
  l_blocks : String_set.t;
  l_depth : int;               (* 1 = outermost *)
}

let display_name header =
  match String.length header >= 5 && Filename.check_suffix header ".cond" with
  | true -> String.sub header 0 (String.length header - 5)
  | false -> header

let natural_loop (doms : Dominators.t) ~(source : string) ~(header : string) :
    String_set.t =
  let preds label =
    Option.value ~default:String_set.empty
      (String_map.find_opt label doms.Dominators.cfg.Dominators.preds)
  in
  let rec grow body frontier =
    match frontier with
    | [] -> body
    | label :: rest ->
      if String_set.mem label body then grow body rest
      else
        grow (String_set.add label body)
          (String_set.elements (preds label) @ rest)
  in
  grow (String_set.singleton header) [ source ]

let loops_of_func (f : Ir.func) : loop list =
  let doms = Dominators.compute f in
  let cfg = doms.Dominators.cfg in
  (* Find back edges. *)
  let back_edges =
    List.concat_map
      (fun label ->
        let succs =
          Option.value ~default:String_set.empty
            (String_map.find_opt label cfg.Dominators.succs)
        in
        String_set.fold
          (fun succ acc ->
            if Dominators.dominates doms ~dom:succ ~sub:label then
              (label, succ) :: acc
            else acc)
          succs [])
      cfg.Dominators.blocks
  in
  (* Merge loops sharing a header (multiple back edges, e.g. continue). *)
  let by_header =
    List.fold_left
      (fun acc (source, header) ->
        let body = natural_loop doms ~source ~header in
        let prev =
          Option.value ~default:String_set.empty (String_map.find_opt header acc)
        in
        String_map.add header (String_set.union prev body) acc)
      String_map.empty back_edges
  in
  let loops =
    String_map.fold
      (fun header body acc ->
        {
          l_func = f.Ir.f_name;
          l_header = header;
          l_name = display_name header;
          l_blocks = body;
          l_depth = 1;
        }
        :: acc)
      by_header []
  in
  (* Nesting depth: loop A contains loop B if A's body contains B's
     header and they differ. *)
  List.map
    (fun l ->
      let depth =
        List.fold_left
          (fun depth outer ->
            if
              (not (String.equal outer.l_header l.l_header))
              && String_set.mem l.l_header outer.l_blocks
            then depth + 1
            else depth)
          1 loops
      in
      { l with l_depth = depth })
    loops
  |> List.sort (fun a b -> compare (a.l_depth, a.l_header) (b.l_depth, b.l_header))

let loops_of_module (m : Ir.modul) : loop list =
  List.concat_map loops_of_func m.Ir.m_funcs
