(** Natural-loop detection.

    Back edges (u → h with h dominating u) induce natural loops; the
    builder names loop headers "name.cond", so detected loops carry
    the source-level names the paper's tables use ("for_i",
    "try_place_while.cond", "main_for.cond548"). *)

module String_set : Set.S with type elt = string

type loop = {
  l_func : string;
  l_header : string;       (** header block label *)
  l_name : string;         (** display name: header minus ".cond" *)
  l_blocks : String_set.t;
  l_depth : int;           (** 1 = outermost *)
}

val loops_of_func : No_ir.Ir.func -> loop list
(** Sorted outermost-first; loops sharing a header are merged. *)

val loops_of_module : No_ir.Ir.modul -> loop list
