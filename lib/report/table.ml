(* Plain-text table rendering for the benches and the CLI.

   Columns size themselves to their widest cell; the first column,
   the row labels, is left-aligned and the rest right-aligned. *)

type t = {
  title : string;
  header : string list;
  mutable rows : string list list;   (* reversed *)
}

let create ~title header = { title; header; rows = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let cell_f ?(digits = 2) v = No_trace.Trace.text_float ~digits v
let cell_i v = string_of_int v
let cell_pct v = Printf.sprintf "%.1f%%" v

let render t : string =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let pad i cell =
    let fill = String.make (widths.(i) - String.length cell) ' ' in
    if i = 0 then cell ^ fill else fill ^ cell
  in
  let line row =
    "| " ^ String.concat " | " (List.mapi pad row) ^ " |"
  in
  let rule =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (t.title ^ "\n");
  Buffer.add_string buf (rule ^ "\n");
  Buffer.add_string buf (line t.header ^ "\n");
  Buffer.add_string buf (rule ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (line row ^ "\n")) rows;
  Buffer.add_string buf rule;
  Buffer.contents buf

let print t = print_endline (render t)
