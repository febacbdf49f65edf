(* The hot function/loop profiler (paper Section 3.1).

   "The hot function/loop profiler measures execution time, invocation
   count, and memory usage of each function and loop in an application
   with a profiling input."

   The profiler attaches to a {!No_exec.Host} through its hooks:
   function enter/exit give inclusive times and invocation counts;
   block entries attributed to statically detected natural loops give
   loop times, invocations and iteration counts; a memory touch
   callback collects the unique pages each active task accesses —
   which is exactly the M of Equation 1 (what offloading would have to
   communicate). *)

module Host = No_exec.Host
module Memory = No_mem.Memory
module Region = No_mem.Region
module Loops = No_analysis.Loops

type kind = Func | Loop

type sample = {
  s_name : string;              (* function name or loop display name *)
  s_kind : kind;
  s_in_func : string;           (* enclosing function (self for Func) *)
  s_time : float;               (* inclusive seconds, summed *)
  s_invocations : int;
  s_iterations : int;           (* loops only *)
  s_mem_bytes : int;            (* max unique bytes touched per invocation *)
}

(* Mutable accumulator per profiled entity. *)
type acc = {
  a_name : string;
  a_kind : kind;
  a_in_func : string;
  mutable a_time : float;
  mutable a_invocations : int;
  mutable a_iterations : int;
  mutable a_mem_bytes : int;
}

(* Every live task — a function frame or a loop invocation — carries
   a serial, increasing in creation order, and a count of the distinct
   pages touched while it is live.  [stamps] maps each page to the
   newest serial that has already counted it.  Tasks form a stack and a
   touch counts the page in every live task, so a live task holds the
   page exactly when its serial is at most the page's stamp: a touch
   only credits the tasks newer than the stamp, walking down from the
   top of the stack.  No per-task set is allocated, and the steady
   state (same page, same top task) is one comparison. *)

type live_loop = {
  ll_acc : acc;
  ll_blocks : Loops.String_set.t;
  ll_header : string;
  ll_start : float;
  ll_serial : int;
  mutable ll_pages : int;
}

(* A loop header in one function, with its accumulator once the loop
   has run. *)
type header = { h_loop : Loops.loop; mutable h_acc : acc option }

type func = {
  fn_name : string;
  fn_acc : acc;
  fn_headers : (string, header) Hashtbl.t;  (* header label -> loop *)
  mutable fn_depth : int;                    (* live frames *)
}

type frame = {
  fr_func : func;
  fr_start : float;
  fr_outermost : bool;          (* recursion: only outermost is timed *)
  fr_serial : int;
  mutable fr_pages : int;
  mutable fr_loops : live_loop list;  (* innermost first *)
}

type t = {
  host : Host.t;
  headers : (string, (string, header) Hashtbl.t) Hashtbl.t;
      (* function -> its loop headers, built at [attach] *)
  funcs : (string, func) Hashtbl.t;
  accs : (string, acc) Hashtbl.t;       (* key: kind-qualified name *)
  mutable stack : frame list;
  mutable serial : int;                 (* last task serial handed out *)
  stamps : (int, int) Hashtbl.t;        (* page -> newest serial counting it *)
  mutable last_page : int;
  mutable last_top : int;
  saved_enter : string -> unit;
  saved_exit : string -> unit;
  saved_block : (string -> string -> unit) option;
  saved_touch : (int -> unit) option;
}

let key kind name =
  match kind with Func -> "f:" ^ name | Loop -> "l:" ^ name

let get_acc t kind name in_func =
  let k = key kind name in
  match Hashtbl.find_opt t.accs k with
  | Some acc -> acc
  | None ->
    let acc =
      { a_name = name; a_kind = kind; a_in_func = in_func; a_time = 0.0;
        a_invocations = 0; a_iterations = 0; a_mem_bytes = 0 }
    in
    Hashtbl.replace t.accs k acc;
    acc

let now t = t.host.Host.clock.Host.now

let next_serial t =
  t.serial <- t.serial + 1;
  t.serial

let no_headers : (string, header) Hashtbl.t = Hashtbl.create 1

(* Created on a function's first entry, when its accumulator is
   registered. *)
let func_of t fname =
  match Hashtbl.find t.funcs fname with
  | fn -> fn
  | exception Not_found ->
    let fn =
      { fn_name = fname; fn_acc = get_acc t Func fname fname;
        fn_headers =
          Option.value ~default:no_headers (Hashtbl.find_opt t.headers fname);
        fn_depth = 0 }
    in
    Hashtbl.replace t.funcs fname fn;
    fn

let close_loop t (ll : live_loop) =
  ll.ll_acc.a_time <- ll.ll_acc.a_time +. (now t -. ll.ll_start);
  ll.ll_acc.a_mem_bytes <-
    max ll.ll_acc.a_mem_bytes (ll.ll_pages * Region.page_size)

let on_enter t fname =
  let fn = func_of t fname in
  fn.fn_acc.a_invocations <- fn.fn_acc.a_invocations + 1;
  t.stack <-
    { fr_func = fn; fr_start = now t; fr_outermost = fn.fn_depth = 0;
      fr_serial = next_serial t; fr_pages = 0; fr_loops = [] }
    :: t.stack;
  fn.fn_depth <- fn.fn_depth + 1

let on_exit t fname =
  match t.stack with
  | fr :: rest when String.equal fr.fr_func.fn_name fname ->
    List.iter (close_loop t) fr.fr_loops;
    let fn = fr.fr_func in
    fn.fn_depth <- fn.fn_depth - 1;
    if fr.fr_outermost then begin
      fn.fn_acc.a_time <- fn.fn_acc.a_time +. (now t -. fr.fr_start);
      fn.fn_acc.a_mem_bytes <-
        max fn.fn_acc.a_mem_bytes (fr.fr_pages * Region.page_size)
    end;
    t.stack <- rest
  | _ ->
    (* Unbalanced exit: drop silently (a trap unwound the stack). *)
    ()

let on_block t fname label =
  match t.stack with
  | fr :: _ when String.equal fr.fr_func.fn_name fname -> (
    (* Close loops whose body does not contain this block. *)
    let rec close_stale loops =
      match loops with
      | ll :: rest when not (Loops.String_set.mem label ll.ll_blocks) ->
        close_loop t ll;
        close_stale rest
      | _ -> loops
    in
    fr.fr_loops <- close_stale fr.fr_loops;
    (* Entering a loop header: either a new invocation or an iteration. *)
    match Hashtbl.find fr.fr_func.fn_headers label with
    | exception Not_found -> ()
    | h -> (
      match fr.fr_loops with
      | ll :: _ when String.equal ll.ll_header label ->
        ll.ll_acc.a_iterations <- ll.ll_acc.a_iterations + 1
      | _ ->
        let acc =
          match h.h_acc with
          | Some acc -> acc
          | None ->
            let acc = get_acc t Loop h.h_loop.Loops.l_name fname in
            h.h_acc <- Some acc;
            acc
        in
        acc.a_invocations <- acc.a_invocations + 1;
        acc.a_iterations <- acc.a_iterations + 1;
        fr.fr_loops <-
          { ll_acc = acc; ll_blocks = h.h_loop.Loops.l_blocks;
            ll_header = label; ll_start = now t; ll_serial = next_serial t;
            ll_pages = 0 }
          :: fr.fr_loops))
  | _ -> ()

let top_serial t =
  match t.stack with
  | [] -> 0
  | { fr_loops = ll :: _; _ } :: _ -> ll.ll_serial
  | fr :: _ -> fr.fr_serial

(* Count a page in every live task newer than [stamp], top down. *)
let rec credit stamp frames =
  match frames with
  | fr :: older ->
    if credit_loops stamp fr.fr_loops && fr.fr_serial > stamp then begin
      fr.fr_pages <- fr.fr_pages + 1;
      credit stamp older
    end
  | [] -> ()

and credit_loops stamp loops =
  match loops with
  | ll :: outer ->
    ll.ll_serial > stamp
    && begin
         ll.ll_pages <- ll.ll_pages + 1;
         credit_loops stamp outer
       end
  | [] -> true

let on_touch t page =
  let top = top_serial t in
  if page <> t.last_page || top <> t.last_top then begin
    t.last_page <- page;
    t.last_top <- top;
    let stamp = try Hashtbl.find t.stamps page with Not_found -> 0 in
    if top > stamp then begin
      credit stamp t.stack;
      Hashtbl.replace t.stamps page top
    end
  end

(* Attach a profiler to [host]; returns the handle to read results
   from after the profiled run. *)
let attach (host : Host.t) : t =
  let headers = Hashtbl.create 64 in
  List.iter
    (fun (l : Loops.loop) ->
      let in_func =
        match Hashtbl.find_opt headers l.Loops.l_func with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.replace headers l.Loops.l_func tbl;
          tbl
      in
      if not (Hashtbl.mem in_func l.Loops.l_header) then
        Hashtbl.replace in_func l.Loops.l_header { h_loop = l; h_acc = None })
    (Loops.loops_of_module host.Host.modul);
  let hooks = host.Host.hooks in
  let t =
    { host; headers; funcs = Hashtbl.create 64; accs = Hashtbl.create 64;
      stack = []; serial = 0; stamps = Hashtbl.create 1024; last_page = -1;
      last_top = 0; saved_enter = hooks.Host.on_enter;
      saved_exit = hooks.Host.on_exit; saved_block = hooks.Host.on_block;
      saved_touch = host.Host.mem.Memory.on_touch }
  in
  hooks.Host.on_enter <- on_enter t;
  hooks.Host.on_exit <- on_exit t;
  hooks.Host.on_block <- Some (on_block t);
  Memory.set_touch_callback host.Host.mem (Some (on_touch t));
  t

let detach t =
  let hooks = t.host.Host.hooks in
  hooks.Host.on_enter <- t.saved_enter;
  hooks.Host.on_exit <- t.saved_exit;
  hooks.Host.on_block <- t.saved_block;
  Memory.set_touch_callback t.host.Host.mem t.saved_touch

let results t : sample list =
  Hashtbl.fold
    (fun _ acc samples ->
      {
        s_name = acc.a_name;
        s_kind = acc.a_kind;
        s_in_func = acc.a_in_func;
        s_time = acc.a_time;
        s_invocations = acc.a_invocations;
        s_iterations = acc.a_iterations;
        s_mem_bytes = acc.a_mem_bytes;
      }
      :: samples)
    t.accs []
  |> List.sort (fun a b -> compare b.s_time a.s_time)

let find_sample samples ~kind ~name =
  List.find_opt
    (fun s -> s.s_kind = kind && String.equal s.s_name name)
    samples
