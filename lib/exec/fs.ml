(* Synthetic file system device.

   Workloads such as 300.twolf (cell files), 445.gobmk (play records)
   and 464.h264ref (video frames) read input files during their hot
   regions; under offloading these reads become *remote input*
   operations with round-trip cost (Section 3.4, Figure 7).  Files
   live on the mobile device. *)

type file = {
  name : string;
  data : Bytes.t;
}

type handle = {
  h_file : file;
  mutable h_pos : int;
  mutable h_open : bool;
}

type t = {
  mutable files : file list;
  handles : (int, handle) Hashtbl.t;
  mutable next_fd : int;
}

exception No_such_file of string
exception Bad_fd of int

let create () =
  { files = []; handles = Hashtbl.create 8; next_fd = 3 }

let add_file t name data = t.files <- { name; data } :: t.files

let open_file t name =
  match List.find_opt (fun f -> String.equal f.name name) t.files with
  | None -> raise (No_such_file name)
  | Some file ->
    let fd = t.next_fd in
    t.next_fd <- fd + 1;
    Hashtbl.replace t.handles fd { h_file = file; h_pos = 0; h_open = true };
    fd

let handle t fd =
  match Hashtbl.find_opt t.handles fd with
  | Some h when h.h_open -> h
  | Some _ | None -> raise (Bad_fd fd)

let size t fd = Bytes.length (handle t fd).h_file.data

let read t fd len =
  let h = handle t fd in
  let available = Bytes.length h.h_file.data - h.h_pos in
  let n = min len (max available 0) in
  let chunk = Bytes.sub h.h_file.data h.h_pos n in
  h.h_pos <- h.h_pos + n;
  chunk

let close t fd = (handle t fd).h_open <- false

(* Snapshots, for recovery: capture every handle's position and open
   flag plus the descriptor counter, so a rolled-back task re-reads
   its files from where they stood at offload start.  File *contents*
   are immutable, so only cursor state needs saving. *)

type snapshot = {
  s_handles : (int * int * bool) list;  (* fd, pos, open *)
  s_next_fd : int;
}

let snapshot t =
  {
    s_handles =
      Hashtbl.fold
        (fun fd h acc -> (fd, h.h_pos, h.h_open) :: acc)
        t.handles [];
    s_next_fd = t.next_fd;
  }

let restore t s =
  (* Drop descriptors opened after the snapshot... *)
  let keep = List.map (fun (fd, _, _) -> fd) s.s_handles in
  let stale =
    Hashtbl.fold
      (fun fd _ acc -> if List.mem fd keep then acc else fd :: acc)
      t.handles []
  in
  List.iter (Hashtbl.remove t.handles) stale;
  (* ...and rewind the survivors. *)
  List.iter
    (fun (fd, pos, opened) ->
      match Hashtbl.find_opt t.handles fd with
      | Some h ->
        h.h_pos <- pos;
        h.h_open <- opened
      | None -> ())
    s.s_handles;
  t.next_fd <- s.s_next_fd
