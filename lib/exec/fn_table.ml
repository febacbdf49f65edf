(* Per-device function address tables.

   "Like global variables, the Native Offloader compiler cannot
   manipulate the addresses of functions that the back-end compilers
   decide" (Section 3.4).  We model this faithfully: each device
   assigns its own code addresses to functions, so a function pointer
   produced on one device is meaningless on the other unless it goes
   through the function-pointer mapping pass.  The *unified* convention
   is that memory holds mobile addresses (the mobile layout is the
   standard one). *)

type t = {
  base : int;
  step : int;
  by_name : (string, int) Hashtbl.t;
  by_addr : (int, string) Hashtbl.t;
}

exception Not_a_function of int   (* address *)

let create ~base ~step (funcs : string list) =
  let t =
    { base; step; by_name = Hashtbl.create 64; by_addr = Hashtbl.create 64 }
  in
  List.iteri
    (fun i name ->
      let addr = base + (i * step) in
      Hashtbl.replace t.by_name name addr;
      Hashtbl.replace t.by_addr addr name)
    funcs;
  t

(* Mobile code addresses sit in the low 32 bits (a 32-bit device);
   server addresses sit above 2^32, so confusing the two is *always*
   detectable in tests. *)
let mobile funcs = create ~base:0x0040_0000 ~step:64 funcs
let server funcs = create ~base:0x7f00_0000_0000 ~step:128 funcs

let addr_of t name =
  match Hashtbl.find_opt t.by_name name with
  | Some addr -> addr
  | None -> invalid_arg (Printf.sprintf "Fn_table.addr_of: %s" name)

let name_of t addr =
  match Hashtbl.find_opt t.by_addr addr with
  | Some name -> name
  | None -> raise (Not_a_function addr)

