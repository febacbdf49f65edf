(* The complete Native Offloader compiler pipeline over IR
   (paper Figure 2), given the already-selected offloading targets:

     1. memory unification: heap allocation replacement, referenced
        global reallocation, layout realignment (GEP lowering against
        the unified environment);
     2. partition into mobile and server modules;
     3. server-specific optimization: remote I/O, then one rewrite of
        every server load and store ({!Server_access}: function
        pointer mapping, address size conversion and endianness
        translation, decided together from the two architectures).

   Target selection (profiling + filter + Equation 1) happens before
   this, in the facade library, because it needs to *run* the program
   on a profiling input. *)

module Ir = No_ir.Ir
module Arch = No_arch.Arch
module Layout = No_arch.Layout
module Validate = No_ir.Validate

type stats = {
  st_malloc_sites : int;
  st_free_sites : int;
  st_reallocated_globals : int;
  st_total_globals : int;
  st_geps_lowered : int;
  st_remote_io_sites : int;
  st_fnptr_load_maps : int;
  st_fnptr_store_maps : int;
  st_addr_loads : int;
  st_addr_stores : int;
  st_endian_swaps : int;
  st_removed_functions : string list;
  st_total_functions : int;
  st_server_functions : int;
}

(* The pair a module was compiled for travels with the partitions:
   the runtime builds its two hosts, its estimator's R and its UVA
   slots' byte order from it, so no second copy can disagree. *)
type output = {
  o_mobile : Ir.modul;
  o_server : Ir.modul;
  o_targets : Partition.target list;
  o_mobile_arch : Arch.t;
  o_server_arch : Arch.t;
  o_layout : Layout.env;           (* the unified layout both partitions
                                      run under *)
  o_stats : stats;
}

let structs_fn (m : Ir.modul) name = Ir.find_struct_exn m name

(* [lower_geps] bakes the unified layout into explicit byte arithmetic
   (the literal realignment codegen of Section 3.2).  The default
   leaves GEPs symbolic and realigns by executing both partitions
   under the unified layout environment instead: semantically
   identical, but it avoids inflating the *interpreted* instruction
   count with address arithmetic that native code folds into
   addressing modes — an artifact of simulating at IR level.  The
   explicit-lowering path is kept for tests and the ablation bench. *)
let run ?(lower_geps = false) ~(mobile : Arch.t) ~(server : Arch.t)
    ~(targets : string list) (original : Ir.modul) : output =
  let total_globals = List.length original.Ir.m_globals in
  let total_functions = List.length original.Ir.m_funcs in
  (* 1. Memory unification. *)
  let m, heap_stats = Heap_replace.run original in
  let m, global_stats = Global_realloc.run m in
  let unified_layout = Layout.unified_env ~mobile ~structs:(structs_fn m) in
  let m, gep_stats =
    if lower_geps then Lower_gep.run unified_layout m
    else (m, { Lower_gep.geps_lowered = 0 })
  in
  Validate.check_module m;
  (* 2. Partition. *)
  let parts = Partition.run m ~targets in
  Validate.check_module parts.Partition.p_mobile;
  (* 3. Server-specific optimization. *)
  let server_m = parts.Partition.p_server in
  let server_m, rio_stats = Remote_io.run server_m in
  let server_m, access = Server_access.run ~mobile ~server server_m in
  Validate.check_module server_m;
  {
    o_mobile = parts.Partition.p_mobile;
    o_server = server_m;
    o_targets = parts.Partition.p_targets;
    o_mobile_arch = mobile;
    o_server_arch = server;
    o_layout = unified_layout;
    o_stats =
      {
        st_malloc_sites = heap_stats.Heap_replace.malloc_sites;
        st_free_sites = heap_stats.Heap_replace.free_sites;
        st_reallocated_globals =
          List.length global_stats.Global_realloc.reallocated;
        st_total_globals = total_globals;
        st_geps_lowered = gep_stats.Lower_gep.geps_lowered;
        st_remote_io_sites = rio_stats.Remote_io.sites_rewritten;
        st_fnptr_load_maps = access.Server_access.fnptr_load_maps;
        st_fnptr_store_maps = access.Server_access.fnptr_store_maps;
        st_addr_loads = access.Server_access.addr_loads;
        st_addr_stores = access.Server_access.addr_stores;
        st_endian_swaps = access.Server_access.swaps;
        st_removed_functions = parts.Partition.p_removed;
        st_total_functions = total_functions;
        st_server_functions = List.length server_m.Ir.m_funcs;
      };
  }
