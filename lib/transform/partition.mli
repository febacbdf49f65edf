(** The partitioner (paper §3.3, Figure 3(b)/(c)).

    Produces the mobile partition — a dispatch wrapper per target that
    asks the runtime's dynamic estimator and either calls the runtime's
    offload extern or the original function, with every direct call
    redirected to the wrapper — and the server partition — a typed
    argument-unmarshalling stub per target plus the
    [__listen_client] accept/switch/serve loop of Figure 3(c), with
    unused functions removed.  Stack reallocation is realized by the
    runtime: server frames live in the server stack region of the UVA
    space. *)

type target = {
  t_name : string;
  t_id : int;       (** the switch value in the listener *)
}

type result = {
  p_mobile : No_ir.Ir.modul;
  p_server : No_ir.Ir.modul;
  p_targets : target list;
  p_removed : string list;   (** functions removed server-side *)
}

(** {1 Runtime entry-point names}

    The externs the generated code calls; the offloading runtime
    services them. *)

val dispatch_name : string -> string
val should_offload_extern : string -> string
val offload_extern : string -> string

val should_offload_prefix : string
val offload_prefix : string
(** [should_offload_extern f] and [offload_extern f] are these
    prefixes followed by [f]; the runtime recognises the externs by
    them. *)

val serve_name : string -> string
val listener_name : string
val accept_extern : string
val arg_i64_extern : string
val arg_f64_extern : string
val ret_i64_extern : string
val ret_f64_extern : string
val ret_void_extern : string

val server_externs : (string * No_ir.Ty.signature) list

val run : No_ir.Ir.modul -> targets:string list -> result
(** Partition [modul] for the given target functions (ids assigned in
    list order, from 1).
    @raise Invalid_argument on an unknown target. *)
