(** The hot function/loop profiler (paper §3.1).

    "The hot function/loop profiler measures execution time,
    invocation count, and memory usage of each function and loop in an
    application with a profiling input."

    Attaches to a {!No_exec.Host} through its hooks: enter/exit give
    inclusive times and invocation counts; block entries attributed to
    statically detected natural loops give loop times, invocations and
    iterations; the memory-touch callback collects the unique pages
    each active task accesses — the M of Equation 1. *)

type kind = Func | Loop

type sample = {
  s_name : string;        (** function name or loop display name *)
  s_kind : kind;
  s_in_func : string;     (** enclosing function (itself for [Func]) *)
  s_time : float;         (** inclusive seconds, summed over invocations *)
  s_invocations : int;
  s_iterations : int;     (** loops only *)
  s_mem_bytes : int;      (** max unique bytes touched per invocation *)
}

type t

val attach : No_exec.Host.t -> t
(** Install the profiling hooks on [host]; profile whatever runs next. *)

val detach : t -> unit
(** Put back the hooks that were installed before {!attach}. *)

val results : t -> sample list
(** Samples sorted by decreasing time. *)

val find_sample : sample list -> kind:kind -> name:string -> sample option
