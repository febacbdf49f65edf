(** Values that leave an interpreted frame: parameters, returns, and
    the arguments and results of calls, builtins, externs and hooks.
    Inside a frame, registers stay unboxed in {!Host}'s slots.

    The IR is statically typed, so values carry no type tag beyond the
    int/float split: integers and pointers are int64 bit patterns
    (sub-word integers kept sign-extended), floats are OCaml floats. *)

type t =
  | VInt of int64
  | VFloat of float

exception Type_trap of string

val to_int : t -> int64
val to_float : t -> float
val of_bool : bool -> t

val to_addr : t -> int
(** Integer value as a non-negative address.  @raise Type_trap. *)

val zero : t
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
