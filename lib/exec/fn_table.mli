(** Per-device function address tables.

    "The Native Offloader compiler cannot manipulate the addresses of
    functions that the back-end compilers decide" (§3.4): each device
    assigns its own code addresses, so a function pointer from one
    device is meaningless on the other without the mapping pass.
    Memory holds {e mobile} addresses (the unified standard); mobile
    addresses sit below 2^32 and server addresses above, so confusing
    them is always detectable. *)

type t

exception Not_a_function of int   (** address *)

val create : base:int -> step:int -> string list -> t
val mobile : string list -> t
val server : string list -> t

val addr_of : t -> string -> int
(** @raise Invalid_argument on an unknown function. *)

val name_of : t -> int -> string
(** @raise Not_a_function on a foreign or invalid address — exactly
    what an untranslated cross-device function pointer produces. *)
