(* Values that leave an interpreted frame (see value.mli).

   The IR is statically typed, so values carry no type; integers and
   pointers are int64 bit patterns (sub-word integers are kept
   sign-extended), floats are OCaml floats. *)

type t =
  | VInt of int64
  | VFloat of float

exception Type_trap of string

let to_int = function
  | VInt v -> v
  | VFloat _ -> raise (Type_trap "expected integer, got float")

let to_float = function
  | VFloat v -> v
  | VInt _ -> raise (Type_trap "expected float, got integer")

let of_bool b = if b then VInt 1L else VInt 0L

let to_addr v =
  let a = to_int v in
  if Int64.compare a 0L < 0 then
    raise (Type_trap "negative address")
  else Int64.to_int a

let zero = VInt 0L

let pp ppf = function
  | VInt v -> Fmt.pf ppf "%Ld" v
  | VFloat v -> Fmt.pf ppf "%g" v

let equal a b =
  match a, b with
  | VInt x, VInt y -> Int64.equal x y
  | VFloat x, VFloat y -> Float.equal x y
  | VInt _, VFloat _ | VFloat _, VInt _ -> false
