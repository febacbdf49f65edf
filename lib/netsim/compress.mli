(** LZ77 byte compressor used for server-to-mobile write-back.

    The paper's runtime compresses only in that direction because
    compression costs much more than decompression (§4).  This is a
    real compressor over real page bytes: token stream of literal runs
    and (distance, length) matches, LEB128-coded, 64 KiB window. *)

exception Corrupt of string

val compress : Bytes.t -> Bytes.t

val decompress : Bytes.t -> Bytes.t
(** Inverse of {!compress}.
    @raise Corrupt on malformed input (unknown token, truncated or
    overlong varint, literal run past the end, match distance or
    length out of range), naming the offending byte offset. *)

val ratio : Bytes.t -> float
(** Compressed/original size; 1.0 means incompressible. *)
