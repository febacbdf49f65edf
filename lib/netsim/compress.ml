(* LZ77 byte compressor used by the communication manager.

   The paper's runtime "compresses the communicated data before
   sending it" and, because compression costs much more than
   decompression, applies it only to server-to-mobile traffic
   (Section 4).  This is a real compressor — dirty pages of the
   simulated memory are actual byte buffers, and zero-heavy or
   repetitive pages compress exactly as they would in the paper's
   system.

   Format: a stream of tokens.
     0x00 <varint len> <len bytes>      literal run
     0x01 <varint dist> <varint len>    match (1 <= dist <= 65536,
                                                4 <= len <= 262)
   Varints are LEB128, at most 9 bytes.

   Matches are found greedily through 4-byte hash chains, newest
   candidate first, at most [max_chain] deep.  The walk stops at the
   first candidate outside the 64 KiB window (all older ones are
   outside too) or once a match reaches the length limit, and a
   candidate is only measured if it agrees with the input at the
   current best length — the one byte any longer match must share.
   None of these cuts changes which match wins, so the stream is the
   one an exhaustive walk of the same chains would produce. *)

let min_match = 4
let max_match = 262
let window_size = 1 lsl 16
let hash_bits = 15
let max_chain = 16

(* No inner helper here: a [let b k = ...] closure would be allocated
   on every call, and this runs for every input position. *)
let hash4 data i =
  let v =
    Char.code (Bytes.unsafe_get data i)
    lor (Char.code (Bytes.unsafe_get data (i + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get data (i + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get data (i + 3)) lsl 24)
  in
  (v * 2654435761) lsr (32 - hash_bits) land ((1 lsl hash_bits) - 1)

let put_varint buf v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (!v land 0x7f lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

(* Eight bytes at a time, then byte by byte; [cand < pos] and
   [pos + limit <= length data] keep every read in bounds. *)
let match_length data pos cand limit =
  let n = ref 0 in
  while
    !n + 8 <= limit
    && (Bytes.get_int64_le data (cand + !n) : int64)
       = Bytes.get_int64_le data (pos + !n)
  do
    n := !n + 8
  done;
  while
    !n < limit
    && Bytes.unsafe_get data (cand + !n) = Bytes.unsafe_get data (pos + !n)
  do
    incr n
  done;
  !n

module Selfprof = No_selfprof.Selfprof

(* Dictionary scratch, reused across calls (the simulator is
   single-threaded).  Zeroing 32k+64k words of hash state per page
   dominated the compress zone's cost, so instead of clearing, [head]
   entries are valid only when their epoch stamp matches the current
   call; a stale slot reads as "no chain".  [prev] needs no stamping:
   its entries are only reachable through a head written this call,
   and every chain link walked was therefore also written this call.
   The emitted stream is byte-identical to a fresh-scratch run. *)
let scr_head = Array.make (1 lsl hash_bits) (-1)
let scr_head_epoch = Array.make (1 lsl hash_bits) (-1)
let scr_epoch = ref (-1)
let scr_prev = ref (Array.make 1 (-1))
let scr_out = Buffer.create 65536

let compress (data : Bytes.t) : Bytes.t =
  Selfprof.enter Compress;
  let len = Bytes.length data in
  incr scr_epoch;
  let epoch = !scr_epoch in
  let out = scr_out in
  Buffer.clear out;
  let head = scr_head and head_epoch = scr_head_epoch in
  if Array.length !scr_prev < max len 1 then
    scr_prev := Array.make (max len 1) (-1);
  let prev = !scr_prev in
  let lit_start = ref 0 in
  let flush_literals upto =
    if upto > !lit_start then begin
      Buffer.add_char out '\000';
      put_varint out (upto - !lit_start);
      Buffer.add_subbytes out data !lit_start (upto - !lit_start)
    end
  in
  let insert i =
    if i + min_match <= len then begin
      let h = hash4 data i in
      prev.(i) <- (if head_epoch.(h) = epoch then head.(h) else -1);
      head.(h) <- i;
      head_epoch.(h) <- epoch
    end
  in
  let i = ref 0 in
  while !i < len do
    let best_len = ref 0 and best_dist = ref 0 in
    if !i + min_match <= len then begin
      let limit = min max_match (len - !i) in
      (* Link [!i] into its chain first: the walk starts below it. *)
      let h0 = hash4 data !i in
      let cand = ref (if head_epoch.(h0) = epoch then head.(h0) else -1) in
      prev.(!i) <- !cand;
      head.(h0) <- !i;
      head_epoch.(h0) <- epoch;
      let chain = ref 0 in
      (* Chains run newest to oldest, so the first candidate past the
         window ends the walk, and so does a match of [limit] bytes.
         A candidate can only beat [best_len] if it also matches at
         that offset; one byte comparison rules most of them out. *)
      while
        !cand >= 0 && !chain < max_chain && !i - !cand <= window_size
        && !best_len < limit
      do
        if
          Bytes.unsafe_get data (!cand + !best_len)
          = Bytes.unsafe_get data (!i + !best_len)
        then begin
          let l = match_length data !i !cand limit in
          if l > !best_len then begin
            best_len := l;
            best_dist := !i - !cand
          end
        end;
        cand := prev.(!cand);
        incr chain
      done
    end;
    if !best_len >= min_match then begin
      flush_literals !i;
      Buffer.add_char out '\001';
      put_varint out !best_dist;
      put_varint out !best_len;
      for k = !i + 1 to !i + !best_len - 1 do
        insert k
      done;
      i := !i + !best_len;
      lit_start := !i
    end
    else incr i
  done;
  flush_literals len;
  let res = Buffer.to_bytes out in
  Selfprof.leave Compress;
  res

exception Corrupt of string

let corrupt pos fmt =
  Printf.ksprintf
    (fun msg -> raise (Corrupt (Printf.sprintf "byte %d: %s" pos msg)))
    fmt

(* Nine LEB128 bytes carry 63 bits, all an OCaml int holds. *)
let max_varint_bytes = 9

let get_varint data pos =
  let len = Bytes.length data in
  let v = ref 0 and shift = ref 0 and p = ref pos in
  let continue = ref true in
  while !continue do
    if !p >= len then corrupt pos "truncated varint";
    if !p - pos = max_varint_bytes then
      corrupt pos "varint longer than %d bytes" max_varint_bytes;
    let b = Char.code (Bytes.get data !p) in
    incr p;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  (!v, !p)

let decompress_unprofiled (data : Bytes.t) : Bytes.t =
  let len = Bytes.length data in
  let out = Buffer.create (len * 2) in
  let pos = ref 0 in
  while !pos < len do
    let at = !pos in
    let tag = Bytes.get data at in
    incr pos;
    match tag with
    | '\000' ->
      let n, p = get_varint data !pos in
      if n < 0 || n > len - p then corrupt at "literal run past end";
      Buffer.add_subbytes out data p n;
      pos := p + n
    | '\001' ->
      let dist, p = get_varint data !pos in
      let mlen, p = get_varint data p in
      pos := p;
      if dist <= 0 || dist > Buffer.length out then
        corrupt at "bad match distance %d" dist;
      if mlen < min_match || mlen > max_match then
        corrupt at "match length %d outside [%d, %d]" mlen min_match
          max_match;
      (* Overlapping copies are legal (dist < len). *)
      let base = Buffer.length out - dist in
      for k = 0 to mlen - 1 do
        Buffer.add_char out (Buffer.nth out (base + k))
      done
    | c -> corrupt at "bad token %C" c
  done;
  Buffer.to_bytes out

(* [Corrupt] may unwind out of the loop; leave the zone on both edges
   so a poisoned payload doesn't keep absorbing self-time. *)
let decompress (data : Bytes.t) : Bytes.t =
  Selfprof.enter Decompress;
  match decompress_unprofiled data with
  | res ->
    Selfprof.leave Decompress;
    res
  | exception e ->
    Selfprof.leave Decompress;
    raise e

(* Ratio achieved on [data]; 1.0 means incompressible. *)
let ratio data =
  let n = Bytes.length data in
  if n = 0 then 1.0
  else float_of_int (Bytes.length (compress data)) /. float_of_int n
