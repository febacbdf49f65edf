(* Zone-based self-profiler for the simulator's own hot paths.

   Accounting model: a global LIFO stack of open zones.  Every probe
   crossing (enter or leave) reads the CPU clock and the minor-heap
   allocation odometer and attributes the elapsed delta to the zone on
   top of the stack — so nested zones steal their cost from the
   enclosing one and every row is *self* cost, not inclusive cost.

   The hot path must not allocate: [Sys.time] and [Gc.minor_words]
   compile to their unboxed [@@noalloc] externals, and the running
   cursor lives in 1-element float arrays (float arrays store unboxed;
   a [float ref] would box on every store). *)

type zone =
  | Eq_push
  | Eq_pop
  | Page_fault
  | Compress
  | Decompress
  | Sink_emit
  | Hist_record
  | Hist_merge
  | Pool_route
  | Checkpoint

let zones =
  [ Eq_push; Eq_pop; Page_fault; Compress; Decompress; Sink_emit;
    Hist_record; Hist_merge; Pool_route; Checkpoint ]

let n_zones = 10

let index = function
  | Eq_push -> 0
  | Eq_pop -> 1
  | Page_fault -> 2
  | Compress -> 3
  | Decompress -> 4
  | Sink_emit -> 5
  | Hist_record -> 6
  | Hist_merge -> 7
  | Pool_route -> 8
  | Checkpoint -> 9

let zone_name = function
  | Eq_push -> "eq-push"
  | Eq_pop -> "eq-pop"
  | Page_fault -> "page-fault"
  | Compress -> "compress"
  | Decompress -> "decompress"
  | Sink_emit -> "sink-emit"
  | Hist_record -> "hist-record"
  | Hist_merge -> "hist-merge"
  | Pool_route -> "pool-route"
  | Checkpoint -> "checkpoint"

(* --- mutable state --- *)

let on = ref false
let calls = Array.make n_zones 0
let self_s = Array.make n_zones 0.
let self_words = Array.make n_zones 0.

let max_depth = 64
let stack = Array.make max_depth (-1)
let depth = ref 0
let unwound_frames = ref 0

(* Cursor: clock/odometer readings at the previous probe crossing.
   1-element float arrays so stores stay unboxed. *)
let last_t = [| 0. |]
let last_w = [| 0. |]

let enabled () = !on

let reset () =
  Array.fill calls 0 n_zones 0;
  Array.fill self_s 0 n_zones 0.;
  Array.fill self_words 0 n_zones 0.;
  depth := 0;
  unwound_frames := 0

let enable () =
  on := true;
  last_t.(0) <- Sys.time ();
  last_w.(0) <- Gc.minor_words ()

let disable () = on := false

(* Attribute the time/words elapsed since the previous crossing to the
   innermost open zone, and advance the cursor. *)
let settle () =
  let now = Sys.time () in
  let w = Gc.minor_words () in
  (if !depth > 0 then begin
     let top = stack.(!depth - 1) in
     self_s.(top) <- self_s.(top) +. (now -. last_t.(0));
     self_words.(top) <- self_words.(top) +. (w -. last_w.(0))
   end);
  last_t.(0) <- now;
  last_w.(0) <- w

let really_enter z =
  settle ();
  let zi = index z in
  calls.(zi) <- calls.(zi) + 1;
  if !depth < max_depth then begin
    stack.(!depth) <- zi;
    incr depth
  end
  else incr unwound_frames

let really_leave z =
  settle ();
  let zi = index z in
  (* Common case: leaving the innermost zone. *)
  if !depth > 0 && stack.(!depth - 1) = zi then decr depth
  else begin
    (* An exception unwound past inner [leave]s, or the stack
       overflowed at enter time.  Scan down for the zone; frames
       popped over it were abandoned mid-flight. *)
    let found = ref (-1) in
    for i = !depth - 1 downto 0 do
      if !found < 0 && stack.(i) = zi then found := i
    done;
    if !found >= 0 then begin
      unwound_frames := !unwound_frames + (!depth - 1 - !found);
      depth := !found
    end
    else incr unwound_frames
  end

let enter z = if !on then really_enter z
let leave z = if !on then really_leave z

(* --- reporting --- *)

type row = {
  r_zone : string;
  r_calls : int;
  r_self_s : float;
  r_self_words : float;
}

let rows () =
  List.map
    (fun z ->
      let zi = index z in
      { r_zone = zone_name z;
        r_calls = calls.(zi);
        r_self_s = self_s.(zi);
        r_self_words = self_words.(zi) })
    zones

let unwound () = !unwound_frames

let words_per_call r =
  if r.r_calls = 0 then 0. else r.r_self_words /. float_of_int r.r_calls

let report () =
  let b = Buffer.create 1024 in
  let rs = rows () in
  Buffer.add_string b "self-profile (zone, self cost)\n";
  Buffer.add_string b
    "  zone          calls        self-ms      kwords   words/call\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s %8d %12.3f %11.1f %12.1f\n" r.r_zone
           r.r_calls (r.r_self_s *. 1e3) (r.r_self_words /. 1e3)
           (words_per_call r)))
    rs;
  (if !unwound_frames > 0 then
     Buffer.add_string b
       (Printf.sprintf "  (unwound frames: %d)\n" !unwound_frames));
  let active = List.filter (fun r -> r.r_calls > 0) rs in
  let top_by name key =
    (* stable sort: ties keep vocabulary order, so the report is
       deterministic even when costs collide (e.g. all zeros) *)
    let sorted =
      List.stable_sort (fun a b -> compare (key b) (key a)) active
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    let picks = take 3 sorted in
    if picks <> [] then begin
      Buffer.add_string b (Printf.sprintf "  top by %s:" name);
      List.iter
        (fun r -> Buffer.add_string b (Printf.sprintf " %s" r.r_zone))
        picks;
      Buffer.add_char b '\n'
    end
  in
  top_by "self-time" (fun r -> r.r_self_s);
  top_by "words/call" words_per_call;
  Buffer.contents b

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
