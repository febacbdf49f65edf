(* Log-bucketed (HDR-style) latency/size histogram.

   Values land in geometrically spaced buckets — [sub_buckets] per
   octave, so the relative bucket width is 2^(1/8) - 1 ≈ 9% — which
   keeps the structure tiny no matter how wide the dynamic range is
   (nanosecond fn-ptr translations and multi-second offload spans share
   one histogram type).  Each bucket keeps its own count *and* sum, so
   a quantile reports the mean of the bucket the rank falls in: exact
   whenever a bucket holds one distinct value (in particular for any
   point distribution), and within the 9% bucket width otherwise.

   Histograms merge losslessly (bucket-wise addition), which is what
   the fleet-percentile bench mode relies on: per-run histograms are
   merged across the whole workload registry and quantiled once.

   Buckets live in dense [int array] / [float array] pairs indexed by
   bucket number (grown by doubling), and the scalar state (sum, min,
   max) in a flat [float array]: [add] touches no boxed value, so the
   hot record path — every event's latency in the windowed series —
   allocates nothing after the arrays reach their working size.  The
   per-bucket sums accumulate in arrival order, exactly like the
   hashtable representation this replaces, so quantiles are
   bit-identical. *)

module Selfprof = No_selfprof.Selfprof

(* 8 sub-buckets per power of two. *)
let sub_buckets = 8.0

(* Values at or below this floor share bucket 0; simulated costs are
   well above it. *)
let v_min = 1e-12

(* Scalar-state slots in [st]. *)
let s_sum = 0
let s_min = 1
let s_max = 2

(* Dense-index ceiling, the top bucket.  Values up to about 1.8e296
   reach at most bucket 1 + floor (8 * log2 max_float) = 8193, far
   below it; above that, [v /. v_min] overflows to +inf, and those
   values and +inf itself land here. *)
let max_index = 16_383

type t = {
  mutable count : int;
  st : float array;              (* sum / min / max, unboxed *)
  mutable counts : int array;    (* per-bucket counts, dense by index *)
  mutable sums : float array;    (* per-bucket sums, same indexing *)
  mutable hi : int;              (* 1 + highest occupied bucket; 0 = empty *)
  mutable exm : (int * string * float) list;
      (* exemplars: (bucket, trace id, value), ascending bucket, at
         most one per bucket (largest value wins), capped — attached
         out of band by the sampler, never by [add], so the hot record
         path stays allocation-free *)
}

let initial_buckets = 64

(* Exemplar ceiling per histogram; when exceeded, the lowest buckets
   are shed first — the tail is what an exemplar is for. *)
let exemplar_cap = 16

let create () =
  {
    count = 0;
    st = [| 0.0; infinity; neg_infinity |];
    counts = Array.make initial_buckets 0;
    sums = Array.make initial_buckets 0.0;
    hi = 0;
    exm = [];
  }

(* The octave position is compared as a float: native [int_of_float]
   of +inf is 0, which would put an overflowed value in bucket 1. *)
let index_of v =
  if v <= v_min then 0
  else
    let octaves = floor (Float.log2 (v /. v_min) *. sub_buckets) in
    if octaves >= float_of_int (max_index - 1) then max_index
    else 1 + int_of_float octaves

let grow t want =
  let cap = ref (Array.length t.counts) in
  while !cap <= want do
    cap := !cap * 2
  done;
  let counts = Array.make !cap 0 in
  let sums = Array.make !cap 0.0 in
  Array.blit t.counts 0 counts 0 t.hi;
  Array.blit t.sums 0 sums 0 t.hi;
  t.counts <- counts;
  t.sums <- sums

let add t v =
  Selfprof.enter Hist_record;
  (if not (Float.is_nan v) then begin
     t.count <- t.count + 1;
     t.st.(s_sum) <- t.st.(s_sum) +. v;
     if v < t.st.(s_min) then t.st.(s_min) <- v;
     if v > t.st.(s_max) then t.st.(s_max) <- v;
     let idx = index_of v in
     if idx >= Array.length t.counts then grow t idx;
     t.counts.(idx) <- t.counts.(idx) + 1;
     t.sums.(idx) <- t.sums.(idx) +. v;
     if idx >= t.hi then t.hi <- idx + 1
   end);
  Selfprof.leave Hist_record

let count t = t.count
let sum t = t.st.(s_sum)
let min t = if t.count = 0 then Float.nan else t.st.(s_min)
let max t = if t.count = 0 then Float.nan else t.st.(s_max)
let mean t = if t.count = 0 then Float.nan else t.st.(s_sum) /. float_of_int t.count

let note_exemplar t ~trace_id v =
  if not (Float.is_nan v) then begin
    let idx = index_of v in
    let rec place = function
      | [] -> [ (idx, trace_id, v) ]
      | ((i, _, ev) as e) :: rest ->
        if i = idx then (if v > ev then (idx, trace_id, v) else e) :: rest
        else if i > idx then (idx, trace_id, v) :: e :: rest
        else e :: place rest
    in
    let l = place t.exm in
    let n = List.length l in
    t.exm <-
      (if n > exemplar_cap then List.filteri (fun i _ -> i >= n - exemplar_cap) l
       else l)
  end

let exemplars t = List.map (fun (_, id, v) -> (id, v)) t.exm

let count_le t le =
  let top = index_of le in
  let n = ref 0 in
  for idx = 0 to Stdlib.min (t.hi - 1) top do
    n := !n + t.counts.(idx)
  done;
  !n

let merge_into ~into src =
  Selfprof.enter Hist_merge;
  into.count <- into.count + src.count;
  into.st.(s_sum) <- into.st.(s_sum) +. src.st.(s_sum);
  if src.st.(s_min) < into.st.(s_min) then into.st.(s_min) <- src.st.(s_min);
  if src.st.(s_max) > into.st.(s_max) then into.st.(s_max) <- src.st.(s_max);
  if src.hi > 0 then begin
    if src.hi - 1 >= Array.length into.counts then grow into (src.hi - 1);
    for idx = 0 to src.hi - 1 do
      let c = src.counts.(idx) in
      if c > 0 then begin
        into.counts.(idx) <- into.counts.(idx) + c;
        into.sums.(idx) <- into.sums.(idx) +. src.sums.(idx)
      end
    done;
    if src.hi > into.hi then into.hi <- src.hi
  end;
  List.iter (fun (_, id, v) -> note_exemplar into ~trace_id:id v) src.exm;
  Selfprof.leave Hist_merge

let merge hists =
  let t = create () in
  List.iter (fun h -> merge_into ~into:t h) hists;
  t

(* Nearest-rank quantile: rank ceil(q*n) (1-based), reported as the
   mean of the bucket containing that rank. *)
let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Hist.quantile: q outside [0,1]";
  if t.count = 0 then Float.nan
  else begin
    let rank =
      Stdlib.max 1 (int_of_float (ceil (q *. float_of_int t.count)))
    in
    let rec walk idx cum =
      if idx >= t.hi then t.st.(s_max) (* q = 1 rounding *)
      else
        let c = t.counts.(idx) in
        if c = 0 then walk (idx + 1) cum
        else
          let cum = cum + c in
          if rank <= cum then t.sums.(idx) /. float_of_int c
          else walk (idx + 1) cum
    in
    walk 0 0
  end
