(* Benchmark-side tracing.

   Spans are recorded by the benchmark's own code around each call it
   makes into a layer's public function, kept in memory and written at
   exit as Chrome trace-event JSON (Perfetto, speedscope).  Counts are
   recorded at the same boundaries.  Layers the benchmark can only reach
   through [Sim.run] or [Session.run] are covered by the simulator's
   Selfprof zones: every span snapshots the zone table on entry and
   exit, so zone time is subtracted from the span it ran inside and
   charged to the zone's own layer.

   All times are host CPU seconds of this process ([Sys.time]), the
   clock the Selfprof zones use.  The benchmark is single-domain, so
   CPU time is wall time minus the time other processes held the
   core. *)

module Selfprof = No_selfprof.Selfprof

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  layer : string;
  workload : string;
  pass : string;
  program : string;
  config : string;
  run_id : int;  (** shared by every span of one simulated run *)
  t0 : float;
  mutable t1 : float;
  mutable zones : float array;
      (** Selfprof self seconds per zone accrued while the span was
          open, in [Selfprof.zones] order *)
}

let on = ref false
let workload = ref ""
let pass = ref ""
let recorded : span list ref = ref []  (* newest first *)
let open_ids : int list ref = ref []
let next_id = ref 0
let next_run = ref 0
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let zones = List.mapi (fun i z -> (i, z)) Selfprof.zones
let no_zones = Array.make (List.length zones) 0.0

let zone_snapshot () =
  if Selfprof.enabled () then
    Array.of_list (List.map (fun r -> r.Selfprof.r_self_s) (Selfprof.rows ()))
  else no_zones

let new_run () =
  incr next_run;
  !next_run

let span ~layer ?(program = "") ?(config = "") ?(run_id = 0) name f =
  if not !on then f ()
  else begin
    incr next_id;
    let zones0 = zone_snapshot () in
    let s =
      {
        id = !next_id;
        parent = (match !open_ids with p :: _ -> p | [] -> 0);
        name;
        layer;
        workload = !workload;
        pass = !pass;
        program;
        config;
        run_id;
        t0 = Sys.time ();
        t1 = nan;
        zones = no_zones;
      }
    in
    recorded := s :: !recorded;
    open_ids := s.id :: !open_ids;
    let close () =
      s.t1 <- Sys.time ();
      let zones1 = zone_snapshot () in
      s.zones <- Array.mapi (fun i z -> z -. zones0.(i)) zones1;
      open_ids := List.tl !open_ids
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let count name n =
  if !on then
    Hashtbl.replace counts name
      (n +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let count_of name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

let spans () = List.rev !recorded
let duration s = s.t1 -. s.t0
let children all s = List.filter (fun c -> c.parent = s.id) all

let rec descendants all s =
  List.concat_map (fun c -> c :: descendants all c) (children all s)

(* Which layer each Selfprof zone belongs to. *)
let zone_layer = function
  | Selfprof.Eq_push | Eq_pop | Pool_route -> "sched"
  | Page_fault -> "mem"
  | Compress | Decompress -> "netsim"
  | Sink_emit -> "trace"
  | Hist_record | Hist_merge -> "obs"
  | Checkpoint -> "migrate"

(* Zone time that ran inside [s] but inside none of its children. *)
let exclusive_zones all s =
  List.fold_left
    (fun acc c -> Array.mapi (fun i z -> z -. c.zones.(i)) acc)
    s.zones (children all s)

(* Self time: duration minus the children's durations and minus the
   span's exclusive zone time. *)
let self_s all s =
  duration s
  -. List.fold_left (fun acc c -> acc +. duration c) 0.0 (children all s)
  -. Array.fold_left ( +. ) 0.0 (exclusive_zones all s)

(* Per-layer self time under [root], zone time charged to the zone's
   layer, and the root's own residue as "unattributed".  The rows sum to
   the root's duration. *)
let self_table all root =
  let tbl = Hashtbl.create 16 in
  let add layer v =
    Hashtbl.replace tbl layer
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl layer))
  in
  List.iter
    (fun s ->
      if s != root then add s.layer (self_s all s);
      let ex = exclusive_zones all s in
      List.iter (fun (i, z) -> add (zone_layer z) ex.(i)) zones)
    (root :: descendants all root);
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  rows @ [ ("unattributed", self_s all root) ]

(* {1 Chrome trace-event output} *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let chrome_header = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
let chrome_footer = "]}"

(* The events, one per line and without separators, so the files of
   several workloads merge by concatenating their event lines. *)
let chrome_events ~pid =
  let all = spans () in
  let origin = match all with s :: _ -> s.t0 | [] -> 0.0 in
  let event s =
    let ex = exclusive_zones all s in
    let zone_args =
      List.filter_map
        (fun (i, z) ->
          if ex.(i) > 0.0 then
            Some
              (Printf.sprintf "%s:%.9f"
                 (json_string (Selfprof.zone_name z))
                 ex.(i))
          else None)
        zones
    in
    Printf.sprintf
      "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"layer\":%s,\"workload\":%s,\"pass\":%s,\"program\":%s,\"config\":%s,\"run_id\":%d,\"self_s\":%.9f,\"zones_s\":{%s}}}"
      (json_string s.name) (json_string s.layer)
      ((s.t0 -. origin) *. 1e6)
      (duration s *. 1e6) pid s.id s.parent (json_string s.layer)
      (json_string s.workload) (json_string s.pass) (json_string s.program)
      (json_string s.config) s.run_id (self_s all s)
      (String.concat "," zone_args)
  in
  Printf.sprintf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"args\":{\"name\":%s}}"
    pid (json_string !workload)
  :: List.map event all

let write_chrome path event_lines =
  let oc = open_out path in
  output_string oc chrome_header;
  output_char oc '\n';
  output_string oc (String.concat ",\n" event_lines);
  output_string oc "\n";
  output_string oc chrome_footer;
  output_char oc '\n';
  close_out oc
