(* Smoke test of the benchmark, run by [dune runtest]:

     smoke_test.exe RUN_EXE BENCHMARK_JSON

   Runs every workload shrunk by --smoke and checks that
   - the metric names and units printed equal the ones BENCHMARK.json
     declares, untraced (end_to_end) and traced (per_layer);
   - every workload is correct with no failed check;
   - two runs with seed 1 print equal digests, and seed 2 changes the
     fleet-open digest;
   - the spans of the traced run's Chrome trace nest, and every self
     time is >= 0. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("smoke: " ^ m); exit 1) fmt

(* {1 A minimal JSON reader} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse s =
  let pos = ref 0 in
  let n = String.length s in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c =
    ws ();
    if peek () <> c then fail "JSON: expected %c at %d" c !pos;
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "JSON: bad literal at %d" !pos
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        let c = s.[!pos + 1] in
        pos := !pos + 2;
        (match c with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          Buffer.add_char b
            (Char.chr (int_of_string ("0x" ^ String.sub s !pos 4) land 0xff));
          pos := !pos + 4
        | c -> Buffer.add_char b c);
        go ()
      | '\000' -> fail "JSON: unterminated string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (
        incr pos;
        Obj [])
      else
        let rec fields acc =
          let k = string () in
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "JSON: bad object at %d" !pos
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (
        incr pos;
        Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "JSON: bad array at %d" !pos
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while
        match peek () with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "JSON: bad value at %d" start)
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "JSON: trailing data at %d" !pos;
  v

let member k = function
  | Obj kv -> (
    match List.assoc_opt k kv with Some v -> v | None -> fail "missing key %s" k)
  | _ -> fail "not an object (looking for %s)" k

let str = function Str s -> s | _ -> fail "expected a string"
let num = function Num f -> f | _ -> fail "expected a number"
let arr = function Arr l -> l | _ -> fail "expected an array"
let obj = function Obj kv -> kv | _ -> fail "expected an object"

(* {1 Running the benchmark} *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.split_on_char '\n' out
  | _ -> fail "%s %s exited with an error:\n%s" exe (String.concat " " args) out

let results lines =
  List.filter_map
    (fun l -> if String.length l > 0 && l.[0] = '{' then Some (parse l) else None)
    lines

let digests lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "digest"; w; h ] -> Some (w, h)
      | _ -> None)
    lines

let () =
  let exe =
    (* a bare name would be looked up on PATH *)
    if Filename.is_implicit Sys.argv.(1) then
      Filename.concat Filename.current_dir_name Sys.argv.(1)
    else Sys.argv.(1)
  in
  let spec = parse (read_file Sys.argv.(2)) in
  let workloads =
    List.map (fun w -> str (member "name" w)) (arr (member "workloads" spec))
  in
  let declared key =
    List.sort compare
      (List.map
         (fun m -> (str (member "name" m), str (member "unit" m)))
         (arr (member key spec)))
  in
  let check_results ~key lines =
    let rs = results lines in
    if List.length rs <> List.length workloads then
      fail "%d results for %d workloads" (List.length rs) (List.length workloads);
    List.iter
      (fun r ->
        if member "correct" r <> Bool true then fail "a workload is not correct";
        if num (member "failed" r) <> 0.0 then fail "failed_frac is not 0";
        let printed =
          List.sort compare
            (List.map (fun (k, v) -> (k, str (member "unit" v))) (obj (member "metrics" r)))
        in
        if printed <> declared key then
          fail "printed metrics differ from BENCHMARK.json %s" key)
      rs
  in
  let plain = run exe [ "--smoke"; "--seed"; "1" ] in
  check_results ~key:"end_to_end" plain;
  let trace_file = "smoke_trace.json" in
  let traced =
    run exe [ "--smoke"; "--seed"; "1"; "--trace"; "1"; "--trace-out"; trace_file ]
  in
  check_results ~key:"per_layer" traced;
  let d1 = digests plain in
  if List.sort compare (List.map fst d1) <> List.sort compare workloads then
    fail "expected one digest per workload";
  if d1 <> digests traced then fail "two runs with seed 1 print different digests";
  let other = run exe [ "--smoke"; "--seed"; "2"; "--workload"; "fleet-open" ] in
  if digests other = [ ("fleet-open", List.assoc "fleet-open" d1) ] then
    fail "seed 2 does not change the fleet-open digest";
  (* Spans nest, and every self time is >= 0. *)
  let events = arr (member "traceEvents" (parse (read_file trace_file))) in
  Sys.remove trace_file;
  let spans =
    List.filter_map
      (fun e ->
        if str (member "ph" e) <> "X" then None
        else
          let a = member "args" e in
          List.iter
            (fun k -> ignore (member k a))
            [ "layer"; "workload"; "pass"; "program"; "config"; "run_id" ];
          if num (member "self_s" a) < -1e-9 then
            fail "span %s has negative self time" (str (member "name" e));
          Some
            ( (num (member "pid" e), num (member "id" a)),
              (num (member "pid" e), num (member "parent" a)),
              num (member "ts" e),
              num (member "dur" e) ))
      events
  in
  if spans = [] then fail "the trace holds no spans";
  let by_id = Hashtbl.create 1024 in
  List.iter (fun ((id, _, _, _) as s) -> Hashtbl.replace by_id id s) spans;
  List.iter
    (fun (_, ((_, parent) as pkey), ts, dur) ->
      if parent <> 0.0 then
        match Hashtbl.find_opt by_id pkey with
        | None -> fail "span parent %g not in the trace" parent
        | Some (_, _, pts, pdur) ->
          let eps = 0.002 in
          if ts < pts -. eps || ts +. dur > pts +. pdur +. eps then
            fail "span at %g us does not nest in its parent" ts)
    spans;
  print_endline "benchmark smoke test: ok"
