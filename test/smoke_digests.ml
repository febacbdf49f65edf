(* Pins the benchmark's simulated output, run by [dune runtest]:

     smoke_digests.exe RUN_EXE

   Runs each workload of benchmark/run.exe with --smoke and seed 1,
   and fails unless it prints its digest below and a final JSON line
   with "correct": true and "failed": 0.  A digest folds in the
   workload's simulated results and its five exact model metrics, so
   a change that moves any of them moves the digest. *)

let expected =
  [
    ("paper-eval", "705707762f811ea0");
    ("fleet-open", "474d29a0bf2d4b30");
    ("faults-recovery", "20467bc9bf719411");
    ("trace-analyze", "7254c11af802e155");
  ]

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let check run_exe (workload, digest) =
  let out = Filename.temp_file "smoke-digest" ".out" in
  let status =
    Sys.command
      (Filename.quote_command run_exe ~stdout:out
         [ "--workload"; workload; "--smoke"; "--seed"; "1" ])
  in
  let lines =
    In_channel.with_open_text out In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove out;
  let last = match List.rev lines with l :: _ -> l | [] -> "" in
  let want = Printf.sprintf "digest %s %s" workload digest in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some (workload ^ ": " ^ what))
    [
      (status = 0, Printf.sprintf "exit %d" status);
      (List.mem want lines, "no line \"" ^ want ^ "\"");
      (contains last "\"correct\": true", "not correct");
      (contains last "\"failed\": 0,", "failed checks");
    ]

let () =
  match List.concat_map (check Sys.argv.(1)) expected with
  | [] -> ()
  | failures ->
    List.iter (fun m -> prerr_endline ("smoke-digests: " ^ m)) failures;
    exit 1
