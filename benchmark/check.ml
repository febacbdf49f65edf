(* Output checks and determinism digests.

   Every simulated run the benchmark makes is checked against an
   oracle — offloaded console and return value against a local run of
   the untransformed program, decoded traces against the encoded
   events — and counted as attempted; a mismatch or an exception counts
   as failed.  The digest is FNV-1a over every simulated number and
   console transcript a pass produces, so two runs with the same seed
   can be compared exactly. *)

module Value = No_exec.Value
module Session = No_runtime.Session
module Local_run = No_runtime.Local_run

let attempted = ref 0
let failed = ref 0
let messages : string list ref = ref []  (* newest first, at most 10 *)

let expect what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !messages < 10 then messages := what :: !messages
  end

(* Run [f]; an exception is a failed check named [what]. *)
let guard what f =
  match f () with
  | v -> Some v
  | exception e ->
    expect (what ^ ": " ^ Printexc.to_string e) false;
    None

let same_output what ~(local : Local_run.report) ~console ~result =
  expect
    (what ^ ": output differs from the local run")
    (String.equal console local.Local_run.lr_console
    && Value.equal result local.Local_run.lr_result)

let same_as_local what ~local (r : Session.report) =
  same_output what ~local ~console:r.Session.rep_console
    ~result:r.Session.rep_result

(* {1 FNV-1a, 64-bit} *)

type digest = { mutable h : int64 }

let digest () = { h = 0xcbf29ce484222325L }

let add_string d s =
  let h = ref d.h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  d.h <- !h

let add_int64 d x =
  let h = ref d.h in
  for i = 0 to 7 do
    h :=
      Int64.mul
        (Int64.logxor !h
           (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL))
        0x100000001b3L
  done;
  d.h <- !h

let add_int d i = add_int64 d (Int64.of_int i)
let add_float d f = add_int64 d (Int64.bits_of_float f)

let add_text d s =
  add_int d (String.length s);
  add_string d s

let add_value d = function
  | Value.VInt i ->
    add_int d 0;
    add_int64 d i
  | Value.VFloat f ->
    add_int d 1;
    add_float d f

let add_local d (r : Local_run.report) =
  add_value d r.Local_run.lr_result;
  add_text d r.Local_run.lr_console;
  add_float d r.Local_run.lr_total_s;
  add_float d r.Local_run.lr_energy_mj;
  add_int d r.Local_run.lr_instrs

let add_report d (r : Session.report) =
  add_value d r.Session.rep_result;
  add_text d r.Session.rep_console;
  List.iter (add_float d)
    [ r.Session.rep_total_s; r.rep_energy_mj; r.rep_mobile_compute_s;
      r.rep_server_span_s; r.rep_comm_s; r.rep_fnptr_s; r.rep_remote_io_s;
      r.rep_recovery_s; r.rep_queue_wait_s; r.rep_migrate_transfer_s;
      r.rep_migrate_resume_s ];
  List.iter (add_int d)
    [ r.Session.rep_offloads; r.rep_refusals; r.rep_faults;
      r.rep_prefetched_pages; r.rep_fnptr_translations; r.rep_remote_io_ops;
      r.rep_bytes_to_server; r.rep_bytes_to_mobile; r.rep_wire_bytes_to_mobile;
      r.rep_rpc_timeouts; r.rep_retries; r.rep_fallbacks; r.rep_queued;
      r.rep_rejects; r.rep_checkpoints; r.rep_migrations;
      r.rep_migrations_done ]

let hex d = Printf.sprintf "%016Lx" d.h
