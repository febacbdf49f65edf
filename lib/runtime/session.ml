(* The Native Offloader runtime (paper Section 4, Figure 5).

   A session owns the two devices of a run — the mobile host executing
   the mobile partition and the server host executing the server
   partition — the shared UVA allocator, the simulated wireless link,
   and the mobile battery.  It implements the offloaded-task life
   cycle:

     local execution  ->  dynamic estimation  ->  initialization
     (task id + arguments + page table + reallocated-global slots,
     prefetch)  ->  offloading execution (copy-on-demand page faults,
     remote I/O service, function-pointer translation)  ->
     finalization (compressed dirty-page write-back + return value).

   Every network event advances the shared simulated clock and is
   attributed to a mobile power state, which is what Figures 6(b) and
   8 integrate and plot. *)

module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Arch = No_arch.Arch
module Layout = No_arch.Layout
module Memory = No_mem.Memory
module Region = No_mem.Region
module Uva = No_mem.Uva
module Stack_alloc = No_mem.Stack_alloc
module Link = No_netsim.Link
module Channel = No_netsim.Channel
module Power_model = No_power.Power_model
module Battery = No_power.Battery
module Host = No_exec.Host
module Interp = No_exec.Interp
module Value = No_exec.Value
module Console = No_exec.Console
module Fs = No_exec.Fs
module Fn_table = No_exec.Fn_table
module Loader = No_exec.Loader
module Partition = No_transform.Partition
module Pipeline = No_transform.Pipeline
module Global_realloc = No_transform.Global_realloc
module Dynamic_estimate = No_estimator.Dynamic_estimate
module Bandwidth_predictor = No_estimator.Bandwidth_predictor
module Trace = No_trace.Trace
module Fault_plan = No_fault.Plan
module Injector = No_fault.Injector
module Selfprof = No_selfprof.Selfprof

exception Offload_error of string

(* Raised from inside a blocking exchange when the server is
   unreachable for good (crash, or a deadline/retry budget exhausted);
   caught by [offload_invoke], which rolls back and replays locally. *)
exception Server_lost of string

type decision_mode = Dynamic | Always_offload | Never_offload

(* {1 Shared-server admission}

   A session normally assumes it owns its server outright.  Under the
   multi-client scheduler (lib/sched) the server is shared: before an
   offload leaves the mobile device the session asks the server for a
   worker slot, may wait in a FIFO queue, may be rejected outright,
   and — once admitted — pays contention-scaled compute and link
   rates.  The handle is the session's only view of the shared server;
   [None] (the default) is bit-for-bit the exclusive-server runtime. *)

type admission =
  | Admitted of {
      server : int;          (* pool member that granted the slot *)
      wait_s : float;        (* FIFO queue wait before a slot freed *)
      occupancy : int;       (* concurrent offloads incl. this one *)
      slot : int;            (* worker slot granted *)
      queue_depth : int;     (* requests already waiting at arrival *)
      r_scale : float;       (* effective-speedup scale at [occupancy] *)
      bw_scale : float;      (* link-bandwidth scale at [occupancy] *)
    }
  | Rejected of { server : int; queue_depth : int }
      (* admission queue full on the server the policy chose *)

type server_handle = {
  sh_load : now:float -> float * float;
      (* (r_scale, bw_scale) an offload starting now would be priced
         at on the server the routing policy would pick — consulted by
         the dynamic estimator at decision time so saturated clients
         decline offloads an idle server would win *)
  sh_request : now:float -> target:string -> admission;
      (* ask for a worker slot; the policy picks the server at this
         instant and the admission carries its id *)
  sh_release : now:float -> server:int -> slot:int -> unit;
      (* the offload finished (or was abandoned); free the slot on the
         server that granted it *)
  sh_volatile : bool;
      (* pool membership can change mid-offload (health schedule,
         crash quarantine): the session must snapshot at offload start
         even without a fault plan, because any exchange may raise
         [Server_lost] via [sh_interrupt] *)
  sh_interrupt : now:float -> server:int -> string option;
      (* is the member this offload is running on down (drained,
         quarantined) at [now]?  Consulted at every exchange.  Must
         answer from data — it runs between suspension points and may
         not block *)
  sh_migrate :
    now:float -> target:string -> from_server:int -> crashed:bool ->
    admission;
      (* re-admission for a checkpointed task: route to a healthy
         member other than [from_server], through the normal queue.
         [crashed] is whether this session saw the member crash — a
         crash observation quarantines it pool-wide, a scheduled drain
         does not.  [Rejected] means no healthy member — the caller
         falls back to rollback + local replay *)
}

(* Only choices: the architecture pair comes with the compiled
   output, the radio with the link. *)
type config = {
  link : Link.t;
  compress_writeback : bool;     (* server->mobile compression (paper) *)
  compress_upload : bool;        (* ablation: compress mobile->server too *)
  copy_all : bool;               (* ablation: ship whole heap up front *)
  prefetch : bool;
  decision : decision_mode;
  ideal : bool;                  (* zero communication/translation cost *)
  trace : Trace.sink;            (* runtime event spine: receives every
                                    event the session's ledger folds *)
  faults : Fault_plan.t option;  (* deterministic fault schedule; None
                                    (and the empty plan) = no faults *)
  server_handle : server_handle option;
                                 (* shared-server admission; None = the
                                    session owns the server outright *)
  migrate : bool;                (* on [Server_lost] with a pool, ship a
                                    checkpoint to a healthy member and
                                    resume there; false = always roll
                                    back and replay locally *)
}

let default_config ?(link = Link.fast_wifi) () = {
  link;
  compress_writeback = true;
  compress_upload = false;
  copy_all = false;
  prefetch = true;
  decision = Dynamic;
  ideal = false;
  trace = Trace.null;
  faults = None;
  server_handle = None;
  migrate = true;
}

type target_seed = {
  seed_name : string;
  seed_time_s : float;           (* expected mobile time per invocation *)
  seed_mem_bytes : int;          (* expected shared-memory footprint *)
}

type t = {
  config : config;
  mobile : Host.t;
  server : Host.t;
  clock : Host.clock;
  battery : Battery.t;
  estimator : Dynamic_estimate.t;
  predictor : Bandwidth_predictor.t;
  to_server : Channel.t;
  to_mobile : Channel.t;
  targets : Partition.target list;
  uva_globals : Ir.global list;
  unified_layout : Layout.env;
  ledger : Trace.Metrics.t;                (* every event emitted, folded *)
  sink : Trace.sink;                       (* the ledger, fanned out with
                                              [config.trace] *)
  mem_estimate : (string, int) Hashtbl.t;  (* per-target footprint *)
  mutable last_mark : float;
  mutable in_offload : bool;
  mutable pending_request : (int * Value.t list) option;
  mutable pending_args : Value.t array;
  mutable pending_ret : Value.t;
  mutable last_resident : int list;        (* server residency, for prefetch *)
  mutable finished : bool;
  injector : Injector.t option;            (* fault oracle; None = clean run *)
  mutable server_dead : bool;              (* crash observed; refuse future
                                              offloads, run locally *)
  mutable current_server : int option;     (* pool member running this
                                              offload, while admitted *)
  contention : float ref;                  (* shared-link bandwidth scale
                                              while admitted to a contended
                                              server; 1.0 otherwise *)
}

(* {1 Power bookkeeping} *)

let mark t state =
  let now = t.clock.Host.now in
  Battery.spend t.battery ~from_s:t.last_mark ~to_s:now state;
  t.last_mark <- now

(* Close the running segment with the phase's background state, then
   perform [f] (which advances the clock), then mark its segment. *)
let with_state t state f =
  mark t
    (if t.in_offload then Power_model.Waiting else Power_model.Computing);
  let result = f () in
  mark t state;
  result

let advance t seconds = t.clock.Host.now <- t.clock.Host.now +. seconds

(* {1 Event emission}

   Events mirror exactly what the session charges: span events are
   stamped with the span's start.  The session keeps no counters of
   its own: every event goes to its ledger, a [Trace.Metrics] fold,
   and on to [config.trace]; [run] reads the report off the ledger. *)
let emit t ev = t.sink ~ts:t.clock.Host.now ev

(* {1 Construction} *)

let server_globals_base = Host.globals_base_of_role Host.Server

(* Pre-decoded code tables, shared across every session created from
   the same pipeline output.  Lowering depends only on the modules,
   the pair and the unified layout the output carries, and the role's
   deterministic global/function address assignment, so a fleet of
   hundreds of clients pays for it once per workload instead of twice
   per session.  Keys compare physically: the fleet driver caches its
   compiled outputs; a miss merely recompiles. *)
let code_memo :
    (Pipeline.output
    * ((string, Host.compiled) Hashtbl.t * (string, Host.compiled) Hashtbl.t))
    list
    ref =
  ref []

let code_memo_max = 8

let session_code (output : Pipeline.output) ~mobile_table ~server_table =
  match List.find_opt (fun (o, _) -> o == output) !code_memo with
  | Some (_, codes) -> codes
  | None ->
    let layout = output.Pipeline.o_layout in
    let codes =
      ( Host.compile_module ~arch:output.Pipeline.o_mobile_arch
          ~role:Host.Mobile ~modul:output.Pipeline.o_mobile ~layout
          ~fn_table:mobile_table (),
        Host.compile_module ~arch:output.Pipeline.o_server_arch
          ~role:Host.Server ~modul:output.Pipeline.o_server ~layout
          ~fn_table:server_table () )
    in
    code_memo :=
      (output, codes)
      :: (if List.length !code_memo >= code_memo_max then
            List.filteri (fun i _ -> i < code_memo_max - 1) !code_memo
          else !code_memo);
    codes

(* Usable-bandwidth scale at the clock's instant: fault injection's
   bandwidth collapse composed multiplicatively with shared-server
   link contention.  Both are 1.0 (the IEEE multiplicative identity)
   on an uncontended clean run.  The channels and the session's own
   exchanges read this one product. *)
let usable_bw_factor injector (clock : Host.clock) contention =
  let inj_factor =
    match injector with
    | None -> 1.0
    | Some inj -> Injector.bw_factor inj ~now:clock.Host.now
  in
  inj_factor *. !contention

let create ?(config = default_config ()) ?(script = []) ?(files = [])
    (output : Pipeline.output) ~(seeds : target_seed list) : t =
  let clock = { Host.now = 0.0 } in
  let uva = Uva.create () in
  let console = Console.create ~script () in
  let fs = Fs.create () in
  List.iter (fun (name, data) -> Fs.add_file fs name data) files;
  let mobile_arch = output.Pipeline.o_mobile_arch
  and server_arch = output.Pipeline.o_server_arch
  and unified_layout = output.Pipeline.o_layout in
  let mobile_fn_names =
    List.map (fun (f : Ir.func) -> f.Ir.f_name)
      output.Pipeline.o_mobile.Ir.m_funcs
  in
  let server_fn_names =
    List.map (fun (f : Ir.func) -> f.Ir.f_name)
      output.Pipeline.o_server.Ir.m_funcs
  in
  let mobile_table = Fn_table.mobile mobile_fn_names in
  let server_table = Fn_table.server server_fn_names in
  let mobile_code, server_code =
    session_code output ~mobile_table ~server_table
  in
  let ledger = Trace.Metrics.create () in
  let sink = Trace.fan_out [ Trace.Metrics.sink ledger; config.trace ] in
  let mobile =
    Host.create ~arch:mobile_arch ~role:Host.Mobile
      ~modul:output.Pipeline.o_mobile ~layout:unified_layout
      ~fn_table:mobile_table ~uva ~console ~fs ~clock ~sink
      ~code:mobile_code ()
  in
  let server =
    Host.create ~arch:server_arch ~role:Host.Server
      ~modul:output.Pipeline.o_server ~layout:unified_layout
      ~fn_table:server_table
      ~fn_addr_standard:(Fn_table.addr_of mobile_table)
      ~uva ~console ~fs ~clock ~sink ~code:server_code ()
  in
  let r = Arch.performance_ratio ~mobile:mobile_arch ~server:server_arch in
  let initial_bw = Link.effective_bps config.link in
  let estimator = Dynamic_estimate.create ~r ~bw_bps:initial_bw in
  (match config.decision with
  | Dynamic -> ()
  | Always_offload -> Dynamic_estimate.force estimator (Some true)
  | Never_offload -> Dynamic_estimate.force estimator (Some false));
  let mem_estimate = Hashtbl.create 8 in
  List.iter
    (fun seed ->
      Dynamic_estimate.seed estimator ~name:seed.seed_name
        ~profile_time_s:seed.seed_time_s;
      Hashtbl.replace mem_estimate seed.seed_name seed.seed_mem_bytes)
    seeds;
  (* In an ideal run bytes still move logically but no time is
     charged; wrap the channels' sink so the emitted Flush events
     reflect the charged (zero) cost. *)
  let channel_sink =
    if config.ideal then
      fun ~ts ev ->
        sink ~ts
          (match ev with
          | Trace.Flush f ->
            Trace.Flush { f with transfer_s = 0.0; codec_s = 0.0 }
          | ev -> ev)
    else sink
  in
  let channel_clock () = clock.Host.now in
  (* The fault oracle, shared by the channels (bandwidth collapse) and
     the session's blocking exchanges (everything else).  The empty
     plan is indistinguishable from no plan: the bandwidth factor is
     then constantly 1.0 (the IEEE multiplicative identity) and no
     verdict ever differs from Deliver. *)
  let injector = Option.map Injector.create config.faults in
  let contention = ref 1.0 in
  let channel_bw_factor () = usable_bw_factor injector clock contention in
  let t =
    {
      config;
      mobile;
      server;
      clock;
      battery =
        Battery.create ~sink
          (Power_model.galaxy_s5 ~fast_radio:config.link.Link.fast_radio);
      estimator;
      predictor = Bandwidth_predictor.create ~initial_bps:initial_bw;
      to_server =
        Channel.create ~compress:config.compress_upload ~sink:channel_sink
          ~clock:channel_clock ~bw_factor:channel_bw_factor config.link
          Channel.To_server;
      to_mobile =
        Channel.create ~compress:config.compress_writeback ~sink:channel_sink
          ~clock:channel_clock ~bw_factor:channel_bw_factor config.link
          Channel.To_mobile;
      targets = output.Pipeline.o_targets;
      uva_globals = output.Pipeline.o_mobile.Ir.m_uva_globals;
      unified_layout;
      ledger;
      sink;
      mem_estimate;
      last_mark = 0.0;
      in_offload = false;
      pending_request = None;
      pending_args = [||];
      pending_ret = Value.zero;
      last_resident = [];
      finished = false;
      injector;
      server_dead = false;
      current_server = None;
      contention;
    }
  in
  t

(* {1 Communication primitives} *)

let charge_comm t seconds = if not t.config.ideal then advance t seconds

(* Every physical transfer feeds the bandwidth predictor, which in
   turn refreshes the dynamic estimator's belief — the NWSLite-style
   extension the paper's related work points at. *)
let observe_transfer t ~bytes ~seconds =
  if not t.config.ideal then begin
    Bandwidth_predictor.observe t.predictor ~bytes ~seconds;
    let belief = Bandwidth_predictor.predict_bps t.predictor in
    Dynamic_estimate.set_bandwidth t.estimator belief;
    (* Sampling hook for the telemetry layer: the refreshed belief as
       a gauge, so windowed series can chart what the estimator saw. *)
    emit t (Trace.Bw_sample { bps = belief })
  end

let send_to_server t (payload : Bytes.t) =
  Channel.send t.to_server payload

let flush_to_server t =
  let bytes = Channel.pending_bytes t.to_server in
  let seconds = Channel.flush t.to_server in
  observe_transfer t ~bytes ~seconds;
  charge_comm t seconds

let send_to_mobile t (payload : Bytes.t) =
  Channel.send t.to_mobile payload

let flush_to_mobile t =
  let bytes = Channel.pending_bytes t.to_mobile in
  let seconds = Channel.flush t.to_mobile in
  observe_transfer t ~bytes ~seconds;
  charge_comm t seconds

let bw_factor t = usable_bw_factor t.injector t.clock t.contention

(* {1 Fault-aware exchanges}

   Every blocking exchange of the offload protocol (init header,
   prefetch, copy-on-demand page fault, remote I/O, finalization
   write-back) goes through [exchange]: on a clean run it degenerates
   to [with_state state deliver], bit for bit.  Under a fault plan,
   each attempt is judged by the injector; failed attempts charge the
   RPC deadline (waiting state — the clock and battery keep running)
   and back off exponentially.  A server crash, or an exhausted retry
   budget, raises [Server_lost]; [offload_invoke] catches it, rolls
   the mobile state back and replays the task locally.

   Delivery-time cost is only charged for the attempt that succeeds:
   the model is a reliable transport whose *payload* crosses the link
   once, with loss showing up as deadline + backoff stalls. *)

(* Pool-driven loss: the member running this offload may be drained by
   a maintenance schedule or quarantined after another client observed
   its crash.  Checked at every exchange, with or without a fault
   plan.  [sh_interrupt] answers from time-indexed pool data — no
   suspension — so the check preserves the run-to-completion invariant
   between Sync points. *)
let check_interrupt t ~op =
  match (t.config.server_handle, t.current_server) with
  | Some sh, Some server -> (
    match sh.sh_interrupt ~now:t.clock.Host.now ~server with
    | Some why ->
      raise (Server_lost (Printf.sprintf "%s: server %d %s" op server why))
    | None -> ())
  | _ -> ()

let exchange t ~op ~state (deliver : unit -> 'a) : 'a =
  check_interrupt t ~op;
  match t.injector with
  | None -> with_state t state deliver
  | Some inj ->
    let policy = Injector.default_policy in
    let wait seconds =
      with_state t Power_model.Waiting (fun () -> advance t seconds)
    in
    let give_up reason =
      raise (Server_lost (Printf.sprintf "%s: %s" op reason))
    in
    let backoff_then attempt =
      (* Attempt [attempt] failed; sleep and come back, or give up. *)
      if attempt >= policy.Injector.max_attempts then
        give_up
          (Printf.sprintf "no reply after %d attempts" policy.Injector.max_attempts)
      else begin
        let backoff = Injector.backoff_s policy ~attempt in
        let ts = t.clock.Host.now in
        wait backoff;
        t.sink ~ts (Trace.Retry { op; attempt; backoff_s = backoff })
      end
    in
    let rec go attempt =
      let now = t.clock.Host.now in
      let verdict = Injector.judge inj ~now in
      match verdict with
      | Injector.Deliver -> with_state t state deliver
      | Injector.Server_down ->
        emit t (Trace.Fault_injected { kind = "server-crash"; op });
        t.server_dead <- true;
        give_up "server crashed"
      | Injector.Outage _ | Injector.Drop ->
        (* The message vanishes into dead air; we only learn by
           waiting out the deadline. *)
        emit t
          (Trace.Fault_injected { kind = Injector.verdict_kind verdict; op });
        let ts = t.clock.Host.now in
        wait policy.Injector.deadline_s;
        t.sink ~ts
          (Trace.Rpc_timeout
             { op; attempt; waited_s = policy.Injector.deadline_s });
        backoff_then attempt;
        go (attempt + 1)
      | Injector.Corrupt ->
        (* The payload crossed but arrived mangled; the receiver's
           checksum rejects it and NACKs — one small control round
           trip, then an immediate resend. *)
        emit t (Trace.Fault_injected { kind = "corruption"; op });
        let nack_s =
          Link.round_trip_time_scaled t.config.link ~req:48 ~resp:48
            ~bw_factor:(bw_factor t)
        in
        wait nack_s;
        backoff_then attempt;
        go (attempt + 1)
    in
    go 1

(* {1 Page movement} *)

(* Is [page] part of the state the mobile device owns (and therefore
   subject to copy-on-demand and write-back)? *)
let mobile_owned_page page =
  let addr = Region.addr_of_page page in
  match Region.region_of_addr addr with
  | Region.Heap | Region.Mobile_stack -> true
  | Region.Globals -> addr < server_globals_base
  | Region.Server_stack | Region.Null_guard | Region.Unmapped -> false

(* Copy-on-demand fault service: bring one page from the mobile
   device, paying a round trip. *)
let service_fault_unprofiled t (mem : Memory.t) page =
  if not (mobile_owned_page page) then
    (* Server-local page (its stack, a fresh heap page the mobile
       never materialized): materialize zeroes locally, no traffic. *)
    Memory.install_page mem page (Bytes.make Region.page_size '\000')
  else if not (Memory.has_page t.mobile.Host.mem page) then
    Memory.install_page mem page (Bytes.make Region.page_size '\000')
  else begin
    exchange t ~op:"page-fault" ~state:Power_model.Transmitting (fun () ->
        let ts = t.clock.Host.now in
        let seconds =
          Link.round_trip_time_scaled t.config.link ~req:48
            ~resp:(Region.page_size + 48) ~bw_factor:(bw_factor t)
        in
        charge_comm t seconds;
        t.sink ~ts
          (Trace.Page_fault
             { page; service_s = (if t.config.ideal then 0.0 else seconds) }));
    Memory.install_page mem page (Memory.page_copy t.mobile.Host.mem page)
  end

(* The exchange inside may raise (fault plans); leave the zone on both
   edges so a failed service doesn't keep absorbing self-time. *)
let service_fault t (mem : Memory.t) page =
  Selfprof.enter Page_fault;
  match service_fault_unprofiled t mem page with
  | () -> Selfprof.leave Page_fault
  | exception e ->
    Selfprof.leave Page_fault;
    raise e

(* Batch-ship a set of pages mobile -> server. *)
let push_pages_to_server t (pages : int list) =
  let pages =
    List.filter
      (fun page ->
        mobile_owned_page page && Memory.has_page t.mobile.Host.mem page)
      pages
  in
  if pages <> [] then
    exchange t ~op:"prefetch" ~state:Power_model.Transmitting (fun () ->
        let ts = t.clock.Host.now in
        List.iter
          (fun page ->
            let payload = Memory.page_copy t.mobile.Host.mem page in
            Memory.install_page t.server.Host.mem page payload;
            send_to_server t payload;
            send_to_server t (Bytes.make 8 '\000') (* page header *))
          pages;
        flush_to_server t;
        t.sink ~ts
          (Trace.Prefetch
             { pages = List.length pages;
               bytes = List.length pages * Region.page_size }))

(* {1 Initialization / finalization} *)

(* The unified layout is the mobile's: its byte order is the mobile
   host's. *)
let unified_endianness t = t.mobile.Host.arch.Arch.endianness

(* Copy the reallocated-global slot values mobile -> server.  Slots
   hold unified-width UVA addresses in unified byte order. *)
let sync_uva_slots t =
  let order = unified_endianness t
  and width = t.unified_layout.Layout.ptr_bytes in
  List.iter
    (fun (g : Ir.global) ->
      let slot = Global_realloc.slot_name g.Ir.g_name in
      let mob_addr = Host.global_addr t.mobile slot in
      let srv_addr = Host.global_addr t.server slot in
      Memory.store_word t.server.Host.mem order srv_addr width
        (Memory.load_word t.mobile.Host.mem order mob_addr width))
    t.uva_globals

let initialization t (args : Value.t list) =
  (* Offloading information: task id, stack pointer, page table,
     arguments, reallocated-global slot table. *)
  let resident = Memory.resident_count t.mobile.Host.mem in
  let header_bytes =
    64 (* id, stack pointer, sizes *)
    + ((resident / 8) + 1) (* page-table bitmap *)
    + (List.length args * 8)
    + (List.length t.uva_globals * 12)
  in
  exchange t ~op:"init" ~state:Power_model.Transmitting (fun () ->
      send_to_server t (Bytes.make header_bytes '\000');
      flush_to_server t);
  sync_uva_slots t;
  (* Prefetch: the pages this target needed last time, or on the first
     offload every page the UVA heap has handed out. *)
  if t.config.copy_all then
    push_pages_to_server t
      (List.filter mobile_owned_page
         (Memory.resident_pages t.mobile.Host.mem))
  else if t.config.prefetch then begin
    let pages =
      match t.last_resident with
      | [] -> Uva.used_pages t.mobile.Host.uva
      | pages -> pages
    in
    push_pages_to_server t pages
  end;
  Memory.clear_dirty t.server.Host.mem;
  t.server.Host.mem.Memory.track_dirty <- true

(* Drop every mobile-owned page the server holds and stop tracking
   dirt.  Returns the dropped pages. *)
let drop_task_pages t =
  let fetched =
    List.filter mobile_owned_page (Memory.resident_pages t.server.Host.mem)
  in
  List.iter (Memory.drop_page t.server.Host.mem) fetched;
  t.server.Host.mem.Memory.track_dirty <- false;
  Memory.clear_dirty t.server.Host.mem;
  fetched

let finalization t : int =
  (* Dirty pages + return value + updated page table, compressed
     server->mobile (Section 4: compression is applied only in this
     direction). *)
  let dirty =
    List.filter mobile_owned_page (Memory.dirty_pages t.server.Host.mem)
  in
  exchange t ~op:"finalize" ~state:Power_model.Receiving (fun () ->
      List.iter
        (fun page ->
          let payload = Memory.page_copy t.server.Host.mem page in
          Memory.install_page t.mobile.Host.mem page payload;
          send_to_mobile t payload;
          send_to_mobile t (Bytes.make 8 '\000'))
        dirty;
      (* Deterministic placeholder: [Bytes.create] would ship
         uninitialized memory, making compressed wire sizes vary from
         run to run. *)
      send_to_mobile t (Bytes.make 64 '\000');  (* return value + signal *)
      flush_to_mobile t);
  (* Terminate the offloading process: the server keeps no offloading
     data (its own globals area survives; everything fetched or
     allocated for the task is dropped).  What it fetched is the next
     prefetch set. *)
  t.last_resident <- drop_task_pages t;
  List.length dirty

(* {1 Server-side externs and intercepts} *)

(* Bookkeeping cost of one function-pointer translation: ~100 ns real,
   on the CPU time scale.  Every translation emits the same event. *)
let fnptr_translation_s = 2.0e-4

let fnptr_translate = Trace.Fnptr_translate { cost_s = fnptr_translation_s }

let target_by_name t name =
  List.find_opt (fun tg -> String.equal tg.Partition.t_name name) t.targets

let remote_io_cost t ~(io_name : string) ~(request : int) ~(response : int)
    ~(round_trip : bool) =
  if not t.config.ideal then
    exchange t ~op:io_name ~state:Power_model.Remote_io_service (fun () ->
        let ts = t.clock.Host.now in
        let seconds =
          if round_trip then
            Link.round_trip_time_scaled t.config.link ~req:request
              ~resp:response ~bw_factor:(bw_factor t)
          else
            Link.transfer_time_scaled t.config.link ~bytes:request
              ~bw_factor:(bw_factor t)
        in
        advance t seconds;
        t.sink ~ts
          (Trace.Remote_io
             { io_name; request_bytes = request; response_bytes = response;
               cost_s = seconds }))

(* Intercept the server's remote I/O builtins: add the network cost of
   the request; the functional work then runs against the *shared*
   console and file system (they live on the mobile device). *)
let server_builtin_override t name (argv : Value.t list) : Value.t option =
  match name with
  | "r_print_i64" | "r_print_f64" | "r_print_newline" ->
    remote_io_cost t ~io_name:name ~request:48 ~response:0 ~round_trip:false;
    None
  | "r_print_str" ->
    let len =
      match argv with
      | [ addr ] ->
        (try String.length (Interp.read_cstring t.server (Value.to_addr addr))
         with Memory.Page_fault _ | Memory.Bad_access _ -> 16)
      | _ -> 16
    in
    remote_io_cost t ~io_name:name ~request:(48 + len) ~response:0
      ~round_trip:false;
    None
  | "rf_open" | "rf_close" ->
    remote_io_cost t ~io_name:name ~request:64 ~response:32 ~round_trip:true;
    None
  | "rf_size" ->
    remote_io_cost t ~io_name:name ~request:48 ~response:32 ~round_trip:true;
    None
  | "rf_read" ->
    let len =
      match argv with
      | [ _; _; len ] -> Int64.to_int (Value.to_int len)
      | _ -> 0
    in
    remote_io_cost t ~io_name:name ~request:48 ~response:(48 + len)
      ~round_trip:true;
    None
  | _ -> None

(* The listener's externs, by the names [Partition] generates them
   under. *)
let server_extern t name (argv : Value.t list) : Value.t option =
  let is extern = String.equal name extern in
  if is Partition.accept_extern then (
    match t.pending_request with
    | Some (id, args) ->
      t.pending_request <- None;
      t.pending_args <- Array.of_list args;
      Some (Value.VInt (Int64.of_int id))
    | None -> Some (Value.VInt (-1L)))
  else if is Partition.arg_i64_extern || is Partition.arg_f64_extern then (
    match argv with
    | [ k ] -> Some t.pending_args.(Int64.to_int (Value.to_int k))
    | _ -> raise (Offload_error "bad __arg call"))
  else if is Partition.ret_i64_extern || is Partition.ret_f64_extern then (
    match argv with
    | [ v ] ->
      t.pending_ret <- v;
      Some Value.zero
    | _ -> raise (Offload_error "bad __ret call"))
  else if is Partition.ret_void_extern then begin
    t.pending_ret <- Value.zero;
    Some Value.zero
  end
  else None

let install_server_hooks t =
  let hooks = t.server.Host.hooks in
  hooks.Host.builtin_override <- Some (server_builtin_override t);
  hooks.Host.extern_call <- Some (server_extern t);
  hooks.Host.fn_map <-
    Some
      (fun dir v ->
        if not t.config.ideal then begin
          let ts = t.clock.Host.now in
          advance t fnptr_translation_s;
          t.sink ~ts fnptr_translate
        end;
        let addr = Value.to_addr v in
        match dir with
        | Ir.Mobile_to_server ->
          let name = Fn_table.name_of t.mobile.Host.fn_table addr in
          Value.VInt
            (Int64.of_int (Fn_table.addr_of t.server.Host.fn_table name))
        | Ir.Server_to_mobile ->
          let name = Fn_table.name_of t.server.Host.fn_table addr in
          Value.VInt
            (Int64.of_int (Fn_table.addr_of t.mobile.Host.fn_table name)));
  t.server.Host.mem.Memory.on_fault <- Some (service_fault t)

(* {1 Snapshot and rollback}

   Everything an offloaded task can observably touch is snapshotted at
   offload start: the mobile page set (globals, heap, mobile stack),
   the shared UVA allocator metadata, the console transaction mark and
   the file-system cursors.  If the server is lost mid-task, rollback
   restores all of it — plus the server-side debris (leaked stack
   frames, half-fetched pages) — so the local replay starts from
   exactly the state the offload attempt started from and every side
   effect is observed exactly once. *)

type offload_snapshot = {
  sn_mem : Memory.snapshot;
  sn_uva : Uva.snapshot;
  sn_console : Console.mark;
  sn_fs : Fs.snapshot;
  sn_server_stack : Stack_alloc.mark;
  sn_pages : int;                  (* mobile resident pages, for the event *)
}

let take_snapshot t =
  {
    sn_mem = Memory.snapshot t.mobile.Host.mem;
    sn_uva = Uva.snapshot t.mobile.Host.uva;
    sn_console = Console.mark t.mobile.Host.console;
    sn_fs = Fs.snapshot t.mobile.Host.fs;
    sn_server_stack = Stack_alloc.frame_mark t.server.Host.stack;
    sn_pages = Memory.resident_count t.mobile.Host.mem;
  }

(* Mobile state back to the offload-start base, and the server-side
   debris released: the interpreter leaks stack frames when an
   exception unwinds it, and copy-on-demand may have left fetched
   pages behind — the server keeps no offloading data.  [console]
   decides the fate of the output delivered since the mark:
   [Console.rollback_to] discards it (a local replay prints it again),
   [Console.resume_at] keeps it as a suppression window (a resumed
   attempt re-produces it).  Returns [console]'s byte count. *)
let restore_base t snap ~console =
  Memory.restore t.mobile.Host.mem snap.sn_mem;
  Uva.restore t.mobile.Host.uva snap.sn_uva;
  let bytes = console t.mobile.Host.console snap.sn_console in
  Fs.restore t.mobile.Host.fs snap.sn_fs;
  Stack_alloc.release t.server.Host.stack snap.sn_server_stack;
  ignore (drop_task_pages t : int list);
  t.pending_request <- None;
  t.pending_args <- [||];
  bytes

(* {2 The checkpoint image}

   When the granting server dies (or the pool drains it) mid-offload,
   the task migrates instead of throwing the partial work away.  The
   image is everything another pool member needs to finish the job
   with the same observable history:

   - the *base*: the snapshot above.  Restoring it on the mobile and
     re-running the task body on the new member is how "resume" works
     in this model — the interpreter's continuation is lost with the
     server, but execution is deterministic, so re-execution from the
     base reproduces it exactly;
   - the *progress cursors*: how far the dead attempt got — dirty
     pages accumulated on the lost server, remote-I/O operations
     already performed, console bytes already delivered to the user.
     The cursors are what makes resumption exactly-once: the mobile
     suppresses (and verifies) re-delivered console bytes up to the
     ledger cursor instead of showing them twice.

   The image travels over the link, so it has a byte size: a fixed
   continuation header (task id, program counter, stack cursor, the
   three cursors — small and fixed, like a register file), the
   committed console ledger (the new member verifies re-produced
   output against it), and each dirty page the lost server had
   produced, with its descriptor (page id + dirty range) — state the
   new member cannot recompute without re-running, so it ships. *)

let image_header_bytes = 256
let image_page_header_bytes = 16

let image_bytes ~dirty_pages ~ledger_bytes =
  image_header_bytes + ledger_bytes
  + (dirty_pages * (Region.page_size + image_page_header_bytes))

(* {1 The offload protocol (mobile side)}

   One invocation's life cycle, one function per phase: admission, an
   attempt (initialization, the server's listener, finalization), and
   on a lost server either migration and a second attempt or rollback
   and local replay.  [offload_invoke] is the loop over them. *)

(* Transparent local execution: the mobile partition retains every
   target body for the refuse path, so a rejected or failed offload
   runs it with the same arguments.  Stamped at the replay's start. *)
let local_replay t tname args =
  let t0 = t.clock.Host.now in
  let result = Interp.call t.mobile tname args in
  t.sink ~ts:t0
    (Trace.Replay { target = tname; replay_s = t.clock.Host.now -. t0 });
  result

(* Close the invocation's span, opened at [t0]. *)
let end_span t tname ~t0 ~dirty_pages =
  let span_s = t.clock.Host.now -. t0 in
  emit t (Trace.Offload_end { target = tname; dirty_pages; span_s })

(* Occupy a granted slot: wait out the FIFO queue (the mobile radio
   idles in Waiting), then price the contention — the server's slice
   of the machine slows down and the shared link serves a fraction
   of its bandwidth until the slot is released.  Used for the first
   admission and again when a checkpointed task is re-admitted on a
   new member.  Returns the slot's release. *)
let occupy t sh tname ~server ~wait_s ~occupancy ~slot ~queue_depth ~r_scale
    ~bw_scale =
  if wait_s > 0.0 then begin
    emit t
      (Trace.Queue { target = tname; server; wait_s; depth = queue_depth });
    with_state t Power_model.Waiting (fun () -> advance t wait_s)
  end;
  emit t (Trace.Admit { target = tname; server; occupancy; slot });
  t.server.Host.slowdown <- 1.0 /. r_scale;
  t.contention := bw_scale;
  t.current_server <- Some server;
  fun () ->
    t.server.Host.slowdown <- 1.0;
    t.contention := 1.0;
    t.current_server <- None;
    sh.sh_release ~now:t.clock.Host.now ~server ~slot

(* One offloaded execution: initialization, then the generated
   listener on the server — it accepts the request, unmarshals, calls
   the target, posts the return value — then finalization.  Returns
   the dirty pages written back. *)
let attempt t (target : Partition.target) args =
  initialization t args;
  t.pending_request <- Some (target.Partition.t_id, args);
  (match Interp.call t.server Partition.listener_name [] with
  | _ -> ()
  | exception Interp.Trap msg -> raise (Offload_error ("server trap: " ^ msg)));
  let dirty_pages = finalization t in
  (* Refresh the footprint estimate with what this run actually
     moved. *)
  let moved_bytes = List.length t.last_resident * Region.page_size in
  if moved_bytes > 0 then
    Hashtbl.replace t.mem_estimate target.Partition.t_name moved_bytes;
  dirty_pages

(* Mid-flight recovery by migration: capture the progress cursors,
   ship the image to a healthy pool member, and reset the mobile to
   the base WITHOUT undoing delivered output — the committed ledger
   stays, armed as a suppression window, so the resumed attempt's
   re-executed writes are verified against it and dropped rather than
   shown twice.  Returns the new member and its slot's release, or
   [None] (fall back to rollback + local replay) when no healthy member
   admits the task. *)
let migrate t sh tname snap ~from_server ~reason ~io0 =
  Selfprof.enter Checkpoint;
  let pages =
    List.length
      (List.filter mobile_owned_page (Memory.dirty_pages t.server.Host.mem))
  in
  let ledger_bytes =
    Console.committed_since t.mobile.Host.console snap.sn_console
  in
  let io_cursor = t.ledger.Trace.Metrics.remote_io_count - io0 in
  Selfprof.leave Checkpoint;
  let image_bytes = image_bytes ~dirty_pages:pages ~ledger_bytes in
  emit t
    (Trace.Checkpoint
       { target = tname; pages; image_bytes; io_cursor; ledger_bytes });
  match
    sh.sh_migrate ~now:t.clock.Host.now ~target:tname ~from_server
      ~crashed:t.server_dead
  with
  | Rejected _ -> None
  | Admitted { server = to_server; wait_s; occupancy; slot; queue_depth;
               r_scale; bw_scale } ->
    (* The image crosses the link under the same contention scaling as
       every other transfer. *)
    let transfer_s =
      if t.config.ideal then 0.0
      else
        Link.transfer_time_scaled t.config.link ~bytes:image_bytes
          ~bw_factor:(bw_factor t)
    in
    emit t
      (Trace.Migrate_start
         { target = tname; from_server; to_server; reason; transfer_s });
    with_state t Power_model.Transmitting (fun () -> advance t transfer_s);
    ignore (restore_base t snap ~console:Console.resume_at : int);
    if t.server_dead then begin
      (* The planned crash killed [from_server]; the new member is
         healthy, so the oracle's crash is spent. *)
      Option.iter Injector.clear_crash t.injector;
      t.server_dead <- false
    end;
    Some
      ( to_server,
        occupy t sh tname ~server:to_server ~wait_s ~occupancy ~slot
          ~queue_depth ~r_scale ~bw_scale )

(* Give up on the server: roll back to the base, discarding the dead
   attempt's side effects, and replay the task locally from it. *)
let fall_back t tname args snap ~t0 ~reason =
  let bytes_discarded = restore_base t snap ~console:Console.rollback_to in
  emit t
    (Trace.Rollback
       { target = tname; pages_restored = snap.sn_pages; bytes_discarded });
  let recovery_s = t.clock.Host.now -. t0 in
  emit t (Trace.Fallback_local { target = tname; reason; recovery_s });
  end_span t tname ~t0 ~dirty_pages:0;
  local_replay t tname args

let offload_invoke t (target : Partition.target) (args : Value.t list) :
    Value.t =
  let tname = target.Partition.t_name in
  (* Shared-server admission: ask for a worker slot before any
     protocol work.  A rejection never leaves the mobile device — the
     retained local body runs, and the Replay event keeps the obs
     layer's accounting of forced local executions intact. *)
  let admission =
    Option.map
      (fun sh -> (sh, sh.sh_request ~now:t.clock.Host.now ~target:tname))
      t.config.server_handle
  in
  match admission with
  | Some (_, Rejected { server; queue_depth }) ->
    emit t (Trace.Reject { target = tname; server; queue_depth });
    local_replay t tname args
  | None | Some (_, Admitted _) ->
    (* A snapshot is needed whenever [Server_lost] can reach us: from
       the fault oracle, or from a pool whose membership shifts under
       running offloads (maintenance drains, crash quarantines). *)
    let volatile =
      match t.config.server_handle with
      | Some sh -> sh.sh_volatile
      | None -> false
    in
    let snap =
      if t.injector <> None || volatile then Some (take_snapshot t) else None
    in
    t.in_offload <- true;
    let t0 = t.clock.Host.now in
    let io0 = t.ledger.Trace.Metrics.remote_io_count in
    t.sink ~ts:t0 (Trace.Offload_begin { target = tname });
    (* The attempt loop.  A migrated task goes back through the same
       attempt and the same success tail as the first try; [resumed] is
       then the new member, the instant its attempt began and the first
       loss's reason.  One migration per invocation: if the resumed
       attempt dies too (a second outage, a drained replacement...),
       local replay finishes the job, reporting the first loss's
       reason. *)
    let rec loop ~release ~resumed =
      match attempt t target args with
      | dirty_pages ->
        t.in_offload <- false;
        Option.iter
          (fun (server, resume_t0, _) ->
            let resumed_span_s = t.clock.Host.now -. resume_t0 in
            emit t
              (Trace.Migrate_done { target = tname; server; resumed_span_s }))
          resumed;
        end_span t tname ~t0 ~dirty_pages;
        release ();
        t.pending_ret
      | exception Server_lost reason -> (
        (* Close the span the failure interrupted (the mobile device
           was waiting on the server) and release the lost member's
           slot, then try to finish the job elsewhere in the pool
           before giving up on it entirely. *)
        mark t Power_model.Waiting;
        t.in_offload <- false;
        release ();
        let migrated =
          match (resumed, admission) with
          | None, Some (sh, Admitted { server = from_server; _ })
            when t.config.migrate ->
            migrate t sh tname (Option.get snap) ~from_server ~reason ~io0
          | _ -> None
        in
        match migrated with
        | Some (to_server, release) ->
          t.in_offload <- true;
          loop ~release ~resumed:(Some (to_server, t.clock.Host.now, reason))
        | None ->
          let reason =
            match resumed with Some (_, _, first) -> first | None -> reason
          in
          fall_back t tname args (Option.get snap) ~t0 ~reason)
    in
    let release =
      match admission with
      | Some (sh, Admitted { server; wait_s; occupancy; slot; queue_depth;
                             r_scale; bw_scale }) ->
        occupy t sh tname ~server ~wait_s ~occupancy ~slot ~queue_depth
          ~r_scale ~bw_scale
      | None | Some (_, Rejected _) -> ignore
    in
    loop ~release ~resumed:None

(* {1 Mobile-side externs} *)

(* Dynamic estimation, once per call: the decision and the Estimate
   event both read the one estimate.  "The dynamic performance
   estimation reflects the current network bandwidth, memory usage,
   and target execution time": the footprint estimate is the live UVA
   heap (what copy-on-demand and write-back would move), refined after
   each offload by the bytes actually moved. *)
let estimate t target =
  let live = Uva.live_bytes t.mobile.Host.uva in
  let mem_bytes =
    match Hashtbl.find_opt t.mem_estimate target with
    | Some observed -> max observed live
    | None -> live
  in
  (* Under a shared server the estimator prices the speedup and the
     link at the load an offload starting now would actually get, so
     a saturated server turns profitable offloads into refusals. *)
  let r_factor, bw_factor =
    match t.config.server_handle with
    | None -> (1.0, 1.0)
    | Some sh -> sh.sh_load ~now:t.clock.Host.now
  in
  let e =
    Dynamic_estimate.estimate ~r_factor ~bw_factor t.estimator ~name:target
      ~mem_bytes
  in
  emit t
    (Trace.Estimate
       { target; predicted_gain_s = e.Dynamic_estimate.gain_s;
         local_s = e.local_s; decision = e.offload });
  e.offload

(* Once the server's crash was observed it is gone: refuse without
   even consulting the estimator.  The dispatch wrapper calls
   [__offload$f] only after a true answer here, so [offload_invoke]
   never starts on a dead server, forced modes included. *)
let should_offload t target =
  let offload = (not t.server_dead) && estimate t target in
  if not offload then begin
    emit t (Trace.Refusal { target })
  end;
  offload

let mobile_extern t name (argv : Value.t list) : Value.t option =
  let suffix prefix =
    let plen = String.length prefix in
    String.sub name plen (String.length name - plen)
  in
  if String.starts_with ~prefix:Partition.should_offload_prefix name then
    Some
      (Value.of_bool
         (should_offload t (suffix Partition.should_offload_prefix)))
  else if String.starts_with ~prefix:Partition.offload_prefix name then begin
    let target_name = suffix Partition.offload_prefix in
    match target_by_name t target_name with
    | Some target -> Some (offload_invoke t target argv)
    | None -> raise (Offload_error ("unknown offload target " ^ target_name))
  end
  else if String.starts_with ~prefix:Global_realloc.init_prefix name then begin
    let gname = suffix Global_realloc.init_prefix in
    match
      List.find_opt
        (fun (g : Ir.global) -> String.equal g.Ir.g_name gname)
        t.uva_globals
    with
    | None -> raise (Offload_error ("unknown UVA global " ^ gname))
    | Some g ->
      let size = Layout.size_of t.unified_layout g.Ir.g_ty in
      let addr = Uva.alloc t.mobile.Host.uva size in
      Loader.write_init ~layout:t.unified_layout
        ~endianness:(unified_endianness t)
        ~write_byte:(Memory.write_byte t.mobile.Host.mem)
        ~fn_addr:(Fn_table.addr_of t.mobile.Host.fn_table)
        ~addr g.Ir.g_ty g.Ir.g_init;
      Some (Value.VInt (Int64.of_int addr))
  end
  else None

let install_mobile_hooks t =
  t.mobile.Host.hooks.Host.extern_call <- Some (mobile_extern t)

(* {1 Running} *)

type report = {
  rep_result : Value.t;
  rep_console : string;
  rep_total_s : float;
  rep_energy_mj : float;
  rep_mobile_compute_s : float;
  rep_server_span_s : float;      (* wall time spent inside offloads *)
  rep_comm_s : float;
  rep_fnptr_s : float;
  rep_remote_io_s : float;
  rep_offloads : int;
  rep_refusals : int;
  rep_faults : int;
  rep_prefetched_pages : int;
  rep_fnptr_translations : int;
  rep_remote_io_ops : int;
  rep_bytes_to_server : int;
  rep_bytes_to_mobile : int;
  rep_wire_bytes_to_mobile : int; (* after compression *)
  rep_rpc_timeouts : int;
  rep_retries : int;
  rep_fallbacks : int;            (* offloads recovered by local replay *)
  rep_recovery_s : float;         (* wall time lost to failed attempts *)
  rep_queued : int;               (* offloads that waited for a slot *)
  rep_queue_wait_s : float;       (* total FIFO admission wait *)
  rep_rejects : int;              (* admissions refused (queue full) *)
  rep_checkpoints : int;          (* task images captured on Server_lost *)
  rep_migrations : int;           (* checkpoints shipped to a new member *)
  rep_migrations_done : int;      (* resumed attempts that completed *)
  rep_migrate_transfer_s : float; (* checkpoint image time on the wire *)
  rep_migrate_resume_s : float;   (* re-execution span on the new member *)
}

let run t : report =
  if t.finished then invalid_arg "Session.run: already finished";
  install_mobile_hooks t;
  install_server_hooks t;
  let result = Interp.run_main t.mobile in
  mark t Power_model.Computing;
  t.finished <- true;
  let m = t.ledger in
  let now = t.clock.Host.now in
  {
    rep_result = result;
    rep_console = Console.contents t.mobile.Host.console;
    (* The clock, not [Metrics.total_s]: summing the power segments
       rounds differently in the last bits. *)
    rep_total_s = now;
    rep_energy_mj = m.energy_mj;
    rep_mobile_compute_s = now -. m.offload_span_s;
    rep_server_span_s = m.offload_span_s;
    rep_comm_s = m.comm_s;
    rep_fnptr_s = m.fnptr_s;
    rep_remote_io_s = m.remote_io_s;
    rep_offloads = m.offloads;
    rep_refusals = m.refusals;
    rep_faults = m.fault_count;
    rep_prefetched_pages = m.prefetched_pages;
    rep_fnptr_translations = m.fnptr_count;
    rep_remote_io_ops = m.remote_io_count;
    rep_bytes_to_server = m.raw_to_server;
    rep_bytes_to_mobile = m.raw_to_mobile;
    rep_wire_bytes_to_mobile = m.wire_to_mobile;
    rep_rpc_timeouts = m.rpc_timeouts;
    rep_retries = m.retries;
    rep_fallbacks = m.fallbacks;
    rep_recovery_s = m.recovery_s;
    rep_queued = m.queued;
    rep_queue_wait_s = m.queue_wait_s;
    rep_rejects = m.rejects;
    rep_checkpoints = m.checkpoints;
    rep_migrations = m.migrations;
    rep_migrations_done = m.migrations_done;
    rep_migrate_transfer_s = m.migrate_transfer_s;
    rep_migrate_resume_s = m.migrate_resume_s;
  }

(* The session's one book: every event it emitted, folded. *)
let ledger t = t.ledger
