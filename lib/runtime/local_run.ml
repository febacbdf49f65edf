(* Baseline: run a module entirely on the mobile device.

   Figure 6 normalizes every configuration against this run — the
   untransformed program executing locally, the device drawing
   computing-level power throughout. *)

module Ir = No_ir.Ir
module Arch = No_arch.Arch
module Layout = No_arch.Layout
module Power_model = No_power.Power_model
module Battery = No_power.Battery
module Host = No_exec.Host
module Interp = No_exec.Interp
module Value = No_exec.Value
module Console = No_exec.Console
module Fs = No_exec.Fs

type report = {
  lr_result : Value.t;
  lr_console : string;
  lr_total_s : float;
  lr_energy_mj : float;
  lr_instrs : int;
}

(* The untransformed module on a mobile device of [arch] under its
   native layout, with [script] as console input and [files] in its
   file system: the host a local run and the compiler's profiling run
   both execute. *)
let host ?(arch = Arch.arm32) ?(script = []) ?(files = []) (m : Ir.modul) :
    Host.t =
  let structs name = Ir.find_struct_exn m name in
  let layout = Layout.env_of_arch arch ~structs in
  let fs = Fs.create () in
  List.iter (fun (name, data) -> Fs.add_file fs name data) files;
  Host.create ~arch ~role:Host.Mobile ~modul:m ~layout
    ~console:(Console.create ~script ()) ~fs ()

(* The device computes throughout: only the computing level is
   charged, so the radio is immaterial. *)
let run ?arch ?script ?files (m : Ir.modul) : report =
  let host = host ?arch ?script ?files m in
  let battery = Battery.create (Power_model.galaxy_s5 ~fast_radio:false) in
  let result = Interp.run_main host in
  Battery.spend battery ~from_s:0.0 ~to_s:host.Host.clock.Host.now
    Power_model.Computing;
  {
    lr_result = result;
    lr_console = Console.contents host.Host.console;
    lr_total_s = host.Host.clock.Host.now;
    lr_energy_mj = Battery.energy_mj battery;
    lr_instrs = host.Host.instr_count;
  }
