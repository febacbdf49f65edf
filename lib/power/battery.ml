(* Battery accounting: integrates the power model over the simulated
   timeline.  Each recorded segment goes to the sink as a Power_state
   row, the raw material of Figure 8. *)

type t = {
  model : Power_model.t;
  mutable energy_mj : float;         (* millijoules = mW * s *)
  sink : No_trace.Trace.sink;        (* one Power_state per segment *)
  row : No_trace.Trace.Row.t;        (* scratch for zero-alloc emission *)
}

let create ?(sink = No_trace.Trace.null) model =
  { model; energy_mj = 0.0; sink; row = No_trace.Trace.Row.create () }

(* Record that the device was in [state] from [t0] to [t1].
   Zero-length segments are dropped and emit no event. *)
let spend t ~from_s ~to_s state =
  if to_s < from_s then invalid_arg "Battery.spend: negative duration";
  if to_s > from_s then begin
    let mw = Power_model.draw_mw t.model state in
    t.energy_mj <- t.energy_mj +. (mw *. (to_s -. from_s));
    No_trace.Trace.Row.set_power_state t.row
      ~state:(Power_model.state_to_string state)
      ~mw ~duration_s:(to_s -. from_s);
    t.sink ~ts:from_s t.row
  end

let energy_mj t = t.energy_mj
