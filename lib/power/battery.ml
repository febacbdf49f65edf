(* Battery accounting: integrates the power model over the simulated
   timeline and keeps the (time, power) trace behind Figure 8. *)

type segment = {
  seg_start : float;          (* seconds *)
  seg_end : float;
  seg_state : Power_model.state;
  seg_mw : float;
}

type t = {
  model : Power_model.t;
  mutable segments : segment list;   (* reversed *)
  mutable energy_mj : float;         (* millijoules = mW * s *)
  sink : No_trace.Trace.sink;        (* one Power_state per segment *)
  row : No_trace.Trace.Row.t;        (* scratch for zero-alloc emission *)
}

let create ?(sink = No_trace.Trace.null) model =
  { model; segments = []; energy_mj = 0.0; sink;
    row = No_trace.Trace.Row.create () }

(* Record that the device was in [state] from [t0] to [t1].
   Zero-length segments are dropped and emit no event. *)
let spend t ~from_s ~to_s state =
  if to_s < from_s then invalid_arg "Battery.spend: negative duration";
  if to_s > from_s then begin
    let mw = Power_model.draw_mw t.model state in
    t.segments <-
      { seg_start = from_s; seg_end = to_s; seg_state = state; seg_mw = mw }
      :: t.segments;
    t.energy_mj <- t.energy_mj +. (mw *. (to_s -. from_s));
    if not (No_trace.Trace.is_null t.sink) then begin
      No_trace.Trace.Row.set_power_state t.row
        ~state:(Power_model.state_to_string state)
        ~mw ~duration_s:(to_s -. from_s);
      t.sink ~ts:from_s t.row
    end
  end

let energy_mj t = t.energy_mj

let segments t = List.rev t.segments

(* Resample the trace at a fixed period for plotting (Figure 8):
   returns (time, mW) pairs from 0 to the end of the last segment. *)
let resample t ~period_s =
  let segs = segments t in
  match List.rev segs with
  | [] -> []
  | last :: _ ->
    let horizon = last.seg_end in
    let n = int_of_float (ceil (horizon /. period_s)) in
    List.init (n + 1) (fun i ->
        let time = float_of_int i *. period_s in
        let mw =
          match
            List.find_opt
              (fun s -> s.seg_start <= time && time < s.seg_end)
              segs
          with
          | Some s -> s.seg_mw
          | None -> Power_model.draw_mw t.model Power_model.Idle
        in
        (time, mw))

(* Total time spent per state, for overhead analysis. *)
let time_by_state t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let prev =
        Option.value ~default:0.0 (Hashtbl.find_opt tbl s.seg_state)
      in
      Hashtbl.replace tbl s.seg_state (prev +. (s.seg_end -. s.seg_start)))
    t.segments;
  Hashtbl.fold (fun state time acc -> (state, time) :: acc) tbl []
