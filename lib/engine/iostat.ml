type t = {
  sim : Sim.t;
  cpu : Cpu.t;
  interval : float;
  series : Stats.Timeseries.t;
  started_at : float;
  started_busy : float;
  mutable running : bool;
}

let start sim cpu ?(interval = 1.0) () =
  if interval <= 0.0 then invalid_arg "Iostat.start: interval must be positive";
  let t =
    {
      sim;
      cpu;
      interval;
      series = Stats.Timeseries.create ~name:"cpu-util" ();
      started_at = Sim.now sim;
      started_busy = Cpu.busy_time cpu;
      running = true;
    }
  in
  Proc.spawn sim (fun () ->
      let rec tick prev_busy =
        if t.running then begin
          Proc.sleep sim interval;
          let busy = Cpu.busy_time cpu in
          Stats.Timeseries.add t.series (Sim.now sim) ((busy -. prev_busy) /. interval);
          tick busy
        end
      in
      tick t.started_busy);
  t

let stop t = t.running <- false
let samples t = Stats.Timeseries.to_list t.series

let mean_utilization t =
  let elapsed = Sim.now t.sim -. t.started_at in
  if elapsed <= 0.0 then 0.0
  else (Cpu.busy_time t.cpu -. t.started_busy) /. elapsed

let peak_utilization t =
  List.fold_left (fun acc (_, u) -> Float.max acc u) 0.0 (samples t)
