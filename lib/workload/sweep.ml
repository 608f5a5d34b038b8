type 'a cell = { cl_label : string; cl_run : unit -> 'a }

let cell ?(label = "cell") f = { cl_label = label; cl_run = f }
let label c = c.cl_label

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* Work-stealing would be overkill: cells are coarse (whole simulated
   worlds), so a shared next-cell counter balances fine and keeps the
   result array indexed by cell, not by completion order.  The calling
   domain is one of the [jobs] workers, so a one-job pool spawns no
   domain. *)
let run ?jobs cells =
  let cells = Array.of_list cells in
  let n = Array.length cells in
  let jobs = max 1 (min n (Option.value jobs ~default:(default_jobs ()))) in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (results.(i) <-
           Some
             (match cells.(i).cl_run () with
             | v -> Ok v
             | exception e -> Error (e, Printexc.get_raw_backtrace ())));
        loop ()
      end
    in
    loop ()
  in
  let helpers = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join helpers;
  Array.to_list results
  |> List.map (function
       | Some (Ok v) -> v
       | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
       | None -> assert false (* the counter visits every index *))
