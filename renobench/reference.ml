(* The host-speed reference: a fixed event loop (a binary heap of
   closures keyed by boxed times, with hashtable and allocation traffic)
   written in the simulator's style but using the standard library only,
   so no change to the program under test can change it.

   The benchmark's host is shared: its speed drifts by tens of percent
   over tens of seconds.  run.py times this loop after every world it
   measures and scales the invocation's host times by the loop's
   nominal time over its median measured time, which cancels the part
   of the drift the two share. *)

let events = 200_000

(* Median seconds this loop took on the 2-vCPU Xeon VM the benchmark
   was tuned on: measured times are reported in seconds of that host at
   that speed. *)
let nominal_s = 0.1

type ev = { time : float; seq : int; fire : unit -> unit }

let run () =
  let dummy = { time = 0.0; seq = 0; fire = ignore } in
  let heap = Array.make 2048 dummy in
  let size = ref 0 in
  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq) in
  let swap i j =
    let x = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- x
  in
  let push e =
    let i = ref !size in
    heap.(!i) <- e;
    incr size;
    while !i > 0 && before heap.(!i) heap.((!i - 1) / 2) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < !size && before heap.(l) heap.(!m) then m := l;
      if r < !size && before heap.(r) heap.(!m) then m := r;
      if !m = !i then fin := true
      else begin
        swap !i !m;
        i := !m
      end
    done;
    top
  in
  let table = Hashtbl.create 65536 in
  let seq = ref 0 and clock = ref 0.0 and state = ref 12345 in
  let rand () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    float_of_int !state /. 1073741824.0
  in
  let rec schedule k delay =
    incr seq;
    push { time = !clock +. delay; seq = !seq; fire = (fun () -> fire k) }
  and fire k =
    Hashtbl.replace table (k land 0xffff) (Bytes.make 64 (Char.chr (k land 0xff)));
    schedule (k + 1) (rand ())
  in
  for k = 0 to 1999 do
    schedule k (rand ())
  done;
  for _ = 1 to events do
    let e = pop () in
    clock := e.time;
    e.fire ()
  done
