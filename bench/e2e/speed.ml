(* The machine's speed, read by a reference probe between slices of a
   timed phase.

   On a shared virtual machine the speed of the same code drifts by tens
   of percent, from one second and one minute to the next, and the drift
   is largest for allocation-heavy code like deptest's: on the 2-vCPU box
   this benchmark was built on, a corpus pass ran 8.3 ms for a minute and
   then 15 ms for five seconds, with the same garbage collector figures
   throughout. Every time the benchmark reads moves with it.

   So a timed phase alternates short slices of workload with short runs
   of a fixed reference unit that uses the standard library alone, and
   each time measured in a slice is scaled by [nominal_ns] over the
   probe time measured around that slice. A change to deptest moves the
   workload's time and not the probe's, so it shows in full; drift of
   the machine moves both, and cancels. The times reported read as times
   on a machine where one reference unit takes [nominal_ns].

   The unit allocates as deptest does, so it slows as deptest does: over
   150 s of corpus passes the pass time / unit time ratio stayed within
   1-2% while the pass time moved by 10% and more, and within 13%
   through the slow spells, where the pass time rose by 55%; against a
   purely arithmetic unit the same ratio moved by up to 65%. *)

module IM = Map.Make (Int)

let now = Dt_obs.Clock.now_ns

(* 200 inserts into an int map, then a fold: about 15 us *)
let unit_ () =
  let m = ref IM.empty in
  for k = 0 to 199 do
    m := IM.add ((k * 7919) land 1023) k !m
  done;
  IM.fold (fun k v a -> a + k + v) !m 0

let nominal_ns = 15_000.
let reps = 64  (* units per probe: about 1 ms *)
let sink = ref 0

let time_units () =
  let t = now () in
  for _ = 1 to reps do
    sink := !sink + unit_ ()
  done;
  Int64.to_float (Int64.sub (now ()) t) /. float reps

(* The first probes of a process read up to twice the later ones, while
   its heap is young; this many are run and dropped. *)
let warm_up = 4
let cold = ref true

(* ns per reference unit, over [reps] units in this process *)
let probe_here () =
  if !cold then begin
    cold := false;
    for _ = 1 to warm_up do
      ignore (time_units ())
    done
  end;
  time_units ()

(* The two vCPUs of a shared box slow down apart from each other: probed
   side by side for 90 s, one at times read 24 us per unit while the
   other read 18 us. A workload on one core is probed by [probe_here]
   on that core. A workload on both (the pool's domains, or the serve
   daemon beside this load generator) runs at the speed of both, so
   [probe] runs [probe_here] and, at the same time, the same probe in a
   helper process: this program re-run with [helper_flag], which probes
   once per byte it reads and writes each result as a line. The helper
   exits when its input closes. *)
let helper_flag = "--speed-helper"

let serve_helper () =
  (try
     while true do
       ignore (input_char stdin);
       Printf.printf "%h\n%!" (probe_here ())
     done
   with End_of_file -> ());
  exit 0

(* the mean of one probe here and one in the helper, run side by side *)
let pair (to_, from) =
  output_char to_ 'p';
  flush to_;
  let here = probe_here () in
  (here +. float_of_string (input_line from)) /. 2.

let helper =
  lazy
    (let r_in, w_in = Unix.pipe ~cloexec:true () and r_out, w_out = Unix.pipe ~cloexec:true () in
     let pid =
       Unix.create_process Sys.executable_name
         [| Sys.executable_name; helper_flag |]
         r_in w_out Unix.stderr
     in
     Unix.close r_in;
     Unix.close w_out;
     let to_ = Unix.out_channel_of_descr w_in and from = Unix.in_channel_of_descr r_out in
     at_exit (fun () ->
         close_out_noerr to_;
         close_in_noerr from;
         try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
     (* the helper warms up on its first requests, which are dropped *)
     for _ = 1 to warm_up do
       ignore (pair (to_, from))
     done;
     (to_, from))

(* ns per reference unit, the mean of one probe here and one in the
   helper, run side by side *)
let probe () = pair (Lazy.force helper)

(* Given the probes taken before and after each of [Array.length p - 1]
   slices (slice [j] lies between probes [j] and [j + 1]), the factor
   that brings a time measured in slice [j] to reference speed. It uses
   the median of the probes from [j - 2] to [j + 3], so one probe that a
   preemption happened to hit does not skew its slices. *)
let factors p =
  let m = Array.length p - 1 in
  Array.init (max 0 m) (fun j ->
      let lo = max 0 (j - 2) and hi = min m (j + 3) in
      let w = Array.sub p lo (hi - lo + 1) in
      Array.sort Float.compare w;
      nominal_ns /. w.(Array.length w / 2))
