(* What every workload shares: run settings, the per-call meter, the
   closed-loop timed phase and the result record. *)

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;  (** tiny populate and window, for the benchmark's own tests *)
  out_dir : string;
}

(* Enough calls that ten lie beyond p99. *)
let min_calls cfg = if cfg.quick then 100 else 1000

(* Host steal time, sampled every [steal_period] ns as calls return.
   The host steals CPU from this guest often enough (3-17% of a run)
   to move every wall-clock figure by more than a code change would,
   so those figures are taken from the windows between samples in
   which it stole nothing. *)
type steal_log = {
  mutable last : int;
  mutable marks : int;
  at : int array;  (** host ns of each sample *)
  ticks : int array;  (** steal ticks then *)
}

(* Preallocated, so sampling allocates nothing: 2^14 samples cover 27
   minutes of calls. *)
let steal_log () =
  { last = 0; marks = 0; at = Array.make 16384 0; ticks = Array.make 16384 0 }

let steal_period = 100_000_000

(* One meter per generator thread. A call is what a client waits on;
   ops are the NFS procedures or S4 RPCs it carries. *)
type meter = {
  lat : Stats.samples;  (** host ns per call *)
  ends : Stats.samples;  (** host ns when each call returned *)
  sim : Stats.samples;  (** simulated ns per call *)
  steal : steal_log;  (** shared by the meters of one run *)
  sim_now : unit -> int;
  mutable calls : int;
  mutable ops : int;
  mutable failed : int;
  mutable problems : string list;
}

let meter ?(steal = steal_log ()) ~sim_now () =
  {
    lat = Stats.samples ();
    ends = Stats.samples ();
    sim = Stats.samples ();
    steal;
    sim_now;
    calls = 0;
    ops = 0;
    failed = 0;
    problems = [];
  }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  problems : string list;
  spans : (string * Spans.t) list;  (** recorders to write out, by label *)
  info : (string * string) list;  (** extra host/run facts for the run record *)
}

(* Forget calls [n] and later (set-up traffic made after them). *)
let truncate (m : meter) n =
  let drop = m.calls - n in
  m.calls <- n;
  m.lat.Stats.n <- m.lat.Stats.n - drop;
  m.ends.Stats.n <- m.ends.Stats.n - drop;
  m.sim.Stats.n <- m.sim.Stats.n - drop

let problem (m : meter) msg = if List.length m.problems < 20 then m.problems <- msg :: m.problems

(* A failed op: answered with an error, refused, or wrong. *)
let fail (m : meter) fmt =
  Printf.ksprintf
    (fun s ->
      m.failed <- m.failed + 1;
      problem m s)
    fmt

let timed (m : meter) ~ops f =
  let s0 = m.sim_now () in
  let h0 = Host.now_ns () in
  let r = f () in
  let h1 = Host.now_ns () in
  Stats.add m.lat (h1 - h0);
  Stats.add m.ends h1;
  Stats.add m.sim (m.sim_now () - s0);
  m.calls <- m.calls + 1;
  m.ops <- m.ops + ops;
  let sl = m.steal in
  if h1 - sl.last >= steal_period && sl.marks < Array.length sl.at then begin
    sl.last <- h1;
    sl.at.(sl.marks) <- h1;
    sl.ticks.(sl.marks) <- Host.steal_ticks ();
    sl.marks <- sl.marks + 1
  end;
  r

(* What a timed phase leaves behind besides its meters. *)
type phase = {
  wall_ns : int;  (** pauses excluded *)
  spans : (int * int) list;  (** host-ns stretches between pauses *)
  cpu_windows : float list;  (** CPU s per op, one per window *)
  det_ops : int;
  det_calls : int;
  det_alloc : float;  (** words allocated by the first [det_calls] calls *)
}

(* The closed-loop timed phase of a single-threaded workload: [step]
   runs one op (one or more calls). The phase lasts [seconds] of wall
   time and at least [min_calls] and [det_calls] calls. Allocation is
   counted over exactly the first [det_calls] calls, and [at_det] fires
   right after them, so what it snapshots depends only on the seed.

   A content-retaining stack keeps every block it ever wrote in memory,
   so a long run is cut into epochs of [epoch_calls] calls: between
   epochs [rollover] checks the old stack and builds a fresh one. Its
   wall time, CPU and allocation are not part of the phase. CPU per op
   is sampled every [cpu_every] calls. *)
let closed_loop ~seconds ~min_calls ~det_calls ?(epoch_calls = max_int) ?(rollover = ignore)
    ?(at_det = ignore) ?(cpu_every = 500) m ~step =
  let alloc0 = Host.alloc_words () in
  let cpu0 = Host.cpu_s () in
  let t0 = Host.now_ns () in
  let limit = int_of_float (seconds *. 1e9) in
  let paused = ref 0 and paused_alloc = ref 0.0 in
  let det = ref None and next_epoch = ref epoch_calls in
  let spans = ref [] and span_from = ref t0 in
  let cpu_windows = ref [] and win = ref (m.ops, cpu0) and next_cpu = ref cpu_every in
  let elapsed () = Host.now_ns () - t0 - !paused in
  let finished () = !det <> None && m.calls >= min_calls && elapsed () >= limit in
  while not (finished ()) do
    step ();
    if m.calls >= !next_cpu then begin
      let ops0, c0 = !win and c = Host.cpu_s () in
      if m.ops > ops0 then cpu_windows := ((c -. c0) /. float_of_int (m.ops - ops0)) :: !cpu_windows;
      win := (m.ops, c);
      next_cpu := m.calls + cpu_every
    end;
    if !det = None && m.calls >= det_calls then begin
      det := Some (m.calls, m.ops, Host.alloc_words () -. alloc0 -. !paused_alloc);
      at_det ()
    end;
    if m.calls >= !next_epoch && not (finished ()) then begin
      let h0 = Host.now_ns () and a0 = Host.alloc_words () in
      spans := (!span_from, h0) :: !spans;
      rollover ();
      paused_alloc := !paused_alloc +. (Host.alloc_words () -. a0);
      win := (m.ops, Host.cpu_s ());
      next_cpu := m.calls + cpu_every;
      span_from := Host.now_ns ();
      paused := !paused + (!span_from - h0);
      next_epoch := m.calls + epoch_calls
    end
  done;
  let t1 = Host.now_ns () in
  let det_calls, det_ops, det_alloc = Option.get !det in
  {
    wall_ns = t1 - t0 - !paused;
    spans = List.rev ((!span_from, t1) :: !spans);
    cpu_windows = !cpu_windows;
    det_ops;
    det_calls;
    det_alloc;
  }

(* Set up [reps] times and keep the last stack; setup seconds are the
   median. Earlier stacks are dropped before the next is built. *)
let setup ~reps build =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    last := None;
    Gc.compact ();
    let t0 = Host.now_ns () in
    let st = build () in
    times := float_of_int (Host.now_ns () - t0) /. 1e9 :: !times;
    last := Some st
  done;
  (Option.get !last, Stats.median !times)

(* ------------------------------------------------------------------ *)
(* Wall-clock figures from steal-free windows                          *)

(* The windows between consecutive steal samples that lie inside one
   stretch of the phase, each with the ticks the host stole in it. *)
let windows steal spans =
  let marks = List.init steal.marks (fun i -> (steal.at.(i), steal.ticks.(i))) in
  let inside (t0, t1) = List.exists (fun (a, b) -> a <= t0 && t1 <= b) spans in
  let rec go acc = function
    | (t0, s0) :: ((t1, s1) :: _ as rest) ->
      go (if inside (t0, t1) then (t0, t1, s1 - s0) :: acc else acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] marks

(* Ops per second and latencies over the windows in which the host
   stole nothing, or, when those cover less than a tenth of the phase,
   over its least-stolen tenth. Also returns the share of the phase
   with no steal at all. *)
let wall_figures ~meters ~spans ~ops_per_call =
  let wins =
    match windows meters.(0).steal spans with
    | [] -> List.map (fun (a, b) -> (a, b, 0)) spans (* too short to sample *)
    | wins -> wins
  in
  let dur l = List.fold_left (fun acc (t0, t1, _) -> acc + (t1 - t0)) 0 l in
  let total = dur wins in
  let clean = List.filter (fun (_, _, st) -> st = 0) wins in
  let use =
    if 10 * dur clean >= total then clean
    else begin
      let rec take covered acc = function
        | ((t0, t1, _) as w) :: rest when 10 * covered < total ->
          take (covered + (t1 - t0)) (w :: acc) rest
        | _ -> acc
      in
      take 0 [] (List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) wins)
      |> List.sort compare
    end
  in
  let starts = Array.of_list (List.map (fun (t0, _, _) -> t0) use) in
  let stops = Array.of_list (List.map (fun (_, t1, _) -> t1) use) in
  (* Is [e] in (start, stop] of some window? Binary search on starts. *)
  let inside e =
    let lo = ref 0 and hi = ref (Array.length starts) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if starts.(mid) < e then lo := mid + 1 else hi := mid
    done;
    !lo > 0 && e <= stops.(!lo - 1)
  in
  let lat = Stats.samples () in
  Array.iter
    (fun m ->
      for i = 0 to Stats.length m.lat - 1 do
        if inside m.ends.Stats.a.(i) then Stats.add lat m.lat.Stats.a.(i)
      done)
    meters;
  let secs = float_of_int (dur use) /. 1e9 in
  ( Stats.ratio (float_of_int (Stats.length lat * ops_per_call)) secs,
    Stats.percentile lat 0.50,
    Stats.percentile lat 0.99,
    Stats.per (dur clean) total )

(* Traced runs report their throughput the same way, so the tracing
   overhead is the ratio of the two; also the steal-free share. *)
let traced_ops_per_s ~meters ~spans ~ops_per_call =
  let ops_per_s, _, _, clean = wall_figures ~meters ~spans ~ops_per_call in
  (ops_per_s, clean)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)

(* The metrics and the share of the phase the wall-clock ones cover. *)
let e2e ~meters ~spans ~ops_per_call ~cpu_us_per_op ~alloc_per_op ~sim_ops_per_s ~sim_p99_ns
    ~space_amp ~setup_s ~rss_mb =
  let ops_per_s, p50, p99, clean = wall_figures ~meters ~spans ~ops_per_call in
  ( [
      ("ops_per_s", ops_per_s);
      ("lat_p50_us", p50 /. 1e3);
      ("lat_p99_us", p99 /. 1e3);
      ("cpu_us_per_op", cpu_us_per_op);
      ("alloc_words_per_op", alloc_per_op);
      ("sim_ops_per_s", sim_ops_per_s);
      ("sim_lat_p99_us", sim_p99_ns /. 1e3);
      ("space_amp", space_amp);
      ("setup_s", setup_s);
      ("peak_rss_mb", rss_mb);
    ],
    clean )

(* End-to-end metrics of a single-threaded workload: simulated time
   and allocation come from exactly the first [det_calls] calls. *)
let e2e_single ~m ~(ph : phase) ~ops_per_call ~space_amp ~setup_s =
  let sim_ns = Stats.sum ~upto:ph.det_calls m.sim in
  e2e ~meters:[| m |] ~spans:ph.spans ~ops_per_call
    ~cpu_us_per_op:(1e6 *. Stats.median ph.cpu_windows)
    ~alloc_per_op:(Stats.ratio ph.det_alloc (float_of_int ph.det_ops))
    ~sim_ops_per_s:(Stats.ratio (float_of_int ph.det_ops) (float_of_int sim_ns /. 1e9))
    ~sim_p99_ns:(Stats.percentile ~upto:ph.det_calls m.sim 0.99)
    ~space_amp ~setup_s ~rss_mb:(Host.peak_rss_mb ())
