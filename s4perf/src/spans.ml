(* Boundary spans recorded from outside the program.

   The benchmark wraps each boundary it can reach — a [Backend.t]
   decorator, a transport endpoint, a translator call — and records one
   span per crossing: name, host start and end ns, simulated ns,
   words allocated, parent span and call id. Spans stay in memory and
   are written out at exit. A boundary's self time is its span minus
   the part its child spans cover; it is accumulated online, so the
   per-layer ledger does not depend on the log cap.

   A recorder belongs to one thread: the wire workload gives each
   generator thread its own, and the server's recorder sits inside the
   server lock. *)

type agg = { mutable n : int; mutable dur_ns : int; mutable self_ns : int }

let stride = 7 (* name, start, stop, sim ns, words, parent, call *)

type t = {
  mutable names : string array;
  mutable aggs : agg array;
  sim_now : unit -> int;
  mutable depth : int;
  st_name : int array;
  st_start : int array;
  st_sim : int array;
  st_words : Float.Array.t;
  st_child : int array;
  st_slot : int array;
  mutable log : int array;
  mutable nlog : int;
  mutable call : int;
  mutable on : bool;  (** off: the decorators pass calls straight through *)
}

let max_depth = 16

(* Spans kept for writing out (22 MB); past it only the totals grow. *)
let max_spans = 400_000

let create ~sim_now () =
  {
    names = [||];
    aggs = [||];
    sim_now;
    depth = 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_sim = Array.make max_depth 0;
    st_words = Float.Array.make max_depth 0.0;
    st_child = Array.make max_depth 0;
    st_slot = Array.make max_depth (-1);
    log = Array.make (stride * 4096) 0;
    nlog = 0;
    call = 0;
    on = true;
  }

let set_call t id = t.call <- id
let set_on t on = t.on <- on

(* Forget everything recorded so far (set-up traffic), keeping the
   registered names. *)
let reset t =
  if t.depth <> 0 then invalid_arg "Spans.reset: a span is open";
  Array.iter
    (fun a ->
      a.n <- 0;
      a.dur_ns <- 0;
      a.self_ns <- 0)
    t.aggs;
  t.nlog <- 0

let register t name =
  match Array.find_index (String.equal name) t.names with
  | Some i -> i
  | None ->
    t.names <- Array.append t.names [| name |];
    t.aggs <- Array.append t.aggs [| { n = 0; dur_ns = 0; self_ns = 0 } |];
    Array.length t.names - 1

let enter t id =
  let d = t.depth in
  if d >= max_depth then invalid_arg "Spans.enter: nesting too deep";
  let slot =
    if t.nlog >= max_spans then -1
    else begin
      if stride * (t.nlog + 1) > Array.length t.log then begin
        let bigger = Array.make (2 * Array.length t.log) 0 in
        Array.blit t.log 0 bigger 0 (stride * t.nlog);
        t.log <- bigger
      end;
      let s = t.nlog in
      t.nlog <- s + 1;
      let b = stride * s in
      t.log.(b) <- id;
      t.log.(b + 5) <- (if d > 0 then t.st_slot.(d - 1) else -1);
      t.log.(b + 6) <- t.call;
      s
    end
  in
  t.st_name.(d) <- id;
  t.st_slot.(d) <- slot;
  t.st_child.(d) <- 0;
  t.st_sim.(d) <- t.sim_now ();
  Float.Array.set t.st_words d (Gc.minor_words ());
  t.depth <- d + 1;
  let start = Host.now_ns () in
  t.st_start.(d) <- start;
  if slot >= 0 then t.log.((stride * slot) + 1) <- start

let leave t =
  let stop = Host.now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = stop - t.st_start.(d) in
  let sim = t.sim_now () - t.st_sim.(d) in
  let words = Gc.minor_words () -. Float.Array.get t.st_words d in
  let a = t.aggs.(t.st_name.(d)) in
  a.n <- a.n + 1;
  a.dur_ns <- a.dur_ns + dur;
  a.self_ns <- a.self_ns + (dur - t.st_child.(d));
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let slot = t.st_slot.(d) in
  if slot >= 0 then begin
    let b = stride * slot in
    t.log.(b + 2) <- stop;
    t.log.(b + 3) <- sim;
    t.log.(b + 4) <- int_of_float words
  end

let span t id f =
  if not t.on then f ()
  else begin
    enter t id;
    match f () with
    | v ->
      leave t;
      v
    | exception e ->
      leave t;
      raise e
  end

(* A copy of the totals, taken when the timed phase ends, so traffic
   after it (the output checks) does not leak into the ledger. *)
let freeze t =
  { t with names = Array.copy t.names; aggs = Array.map (fun a -> { a with n = a.n }) t.aggs }

let agg t name =
  match Array.find_index (String.equal name) t.names with
  | Some i -> t.aggs.(i)
  | None -> { n = 0; dur_ns = 0; self_ns = 0 }

let self_ns t name = (agg t name).self_ns
let dur_ns t name = (agg t name).dur_ns
let count t name = (agg t name).n

(* Sum of every boundary's self time: the wall time the spans cover. *)
let covered_ns t = Array.fold_left (fun acc a -> acc + a.self_ns) 0 t.aggs

(* One line per span: name, start, stop, sim ns, words, parent, call. *)
let write t oc =
  for s = 0 to t.nlog - 1 do
    let b = stride * s in
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\t%d\t%d\n" t.names.(t.log.(b)) t.log.(b + 1)
      t.log.(b + 2) t.log.(b + 3) t.log.(b + 4) t.log.(b + 5) t.log.(b + 6)
  done

(* ------------------------------------------------------------------ *)
(* Decorators                                                          *)

let backend t name (b : S4.Backend.t) =
  let id = register t name in
  {
    b with
    S4.Backend.submit =
      (fun cred ?sync reqs -> span t id (fun () -> b.S4.Backend.submit cred ?sync reqs));
  }

(* Bytes that crossed a transport, kept (up to a cap) so the codec can
   be priced on the run's own frames. *)
type capture = {
  mutable sent : int;
  mutable received : int;
  out_frames : Buffer.t;
  in_frames : Buffer.t;
  cap : int;
}

let capture ?(cap = 4 * 1024 * 1024) () =
  { sent = 0; received = 0; out_frames = Buffer.create 65536; in_frames = Buffer.create 65536; cap }

let keep buf cap b off n = if Buffer.length buf + n <= cap then Buffer.add_subbytes buf b off n

let transport t cap ~send ~recv (tr : S4_net.Transport.t) =
  let send_id = register t send and recv_id = register t recv in
  let connect () =
    let ep = tr.S4_net.Transport.connect () in
    {
      ep with
      S4_net.Transport.ep_send =
        (fun b ->
          span t send_id (fun () -> ep.S4_net.Transport.ep_send b);
          if t.on then begin
            cap.sent <- cap.sent + Bytes.length b;
            keep cap.out_frames cap.cap b 0 (Bytes.length b)
          end);
      ep_recv =
        (fun buf off len ->
          let n = span t recv_id (fun () -> ep.S4_net.Transport.ep_recv buf off len) in
          if t.on then begin
            cap.received <- cap.received + n;
            keep cap.in_frames cap.cap buf off n
          end;
          n);
    }
  in
  { tr with S4_net.Transport.connect }
