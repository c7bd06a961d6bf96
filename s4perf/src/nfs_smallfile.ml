(* nfs-smallfile: PostMark-shaped transactions through the NFS
   translator, the wire client, the in-memory loopback transport and a
   server session, onto one content-retaining drive. A call is one NFS
   op. *)

module Rpc = S4.Rpc
module Drive = S4.Drive
module Backend = S4.Backend
module N = S4_nfs.Nfs_types
module Translator = S4_nfs.Translator
module Netserver = S4_net.Server
module Netclient = S4_net.Client
module Transport = S4_net.Transport
module Simclock = S4_util.Simclock
module Rng = S4_util.Rng
module Store = S4_store.Obj_store

let dirs = 10
let min_size = 512
let max_size = 9216
let max_append = 4096

(* ------------------------------------------------------------------ *)
(* Generator and model                                                 *)

type file = { dir : int; name : string; mutable fh : int64; mutable data : Bytes.t }

type op =
  | Create of file  (** create, then write the contents: two calls *)
  | Remove of file
  | Read of file
  | Append of { file : file; off : int; data : Bytes.t }

type gen = {
  rng : Rng.t;
  pool : Bytes.t;  (** contents are slices of this *)
  mutable target : int;  (** file count the populate phase made *)
  mutable live : file array;
  mutable nlive : int;
  mutable next_name : int;
  mutable second_half : bool;  (** next op is the read-or-append half *)
}

let gen ~seed =
  let rng = Rng.create ~seed in
  {
    rng;
    pool = Rng.bytes rng (256 * 1024);
    target = 0;
    live = [||];
    nlive = 0;
    next_name = 0;
    second_half = false;
  }

let slice g n = Bytes.sub g.pool (Rng.int g.rng (Bytes.length g.pool - n)) n

let add_live g f =
  if g.nlive = Array.length g.live then begin
    let bigger = Array.make (max 64 (2 * g.nlive)) f in
    Array.blit g.live 0 bigger 0 g.nlive;
    g.live <- bigger
  end;
  g.live.(g.nlive) <- f;
  g.nlive <- g.nlive + 1

let new_file g =
  let name = "f" ^ string_of_int g.next_name in
  g.next_name <- g.next_name + 1;
  let dir = Rng.int g.rng dirs in
  let f = { dir; name; fh = 0L; data = slice g (Rng.int_in g.rng ~min:min_size ~max:max_size) } in
  add_live g f;
  Create f

(* PostMark's transaction: a create or a remove, then a read or an
   append. Reads and appends have even odds; creates and removes too,
   except that the odds lean back toward the populated file count, so
   the working set keeps the size the caches were sized for. The model
   is updated as ops are made, so the stream depends only on the seed. *)
let next g =
  if g.target = 0 then g.target <- max 1 g.nlive;
  g.second_half <- not g.second_half;
  if g.second_half then begin
    let drift = float_of_int (g.target - g.nlive) /. float_of_int g.target in
    let p_create = Float.min 0.9 (Float.max 0.1 (0.5 +. (2.5 *. drift))) in
    if g.nlive = 0 || Rng.float g.rng 1.0 < p_create then new_file g
    else begin
      let i = Rng.int g.rng g.nlive in
      let f = g.live.(i) in
      g.nlive <- g.nlive - 1;
      g.live.(i) <- g.live.(g.nlive);
      Remove f
    end
  end
  else begin
    let f = g.live.(Rng.int g.rng g.nlive) in
    if Rng.bool g.rng then Read f
    else begin
      let data = slice g (Rng.int_in g.rng ~min:min_size ~max:max_append) in
      let off = Bytes.length f.data in
      f.data <- Bytes.cat f.data data;
      Append { file = f; off; data }
    end
  end

let describe = function
  | Create f -> Printf.sprintf "create %d/%s %d" f.dir f.name (Bytes.length f.data)
  | Remove f -> Printf.sprintf "remove %d/%s" f.dir f.name
  | Read f -> Printf.sprintf "read %d/%s" f.dir f.name
  | Append { file; off; data } ->
    Printf.sprintf "append %d/%s %d+%d" file.dir file.name off (Bytes.length data)

(* The op stream alone, for the determinism test. *)
let op_stream ~seed ~files n =
  let g = gen ~seed in
  for _ = 1 to files do
    ignore (new_file g)
  done;
  List.init n (fun _ -> describe (next g))

(* ------------------------------------------------------------------ *)
(* Stack                                                               *)

let drive_config =
  {
    Drive.default_config with
    Drive.store = { Store.default_config with Store.keep_data = true };
    throttle = None;
  }

type stack = {
  clock : Simclock.t;
  drive : Drive.t;
  client : Backend.t;  (** the wire client, unwrapped *)
  tr : Translator.t;
  dir_fh : int64 array;
  g : gen;
}

(* What traced runs record, kept across epochs. *)
type probes = { spans : Spans.t; nfs_span : int; cap : Spans.capture; now : (unit -> int) ref }

let sim_now clock () = Int64.to_int (Simclock.now clock)

let probes () =
  let now = ref (fun () -> 0) in
  let spans = Spans.create ~sim_now:(fun () -> !now ()) () in
  { spans; nfs_span = Spans.register spans "nfs"; cap = Spans.capture (); now }

let build probes =
  let clock = Simclock.create () in
  let drive = Drive.format ~config:drive_config (S4_disk.Sim_disk.create clock) in
  let wrap name b = match probes with Some p -> Spans.backend p.spans name b | None -> b in
  let server = Netserver.create (wrap "drive" (Drive.backend drive)) in
  let transport = Transport.loopback ~identity:1 server in
  let transport =
    match probes with
    | Some p -> Spans.transport p.spans p.cap ~send:"net.send" ~recv:"net.recv" transport
    | None -> transport
  in
  let client = Netclient.backend ~clock ~keep_data:true (Netclient.connect transport) in
  let tr = Translator.mount (Translator.Backend (wrap "net.client" client)) in
  Option.iter (fun p -> p.now := sim_now clock) probes;
  (clock, drive, client, tr)

let nfs probes st req =
  match probes with
  | Some p -> Spans.span p.spans p.nfs_span (fun () -> Translator.handle st.tr req)
  | None -> Translator.handle st.tr req

let err_string = function
  | N.R_error e -> Format.asprintf "%a" N.pp_error e
  | _ -> "unexpected reply"

(* One op: its calls are timed one by one. *)
let exec probes st (m : Run.meter) op =
  let call req = Run.timed m ~ops:1 (fun () -> nfs probes st req) in
  match op with
  | Create f -> (
    match call (N.Create { dir = st.dir_fh.(f.dir); name = f.name; mode = 0o644 }) with
    | N.R_fh (fh, _) -> (
      f.fh <- fh;
      match call (N.Write { fh; off = 0; data = f.data }) with
      | N.R_attr a when a.N.size = Bytes.length f.data -> ()
      | r -> Run.fail m "write %s: %s" f.name (err_string r))
    | r -> Run.fail m "create %s: %s" f.name (err_string r))
  | Remove f -> (
    match call (N.Remove { dir = st.dir_fh.(f.dir); name = f.name }) with
    | N.R_unit -> ()
    | r -> Run.fail m "remove %s: %s" f.name (err_string r))
  | Read f -> (
    match call (N.Read { fh = f.fh; off = 0; len = Bytes.length f.data }) with
    | N.R_data b when Bytes.equal b f.data -> ()
    | N.R_data _ -> Run.fail m "read %s: contents differ from the model" f.name
    | r -> Run.fail m "read %s: %s" f.name (err_string r))
  | Append { file; off; data } -> (
    match call (N.Write { fh = file.fh; off; data }) with
    | N.R_attr a when a.N.size = off + Bytes.length data -> ()
    | r -> Run.fail m "append %s: %s" file.name (err_string r))

(* A fresh stack, populated and warmed up; [seed] picks the files. *)
let setup ~quick ~seed probes () =
  Option.iter (fun p -> Spans.set_on p.spans false) probes;
  let clock, drive, client, tr = build probes in
  let g = gen ~seed in
  let m = Run.meter ~sim_now:(sim_now clock) () in
  let root = Translator.root tr in
  let dir_fh =
    Array.init dirs (fun i ->
        match Translator.handle tr (N.Mkdir { dir = root; name = "d" ^ string_of_int i; mode = 0o755 }) with
        | N.R_fh (fh, _) -> fh
        | r -> failwith ("mkdir: " ^ err_string r))
  in
  let st = { clock; drive; client; tr; dir_fh; g } in
  for _ = 1 to (if quick then 60 else 600) do
    exec None st m (new_file g)
  done;
  (* Warm-up: settles the translator's caches and the drive's. *)
  for _ = 1 to (if quick then 40 else 400) do
    exec None st m (next g)
  done;
  if m.Run.failed > 0 then failwith ("populate: " ^ String.concat "; " m.Run.problems);
  Option.iter (fun p -> Spans.set_on p.spans true) probes;
  st

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

let check st (m : Run.meter) =
  let bad = ref [] in
  let note fmt = Printf.ksprintf (fun s -> if List.length !bad < 20 then bad := s :: !bad) fmt in
  let g = st.g in
  for i = 0 to g.nlive - 1 do
    let f = g.live.(i) in
    (match Translator.handle st.tr (N.Lookup { dir = st.dir_fh.(f.dir); name = f.name }) with
     | N.R_fh (fh, _) when fh = f.fh -> ()
     | r -> note "lookup %s: %s" f.name (err_string r));
    match Translator.handle st.tr (N.Read { fh = f.fh; off = 0; len = Bytes.length f.data + 1 }) with
    | N.R_data b when Bytes.equal b f.data -> ()
    | N.R_data _ -> note "final read %s: contents differ from the model" f.name
    | r -> note "final read %s: %s" f.name (err_string r)
  done;
  Array.iteri
    (fun d fh ->
      let want =
        List.sort compare
          (List.filter_map
             (fun f -> if f.dir = d then Some f.name else None)
             (Array.to_list (Array.sub g.live 0 g.nlive)))
      in
      match Translator.handle st.tr (N.Readdir fh) with
      | N.R_entries es ->
        if List.sort compare (List.map (fun e -> e.N.name) es) <> want then
          note "readdir d%d: names differ from the model" d
      | r -> note "readdir d%d: %s" d (err_string r))
    st.dir_fh;
  List.iter (fun e -> note "fsck: %s" e) (Drive.fsck st.drive);
  let t0 = Host.now_ns () in
  (match Backend.handle st.client Rpc.admin_cred (Rpc.Verify_log { from = None }) with
   | Rpc.R_verify v when S4_integrity.Chain.clean v -> ()
   | Rpc.R_verify v -> note "verify_log: %s" (String.concat "; " v.S4_integrity.Chain.v_errors)
   | r -> note "verify_log: %s" (Format.asprintf "%a" Rpc.pp_resp r));
  let verify_ms = float_of_int (Host.now_ns () - t0) /. 1e6 in
  List.iter (Run.problem m) (List.rev !bad);
  (!bad = [], verify_ms)

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)

let user_bytes st =
  let n = ref 0 in
  for i = 0 to st.g.nlive - 1 do
    n := !n + Bytes.length st.g.live.(i).data
  done;
  !n

(* Counts read from one epoch's stack. *)
type tally = { c : Counters.t; rpcs : int; attr_hits : int; attr_misses : int }

let tally st =
  let h, mi = Translator.attr_cache_stats st.tr in
  { c = Counters.of_drive st.drive; rpcs = Translator.rpc_count st.tr; attr_hits = h; attr_misses = mi }

let tally_diff a b =
  {
    c = Counters.diff a.c b.c;
    rpcs = a.rpcs - b.rpcs;
    attr_hits = a.attr_hits - b.attr_hits;
    attr_misses = a.attr_misses - b.attr_misses;
  }

let tally_add a b =
  {
    c = Counters.map2 ( + ) a.c b.c;
    rpcs = a.rpcs + b.rpcs;
    attr_hits = a.attr_hits + b.attr_hits;
    attr_misses = a.attr_misses + b.attr_misses;
  }

let epoch_calls ~quick = if quick then 1000 else 4000

let run (cfg : Run.cfg) =
  let traced = cfg.Run.trace and quick = cfg.Run.quick in
  let probes = if traced then Some (probes ()) else None in
  (* The stack of the current epoch; dropped before the next is built. *)
  let cur = ref None in
  let get () = Option.get !cur in
  let setup_s =
    let st, setup_s =
      Run.setup ~reps:(if traced then 1 else 3) (setup ~quick ~seed:cfg.Run.seed probes)
    in
    cur := Some st;
    setup_s
  in
  let m = Run.meter ~sim_now:(fun () -> sim_now (get ()).clock ()) () in
  let tf = Ledger.tracefold () in
  Option.iter (fun p -> Spans.reset p.spans) probes;
  let trace_on () =
    if traced then begin
      S4_obs.Trace.clear ();
      S4_obs.Trace.enable ()
    end
  in
  let trace_off () =
    if traced then begin
      Ledger.fold tf;
      S4_obs.Trace.disable ()
    end
  in
  let zero = { c = Counters.zero; rpcs = 0; attr_hits = 0; attr_misses = 0 } in
  let counted = ref zero and start = ref (tally (get ())) in
  let checks_ok = ref true and verify_ms = ref [] in
  (* Space at the ends of the epochs that fall inside the deterministic
     window: a fixed number of calls in. *)
  let det_calls = if quick then 300 else 12_000 in
  let epoch = ref 0 in
  let live = ref 0 and data = ref 0 in
  let end_epoch () =
    trace_off ();
    Option.iter (fun p -> Spans.set_on p.spans false) probes;
    if !epoch < max 1 (det_calls / epoch_calls ~quick) then begin
      let st = get () in
      live := !live + (Counters.of_drive st.drive).Counters.live_bytes;
      data := !data + user_bytes st
    end;
    counted := tally_add !counted (tally_diff (tally (get ())) !start);
    let ok, ms = check (get ()) m in
    if not ok then checks_ok := false;
    verify_ms := ms :: !verify_ms
  in
  let rollover () =
    end_epoch ();
    incr epoch;
    cur := None;
    Gc.compact ();
    cur := Some (setup ~quick ~seed:((cfg.Run.seed * 1009) + !epoch) probes ());
    start := tally (get ());
    trace_on ()
  in
  let step () =
    Option.iter (fun p -> Spans.set_call p.spans m.Run.calls) probes;
    let st = get () in
    exec probes st m (next st.g);
    if traced && S4_obs.Trace.count () > 4096 then Ledger.fold tf
  in
  trace_on ();
  let ph =
    Run.closed_loop ~seconds:cfg.Run.seconds ~min_calls:(Run.min_calls cfg)
      ~det_calls ~epoch_calls:(epoch_calls ~quick) ~rollover m ~step
  in
  let frozen = Option.map (fun p -> Spans.freeze p.spans) probes in
  end_epoch ();
  let t = !counted in
  let clean = ref 1.0 in
  let metrics =
    match (frozen, probes) with
    | None, _ | _, None ->
      let metrics, c =
        Run.e2e_single ~m ~ph ~ops_per_call:1 ~space_amp:(Stats.per !live !data) ~setup_s
      in
      clean := c;
      metrics
    | Some s, Some p ->
      let ops = m.Run.ops and calls = m.Run.calls in
      let traced_ops, share = Run.traced_ops_per_s ~meters:[| m |] ~spans:ph.Run.spans ~ops_per_call:1 in
      clean := share;
      let self name = Stats.per (Spans.self_ns s name) calls /. 1e3 in
      let wire = p.cap.Spans.sent + p.cap.Spans.received in
      let audit = S4.Audit.records (Drive.audit (get ()).drive) () in
      [
        ("nfs.self_us_per_op", Stats.per (Spans.self_ns s "nfs") ops /. 1e3);
        ("nfs.rpcs_per_op", Stats.per t.rpcs ops);
        ("nfs.attr_hit_ratio", Stats.per t.attr_hits (t.attr_hits + t.attr_misses));
        ("net.client.self_us_per_call", self "net.client");
        ("net.session.self_us_per_call", self "net.send");
        ("net.wait_us_per_call", self "net.recv");
        ("net.bytes_per_op", Stats.per wire ops);
        ("net.codec_ns_per_kb", Ledger.codec_ns_per_kb p.cap);
        ("core.drive.us_per_call", Stats.per (Spans.dur_ns s "drive") calls /. 1e3);
        ("integrity.chain_ns_per_record", Ledger.chain_ns_per_record audit);
        ("integrity.verify_ms", Stats.median !verify_ms);
        ("util.crc32_ns_per_kb", Ledger.crc32_ns_per_kb (Ledger.streams p.cap));
      ]
      @ Ledger.from_counters ~disk_ios:tf.Ledger.disk_ios ~ops ~wire_bytes:wire ~cleaner_ns:0 t.c
      @ Ledger.trace_metrics ~ops tf
      @ [
          ("trace.ops_per_s", traced_ops);
          ( "trace.boundary_coverage",
            Stats.ratio
              (float_of_int (Spans.covered_ns s))
              (float_of_int (ph.Run.wall_ns - tf.Ledger.fold_ns)) );
        ]
  in
  {
    Run.correct = !checks_ok && m.Run.failed = 0;
    attempted = m.Run.ops;
    failed = m.Run.failed;
    metrics;
    problems = List.rev m.Run.problems;
    spans = (match probes with Some p -> [ ("generator", p.spans) ] | None -> []);
    info =
      [
        ("calls", string_of_int m.Run.calls);
        ("epochs", string_of_int (!epoch + 1));
        ("steal_free_share", Printf.sprintf "%.2f" !clean);
      ];
  }
