(* array-bulk: one client submits sync batches of 64 KB reads and
   writes straight to the router of a 4-shard array of mirrored,
   balanced-read, timing-only drives, while the cleaner expires and
   compacts history under a shortened detection window. A call is one
   sync batch; an op is one RPC. *)

module Rpc = S4.Rpc
module Drive = S4.Drive
module Backend = S4.Backend
module Router = S4_shard.Router
module Mirror = S4_multi.Mirror
module Simclock = S4_util.Simclock
module Rng = S4_util.Rng
module Store = S4_store.Obj_store
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk

let shards = 4
let chunk = 64 * 1024
let batch = 16
let chunks_per_object = 8
let block_cache = 1024 * 1024

(* About 4x the array's total block cache (8 drives x 1 MB). *)
let objects = 4 * (2 * shards) * block_cache / (chunk * chunks_per_object)

let disk_mb = 48
let window_ns = 4_000_000_000L
let cleaner_every = 8

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

type req = { write : bool; obj : int; chunk_no : int }

(* Eight reads and eight writes in a random order, each on a random
   64 KB chunk of a random object. *)
let next_batch rng =
  let kinds = Array.init batch (fun i -> i mod 2 = 0) in
  Rng.shuffle rng kinds;
  Array.map
    (fun write ->
      { write; obj = Rng.int rng objects; chunk_no = Rng.int rng chunks_per_object })
    kinds

let describe b =
  String.concat " "
    (Array.to_list
       (Array.map
          (fun r -> Printf.sprintf "%c%d.%d" (if r.write then 'w' else 'r') r.obj r.chunk_no)
          b))

let op_stream ~seed n =
  let rng = Rng.create ~seed in
  List.init n (fun _ -> describe (next_batch rng))

(* ------------------------------------------------------------------ *)
(* Stack                                                               *)

let drive_config =
  {
    Drive.default_config with
    Drive.store =
      {
        Store.default_config with
        Store.keep_data = false;
        block_cache_bytes = block_cache;
        object_cache_bytes = 256 * 1024;
      };
    throttle = None;
  }

type stack = {
  clock : Simclock.t;
  router : Router.t;
  backend : Backend.t;
  oids : int64 array;
  rng : Rng.t;
  spans : Spans.t option;
  cleaner_span : int;
  mutable batches : int;
  mutable cleaner_ns : int;
}

let sim_now clock () = Int64.to_int (Simclock.now clock)

let build ~traced =
  let clock = Simclock.create () in
  let geometry = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(disk_mb * 1024 * 1024) in
  let drive () = Drive.format ~config:drive_config (Sim_disk.create ~geometry clock) in
  let members =
    List.init shards (fun i ->
        let m = Mirror.create (drive ()) (drive ()) in
        Mirror.set_read_policy m Mirror.Balanced;
        (i, Router.Mirrored m))
  in
  let router = Router.create members in
  (* Serial on purpose: on a 2-vCPU host worker domains lose to the
     inline path. *)
  Router.set_domains router 1;
  let spans = if traced then Some (Spans.create ~sim_now:(sim_now clock) ()) else None in
  let backend = Router.backend router in
  let backend = match spans with Some s -> Spans.backend s "shard" backend | None -> backend in
  (clock, router, backend, spans)

let cred = Rpc.user_cred ~user:1 ~client:1

let to_rpc st r =
  let oid = st.oids.(r.obj) and off = r.chunk_no * chunk in
  if r.write then Rpc.Write { oid; off; len = chunk; data = None }
  else Rpc.Read { oid; off; len = chunk; at = None }

(* One call: a sync batch, plus the cleaner pass that follows every
   [cleaner_every]-th batch (its time is charged to that batch). *)
let exec st (m : Run.meter) b =
  let resps =
    Run.timed m ~ops:batch (fun () ->
        let resps = st.backend.Backend.submit cred ~sync:true (Array.map (to_rpc st) b) in
        st.batches <- st.batches + 1;
        if st.batches mod cleaner_every = 0 then begin
          let t0 = Host.now_ns () in
          (match st.spans with
           | Some s -> Spans.span s st.cleaner_span (fun () -> Router.run_cleaners st.router)
           | None -> Router.run_cleaners st.router);
          st.cleaner_ns <- st.cleaner_ns + (Host.now_ns () - t0)
        end;
        resps)
  in
  Array.iteri
    (fun i resp ->
      match (b.(i).write, resp) with
      | true, Rpc.R_unit -> ()
      | false, Rpc.R_data d when Bytes.length d = chunk -> ()
      | _, r -> Run.fail m "batch slot %d: %s" i (Format.asprintf "%a" Rpc.pp_resp r))
    resps

let setup ~cfg ~traced () =
  let clock, router, backend, spans = build ~traced in
  let creates = Array.init objects (fun _ -> Rpc.Create { acl = S4.Acl.default ~owner:1 }) in
  let oids =
    Array.map
      (function Rpc.R_oid oid -> oid | r -> failwith (Format.asprintf "create: %a" Rpc.pp_resp r))
      (backend.Backend.submit cred ~sync:true creates)
  in
  for c = 0 to chunks_per_object - 1 do
    let writes =
      Array.map (fun oid -> Rpc.Write { oid; off = c * chunk; len = chunk; data = None }) oids
    in
    Array.iter
      (function Rpc.R_unit -> () | r -> failwith (Format.asprintf "populate: %a" Rpc.pp_resp r))
      (backend.Backend.submit cred ~sync:true writes)
  done;
  (* A short detection window, so versions age out during the run. *)
  (match backend.Backend.submit Rpc.admin_cred ~sync:true [| Rpc.Set_window { window = window_ns } |] with
   | [| Rpc.R_unit |] -> ()
   | r -> failwith (Format.asprintf "set_window: %a" Rpc.pp_resp r.(0)));
  let st =
    {
      clock;
      router;
      backend;
      oids;
      rng = Rng.create ~seed:cfg.Run.seed;
      spans;
      cleaner_span = (match spans with Some s -> Spans.register s "cleaner" | None -> -1);
      batches = 0;
      cleaner_ns = 0;
    }
  in
  let m = Run.meter ~sim_now:(sim_now clock) () in
  for _ = 1 to (if cfg.Run.quick then 16 else 160) do
    exec st m (next_batch st.rng)
  done;
  if m.Run.failed > 0 then failwith ("warm-up: " ^ String.concat "; " m.Run.problems);
  st

let drives st = List.map (fun (_, _, d) -> d) (Router.members st.router)

let read_counts st =
  List.fold_left
    (fun (p, s) id ->
      match Router.member st.router id with
      | Router.Mirrored mi ->
        let mp, ms = Mirror.read_counts mi in
        (p + mp, s + ms)
      | Router.Single _ -> (p, s))
    (0, 0) (Router.shard_ids st.router)

let space_amp st =
  let c = Counters.of_drives (drives st) in
  Stats.per c.Counters.live_bytes (objects * chunks_per_object * chunk)

(* Every member's fsck. [Router.fsck] and [Verify_log] are skipped: a
   timing-only array cannot decode its integrity catalog, and after the
   cleaner has expired audit records [Verify_log] reports them missing
   (see NOTES.md). *)
let check st (m : Run.meter) =
  let bad =
    List.concat_map
      (fun (sid, ri, d) -> List.map (Printf.sprintf "fsck shard %d replica %d: %s" sid ri) (Drive.fsck d))
      (Router.members st.router)
  in
  List.iter (Run.problem m) bad;
  bad = []

let run (cfg : Run.cfg) =
  let traced = cfg.Run.trace in
  let st, setup_s = Run.setup ~reps:(if traced then 1 else 3) (setup ~cfg ~traced) in
  let m = Run.meter ~sim_now:(sim_now st.clock) () in
  let tf = Ledger.tracefold () in
  Option.iter Spans.reset st.spans;
  if traced then begin
    S4_obs.Trace.clear ();
    S4_obs.Trace.enable ()
  end;
  st.cleaner_ns <- 0;
  let c0 = Counters.of_drives (drives st) in
  let p0, s0 = read_counts st in
  let space = ref 0.0 in
  let step () =
    Option.iter (fun s -> Spans.set_call s m.Run.calls) st.spans;
    exec st m (next_batch st.rng);
    if traced && S4_obs.Trace.count () > 4096 then Ledger.fold tf
  in
  let ph =
    Run.closed_loop ~seconds:cfg.Run.seconds ~min_calls:(Run.min_calls cfg)
      ~det_calls:(if cfg.Run.quick then 40 else 400)
      ~at_det:(fun () -> space := space_amp st)
      ~cpu_every:50 m ~step
  in
  let frozen = Option.map Spans.freeze st.spans in
  if traced then begin
    Ledger.fold tf;
    S4_obs.Trace.disable ()
  end;
  let c = Counters.diff (Counters.of_drives (drives st)) c0 in
  let p1, s1 = read_counts st in
  let ok = check st m in
  let clean = ref 1.0 in
  let metrics =
    match frozen with
    | None ->
      let metrics, c = Run.e2e_single ~m ~ph ~ops_per_call:batch ~space_amp:!space ~setup_s in
      clean := c;
      metrics
    | Some s ->
      let ops = m.Run.ops and calls = m.Run.calls in
      let traced_ops, share = Run.traced_ops_per_s ~meters:[| m |] ~spans:ph.Run.spans ~ops_per_call:batch in
      clean := share;
      let audit = S4.Audit.records (Drive.audit (List.hd (drives st))) () in
      let canon = List.map S4.Audit.canonical audit in
      [
        ("shard.us_per_call", Stats.per (Spans.dur_ns s "shard") calls /. 1e3);
        ("multi.secondary_read_share", Stats.per (s1 - s0) (p1 - p0 + s1 - s0));
        ("integrity.chain_ns_per_record", Ledger.chain_ns_per_record audit);
        ("util.crc32_ns_per_kb", Ledger.crc32_ns_per_kb [ Bytes.concat Bytes.empty canon ]);
      ]
      @ Ledger.from_counters ~disk_ios:tf.Ledger.disk_ios ~ops ~wire_bytes:0 ~cleaner_ns:st.cleaner_ns c
      @ Ledger.trace_metrics ~ops tf
      @ [
          ("trace.ops_per_s", traced_ops);
          ( "trace.boundary_coverage",
            Stats.ratio
              (float_of_int (Spans.covered_ns s))
              (float_of_int (ph.Run.wall_ns - tf.Ledger.fold_ns)) );
        ]
  in
  let free_min =
    List.fold_left (fun acc d -> min acc (S4_seglog.Log.free_segments (Drive.log d))) max_int (drives st)
  in
  {
    Run.correct = ok && m.Run.failed = 0;
    attempted = m.Run.ops;
    failed = m.Run.failed;
    metrics;
    problems = List.rev m.Run.problems;
    spans = (match st.spans with Some s -> [ ("generator", s) ] | None -> []);
    info =
      [
        ("calls", string_of_int m.Run.calls);
        ("free_segments_min", string_of_int free_min);
        ("steal_free_share", Printf.sprintf "%.2f" !clean);
      ];
  }
