(* wire-deploy: the configuration we would deploy. A separate server
   process serves a 4-shard mirrored balanced-read array with 2 worker
   domains, leases and QoS on, contents retained, over real TCP. Two
   generator threads, each with one connection and a lease cache,
   issue single RPCs: 1 KB reads (80% on a 5% hot set), 10% reads of a
   version from before the timed phase, 10% synced 1 KB writes. A call
   is one RPC.

   The server runs in its own process because in one process the
   generator's threads and the server's connection threads would share
   one OCaml runtime lock, which no deployment has. *)

module Rpc = S4.Rpc
module Drive = S4.Drive
module Backend = S4.Backend
module Router = S4_shard.Router
module Mirror = S4_multi.Mirror
module Netserver = S4_net.Server
module Netclient = S4_net.Client
module Transport = S4_net.Transport
module Cache = S4_net.Cache
module Simclock = S4_util.Simclock
module Rng = S4_util.Rng
module Store = S4_store.Obj_store
module Metrics = S4_obs.Metrics

let shards = 4
let threads = 2
let obj_bytes = 1024
let lease_ns = 20_000_000L

(* Member disks: an epoch writes a few MB to each, and every segment of
   the geometry costs memory up front. *)
let disk_mb = 1024

(* Wire batches stay at 64 requests or fewer: a default server admits
   64 requests in flight but advertises a batch limit of 256, so a
   default client submission of 65 fails in every slot (NOTES.md). *)
let wire_batch = 64

let cred = Rpc.user_cred ~user:1 ~client:1

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

type op = Read of int | Read_at of int | Write of int

type model = {
  objects : int;
  hot : int;
  versions : int array;  (** acknowledged version of each object; only its owner writes it *)
  issued : int array;  (** newest version its owner has sent *)
}

let model ~quick =
  let objects = if quick then 200 else 2000 in
  { objects; hot = objects / 20; versions = Array.make objects 0; issued = Array.make objects 0 }

(* Object [i] belongs to thread [i mod threads]. *)
let pick rng md =
  if Rng.float rng 1.0 < 0.8 then Rng.int rng md.hot
  else md.hot + Rng.int rng (md.objects - md.hot)

let pick_own rng md ~thread =
  let i = pick rng md in
  let j = i - (i mod threads) + thread in
  if j >= md.objects then thread else j

let next_op rng md ~thread =
  let u = Rng.float rng 1.0 in
  if u < 0.8 then Read (pick rng md)
  else if u < 0.9 then Read_at (Rng.int rng md.objects)
  else Write (pick_own rng md ~thread)

let describe = function
  | Read i -> Printf.sprintf "read %d" i
  | Read_at i -> Printf.sprintf "read_at %d" i
  | Write i -> Printf.sprintf "write %d" i

let thread_rng ~seed ~thread = Rng.create ~seed:((seed * 7919) + thread + 1)

let op_stream ~seed ~thread n =
  let md = model ~quick:false in
  let rng = thread_rng ~seed ~thread in
  List.init n (fun _ -> describe (next_op rng md ~thread))

(* Version [v] of object [i]: a header naming both, then a pattern. *)
let contents i v =
  let b = Bytes.init obj_bytes (fun k -> Char.chr (((i * 31) + (v * 17) + k) land 0xff)) in
  let h = Printf.sprintf "obj=%d ver=%d;" i v in
  Bytes.blit_string h 0 b 0 (String.length h);
  b

let version_of b =
  match String.index_opt (Bytes.to_string (Bytes.sub b 0 32)) ';' with
  | None -> None
  | Some e -> (
    try Scanf.sscanf (Bytes.sub_string b 0 e) "obj=%d ver=%d" (fun i v -> Some (i, v))
    with _ -> None)

(* ------------------------------------------------------------------ *)
(* Server process                                                      *)

let drive_config =
  {
    Drive.default_config with
    Drive.store = { Store.default_config with Store.keep_data = true };
    throttle = None;
  }

let server_config = { Netserver.default_config with Netserver.lease_ns; qos = true }

let serve args =
  let traced = List.mem "--trace=1" args in
  let spans_file =
    List.find_map
      (fun a ->
        if String.starts_with ~prefix:"--spans=" a then Some (String.sub a 8 (String.length a - 8))
        else None)
      args
  in
  let clock = Simclock.create () in
  let geometry =
    S4_disk.Geometry.with_capacity S4_disk.Geometry.cheetah_9gb ~bytes:(disk_mb * 1024 * 1024)
  in
  let drive () = Drive.format ~config:drive_config (S4_disk.Sim_disk.create ~geometry clock) in
  let members =
    List.init shards (fun i ->
        let m = Mirror.create (drive ()) (drive ()) in
        Mirror.set_read_policy m Mirror.Balanced;
        (i, Router.Mirrored m))
  in
  let router = Router.create members in
  Router.set_domains router 2;
  let spans =
    if traced then Some (Spans.create ~sim_now:(fun () -> Int64.to_int (Simclock.now clock)) ())
    else None
  in
  let backend = Router.backend router in
  let backend = match spans with Some s -> Spans.backend s "shard" backend | None -> backend in
  let srv = Netserver.create ~config:server_config backend in
  let listener = Netserver.serve_tcp ~host:"127.0.0.1" ~port:0 srv in
  let drives () = List.map (fun (_, _, d) -> d) (Router.members router) in
  let reply s =
    print_endline s;
    flush stdout
  in
  reply (Printf.sprintf "port %d" (Netserver.port listener));
  let rec loop () =
    match input_line stdin with
    | "mark" ->
      (* Quiescent: the generator has no request in flight. *)
      let c = Counters.of_drives (drives ()) in
      let p, s =
        List.fold_left
          (fun (p, s) id ->
            match Router.member router id with
            | Router.Mirrored mi ->
              let a, b = Mirror.read_counts mi in
              (p + a, s + b)
            | Router.Single _ -> (p, s))
          (0, 0) (Router.shard_ids router)
      in
      let served =
        match Netserver.scheduler srv with
        | Some w ->
          String.concat ","
            (List.map
               (fun c -> Printf.sprintf "%d:%.0f" c (S4_qos.Wfq.served w ~client:c))
               (S4_qos.Wfq.clients w))
        | None -> ""
      in
      let shard_ns, shard_n =
        match spans with Some s -> (Spans.dur_ns s "shard", Spans.count s "shard") | None -> (0, 0)
      in
      reply
        (Printf.sprintf "mark %.6f %.0f %.3f %d %d %d %d %d %d %s %s" (Host.cpu_s ())
           (Host.alloc_words ()) (Host.peak_rss_mb ())
           (Int64.to_int (Simclock.now clock))
           (Metrics.counter "net/lease_wait") p s shard_ns shard_n
           (if served = "" then "-" else served)
           (String.concat "," (List.map string_of_int (Counters.to_list c))));
      loop ()
    | "fsck" ->
      let issues = Router.fsck router in
      reply (Printf.sprintf "fsck %d %s" (List.length issues) (String.concat " | " issues));
      loop ()
    | "chain" ->
      let audit = S4.Audit.records (Drive.audit (List.hd (drives ()))) () in
      reply (Printf.sprintf "chain %.3f" (Ledger.chain_ns_per_record audit));
      loop ()
    | _ -> loop ()
    | exception End_of_file -> ()
  in
  loop ();
  Netserver.shutdown listener;
  Router.close_domains router;
  (match (spans, spans_file) with
   | Some s, Some f ->
     let oc = open_out f in
     Spans.write s oc;
     close_out oc
   | _ -> ());
  exit 0

(* ------------------------------------------------------------------ *)
(* Generator side                                                      *)

(* TCP from a chosen loopback source address: the server names a
   client by its peer IP, so each generator connection gets an
   identity of its own. *)
let tcp_from ~src ~port =
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string src, 0));
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
     with e ->
       Unix.close fd;
       raise e);
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    let closed = ref false in
    let ep_close () =
      if not !closed then begin
        closed := true;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
    in
    let ep_send b =
      if !closed then raise Transport.Closed;
      let off = ref 0 in
      try
        while !off < Bytes.length b do
          off := !off + Unix.write fd b !off (Bytes.length b - !off)
        done
      with Unix.Unix_error _ ->
        ep_close ();
        raise Transport.Closed
    in
    let ep_recv buf off len =
      if !closed then raise Transport.Closed;
      match Unix.read fd buf off len with
      | n -> n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        raise Transport.Timeout
      | exception Unix.Unix_error _ ->
        ep_close ();
        raise Transport.Closed
    in
    let ep_set_timeout t =
      try Unix.setsockopt_float fd Unix.SO_RCVTIMEO (match t with None -> 0. | Some s -> max 0.001 s)
      with Unix.Unix_error _ -> ()
    in
    { Transport.ep_peer = Printf.sprintf "%s->127.0.0.1:%d" src port; ep_send; ep_recv; ep_set_timeout; ep_close }
  in
  { Transport.label = "tcp:" ^ src; connect }

type server = { pid : int; to_srv : out_channel; from_srv : in_channel; port : int }

let start_server ~traced ~spans_file =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    [ exe; "serve"; (if traced then "--trace=1" else "--trace=0") ]
    @ match spans_file with Some f -> [ "--spans=" ^ f ] | None -> []
  in
  let pid = Unix.create_process exe (Array.of_list args) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let to_srv = Unix.out_channel_of_descr in_w and from_srv = Unix.in_channel_of_descr out_r in
  let port =
    match input_line from_srv with
    | l -> Scanf.sscanf l "port %d" Fun.id
    | exception End_of_file -> failwith "server process exited before listening"
  in
  { pid; to_srv; from_srv; port }

let ask srv cmd =
  output_string srv.to_srv (cmd ^ "\n");
  flush srv.to_srv;
  match input_line srv.from_srv with
  | l -> l
  | exception End_of_file -> failwith ("server process died answering " ^ cmd)

let stop_server srv =
  (try close_out srv.to_srv with Sys_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] srv.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  try close_in srv.from_srv with Sys_error _ -> ()

type mark = {
  cpu : float;
  alloc : float;
  rss : float;
  sim : int;
  lease_waits : int;
  primary_reads : int;
  secondary_reads : int;
  shard_ns : int;
  shard_n : int;
  served : (int * float) list;
  counters : Counters.t;
}

let mark srv =
  let l = ask srv "mark" in
  Scanf.sscanf l "mark %f %f %f %d %d %d %d %d %d %s %s"
    (fun cpu alloc rss sim lease_waits primary_reads secondary_reads shard_ns shard_n served counters ->
      {
        cpu;
        alloc;
        rss;
        sim;
        lease_waits;
        primary_reads;
        secondary_reads;
        shard_ns;
        shard_n;
        served =
          (if served = "-" then []
           else
             List.map
               (fun kv -> Scanf.sscanf kv "%d:%f" (fun c u -> (c, u)))
               (String.split_on_char ',' served));
        counters = Counters.of_list (List.map int_of_string (String.split_on_char ',' counters));
      })

(* What one generator thread keeps across epochs: its meter and, in a
   traced run, its spans and captured bytes. *)
type probes = { meter : Run.meter; spans : Spans.t option; cap : Spans.capture; now : (unit -> int) ref }

let probes ~traced ~steal () =
  let now = ref (fun () -> 0) in
  let sim_now () = !now () in
  {
    meter = Run.meter ~steal ~sim_now ();
    spans = (if traced then Some (Spans.create ~sim_now ()) else None);
    cap = Spans.capture ();
    now;
  }

(* One generator thread of one epoch: its own connection and cache. *)
type worker = { thread : int; client : Netclient.t; backend : Backend.t; p : probes; rng : Rng.t }

let client_config ~cache =
  {
    Netclient.default_config with
    Netclient.cache_budget = (if cache then 64 * (obj_bytes + 64) else 0);
    cache_journal = cache;
    max_batch = wire_batch;
  }

let worker ~seed ~port (p : probes) thread =
  let transport = tcp_from ~src:(Printf.sprintf "127.0.0.%d" (2 + thread)) ~port in
  let transport =
    match p.spans with
    | Some s -> Spans.transport s p.cap ~send:"net.send" ~recv:"net.recv" transport
    | None -> transport
  in
  let client = Netclient.connect ~config:(client_config ~cache:true) transport in
  p.now := (fun () -> Int64.to_int (Netclient.server_now client));
  let backend = Netclient.backend ~clock:(Simclock.create ()) ~keep_data:true client in
  let backend = match p.spans with Some s -> Spans.backend s "net.client" backend | None -> backend in
  { thread; client; backend; p; rng = thread_rng ~seed ~thread }

let resp_string r = Format.asprintf "%a" Rpc.pp_resp r

(* One call. Reads of the thread's own objects must match its model
   exactly; reads of the other thread's objects must be an intact
   version no newer than its owner has sent; [at] reads must return
   the version from before the timed phase. *)
let exec w md ~oids ~before op =
  let m = w.p.meter in
  let call ~sync req = (Run.timed m ~ops:1 (fun () -> w.backend.Backend.submit cred ~sync [| req |])).(0) in
  match op with
  | Read i -> (
    match call ~sync:false (Rpc.Read { oid = oids.(i); off = 0; len = obj_bytes; at = None }) with
    | Rpc.R_data b when Bytes.length b = obj_bytes -> (
      match version_of b with
      | Some (j, v) when j = i && Bytes.equal b (contents i v) ->
        if i mod threads = w.thread && v <> md.versions.(i) then
          Run.fail m "read %d: version %d, model %d" i v md.versions.(i)
        else if v > md.issued.(i) then Run.fail m "read %d: version %d was never written" i v
      | _ -> Run.fail m "read %d: not an intact version" i)
    | r -> Run.fail m "read %d: %s" i (resp_string r))
  | Read_at i -> (
    match call ~sync:false (Rpc.Read { oid = oids.(i); off = 0; len = obj_bytes; at = Some before }) with
    | Rpc.R_data b when Bytes.equal b (contents i 0) -> ()
    | Rpc.R_data _ -> Run.fail m "read_at %d: not the pre-phase version" i
    | r -> Run.fail m "read_at %d: %s" i (resp_string r))
  | Write i -> (
    let v = md.versions.(i) + 1 in
    md.issued.(i) <- v;
    match call ~sync:true (Rpc.Write { oid = oids.(i); off = 0; len = obj_bytes; data = Some (contents i v) }) with
    | Rpc.R_unit -> md.versions.(i) <- v
    | r -> Run.fail m "write %d: %s" i (resp_string r))

type stack = {
  srv : server;
  md : model;
  oids : int64 array;
  before : int64;
  workers : worker array;
  checker : Netclient.t;
}

let submit_all client reqs =
  let out = ref [] in
  let n = Array.length reqs in
  let pos = ref 0 in
  while !pos < n do
    let len = min wire_batch (n - !pos) in
    let last = !pos + len >= n in
    out := Netclient.submit client cred ~sync:last (Array.sub reqs !pos len) :: !out;
    pos := !pos + len
  done;
  Array.concat (List.rev !out)

let run_threads workers f =
  Array.iter Thread.join (Array.map (fun w -> Thread.create f w) workers)

(* A fresh server process, populated over the wire and warmed up on
   both threads; [seed] picks the op streams. *)
let setup ~quick ~traced ~seed ~spans_file probes () =
  let srv = start_server ~traced ~spans_file in
  try
    let md = model ~quick in
    let checker =
      Netclient.connect ~config:(client_config ~cache:false) (tcp_from ~src:"127.0.0.1" ~port:srv.port)
    in
    let oids =
      Array.map
        (function Rpc.R_oid o -> o | r -> failwith ("create: " ^ resp_string r))
        (submit_all checker (Array.make md.objects (Rpc.Create { acl = S4.Acl.default ~owner:1 })))
    in
    Array.iteri
      (fun i -> function Rpc.R_unit -> () | r -> failwith (Printf.sprintf "populate %d: %s" i (resp_string r)))
      (submit_all checker
         (Array.mapi (fun i oid -> Rpc.Write { oid; off = 0; len = obj_bytes; data = Some (contents i 0) }) oids));
    let before = Netclient.server_now checker in
    Array.iter (fun p -> Option.iter (fun s -> Spans.set_on s false) p.spans) probes;
    let workers = Array.mapi (fun i p -> worker ~seed ~port:srv.port p i) probes in
    (* Warm-up: leases, caches and the server's connection threads
       settle. Its calls are not kept. *)
    let warm = if quick then 50 else 500 in
    let failed0 = Array.map (fun p -> p.meter.Run.failed) probes in
    run_threads workers (fun w ->
        for _ = 1 to warm do
          exec w md ~oids ~before (next_op w.rng md ~thread:w.thread)
        done);
    Array.iteri
      (fun i p ->
        let m = p.meter in
        if m.Run.failed > failed0.(i) then failwith ("warm-up: " ^ String.concat "; " m.Run.problems);
        m.Run.ops <- m.Run.ops - warm;
        Run.truncate m (m.Run.calls - warm);
        Option.iter (fun s -> Spans.set_on s true) p.spans)
      probes;
    { srv; md; oids; before; workers; checker }
  with e ->
    stop_server srv;
    raise e

let teardown st =
  Array.iter (fun w -> Netclient.close w.client) st.workers;
  Netclient.close st.checker;
  stop_server st.srv

let cache_stats st =
  Array.fold_left
    (fun (h, m) w ->
      match Netclient.cache w.client with
      | Some c -> (h + Cache.hits c, m + Cache.misses c)
      | None -> (h, m))
    (0, 0) st.workers

let check st problem =
  let bad = ref [] in
  let note fmt = Printf.ksprintf (fun s -> if List.length !bad < 20 then bad := s :: !bad) fmt in
  Array.iteri
    (fun i oid ->
      match Netclient.handle st.checker cred (Rpc.Read { oid; off = 0; len = obj_bytes + 1; at = None }) with
      | Rpc.R_data b when Bytes.equal b (contents i st.md.versions.(i)) -> ()
      | Rpc.R_data _ -> note "final read %d: contents differ from the model" i
      | r -> note "final read %d: %s" i (resp_string r))
    st.oids;
  Array.iter
    (fun w ->
      match Netclient.cache w.client with
      | Some c -> (
        match Cache.check c with Ok () -> () | Error e -> note "cache check, thread %d: %s" w.thread e)
      | None -> ())
    st.workers;
  Scanf.sscanf (ask st.srv "fsck") "fsck %d %[^\n]" (fun nissues issues ->
      if nissues > 0 then note "fsck: %s" issues);
  let t0 = Host.now_ns () in
  (match Netclient.handle st.checker Rpc.admin_cred (Rpc.Verify_log { from = None }) with
   | Rpc.R_verify v when S4_integrity.Chain.clean v -> ()
   | Rpc.R_verify v -> note "verify_log: %s" (String.concat "; " v.S4_integrity.Chain.v_errors)
   | r -> note "verify_log: %s" (resp_string r));
  let verify_ms = float_of_int (Host.now_ns () - t0) /. 1e6 in
  List.iter problem (List.rev !bad);
  (!bad = [], verify_ms)

(* Sums over the epochs of a run. *)
type totals = {
  mutable wall_ns : int;
  mutable alloc : float;
  mutable sim_ns : int;
  mutable hits : int;
  mutable misses : int;
  mutable lease_waits : int;
  mutable primary : int;
  mutable secondary : int;
  mutable shard_ns : int;
  mutable served : float array;  (** WFQ units served per generator thread *)
  mutable counters : Counters.t;
  mutable space_amp : float option;  (** at the end of the first epoch *)
  mutable cpu_per_op : float list;  (** one per epoch *)
  mutable stretches : (int * int) list;  (** host-ns stretch of each epoch *)
  mutable server_rss : float;
  mutable ok : bool;
  mutable chain_ns : float;
  mutable verify_ms : float list;
}

(* Calls per epoch, both threads together: a server keeps every block
   it wrote in memory, so each epoch gets a fresh one. *)
let epoch_calls ~quick = if quick then 400 else 6000

let run (cfg : Run.cfg) =
  let traced = cfg.Run.trace and quick = cfg.Run.quick in
  let spans_file epoch =
    if traced then
      Some
        (Filename.concat cfg.Run.out_dir
           (Printf.sprintf "wire-deploy-seed%d-trace1-server-e%d.spans.tsv" cfg.Run.seed epoch))
    else None
  in
  if not (Sys.file_exists cfg.Run.out_dir) then Sys.mkdir cfg.Run.out_dir 0o755;
  let steal = Run.steal_log () in
  let probes = Array.init threads (fun _ -> probes ~traced ~steal ()) in
  let setup_epoch epoch =
    setup ~quick ~traced ~seed:((cfg.Run.seed * 1009) + epoch) ~spans_file:(spans_file epoch) probes ()
  in
  let cur = ref None in
  let setup_times =
    List.init (if traced then 1 else 3) (fun _ ->
        Option.iter teardown !cur;
        cur := None;
        let t0 = Host.now_ns () in
        cur := Some (setup_epoch 0);
        float_of_int (Host.now_ns () - t0) /. 1e9)
  in
  Fun.protect ~finally:(fun () -> Option.iter teardown !cur) @@ fun () ->
  Array.iter
    (fun p ->
      let m = p.meter in
      m.Run.ops <- 0;
      Run.truncate m 0;
      Option.iter Spans.reset p.spans;
      p.cap.Spans.sent <- 0;
      p.cap.Spans.received <- 0)
    probes;
  let tot =
    {
      wall_ns = 0;
      alloc = 0.0;
      sim_ns = 0;
      hits = 0;
      misses = 0;
      lease_waits = 0;
      primary = 0;
      secondary = 0;
      shard_ns = 0;
      served = Array.make threads 0.0;
      counters = Counters.zero;
      space_amp = None;
      cpu_per_op = [];
      stretches = [];
      server_rss = 0.0;
      ok = true;
      chain_ns = 0.0;
      verify_ms = [];
    }
  in
  let all_problems = ref [] in
  let problem s = if List.length !all_problems < 20 then all_problems := s :: !all_problems in
  let calls () = Array.fold_left (fun acc p -> acc + p.meter.Run.calls) 0 probes in
  let limit = int_of_float (cfg.Run.seconds *. 1e9) in
  let min_calls = Run.min_calls cfg in
  let finished t0 = calls () >= min_calls && tot.wall_ns + (Host.now_ns () - t0) >= limit in
  let frozen = ref [||] in
  let epoch = ref 0 in
  let continue = ref true in
  while !continue do
    let st = Option.get !cur in
    let h0, m0 = cache_stats st in
    let s0 = mark st.srv in
    let cpu0 = Host.cpu_s () and alloc0 = Host.alloc_words () in
    let quota = calls () + epoch_calls ~quick in
    let ops0 = Array.fold_left (fun acc p -> acc + p.meter.Run.ops) 0 probes in
    let t0 = Host.now_ns () in
    run_threads st.workers (fun w ->
        while not (calls () >= quota || finished t0) do
          Option.iter (fun s -> Spans.set_call s w.p.meter.Run.calls) w.p.spans;
          exec w st.md ~oids:st.oids ~before:st.before (next_op w.rng st.md ~thread:w.thread)
        done);
    let t1 = Host.now_ns () in
    let cpu = Host.cpu_s () -. cpu0 in
    tot.wall_ns <- tot.wall_ns + (t1 - t0);
    tot.stretches <- (t0, t1) :: tot.stretches;
    tot.alloc <- tot.alloc +. (Host.alloc_words () -. alloc0);
    continue := not (calls () >= min_calls && tot.wall_ns >= limit);
    if not !continue then frozen := Array.map (fun p -> Option.map Spans.freeze p.spans) probes;
    Array.iter (fun p -> Option.iter (fun s -> Spans.set_on s false) p.spans) probes;
    let s1 = mark st.srv in
    let h1, m1 = cache_stats st in
    let epoch_ops = Array.fold_left (fun acc p -> acc + p.meter.Run.ops) 0 probes - ops0 in
    tot.cpu_per_op <- Stats.ratio (cpu +. s1.cpu -. s0.cpu) (float_of_int epoch_ops) :: tot.cpu_per_op;
    tot.alloc <- tot.alloc +. (s1.alloc -. s0.alloc);
    tot.sim_ns <- tot.sim_ns + (s1.sim - s0.sim);
    tot.hits <- tot.hits + (h1 - h0);
    tot.misses <- tot.misses + (m1 - m0);
    tot.lease_waits <- tot.lease_waits + (s1.lease_waits - s0.lease_waits);
    tot.primary <- tot.primary + (s1.primary_reads - s0.primary_reads);
    tot.secondary <- tot.secondary + (s1.secondary_reads - s0.secondary_reads);
    tot.shard_ns <- tot.shard_ns + (s1.shard_ns - s0.shard_ns);
    Array.iteri
      (fun i w ->
        let id = Netclient.identity w.client in
        let get (mk : mark) = Option.value ~default:0.0 (List.assoc_opt id mk.served) in
        tot.served.(i) <- tot.served.(i) +. (get s1 -. get s0))
      st.workers;
    tot.counters <- Counters.map2 ( + ) tot.counters (Counters.diff s1.counters s0.counters);
    if tot.space_amp = None then
      tot.space_amp <- Some (Stats.per s1.counters.Counters.live_bytes (st.md.objects * obj_bytes));
    tot.server_rss <- Float.max tot.server_rss s1.rss;
    let ok, verify_ms = check st problem in
    if not ok then tot.ok <- false;
    tot.verify_ms <- verify_ms :: tot.verify_ms;
    if traced && not !continue then
      tot.chain_ns <- Scanf.sscanf (ask st.srv "chain") "chain %f" Fun.id;
    if !continue then begin
      teardown st;
      cur := None;
      incr epoch;
      cur := Some (setup_epoch !epoch)
    end
  done;
  let all = Run.meter ~sim_now:(fun () -> 0) () in
  Array.iter
    (fun p ->
      let m = p.meter in
      for i = 0 to Stats.length m.Run.lat - 1 do
        Stats.add all.Run.lat m.Run.lat.Stats.a.(i);
        Stats.add all.Run.sim m.Run.sim.Stats.a.(i)
      done;
      all.Run.calls <- all.Run.calls + m.Run.calls;
      all.Run.ops <- all.Run.ops + m.Run.ops;
      all.Run.failed <- all.Run.failed + m.Run.failed;
      List.iter (Run.problem all) (List.rev m.Run.problems))
    probes;
  List.iter (Run.problem all) (List.rev !all_problems);
  let ops = all.Run.ops and calls = all.Run.calls in
  let clean = ref 1.0 in
  let metrics =
    if not traced then begin
      let metrics, c =
      Run.e2e
        ~meters:(Array.map (fun p -> p.meter) probes)
        ~spans:(List.rev tot.stretches) ~ops_per_call:1
        ~cpu_us_per_op:(1e6 *. Stats.median tot.cpu_per_op)
        ~alloc_per_op:(Stats.ratio tot.alloc (float_of_int ops))
        ~sim_ops_per_s:(Stats.ratio (float_of_int ops) (float_of_int tot.sim_ns /. 1e9))
        ~sim_p99_ns:(Stats.percentile all.Run.sim 0.99)
        ~space_amp:(Option.get tot.space_amp) ~setup_s:(Stats.median setup_times)
        ~rss_mb:(Host.peak_rss_mb () +. tot.server_rss)
      in
      clean := c;
      metrics
    end
    else begin
      let traced_ops, share =
        Run.traced_ops_per_s
          ~meters:(Array.map (fun p -> p.meter) probes)
          ~spans:(List.rev tot.stretches) ~ops_per_call:1
      in
      clean := share;
      let spans = Array.map Option.get !frozen in
      let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
      let self name = Stats.per (sum (fun s -> Spans.self_ns s name) spans) calls /. 1e3 in
      let wire = sum (fun p -> p.cap.Spans.sent + p.cap.Spans.received) probes in
      [
        ("net.client.self_us_per_call", self "net.client");
        ("net.wait_us_per_call", self "net.recv");
        ("net.bytes_per_op", Stats.per wire ops);
        ("net.codec_ns_per_kb", Ledger.codec_ns_per_kb probes.(0).cap);
        ("net.cache.hit_ratio", Stats.per tot.hits (tot.hits + tot.misses));
        ("net.lease_waits_per_kop", 1000.0 *. Stats.per tot.lease_waits ops);
        ("qos.share_ratio", Stats.ratio tot.served.(0) tot.served.(1));
        ("shard.us_per_call", Stats.per tot.shard_ns calls /. 1e3);
        ("multi.secondary_read_share", Stats.per tot.secondary (tot.primary + tot.secondary));
        ("integrity.chain_ns_per_record", tot.chain_ns);
        ("integrity.verify_ms", Stats.median tot.verify_ms);
        ("util.crc32_ns_per_kb", Ledger.crc32_ns_per_kb (Ledger.streams probes.(0).cap));
      ]
      @ Ledger.from_counters ~ops ~wire_bytes:wire ~cleaner_ns:0 tot.counters
      @ [
          ("trace.ops_per_s", traced_ops);
          ( "trace.boundary_coverage",
            Stats.ratio (float_of_int (sum Spans.covered_ns spans)) (float_of_int (threads * tot.wall_ns)) );
        ]
    end
  in
  {
    Run.correct = tot.ok && all.Run.failed = 0;
    attempted = ops;
    failed = all.Run.failed;
    metrics;
    problems = List.rev all.Run.problems;
    spans =
      (if traced then Array.to_list (Array.mapi (fun i p -> (Printf.sprintf "thread%d" i, Option.get p.spans)) probes)
       else []);
    info =
      [
        ("calls", string_of_int calls);
        ("epochs", string_of_int (!epoch + 1));
        ("cache_hits", string_of_int tot.hits);
        ("server_rss_mb", Printf.sprintf "%.1f" tot.server_rss);
        ("steal_free_share", Printf.sprintf "%.2f" !clean);
      ];
  }
