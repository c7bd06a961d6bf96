(* The networking subsystem: wire-codec round trips, adversarial
   (truncated / bit-flipped / oversized / garbage) decoding, the
   sans-IO server session's protocol decisions, connection-derived
   identity (anti-spoofing), client retry/reconnect behaviour, and
   real TCP round trips against the threaded daemon. *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Drive = S4.Drive
module Rpc = S4.Rpc
module Acl = S4.Acl
module Audit = S4.Audit
module Throttle = S4.Throttle
module Metrics = S4_obs.Metrics
module Wire = S4_net.Wire
module Netserver = S4_net.Server
module Netclient = S4_net.Client
module Nettransport = S4_net.Transport

let check = Alcotest.check
let qtest = Qseed.qtest

let mk_drive ?(config = Drive.default_config) () =
  let clock = Simclock.create () in
  Drive.format ~config
    (Sim_disk.create
       ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(32 * 1024 * 1024))
       clock)

let cred = Rpc.user_cred ~user:1 ~client:1

let create_object handle =
  match handle cred ?sync:None (Rpc.Create { acl = Acl.default ~owner:1 }) with
  | Rpc.R_oid oid -> oid
  | r -> Alcotest.failf "create: %a" Rpc.pp_resp r

let decode_all b =
  let rec go pos acc =
    if pos >= Bytes.length b then List.rev acc
    else
      match Wire.decode b ~pos ~avail:(Bytes.length b - pos) with
      | Wire.Frame (f, used) -> go (pos + used) (f :: acc)
      | _ -> List.rev acc
  in
  go 0 []

(* --- generators ------------------------------------------------------- *)

let gen_oid = QCheck.Gen.(map Int64.of_int (0 -- 1_000_000))
let gen_time = QCheck.Gen.(map Int64.of_int (0 -- 1_000_000_000))
let gen_at = QCheck.Gen.(opt gen_time)
let gen_principal = QCheck.Gen.(oneof [ return (-1); 0 -- 200 ])
let gen_name = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 12))
let gen_bytes = QCheck.Gen.(map Bytes.of_string (string_size (0 -- 256)))
let gen_data = QCheck.Gen.opt gen_bytes

let all_perms = [ Acl.Read; Acl.Write; Acl.Delete; Acl.Set_attr; Acl.Set_acl ]

let gen_perms =
  QCheck.Gen.(
    map (fun bits -> List.filteri (fun i _ -> bits land (1 lsl i) <> 0) all_perms) (0 -- 31))

let gen_entry =
  QCheck.Gen.(
    let* user = gen_principal and* client = gen_principal in
    let* perms = gen_perms and* recovery = bool in
    return { Acl.user; client; perms; recovery })

let gen_acl = QCheck.Gen.(list_size (0 -- 3) gen_entry)

let gen_req =
  QCheck.Gen.(
    let off = 0 -- 100_000 and len = 0 -- 8_192 in
    oneof
      [
        map (fun acl -> Rpc.Create { acl }) gen_acl;
        map (fun oid -> Rpc.Delete { oid }) gen_oid;
        (let* oid = gen_oid and* off = off and* len = len and* at = gen_at in
         return (Rpc.Read { oid; off; len; at }));
        (let* oid = gen_oid and* off = off and* len = len and* data = gen_data in
         return (Rpc.Write { oid; off; len; data }));
        (let* oid = gen_oid and* len = len and* data = gen_data in
         return (Rpc.Append { oid; len; data }));
        (let* oid = gen_oid and* size = 0 -- 100_000 in
         return (Rpc.Truncate { oid; size }));
        (let* oid = gen_oid and* at = gen_at in
         return (Rpc.Get_attr { oid; at }));
        (let* oid = gen_oid and* attr = gen_bytes in
         return (Rpc.Set_attr { oid; attr }));
        (let* oid = gen_oid and* acl_user = gen_principal and* at = gen_at in
         return (Rpc.Get_acl_by_user { oid; acl_user; at }));
        (let* oid = gen_oid and* index = 0 -- 7 and* at = gen_at in
         return (Rpc.Get_acl_by_index { oid; index; at }));
        (let* oid = gen_oid and* index = 0 -- 7 and* entry = gen_entry in
         return (Rpc.Set_acl { oid; index; entry }));
        (let* name = gen_name and* oid = gen_oid in
         return (Rpc.P_create { name; oid }));
        map (fun name -> Rpc.P_delete { name }) gen_name;
        map (fun at -> Rpc.P_list { at }) gen_at;
        (let* name = gen_name and* at = gen_at in
         return (Rpc.P_mount { name; at }));
        return Rpc.Sync;
        map (fun until -> Rpc.Flush { until }) gen_time;
        (let* oid = gen_oid and* until = gen_time in
         return (Rpc.Flush_object { oid; until }));
        map (fun window -> Rpc.Set_window { window }) gen_time;
        (let* since = gen_time and* until = gen_time in
         return (Rpc.Read_audit { since; until }));
      ])

let gen_error =
  QCheck.Gen.(
    oneof
      [
        return Rpc.Not_found;
        return Rpc.Permission_denied;
        return Rpc.Object_deleted;
        return Rpc.No_space;
        map (fun m -> Rpc.Bad_request m) gen_name;
        map (fun m -> Rpc.Io_error m) gen_name;
      ])

let gen_audit_record =
  QCheck.Gen.(
    let* at = gen_time and* user = gen_principal and* client = gen_principal in
    let* op = gen_name and* oid = gen_oid and* info = gen_name and* ok = bool in
    return { Audit.at; user; client; op; oid; info; ok })

let gen_resp =
  QCheck.Gen.(
    oneof
      [
        return Rpc.R_unit;
        map (fun oid -> Rpc.R_oid oid) gen_oid;
        map (fun b -> Rpc.R_data b) gen_bytes;
        map (fun n -> Rpc.R_size n) (0 -- 10_000_000);
        map (fun b -> Rpc.R_attr b) gen_bytes;
        map (fun e -> Rpc.R_acl e) gen_entry;
        map (fun ns -> Rpc.R_names ns) (list_size (0 -- 5) gen_name);
        map (fun rs -> Rpc.R_audit rs) (list_size (0 -- 4) gen_audit_record);
        map (fun e -> Rpc.R_error e) gen_error;
      ])

let gen_cred =
  QCheck.Gen.(
    let* user = 0 -- 100 and* client = 0 -- 100 and* admin = bool in
    return { Rpc.user; client; admin })

let gen_frame =
  QCheck.Gen.(
    let xid = map Int64.of_int (0 -- 1_000_000) in
    frequency
      [
        (1, map (fun claim -> Wire.Hello { claim }) gen_principal);
        ( 1,
          let* identity = gen_principal and* now = gen_time and* batch = 0 -- 1024 in
          return (Wire.Hello_ack { identity; now; batch }) );
        ( 6,
          let* xid = xid and* cred = gen_cred and* sync = bool and* req = gen_req in
          return (Wire.Batch { xid; cred; sync; reqs = [| req |] }) );
        ( 6,
          let* xid = xid and* resp = gen_resp and* now = gen_time
          and* lease = gen_time in
          return (Wire.Batch_reply { xid; resps = [| resp |]; now; leases = [| lease |] }) );
        ( 1,
          let* xid = xid and* message = gen_name in
          return (Wire.Proto_error { xid; message }) );
        (1, map (fun xid -> Wire.Stat { xid }) xid);
        ( 1,
          let* xid = xid and* total = 0 -- 1_000_000 and* free = 0 -- 1_000_000
          and* now = gen_time in
          return (Wire.Stat_ack { xid; total; free; now }) );
        (1, return Wire.Goodbye);
        ( 2,
          let* xid = xid and* cred = gen_cred and* sync = bool
          and* reqs = list_size (0 -- 4) gen_req in
          return (Wire.Batch { xid; cred; sync; reqs = Array.of_list reqs }) );
        ( 2,
          let* xid = xid and* cells = list_size (0 -- 4) (pair gen_resp gen_time)
          and* now = gen_time in
          let resps = Array.of_list (List.map fst cells) in
          let leases = Array.of_list (List.map snd cells) in
          return (Wire.Batch_reply { xid; resps; now; leases }) );
      ])

let print_frame f = Wire.frame_name f
let arb_frame = QCheck.make ~print:print_frame gen_frame

(* --- codec properties ------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode f) = f, consuming every byte" ~count:400 arb_frame
    (fun f ->
      let b = Wire.encode f in
      match Wire.decode b ~pos:0 ~avail:(Bytes.length b) with
      | Wire.Frame (g, used) -> used = Bytes.length b && g = f
      | Wire.Need_more _ -> QCheck.Test.fail_report "Need_more on a complete frame"
      | Wire.Corrupt m -> QCheck.Test.fail_reportf "Corrupt on a valid frame: %s" m)

let prop_truncation =
  QCheck.Test.make ~name:"every strict prefix asks for more bytes" ~count:200
    (QCheck.make ~print:(fun (f, _) -> print_frame f) QCheck.Gen.(pair gen_frame (0 -- 10_000)))
    (fun (f, cut) ->
      let b = Wire.encode f in
      let avail = cut mod Bytes.length b in
      match Wire.decode b ~pos:0 ~avail with
      | Wire.Need_more k -> k > 0
      | Wire.Frame _ -> QCheck.Test.fail_report "whole frame from a strict prefix"
      | Wire.Corrupt m -> QCheck.Test.fail_reportf "valid prefix called corrupt: %s" m)

let prop_bitflip =
  QCheck.Test.make ~name:"a flipped bit never yields a valid frame" ~count:400
    (QCheck.make ~print:(fun (f, _) -> print_frame f) QCheck.Gen.(pair gen_frame (0 -- 1_000_000)))
    (fun (f, bit) ->
      let b = Wire.encode f in
      let bit = bit mod (8 * Bytes.length b) in
      let i = bit / 8 in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl (bit mod 8)));
      match Wire.decode b ~pos:0 ~avail:(Bytes.length b) with
      | Wire.Frame _ -> QCheck.Test.fail_report "corrupted frame accepted"
      | Wire.Need_more _ | Wire.Corrupt _ -> true)

let prop_garbage =
  QCheck.Test.make ~name:"random bytes never crash the decoder" ~count:400
    (QCheck.make
       ~print:(fun s -> Printf.sprintf "%d bytes" (String.length s))
       QCheck.Gen.(string_size (0 -- 512)))
    (fun s ->
      let b = Bytes.of_string s in
      match Wire.decode b ~pos:0 ~avail:(Bytes.length b) with
      | Wire.Frame _ -> String.length s >= 4 && String.sub s 0 4 = "S4WP"
      | Wire.Need_more _ | Wire.Corrupt _ -> true)

let test_oversized_rejected_from_header () =
  (* A declared payload beyond the cap must be rejected from the header
     alone — before the decoder would ever buffer the payload. *)
  let b = Wire.encode Wire.Goodbye in
  S4_util.Bcodec.set_u32 b 16 (Wire.max_frame_default + 1);
  (match Wire.decode b ~pos:0 ~avail:Wire.header_len with
  | Wire.Corrupt _ -> ()
  | Wire.Need_more _ -> Alcotest.fail "decoder waits for an oversized payload"
  | Wire.Frame _ -> Alcotest.fail "oversized frame accepted");
  (* Within the cap the same truncated header is just incomplete. *)
  let b = Wire.encode Wire.Goodbye in
  match Wire.decode b ~pos:0 ~avail:Wire.header_len with
  | Wire.Need_more _ -> ()
  | _ -> Alcotest.fail "in-bounds header should await its payload"

(* --- sans-IO session -------------------------------------------------- *)

let request xid req =
  Wire.encode (Wire.Batch { xid = Int64.of_int xid; cred; sync = false; reqs = [| req |] })

(* [b] re-stamped with header version [v], CRC recomputed, so the
   version byte is the only thing wrong with it. *)
let restamp b v =
  let b = Bytes.copy b in
  Bytes.set_uint8 b 4 v;
  let n = Bytes.length b - 4 in
  S4_util.Bcodec.set_u32 b n (S4_util.Crc32.sub b ~pos:0 ~len:n);
  b

let test_foreign_version_rejected () =
  let frames =
    [
      Wire.encode (Wire.Hello { claim = 1 });
      Wire.encode (Wire.Stat { xid = 3L });
      Wire.encode Wire.Goodbye;
      request 1 Rpc.Sync;
    ]
  in
  List.iter
    (fun b ->
      (match Wire.decode b ~pos:0 ~avail:(Bytes.length b) with
      | Wire.Frame _ -> ()
      | _ -> Alcotest.fail "own version must decode");
      for v = 0 to 255 do
        if v <> Wire.version then
          let b = restamp b v in
          match Wire.decode b ~pos:0 ~avail:(Bytes.length b) with
          | Wire.Corrupt m ->
            check Alcotest.bool "rejected for its version" true
              (String.starts_with ~prefix:"unsupported version" m)
          | Wire.Frame _ -> Alcotest.failf "version %d frame accepted" v
          | Wire.Need_more _ -> Alcotest.failf "version %d frame awaited more bytes" v
      done)
    frames;
  (* A live session answers a stale peer's handshake like any garbage:
     one protocol error, an audit record, a closed connection. *)
  let drive = mk_drive () in
  let sess = Netserver.Session.create ~identity:5 (Netserver.of_drive drive) in
  let stale = restamp (List.hd frames) (Wire.version - 1) in
  Netserver.Session.feed sess stale 0 (Bytes.length stale);
  Netserver.Session.run sess;
  check Alcotest.bool "session closing" true (Netserver.Session.closing sess);
  (match decode_all (Netserver.Session.output sess) with
  | [ Wire.Proto_error _ ] -> ()
  | fs -> Alcotest.failf "expected one Proto_error, got %d frames" (List.length fs));
  match
    List.filter
      (fun (r : Audit.record) -> r.Audit.op = "net_reject")
      (Audit.records (Drive.audit drive) ())
  with
  | [ r ] -> check Alcotest.int "audit names the connection" 5 r.Audit.client
  | rs -> Alcotest.failf "expected one net_reject audit record, got %d" (List.length rs)

let test_session_garbage_audited () =
  let drive = mk_drive () in
  let srv = Netserver.of_drive drive in
  let sess = Netserver.Session.create ~identity:9 srv in
  let before = Metrics.counter "net/decode_reject" in
  let garbage = Bytes.of_string "GARBAGE GARBAGE GARBAGE" in
  Netserver.Session.feed sess garbage 0 (Bytes.length garbage);
  check Alcotest.bool "session closing" true (Netserver.Session.closing sess);
  let frames = decode_all (Netserver.Session.output sess) in
  (match frames with
  | [ Wire.Proto_error _ ] -> ()
  | _ -> Alcotest.failf "expected one Proto_error, got %d frames" (List.length frames));
  check Alcotest.bool "decode_reject counted" true
    (Metrics.counter "net/decode_reject" > before);
  let rejects =
    List.filter (fun (r : Audit.record) -> r.Audit.op = "net_reject")
      (Audit.records (Drive.audit drive) ())
  in
  (match rejects with
  | [ r ] -> check Alcotest.int "audit names the connection" 9 r.Audit.client
  | rs -> Alcotest.failf "expected one net_reject audit record, got %d" (List.length rs));
  (* Input after the rejection is discarded, not parsed. *)
  let more = request 1 Rpc.Sync in
  Netserver.Session.feed sess more 0 (Bytes.length more);
  Netserver.Session.run sess;
  check Alcotest.int "no frames after close" 0
    (List.length (decode_all (Netserver.Session.output sess)))

let test_session_max_inflight () =
  let drive = mk_drive () in
  let config = { Netserver.default_config with Netserver.max_inflight = 2 } in
  let srv = Netserver.of_drive ~config drive in
  let sess = Netserver.Session.create srv in
  let burst = Bytes.concat Bytes.empty (List.init 3 (fun i -> request i Rpc.Sync)) in
  Netserver.Session.feed sess burst 0 (Bytes.length burst);
  check Alcotest.bool "an over-limit burst closes the connection" true
    (Netserver.Session.closing sess);
  Netserver.Session.run sess;
  let frames = decode_all (Netserver.Session.output sess) in
  let protos, resps =
    List.partition (function Wire.Proto_error _ -> true | _ -> false) frames
  in
  check Alcotest.int "one protocol error" 1 (List.length protos);
  check Alcotest.int "queued requests still answered" 2 (List.length resps)

let test_session_backend_exception () =
  let clock = Simclock.create () in
  let backend =
    S4.Backend.make ~clock ~keep_data:true
      ~capacity:(fun () -> (0, 0))
      (fun _ ?sync:_ _ -> failwith "backend blew up")
  in
  let srv = Netserver.create backend in
  let client = Netclient.connect (Nettransport.loopback srv) in
  (match Netclient.handle client cred (Rpc.Get_attr { oid = 1L; at = None }) with
  | Rpc.R_error (Rpc.Io_error _) -> ()
  | r -> Alcotest.failf "expected Io_error, got %a" Rpc.pp_resp r);
  (* The connection survives its backend's exception. *)
  match Netclient.handle client cred (Rpc.Get_attr { oid = 2L; at = None }) with
  | Rpc.R_error (Rpc.Io_error _) -> check Alcotest.int "no reconnect" 0 (Netclient.reconnects client)
  | r -> Alcotest.failf "expected Io_error, got %a" Rpc.pp_resp r

(* --- loopback client -------------------------------------------------- *)

let test_loopback_rpc () =
  let drive = mk_drive () in
  let srv = Netserver.of_drive drive in
  let client = Netclient.connect (Nettransport.loopback srv) in
  let oid = create_object (Netclient.handle client) in
  let payload = Bytes.of_string "networked self-securing storage" in
  (match
     Netclient.handle client cred
       (Rpc.Write { oid; off = 0; len = Bytes.length payload; data = Some payload })
   with
  | Rpc.R_unit -> ()
  | r -> Alcotest.failf "write: %a" Rpc.pp_resp r);
  (match
     Netclient.handle client cred
       (Rpc.Read { oid; off = 0; len = Bytes.length payload; at = None })
   with
  | Rpc.R_data b -> check Alcotest.bytes "read back" payload b
  | r -> Alcotest.failf "read: %a" Rpc.pp_resp r);
  let total, free = Netclient.capacity client in
  check Alcotest.bool "capacity sane" true (total > 0 && free > 0 && free <= total);
  check Alcotest.int "identity from handshake" 1 (Netclient.identity client);
  Netclient.close client

let test_identity_not_spoofable () =
  let drive = mk_drive () in
  let srv = Netserver.of_drive drive in
  let spoofing = Rpc.user_cred ~user:1 ~client:99 in
  let payload = Bytes.make 4096 'q' in
  let run identity =
    let client = Netclient.connect (Nettransport.loopback ~identity srv) in
    let oid = create_object (Netclient.handle client) in
    for _ = 1 to 4 do
      ignore
        (Netclient.handle client spoofing
           (Rpc.Write { oid; off = 0; len = 4096; data = Some payload }))
    done;
    Netclient.close client
  in
  run 7;
  run 8;
  (* The audit trail names the connections, never the claimed id. *)
  let clients =
    List.sort_uniq compare
      (List.map (fun (r : Audit.record) -> r.Audit.client) (Audit.records (Drive.audit drive) ()))
  in
  check (Alcotest.list Alcotest.int) "audit client ids" [ 7; 8 ] clients;
  (* And the growth throttle charges them, not the spoofed id. *)
  match Drive.throttle drive with
  | None -> Alcotest.fail "default drive config should have a throttle"
  | Some th ->
    check Alcotest.bool "client 7 charged" true (Throttle.client_share th ~client:7 > 0.0);
    check Alcotest.bool "client 8 charged" true (Throttle.client_share th ~client:8 > 0.0);
    check (Alcotest.float 0.0) "spoofed id uncharged" 0.0 (Throttle.client_share th ~client:99)

let test_admin_gating () =
  let drive = mk_drive () in
  let open_srv = Netserver.of_drive drive in
  let client = Netclient.connect (Nettransport.loopback open_srv) in
  (match Netclient.handle client Rpc.admin_cred Rpc.Sync with
  | Rpc.R_unit -> ()
  | r -> Alcotest.failf "admin sync: %a" Rpc.pp_resp r);
  let config = { Netserver.default_config with Netserver.allow_admin = false } in
  let gated = Netserver.of_drive ~config drive in
  let client = Netclient.connect (Nettransport.loopback gated) in
  (match Netclient.handle client Rpc.admin_cred Rpc.Sync with
  | Rpc.R_error Rpc.Permission_denied -> ()
  | r -> Alcotest.failf "expected Permission_denied, got %a" Rpc.pp_resp r);
  match Netclient.handle client cred Rpc.Sync with
  | Rpc.R_unit -> ()
  | r -> Alcotest.failf "non-admin should still pass: %a" Rpc.pp_resp r

let test_oversized_io_rejected () =
  let drive = mk_drive () in
  let config = { Netserver.default_config with Netserver.max_io = 64 * 1024 } in
  let srv = Netserver.of_drive ~config drive in
  let client = Netclient.connect (Nettransport.loopback srv) in
  let oid = create_object (Netclient.handle client) in
  (match
     Netclient.handle client cred (Rpc.Read { oid; off = 0; len = (64 * 1024) + 1; at = None })
   with
  | Rpc.R_error (Rpc.Bad_request _) -> ()
  | r -> Alcotest.failf "expected Bad_request, got %a" Rpc.pp_resp r);
  (* A mismatched data length is a malformed request, not a drive op. *)
  match
    Netclient.handle client cred
      (Rpc.Write { oid; off = 0; len = 100; data = Some (Bytes.make 7 'x') })
  with
  | Rpc.R_error (Rpc.Bad_request _) -> ()
  | r -> Alcotest.failf "expected Bad_request, got %a" Rpc.pp_resp r

let test_retry_and_reconnect () =
  let drive = mk_drive () in
  let srv = Netserver.of_drive drive in
  let inner = Nettransport.loopback srv in
  let endpoints = ref [] in
  let transport =
    {
      Nettransport.label = "flaky-loopback";
      connect =
        (fun () ->
          let e = inner.Nettransport.connect () in
          endpoints := e :: !endpoints;
          e);
    }
  in
  let sever () = (List.hd !endpoints).Nettransport.ep_close () in
  let config =
    { Netclient.default_config with Netclient.max_retries = 3; backoff_ms = 0.05 }
  in
  let client = Netclient.connect ~config transport in
  let oid = create_object (Netclient.handle client) in
  let payload = Bytes.of_string "retry me" in
  ignore
    (Netclient.handle client cred
       (Rpc.Write { oid; off = 0; len = Bytes.length payload; data = Some payload }));
  (* Kill the live connection: an idempotent read reconnects and retries. *)
  sever ();
  (match
     Netclient.handle client cred
       (Rpc.Read { oid; off = 0; len = Bytes.length payload; at = None })
   with
  | Rpc.R_data b -> check Alcotest.bytes "read after reconnect" payload b
  | r -> Alcotest.failf "read after sever: %a" Rpc.pp_resp r);
  check Alcotest.int "one retry" 1 (Netclient.retries client);
  check Alcotest.int "one reconnect" 1 (Netclient.reconnects client);
  (* A mutation on a dead connection must NOT be retried. *)
  sever ();
  (match
     Netclient.handle client cred
       (Rpc.Write { oid; off = 0; len = Bytes.length payload; data = Some payload })
   with
  | Rpc.R_error (Rpc.Io_error _) -> ()
  | r -> Alcotest.failf "expected Io_error for severed mutation, got %a" Rpc.pp_resp r);
  check Alcotest.int "mutation did not retry" 1 (Netclient.retries client);
  (* The client remains usable afterwards. *)
  match
    Netclient.handle client cred
      (Rpc.Read { oid; off = 0; len = Bytes.length payload; at = None })
  with
  | Rpc.R_data _ -> ()
  | r -> Alcotest.failf "read after recovery: %a" Rpc.pp_resp r

(* --- real TCP --------------------------------------------------------- *)

let with_tcp_server ?config f =
  let drive = mk_drive () in
  let srv = Netserver.of_drive ?config drive in
  let listener = Netserver.serve_tcp srv in
  Fun.protect
    ~finally:(fun () -> Netserver.shutdown listener)
    (fun () -> f drive (Netserver.port listener))

let tcp_client ?(max_retries = 1) port =
  let config =
    {
      Netclient.default_config with
      Netclient.max_retries;
      backoff_ms = 0.5;
      req_timeout_s = 5.0;
    }
  in
  Netclient.connect ~config (Nettransport.tcp ~host:"127.0.0.1" ~port)

let test_tcp_rpc () =
  with_tcp_server (fun _drive port ->
      let client = tcp_client port in
      let oid = create_object (Netclient.handle client) in
      let payload = Bytes.of_string "over real sockets" in
      (match
         Netclient.handle client cred
           (Rpc.Write { oid; off = 0; len = Bytes.length payload; data = Some payload })
       with
      | Rpc.R_unit -> ()
      | r -> Alcotest.failf "tcp write: %a" Rpc.pp_resp r);
      (match
         Netclient.handle client cred
           (Rpc.Read { oid; off = 0; len = Bytes.length payload; at = None })
       with
      | Rpc.R_data b -> check Alcotest.bytes "tcp read" payload b
      | r -> Alcotest.failf "tcp read: %a" Rpc.pp_resp r);
      Netclient.close client)

let test_tcp_garbage_then_service () =
  with_tcp_server (fun drive port ->
      (* A hostile peer sends junk: it gets a protocol error and a
         closed connection... *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let junk = Bytes.of_string (String.make 64 '\xAA') in
      ignore (Unix.write fd junk 0 (Bytes.length junk));
      let buf = Bytes.create 4096 in
      let total = ref 0 in
      (try
         let rec drain () =
           let n = Unix.read fd buf !total (Bytes.length buf - !total) in
           if n > 0 then begin
             total := !total + n;
             drain ()
           end
         in
         drain ()
       with Unix.Unix_error _ -> ());
      Unix.close fd;
      (match decode_all (Bytes.sub buf 0 !total) with
      | [ Wire.Proto_error _ ] -> ()
      | fs -> Alcotest.failf "expected Proto_error then EOF, got %d frames" (List.length fs));
      let rejects =
        List.filter (fun (r : Audit.record) -> r.Audit.op = "net_reject")
          (Audit.records (Drive.audit drive) ())
      in
      check Alcotest.bool "garbage audited" true (rejects <> []);
      (* ...and the server keeps serving well-behaved clients. *)
      let client = tcp_client port in
      let oid = create_object (Netclient.handle client) in
      check Alcotest.bool "drive still works" true (Int64.compare oid 0L > 0);
      Netclient.close client)

let test_tcp_shutdown_refuses_new_work () =
  let drive = mk_drive () in
  let srv = Netserver.of_drive drive in
  let listener = Netserver.serve_tcp srv in
  let port = Netserver.port listener in
  let client = tcp_client port in
  let oid = create_object (Netclient.handle client) in
  ignore oid;
  Netserver.shutdown listener;
  match
    Netclient.handle client cred (Rpc.Get_attr { oid; at = None })
  with
  | Rpc.R_error (Rpc.Io_error _) -> ()
  | r -> Alcotest.failf "expected Io_error after shutdown, got %a" Rpc.pp_resp r

(* --- batched submission ------------------------------------------------ *)

let test_loopback_batch_submit () =
  let drive = mk_drive () in
  let srv = Netserver.of_drive drive in
  let client = Netclient.connect (Nettransport.loopback srv) in
  let oid = create_object (Netclient.handle client) in
  check Alcotest.int "server advertised its batch limit" 64
    (Netclient.server_batch_limit client);
  let payload = Bytes.make 256 'z' in
  (* Interleaved writes and reads: each read must observe the write
     that precedes it in the SAME batch (in-order vectored execution). *)
  let reqs =
    Array.init 40 (fun i ->
        if i mod 2 = 0 then
          Rpc.Write { oid; off = i / 2 * 256; len = 256; data = Some payload }
        else Rpc.Read { oid; off = i / 2 * 256; len = 256; at = None })
  in
  let resps = Netclient.submit client cred ~sync:true reqs in
  check Alcotest.int "positional responses" 40 (Array.length resps);
  Array.iteri
    (fun i r ->
      match (i mod 2, r) with
      | 0, Rpc.R_unit -> ()
      | 1, Rpc.R_data b -> check Alcotest.bytes "batched read" payload b
      | _ -> Alcotest.failf "slot %d: %a" i Rpc.pp_resp r)
    resps;
  (* An empty batch with sync is a pure barrier. *)
  let none = Netclient.submit client cred ~sync:true [||] in
  check Alcotest.int "empty batch" 0 (Array.length none);
  Netclient.close client

(* A malformed request answers in its own slot over the wire too: the
   rest of the synced batch executes, each request leaves one audit
   record, and the batch's barrier runs. *)
let test_negative_oid_in_batch () =
  let drive = mk_drive () in
  let srv = Netserver.of_drive drive in
  let client = Netclient.connect (Nettransport.loopback srv) in
  let oid = create_object (Netclient.handle client) in
  let audit = Drive.audit drive in
  let n0 = Audit.record_count audit in
  let resps =
    Netclient.submit client cred ~sync:true
      [|
        Rpc.Write { oid; off = 0; len = 4; data = Some (Bytes.of_string "abcd") };
        Rpc.Get_attr { oid = -5L; at = None };
        Rpc.Append { oid; len = 3; data = Some (Bytes.of_string "efg") };
      |]
  in
  (match resps with
   | [| Rpc.R_unit; Rpc.R_error (Rpc.Bad_request _); Rpc.R_unit |] -> ()
   | _ ->
     Alcotest.failf "slots: %s"
       (String.concat ", " (Array.to_list (Array.map (Format.asprintf "%a" Rpc.pp_resp) resps))));
  (match Netclient.handle client cred (Rpc.Read { oid; off = 0; len = 16; at = None }) with
   | Rpc.R_data b -> check Alcotest.string "write and append both ran" "abcdefg" (Bytes.to_string b)
   | r -> Alcotest.failf "read: %a" Rpc.pp_resp r);
  check Alcotest.int "one audit record per request" (n0 + 3 + 1) (Audit.record_count audit);
  check Alcotest.bool "the batch's barrier sealed its records" true
    ((Audit.sealed_head audit).S4_integrity.Chain.records >= n0 + 3);
  Netclient.close client

let test_batch_chunking () =
  (* A submission larger than the server's advertised limit is sliced
     client-side; every slice is answered and reassembled in order. *)
  let config = { Netserver.default_config with Netserver.max_batch = 8 } in
  with_tcp_server ~config (fun _drive port ->
      let client = tcp_client port in
      let oid = create_object (Netclient.handle client) in
      check Alcotest.int "small limit learned" 8 (Netclient.server_batch_limit client);
      let payload = Bytes.of_string "chunked" in
      (match
         Netclient.handle client cred
           (Rpc.Write { oid; off = 0; len = Bytes.length payload; data = Some payload })
       with
      | Rpc.R_unit -> ()
      | r -> Alcotest.failf "seed write: %a" Rpc.pp_resp r);
      let reqs =
        Array.init 20 (fun _ -> Rpc.Read { oid; off = 0; len = Bytes.length payload; at = None })
      in
      let resps = Netclient.submit client cred ~sync:true reqs in
      check Alcotest.int "all slices answered" 20 (Array.length resps);
      Array.iter
        (function
          | Rpc.R_data b -> check Alcotest.bytes "chunked read" payload b
          | r -> Alcotest.failf "chunked read: %a" Rpc.pp_resp r)
        resps;
      Netclient.close client)

let test_default_server_admits_large_submissions () =
  (* A default server admits 64 requests in flight; the handshake
     advertises exactly that, so a fresh default client slices a 65- or
     200-request submission into batches the server accepts, even when
     the submission is its very first call. *)
  let drive = mk_drive () in
  let srv = Netserver.of_drive drive in
  let client = Netclient.connect (Nettransport.loopback srv) in
  let creates = Array.make 65 (Rpc.Create { acl = Acl.default ~owner:1 }) in
  let oids =
    Array.map
      (function Rpc.R_oid oid -> oid | r -> Alcotest.failf "create: %a" Rpc.pp_resp r)
      (Netclient.submit client cred ~sync:true creates)
  in
  check Alcotest.int "65 created" 65 (Array.length oids);
  let reads = Array.init 200 (fun i -> Rpc.Get_attr { oid = oids.(i mod 65); at = None }) in
  Array.iteri
    (fun i r ->
      match r with
      | Rpc.R_attr _ -> ()
      | r -> Alcotest.failf "slot %d of 200: %a" i Rpc.pp_resp r)
    (Netclient.submit client cred reads);
  check Alcotest.int "no reconnect" 0 (Netclient.reconnects client);
  Netclient.close client

let test_oversized_batch_rejected () =
  let drive = mk_drive () in
  let config = { Netserver.default_config with Netserver.max_batch = 4 } in
  let srv = Netserver.of_drive ~config drive in
  let sess = Netserver.Session.create srv in
  let reqs = Array.make 5 Rpc.Sync in
  let batch = Wire.encode (Wire.Batch { xid = 9L; cred; sync = false; reqs }) in
  Netserver.Session.feed sess batch 0 (Bytes.length batch);
  Netserver.Session.run sess;
  match decode_all (Netserver.Session.output sess) with
  | [ Wire.Proto_error _ ] -> ()
  | fs -> Alcotest.failf "expected Proto_error, got %d frames" (List.length fs)

(* --- leases and the client cache -------------------------------------- *)

module Cache = S4_net.Cache
module Simclock' = Simclock

let lease_server ?(lease_ns = 60_000_000_000L) () =
  let drive = mk_drive () in
  let config = { Netserver.default_config with Netserver.lease_ns } in
  (drive, Netserver.of_drive ~config drive)

let cache_config =
  { Netclient.default_config with Netclient.cache_budget = 1 lsl 20; cache_journal = true }

let cached_client srv = Netclient.connect ~config:cache_config (Nettransport.loopback srv)

let test_lease_cache_hit_and_invalidate () =
  let drive, srv = lease_server () in
  ignore drive;
  let client = cached_client srv in
  let oid = create_object (Netclient.handle client) in
  let payload = Bytes.of_string "leased bytes" in
  let wr () =
    match
      Netclient.handle client cred
        (Rpc.Write { oid; off = 0; len = Bytes.length payload; data = Some payload })
    with
    | Rpc.R_unit -> ()
    | r -> Alcotest.failf "write: %a" Rpc.pp_resp r
  in
  let rd () =
    match
      Netclient.handle client cred
        (Rpc.Read { oid; off = 0; len = Bytes.length payload; at = None })
    with
    | Rpc.R_data b -> check Alcotest.bytes "read" payload b
    | r -> Alcotest.failf "read: %a" Rpc.pp_resp r
  in
  wr ();
  let frames_at f = Metrics.counter "net/frames_in" - f in
  rd ();
  let cache = Option.get (Netclient.cache client) in
  check Alcotest.int "first read missed" 0 (Cache.hits cache);
  let f0 = Metrics.counter "net/frames_in" in
  rd ();
  rd ();
  check Alcotest.int "repeat reads hit" 2 (Cache.hits cache);
  check Alcotest.int "hits never touched the wire" 0 (frames_at f0);
  check Alcotest.bool "server clock observed" true (Netclient.server_now client > 0L);
  (* The client's own mutation invalidates its cached entries. *)
  wr ();
  rd ();
  check Alcotest.int "read after mutation missed" 2 (Cache.hits cache);
  (match Cache.check cache with Ok () -> () | Error e -> Alcotest.failf "lease checker: %s" e);
  Netclient.close client

let test_lease_expiry_never_served () =
  let lease_ns = 1_000_000_000L in
  let drive, srv = lease_server ~lease_ns () in
  let client = cached_client srv in
  let oid = create_object (Netclient.handle client) in
  let payload = Bytes.of_string "expiring" in
  ignore
    (Netclient.handle client cred
       (Rpc.Write { oid; off = 0; len = Bytes.length payload; data = Some payload }));
  let rd () =
    Netclient.handle client cred (Rpc.Read { oid; off = 0; len = Bytes.length payload; at = None })
  in
  ignore (rd ());
  let cache = Option.get (Netclient.cache client) in
  ignore (rd ());
  check Alcotest.int "lease live: served locally" 1 (Cache.hits cache);
  (* Let the lease lapse; the client learns the server clock from the
     next reply frame (a Sync here), after which the stale entry must
     never be served again. *)
  Simclock'.advance (Drive.clock drive) (Int64.mul 2L lease_ns);
  ignore (Netclient.handle client cred Rpc.Sync);
  ignore (rd ());
  check Alcotest.int "expired lease not served" 1 (Cache.hits cache);
  (* The re-read re-armed a fresh lease. *)
  ignore (rd ());
  check Alcotest.int "fresh lease serves again" 2 (Cache.hits cache);
  (match Cache.check cache with Ok () -> () | Error e -> Alcotest.failf "lease checker: %s" e);
  Netclient.close client

let test_synced_hit_still_barriers () =
  (* [handle] is a one-element [submit]: a synced read served from the
     cache still owes the server its group-commit barrier, sent as an
     empty synced batch. *)
  let _, srv = lease_server () in
  let sent = ref [] in
  let capture srv =
    let inner = Nettransport.loopback srv in
    {
      inner with
      Nettransport.connect =
        (fun () ->
          let e = inner.Nettransport.connect () in
          {
            e with
            Nettransport.ep_send =
              (fun b ->
                sent := b :: !sent;
                e.Nettransport.ep_send b);
          });
    }
  in
  let client = Netclient.connect ~config:cache_config (capture srv) in
  let oid = create_object (Netclient.handle client) in
  let payload = Bytes.of_string "cached then synced" in
  let rd ~sync =
    Netclient.handle client cred ~sync
      (Rpc.Read { oid; off = 0; len = Bytes.length payload; at = None })
  in
  ignore
    (Netclient.handle client cred
       (Rpc.Write { oid; off = 0; len = Bytes.length payload; data = Some payload }));
  ignore (rd ~sync:false);
  let cache = Option.get (Netclient.cache client) in
  sent := [];
  (match rd ~sync:true with
  | Rpc.R_data b -> check Alcotest.bytes "served from cache" payload b
  | r -> Alcotest.failf "synced cached read: %a" Rpc.pp_resp r);
  check Alcotest.int "cache hit" 1 (Cache.hits cache);
  (match List.concat_map decode_all !sent with
  | [ Wire.Batch { reqs = [||]; sync = true; _ } ] -> ()
  | fs ->
    Alcotest.failf "expected one empty synced batch, sent [%s]"
      (String.concat "; " (List.map Wire.frame_name fs)));
  Netclient.close client

let test_no_lease_term_no_cache () =
  (* lease_ns = 0 (the default): a server that grants no leases leaves
     the cache empty. *)
  let drive = mk_drive () in
  let srv = Netserver.of_drive drive in
  let client = cached_client srv in
  let oid = create_object (Netclient.handle client) in
  for _ = 1 to 3 do
    ignore (Netclient.handle client cred (Rpc.Read { oid; off = 0; len = 16; at = None }))
  done;
  let cache = Option.get (Netclient.cache client) in
  check Alcotest.int "zero-term leases cache nothing" 0 (Cache.length cache);
  check Alcotest.int "no hits" 0 (Cache.hits cache);
  Netclient.close client

let test_cache_never_crosses_credentials () =
  (* One client carrying two principals: the owner's cached reply must
     not leak to a user the object's ACL denies — every principal's
     request is keyed (and so ACL-checked and read-audited) under its
     own credential. *)
  let drive, srv = lease_server () in
  let client = cached_client srv in
  let oid = create_object (Netclient.handle client) in
  let payload = Bytes.of_string "owner eyes only" in
  ignore
    (Netclient.handle client cred
       (Rpc.Write { oid; off = 0; len = Bytes.length payload; data = Some payload }));
  let rd c = Netclient.handle client c (Rpc.Read { oid; off = 0; len = Bytes.length payload; at = None }) in
  (match rd cred with
  | Rpc.R_data b -> check Alcotest.bytes "owner reads" payload b
  | r -> Alcotest.failf "owner read: %a" Rpc.pp_resp r);
  let cache = Option.get (Netclient.cache client) in
  (match rd cred with
  | Rpc.R_data _ -> check Alcotest.int "owner re-read served locally" 1 (Cache.hits cache)
  | r -> Alcotest.failf "owner re-read: %a" Rpc.pp_resp r);
  (* The denied user must hit the server and be refused, even though
     the same client holds a fresh leased reply for the same bytes. *)
  let intruder = Rpc.user_cred ~user:2 ~client:1 in
  let audits_before = Audit.record_count (Drive.audit drive) in
  (match rd intruder with
  | Rpc.R_error Rpc.Permission_denied -> ()
  | r -> Alcotest.failf "denied user got: %a" Rpc.pp_resp r);
  check Alcotest.int "denied probe stayed a miss" 1 (Cache.hits cache);
  check Alcotest.bool "denied probe reached the read audit" true
    (Audit.record_count (Drive.audit drive) > audits_before);
  (match Cache.check cache with Ok () -> () | Error e -> Alcotest.failf "lease checker: %s" e);
  Netclient.close client

let test_mutation_waits_out_peer_lease () =
  (* The server-side half of the lease contract: a mutation from one
     client may not apply while another client holds a live lease it
     would invalidate — the server waits the lease out (clock advance),
     so a cached reply is never superseded while still servable. *)
  let lease_ns = 5_000_000_000L in
  let drive, srv = lease_server ~lease_ns () in
  let reader = cached_client srv in
  let writer =
    Netclient.connect
      ~config:{ Netclient.default_config with Netclient.claim_client = 2 }
      (Nettransport.loopback ~identity:2 srv)
  in
  let oid = create_object (Netclient.handle reader) in
  let payload = Bytes.of_string "v1-leased" in
  ignore
    (Netclient.handle reader cred
       (Rpc.Write { oid; off = 0; len = Bytes.length payload; data = Some payload }));
  let rd () =
    Netclient.handle reader cred
      (Rpc.Read { oid; off = 0; len = Bytes.length payload; at = None })
  in
  ignore (rd ());
  let granted_at = Simclock'.now (Drive.clock drive) in
  let waits_before = Metrics.counter "net/lease_wait" in
  (* Another client overwrites: the server must stall the write past
     the reader's lease expiry before applying it. *)
  let v2 = Bytes.of_string "v2-leased" in
  (match
     Netclient.handle writer (Rpc.user_cred ~user:1 ~client:2)
       (Rpc.Write { oid; off = 0; len = Bytes.length v2; data = Some v2 })
   with
  | Rpc.R_unit -> ()
  | r -> Alcotest.failf "conflicting write: %a" Rpc.pp_resp r);
  check Alcotest.bool "write waited for the lease" true
    (Simclock'.now (Drive.clock drive) >= Int64.add granted_at lease_ns);
  check Alcotest.bool "wait was counted" true (Metrics.counter "net/lease_wait" > waits_before);
  (* By the time the reader can observe the write's effects (any reply
     carries the post-wait clock), its lease is dead: the next read
     refetches and sees v2, never a stale local answer. *)
  ignore (Netclient.handle reader cred Rpc.Sync);
  (match rd () with
  | Rpc.R_data b -> check Alcotest.bytes "reader sees the new bytes" v2 b
  | r -> Alcotest.failf "post-write read: %a" Rpc.pp_resp r);
  let cache = Option.get (Netclient.cache reader) in
  (match Cache.check cache with Ok () -> () | Error e -> Alcotest.failf "lease checker: %s" e);
  Netclient.close reader;
  Netclient.close writer

let test_own_lease_never_stalls_holder () =
  (* A client's own leases never fence its own mutations — it
     invalidates its cache on send, so there is nothing to protect and
     nothing to wait for. *)
  let lease_ns = 60_000_000_000L in
  let drive, srv = lease_server ~lease_ns () in
  let client = cached_client srv in
  let oid = create_object (Netclient.handle client) in
  let payload = Bytes.of_string "self-owned" in
  let wr () =
    ignore
      (Netclient.handle client cred
         (Rpc.Write { oid; off = 0; len = Bytes.length payload; data = Some payload }))
  in
  wr ();
  ignore
    (Netclient.handle client cred
       (Rpc.Read { oid; off = 0; len = Bytes.length payload; at = None }));
  let waits_before = Metrics.counter "net/lease_wait" in
  let t0 = Simclock'.now (Drive.clock drive) in
  wr ();
  check Alcotest.bool "write applied well within the lease term" true
    (Int64.sub (Simclock'.now (Drive.clock drive)) t0 < lease_ns);
  check Alcotest.int "no lease wait" waits_before (Metrics.counter "net/lease_wait");
  Netclient.close client

(* --- live-session fuzz ------------------------------------------------ *)

(* Arbitrary byte streams against a live session: the server must never
   raise, never wedge, and answer each poisoned connection with at most
   one protocol error. Mixing in valid frame prefixes makes the stream
   reach deeper states than pure noise would. *)
let prop_session_fuzz =
  let gen_chunks =
    QCheck.Gen.(
      list_size (1 -- 6)
        (oneof
           [
             map Bytes.of_string (string_size (0 -- 128));
             map Wire.encode gen_frame;
             (let* f = gen_frame and* cut = 0 -- 10_000 in
              let b = Wire.encode f in
              return (Bytes.sub b 0 (cut mod Bytes.length b)));
           ]))
  in
  QCheck.Test.make ~name:"live session survives arbitrary byte streams" ~count:150
    (QCheck.make ~print:(fun cs -> Printf.sprintf "%d chunks" (List.length cs)) gen_chunks)
    (fun chunks ->
      let drive = mk_drive () in
      let srv = Netserver.of_drive drive in
      let sess = Netserver.Session.create srv in
      List.iter (fun c -> Netserver.Session.feed sess c 0 (Bytes.length c)) chunks;
      Netserver.Session.run sess;
      let frames = decode_all (Netserver.Session.output sess) in
      let protos = List.filter (function Wire.Proto_error _ -> true | _ -> false) frames in
      List.length protos <= 1)

let () =
  Alcotest.run "s4_net"
    [
      ( "wire",
        [
          qtest prop_roundtrip;
          qtest prop_truncation;
          qtest prop_bitflip;
          qtest prop_garbage;
          Alcotest.test_case "oversized length rejected from header" `Quick
            test_oversized_rejected_from_header;
          Alcotest.test_case "foreign header version rejected" `Quick
            test_foreign_version_rejected;
        ] );
      ( "session",
        [
          Alcotest.test_case "garbage answered, audited, connection closed" `Quick
            test_session_garbage_audited;
          Alcotest.test_case "max-inflight enforced" `Quick test_session_max_inflight;
          Alcotest.test_case "backend exception becomes Io_error" `Quick
            test_session_backend_exception;
          qtest prop_session_fuzz;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "rpc round trip" `Quick test_loopback_rpc;
          Alcotest.test_case "connection identity cannot be spoofed" `Quick
            test_identity_not_spoofable;
          Alcotest.test_case "admin gating" `Quick test_admin_gating;
          Alcotest.test_case "oversized io rejected" `Quick test_oversized_io_rejected;
          Alcotest.test_case "retry, reconnect, no mutation replay" `Quick
            test_retry_and_reconnect;
        ] );
      ( "batch",
        [
          Alcotest.test_case "vectored submit over loopback" `Quick test_loopback_batch_submit;
          Alcotest.test_case "oversized submissions sliced at the limit" `Quick
            test_batch_chunking;
          Alcotest.test_case "default server admits 65 and 200 requests" `Quick
            test_default_server_admits_large_submissions;
          Alcotest.test_case "over-limit batch refused" `Quick test_oversized_batch_rejected;
          Alcotest.test_case "negative oid answers in its own slot" `Quick
            test_negative_oid_in_batch;
        ] );
      ( "lease",
        [
          Alcotest.test_case "cache hit, wire silence, invalidation" `Quick
            test_lease_cache_hit_and_invalidate;
          Alcotest.test_case "expired lease never served" `Quick
            test_lease_expiry_never_served;
          Alcotest.test_case "synced cache hit still sends its barrier" `Quick
            test_synced_hit_still_barriers;
          Alcotest.test_case "zero lease term caches nothing" `Quick
            test_no_lease_term_no_cache;
          Alcotest.test_case "cache never crosses credentials" `Quick
            test_cache_never_crosses_credentials;
          Alcotest.test_case "mutation waits out peer lease" `Quick
            test_mutation_waits_out_peer_lease;
          Alcotest.test_case "own lease never stalls holder" `Quick
            test_own_lease_never_stalls_holder;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "rpc over sockets" `Quick test_tcp_rpc;
          Alcotest.test_case "garbage gets protocol error; service continues" `Quick
            test_tcp_garbage_then_service;
          Alcotest.test_case "graceful shutdown refuses new work" `Quick
            test_tcp_shutdown_refuses_new_work;
        ] );
    ]
