module Bcodec = S4_util.Bcodec
module Simclock = S4_util.Simclock
module Sim_disk = S4_disk.Sim_disk
module Fault = S4_disk.Fault
module Log = S4_seglog.Log
module Store = S4_store.Obj_store
module Cleaner = S4_store.Cleaner
module Trace = S4_obs.Trace

type config = {
  store : Store.config;
  window : int64;
  audit_enabled : bool;
  throttle : Throttle.config option;
  history_reserve : float;
  cleaner_live_threshold : float;
  cleaner_max_segments : int;
  cpu_us_per_rpc : float;
  io_retry_limit : int;
  io_retry_backoff_ms : float;
}

let day_ns = Int64.mul 86_400L 1_000_000_000L

let default_config =
  {
    store = Store.default_config;
    window = Int64.mul 7L day_ns;
    audit_enabled = true;
    throttle = Some Throttle.default_config;
    history_reserve = 0.5;
    cleaner_live_threshold = 0.75;
    cleaner_max_segments = 8;
    cpu_us_per_rpc = 550.0;
    io_retry_limit = 3;
    io_retry_backoff_ms = 1.0;
  }

type t = {
  cfg : config;
  log : Log.t;
  store : Store.t;
  audit : Audit.t;
  cleaner : Cleaner.t;
  throttle : Throttle.t option;
  mutable ptable_oid : int64;
  mutable ops : int;
  mutable last_clean_at : int64;
  mutable last_clean_busy : int64;
  mutable io_errors : int;  (* RPCs failed on a permanent media fault *)
  mutable audit_drops : int;  (* audit flushes failed on media faults *)
  mutable anchor_error : string option;  (* device anchor off the recovered chain *)
}

let clock t = Store.clock t.store
let store t = t.store
let ptable_oid t = t.ptable_oid
let log t = t.log
let audit t = t.audit
let cleaner t = t.cleaner
let throttle t = t.throttle
let window t = Cleaner.window t.cleaner
let ops_handled t = t.ops
let now t = Simclock.now (clock t)
let io_errors t = t.io_errors
let audit_drops t = t.audit_drops

let degraded t = t.io_errors > 0 || t.audit_drops > 0 || Option.is_some t.anchor_error

let detection_cutoff t =
  let c = Int64.sub (now t) (window t) in
  if Int64.compare c 0L < 0 then 0L else c

(* ------------------------------------------------------------------ *)
(* Superblock                                                          *)

let superblock_magic = 0x5342_3453 (* "S4SB" *)

(* Version 4: every audit body is the trailing section of a journal
   block; the log has no audit block of its own. *)
let superblock_version = 4

let write_superblock t =
  let w = Bcodec.writer () in
  Bcodec.w_u32 w superblock_magic;
  Bcodec.w_u8 w superblock_version;
  Bcodec.w_i64 w t.ptable_oid;
  Bcodec.w_i64 w (window t);
  Log.write_superblock t.log (Bcodec.contents w)

let read_superblock log =
  let b = Log.read_superblock log in
  let r = Bcodec.reader b in
  if Bcodec.r_u32 r <> superblock_magic then None
  else begin
    let version = Bcodec.r_u8 r in
    let ptable_oid = Bcodec.r_i64 r in
    let window = Bcodec.r_i64 r in
    Some (version, ptable_oid, window)
  end

(* ------------------------------------------------------------------ *)
(* Partition (named object) table — itself a versioned object.        *)

let encode_ptable entries =
  let w = Bcodec.writer () in
  Bcodec.w_int w (List.length entries);
  List.iter
    (fun (name, oid) ->
      Bcodec.w_string w name;
      Bcodec.w_i64 w oid)
    entries;
  Bcodec.contents w

let decode_ptable b =
  if Bytes.length b = 0 then []
  else begin
    let r = Bcodec.reader b in
    let n = Bcodec.r_int r in
    List.init n (fun _ ->
        let name = Bcodec.r_string r in
        let oid = Bcodec.r_i64 r in
        (name, oid))
  end

let read_ptable t ?at () =
  let size = Store.size t.store ?at t.ptable_oid in
  if size = 0 then []
  else decode_ptable (Store.read t.store ?at t.ptable_oid ~off:0 ~len:size)

let write_ptable t entries =
  let data = encode_ptable entries in
  let len = Bytes.length data in
  Store.write t.store t.ptable_oid ~off:0 ~data ~len ();
  if Store.size t.store t.ptable_oid > len then Store.truncate t.store t.ptable_oid ~size:len

(* Silent name-table access for array-internal objects (the shard
   router's integrity catalog): no audit record, no RPC cpu charge. *)
let named_oid t name = List.assoc_opt name (read_ptable t ())

let register_name t name oid =
  let entries = read_ptable t () in
  if List.mem_assoc name entries then
    invalid_arg (Printf.sprintf "Drive.register_name: %s exists" name);
  write_ptable t ((name, oid) :: entries)

(* A fail-closed event no request caused, on the audit trail. *)
let record_event t ~op ~info =
  Audit.append t.audit { Audit.at = now t; user = 0; client = 0; op; oid = 0L; info; ok = false }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let build cfg log store ~ptable_oid =
  let cleaner =
    Cleaner.create ~window:cfg.window ~live_threshold:cfg.cleaner_live_threshold
      ~max_segments_per_run:cfg.cleaner_max_segments store
  in
  let audit = Audit.create ~enabled:cfg.audit_enabled store in
  Cleaner.set_on_audit_move cleaner (fun old_addr new_addr -> Audit.on_move audit ~old_addr ~new_addr);
  let throttle = Option.map (fun tc -> Throttle.create ~config:tc (Log.clock log)) cfg.throttle in
  Log.set_io_retry log ~limit:cfg.io_retry_limit ~backoff_ms:cfg.io_retry_backoff_ms;
  (* Every device-level sync snapshots the sealed chain head into the
     disk's own header — a second, device-held trust anchor an attacker
     rewriting the log cannot update without also forging SHA-256. A
     device sync forces what is appended, so the anchor is the newest
     appended seal, never a tail still waiting for its block. *)
  Sim_disk.set_head_provider (Log.disk log) (fun () ->
      if Audit.enabled audit then Some (Audit.appended_head audit) else None);
  {
    cfg;
    log;
    store;
    audit;
    cleaner;
    throttle;
    ptable_oid;
    ops = 0;
    last_clean_at = 0L;
    last_clean_busy = 0L;
    io_errors = 0;
    audit_drops = 0;
    anchor_error = None;
  }

let format ?(config = default_config) disk =
  let log = Log.create disk in
  let store = Store.create ~config:config.store log in
  let ptable_oid = Store.create_object store in
  Store.keep_content store ptable_oid;
  Store.set_acl_raw store ptable_oid (Acl.encode (Acl.default ~owner:0));
  let t = build config log store ~ptable_oid in
  write_superblock t;
  Store.sync store;
  t

let attach ?(config = default_config) disk =
  let log = Log.reattach disk in
  let ptable_oid, window =
    match read_superblock log with
    | Some (v, oid, w) when v = superblock_version -> (oid, w)
    | Some (v, _, _) ->
      invalid_arg
        (Printf.sprintf "Drive.attach: on-disk format version %d, this build reads version %d" v
           superblock_version)
    | None -> invalid_arg "Drive.attach: no valid superblock"
  in
  let store = Store.recover ~config:config.store log in
  Store.keep_content store ptable_oid;
  let t = build { config with window } log store ~ptable_oid in
  Audit.recover t.audit;
  (* Cross-check the device-held anchor: the head recorded in the disk
     header at the last successful sync must still lie on the recovered
     chain. A recovered chain *newer* than the anchor is ordinary crash
     state; an anchor the chain cannot reproduce means the log was
     rewound or rewritten behind the device's back. That fails closed:
     the drive serves degraded, [fsck] names the anchor, the event goes
     on the trail, and nothing is reset. *)
  (match Sim_disk.saved_head (Log.disk log) with
   | None -> ()
   | Some h ->
     let r = Audit.verify ~from:h ~lenient_tail:true t.audit in
     if not (S4_integrity.Chain.clean r) then begin
       let msg =
         Format.asprintf "device anchor (epoch %d, %d records) is not on the recovered audit chain: %a"
           h.S4_integrity.Chain.epoch h.S4_integrity.Chain.records S4_integrity.Chain.pp_result r
       in
       Logs.warn (fun m -> m "attach: %s" msg);
       t.anchor_error <- Some msg;
       record_event t ~op:"attach"
         ~info:(Printf.sprintf "device anchor off chain (epoch %d, %d records)" h.epoch h.records)
     end);
  t

(* ------------------------------------------------------------------ *)
(* Pool pressure / throttling                                          *)

let history_budget_blocks t =
  int_of_float (t.cfg.history_reserve *. float_of_int (Log.usable_blocks t.log))

let pool_pressure t =
  let budget = max 1 (history_budget_blocks t) in
  let history = Store.history_block_count t.store in
  min 1.0 (float_of_int history /. float_of_int budget)

let refresh_pressure t =
  match t.throttle with
  | Some th -> Throttle.set_pool_pressure th (pool_pressure t)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Request processing                                                  *)

exception Denied

let current_acl t oid = Acl.decode (Store.current_acl_raw t.store oid)

let require t (cred : Rpc.credential) oid perm =
  if not cred.Rpc.admin then begin
    let acl = current_acl t oid in
    if not (Acl.allows acl ~user:cred.Rpc.user ~client:cred.Rpc.client perm) then raise Denied
  end

(* Reading a version from the history pool once it has been superseded
   or deleted additionally requires the Recovery flag (or admin). *)
let require_history t (cred : Rpc.credential) oid =
  if not cred.Rpc.admin then begin
    let acl = current_acl t oid in
    if not (Acl.allows_recovery acl ~user:cred.Rpc.user ~client:cred.Rpc.client) then raise Denied
  end

let note_growth t (cred : Rpc.credential) bytes =
  match t.throttle with
  | Some th -> Throttle.note_write th ~client:cred.Rpc.client ~bytes
  | None -> ()

(* The audit trail shares the durability barrier: records buffered up
   to this point must survive a crash once the sync returns. They are
   sealed into a tail that rides in the store's last journal block, so
   the barrier writes one metadata block, journal entries, records and
   seal together. *)
let sync t = Store.sync ?tail:(Audit.seal t.audit) t.store

let exec t (cred : Rpc.credential) (req : Rpc.req) : Rpc.resp =
  let st = t.store in
  match req with
  | Rpc.Create { acl } ->
    let oid = Store.create_object st in
    let acl = if acl = [] then Acl.default ~owner:cred.Rpc.user else acl in
    Store.set_acl_raw st oid (Acl.encode acl);
    note_growth t cred 256;
    Rpc.R_oid oid
  | Rpc.Delete { oid } ->
    require t cred oid Acl.Delete;
    Store.delete_object st oid;
    note_growth t cred 256;
    Rpc.R_unit
  | Rpc.Read { oid; off; len; at } ->
    require t cred oid Acl.Read;
    (match at with None -> () | Some _ -> require_history t cred oid);
    Rpc.R_data (Store.read st ?at oid ~off ~len)
  | Rpc.Write { oid; off; len; data } ->
    require t cred oid Acl.Write;
    Store.write st oid ~off ?data ~len ();
    note_growth t cred len;
    Rpc.R_unit
  | Rpc.Append { oid; len; data } ->
    require t cred oid Acl.Write;
    Store.append st oid ?data ~len ();
    note_growth t cred len;
    Rpc.R_unit
  | Rpc.Truncate { oid; size } ->
    require t cred oid Acl.Write;
    Store.truncate st oid ~size;
    note_growth t cred 256;
    Rpc.R_unit
  | Rpc.Get_attr { oid; at } ->
    require t cred oid Acl.Read;
    (match at with None -> () | Some _ -> require_history t cred oid);
    Rpc.R_attr (Store.get_attr st ?at oid)
  | Rpc.Set_attr { oid; attr } ->
    require t cred oid Acl.Set_attr;
    Store.set_attr st oid attr;
    note_growth t cred (Bytes.length attr);
    Rpc.R_unit
  | Rpc.Get_acl_by_user { oid; acl_user; at } ->
    require t cred oid Acl.Read;
    (match at with None -> () | Some _ -> require_history t cred oid);
    let acl = Acl.decode (Store.get_acl_raw st ?at oid) in
    (match Acl.find_by_user acl ~user:acl_user with
     | Some e -> Rpc.R_acl e
     | None -> Rpc.R_error Rpc.Not_found)
  | Rpc.Get_acl_by_index { oid; index; at } ->
    require t cred oid Acl.Read;
    (match at with None -> () | Some _ -> require_history t cred oid);
    let acl = Acl.decode (Store.get_acl_raw st ?at oid) in
    (match Acl.nth acl index with
     | Some e -> Rpc.R_acl e
     | None -> Rpc.R_error Rpc.Not_found)
  | Rpc.Set_acl { oid; index; entry } ->
    require t cred oid Acl.Set_acl;
    let acl = current_acl t oid in
    Store.set_acl_raw st oid (Acl.encode (Acl.set_nth acl index entry));
    note_growth t cred 64;
    Rpc.R_unit
  | Rpc.P_create { name; oid } ->
    let entries = read_ptable t () in
    if List.mem_assoc name entries then Rpc.R_error (Rpc.Bad_request "partition exists")
    else begin
      write_ptable t ((name, oid) :: entries);
      note_growth t cred (String.length name + 16);
      Rpc.R_unit
    end
  | Rpc.P_delete { name } ->
    let entries = read_ptable t () in
    if not (List.mem_assoc name entries) then Rpc.R_error Rpc.Not_found
    else begin
      write_ptable t (List.remove_assoc name entries);
      Rpc.R_unit
    end
  | Rpc.P_list { at } ->
    (match at with None -> () | Some _ -> if not cred.Rpc.admin then raise Denied);
    Rpc.R_names (List.map fst (read_ptable t ?at ()))
  | Rpc.P_mount { name; at } ->
    (match at with None -> () | Some _ -> if not cred.Rpc.admin then raise Denied);
    (match List.assoc_opt name (read_ptable t ?at ()) with
     | Some oid -> Rpc.R_oid oid
     | None -> Rpc.R_error Rpc.Not_found)
  | Rpc.Sync ->
    sync t;
    Rpc.R_unit
  | Rpc.Flush { until } ->
    if not cred.Rpc.admin then raise Denied;
    let until = min until (now t) in
    Store.expire st ~cutoff:until;
    ignore (Audit.expire t.audit ~cutoff:until);
    ignore (Log.reclaim_dead_segments t.log);
    Rpc.R_unit
  | Rpc.Flush_object { oid; until } ->
    if not cred.Rpc.admin then raise Denied;
    let until = min until (now t) in
    Store.expire_one st oid ~cutoff:until;
    ignore (Log.reclaim_dead_segments t.log);
    Rpc.R_unit
  | Rpc.Set_window { window } ->
    if not cred.Rpc.admin then raise Denied;
    Cleaner.set_window t.cleaner window;
    write_superblock t;
    Rpc.R_unit
  | Rpc.Read_audit { since; until } ->
    if not cred.Rpc.admin then raise Denied;
    Rpc.R_audit (Audit.records t.audit ~since ~until ())
  | Rpc.Verify_log { from } ->
    if not cred.Rpc.admin then raise Denied;
    Rpc.R_verify (Audit.verify ?from t.audit)

(* A permanent (or retry-exhausted) media fault, as the error the
   caller sees. *)
let io_error t lba transient kind =
  t.io_errors <- t.io_errors + 1;
  Rpc.Io_error
    (Printf.sprintf "%s fault at lba %d%s" kind lba
       (if transient then " (retries exhausted)" else ""))

let disk_busy_ns t =
  let disk = Log.disk t.log in
  Int64.add (Sim_disk.stats disk).Sim_disk.busy_ns (Sim_disk.phantom_ns disk)

(* The drive's span fields beyond the RPC-level ones: the time-travel
   target, the detection cutoff at entry, and the faults, retries and
   device time the request caused. *)
let probe =
  {
    Trace.clock;
    opened =
      (fun tok t _ req ->
        Rpc.trace_request tok req;
        (match req with
         | Rpc.Read { at = Some at; _ } | Rpc.Get_attr { at = Some at; _ }
         | Rpc.Get_acl_by_user { at = Some at; _ } | Rpc.Get_acl_by_index { at = Some at; _ } ->
           Trace.set_at tok at
         | _ -> ());
        Trace.set_cutoff tok (detection_cutoff t);
        (t.io_errors, (Log.stats t.log).Log.io_retries, disk_busy_ns t));
    closed =
      (fun tok t _ req (f0, r0, dev0) resp ->
        Rpc.trace_response tok req resp;
        Trace.add_faults tok (t.io_errors - f0);
        Trace.add_retries tok ((Log.stats t.log).Log.io_retries - r0);
        Trace.set_disk_ns tok (Int64.sub (disk_busy_ns t) dev0));
  }

let handle t cred req =
  Trace.span Trace.Drive probe ~kind:(Rpc.op_name req)
    (fun t (cred : Rpc.credential) req ->
      t.ops <- t.ops + 1;
      Simclock.advance (clock t) (Simclock.of_us t.cfg.cpu_us_per_rpc);
      (* DoS defence: penalise clients abusing the history pool. *)
      (match t.throttle with
       | Some th ->
         let p = Throttle.penalty th ~client:cred.Rpc.client in
         if Int64.compare p 0L > 0 then Simclock.advance (clock t) p
       | None -> ());
      (* Transient faults are retried inside the log (Log.set_io_retry);
         what reaches this perimeter is permanent (or out of retries)
         and is surfaced as a clean R_error. Fault.Crashed is
         deliberately NOT caught: a crashed device has no valid
         in-memory state left, so the owner must discard this drive
         and reattach. *)
      let oid = Rpc.target_oid req in
      let resp =
        if Int64.compare oid 0L < 0 then Rpc.R_error (Rpc.Bad_request "negative oid")
        else
          try exec t cred req with
          | Denied -> Rpc.R_error Rpc.Permission_denied
          | Store.No_such_object _ -> Rpc.R_error Rpc.Not_found
          | Store.Is_deleted _ -> Rpc.R_error Rpc.Object_deleted
          | Log.Log_full -> Rpc.R_error Rpc.No_space
          | Invalid_argument m -> Rpc.R_error (Rpc.Bad_request m)
          | Fault.Read_fault { lba; transient } -> Rpc.R_error (io_error t lba transient "read")
          | Fault.Write_fault { lba; transient } -> Rpc.R_error (io_error t lba transient "write")
      in
      let ok = match resp with Rpc.R_error _ -> false | _ -> true in
      (* Persisting the audit trail must not take the whole drive
         down, and the request's own answer stands. A record whose
         flush fails stays buffered for the next one: a full log is
         answered at the barrier ([No_space]), and a media fault is
         counted and served degraded. A negative oid is recorded as
         naming no object; the request's own rendering in [info] still
         shows it. *)
      (try
         Audit.append t.audit
           {
             Audit.at = now t;
             user = cred.Rpc.user;
             client = cred.Rpc.client;
             op = Rpc.op_name req;
             oid = (if Int64.compare oid 0L < 0 then 0L else oid);
             info = Rpc.op_info req;
             ok;
           }
       with
       | Log.Log_full -> ()
       | Fault.Read_fault _ | Fault.Write_fault _ -> t.audit_drops <- t.audit_drops + 1);
      if t.ops land 1023 = 0 then refresh_pressure t;
      resp)
    t cred req

let barrier t =
  (* The durability barrier a batch pays once, after its last request
     (group commit): audit records buffered so far must survive a
     crash once the barrier returns (the audit-at-Sync invariant),
     then the store itself is made stable. A media fault or a full log
     here means the caller must not be told its mutations are durable;
     a full log answers [No_space], as an explicit [Sync] does. *)
  try
    sync t;
    None
  with
  | Log.Log_full -> Some Rpc.No_space
  | Fault.Read_fault { lba; transient } -> Some (io_error t lba transient "sync read")
  | Fault.Write_fault { lba; transient } -> Some (io_error t lba transient "sync write")

let submit t (cred : Rpc.credential) ?(sync = false) reqs =
  (* The vectored entry point: every request runs with full
     per-request semantics (throttle, ACL, audit record, trace span),
     in array order; the durability barrier is paid once, after the
     last request (group commit, see [Backend.group_commit]). *)
  Backend.group_commit ~sync barrier t (Array.map (fun req -> handle t cred req) reqs)

let capacity t =
  let log = t.log in
  let block = Log.block_size log in
  (Log.usable_blocks log * block, (Log.usable_blocks log - Log.live_blocks log) * block)

let backend t =
  Backend.make ~clock:(clock t)
    ~keep_data:t.cfg.store.Store.keep_data
    ~capacity:(fun () -> capacity t)
    (submit t)

let run_cleaner t =
  (* Idle disk time accumulated since the last cleaner run: available
     to an overlapped (background) cleaner for free. *)
  let disk = Log.disk t.log in
  let busy = (Sim_disk.stats disk).Sim_disk.busy_ns in
  let elapsed = Int64.sub (now t) t.last_clean_at in
  let busy_delta = Int64.sub busy t.last_clean_busy in
  let idle_ns =
    let i = Int64.sub elapsed busy_delta in
    if Int64.compare i 0L > 0 then i else 0L
  in
  let report = Cleaner.run ~idle_ns t.cleaner in
  t.last_clean_at <- now t;
  t.last_clean_busy <- (Sim_disk.stats disk).Sim_disk.busy_ns;
  ignore (Audit.expire t.audit ~cutoff:(Cleaner.cutoff t.cleaner));
  ignore (Log.reclaim_dead_segments t.log);
  refresh_pressure t;
  report

let fsck t =
  Option.to_list t.anchor_error @ Store.check ~extra_live:(Audit.block_addrs t.audit) t.store

let pp_stats ppf t =
  Format.fprintf ppf
    "drive: %d ops, window %.1f days, pressure %.2f, audit %d records%s@.%a@.%a"
    t.ops
    (Int64.to_float (window t) /. Int64.to_float day_ns)
    (pool_pressure t) (Audit.record_count t.audit)
    (if degraded t then
       Printf.sprintf " [DEGRADED: %d io errors, %d audit drops%s]" t.io_errors t.audit_drops
         (if Option.is_some t.anchor_error then ", device anchor off chain" else "")
     else "")
    Store.pp_stats t.store Log.pp_stats t.log
