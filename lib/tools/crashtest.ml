module Rng = S4_util.Rng
module Simclock = S4_util.Simclock
module Bcodec = S4_util.Bcodec
module Chain = S4_integrity.Chain
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Fault = S4_disk.Fault
module Log = S4_seglog.Log
module Store = S4_store.Obj_store
module Drive = S4.Drive
module Rpc = S4.Rpc
module Audit = S4.Audit
module Mirror = S4_multi.Mirror
module Router = S4_shard.Router
module Trace = S4_obs.Trace
module Check = S4_obs.Check

type report = {
  seed : int;
  crash_after : int;
  crashed : bool;
  ops_before_crash : int;
  snapshots : int;
  audit_checked : int;
  violations : string list;
}

let cred = Rpc.admin_cred
let geom = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(16 * 1024 * 1024)
let default_ops = 80

(* ------------------------------------------------------------------ *)
(* Oracle: an independent model of what the store should hold.        *)

type oobj = { mutable contents : Bytes.t; mutable attr : Bytes.t; mutable alive : bool }

type snapshot = {
  at : int64;  (* sync completion time; versions here must survive *)
  live : (int64 * Bytes.t * Bytes.t) list;  (* oid, contents, attr *)
  dead : int64 list;
}

type audit_entry = { a_op : string; a_oid : int64; a_ok : bool }

type oracle = {
  objects : (int64, oobj) Hashtbl.t;
  mutable order : int64 list;  (* creation order, newest first *)
  mutable audit_log : audit_entry list;  (* newest first *)
  mutable snaps : snapshot list;  (* newest first *)
}

let fresh_oracle () =
  { objects = Hashtbl.create 64; order = []; audit_log = []; snaps = [] }

let live_oids o =
  List.rev o.order |> List.filter (fun oid -> (Hashtbl.find o.objects oid).alive)

let zero_extend b n =
  if Bytes.length b >= n then b
  else begin
    let out = Bytes.make n '\000' in
    Bytes.blit b 0 out 0 (Bytes.length b);
    out
  end

let oid_of : Rpc.req -> int64 = function
  | Rpc.Delete { oid }
  | Rpc.Read { oid; _ }
  | Rpc.Write { oid; _ }
  | Rpc.Append { oid; _ }
  | Rpc.Truncate { oid; _ }
  | Rpc.Get_attr { oid; _ }
  | Rpc.Set_attr { oid; _ } ->
    oid
  | _ -> 0L

(* Mirror the store's mutation semantics for the ops the workload
   issues. Only called when the drive accepted the request. *)
let o_apply o req resp =
  let find oid = Hashtbl.find o.objects oid in
  match (req, resp) with
  | Rpc.Create _, Rpc.R_oid oid ->
    Hashtbl.replace o.objects oid { contents = Bytes.empty; attr = Bytes.empty; alive = true };
    o.order <- oid :: o.order
  | Rpc.Delete { oid }, Rpc.R_unit -> (find oid).alive <- false
  | Rpc.Write { oid; off; len; data }, Rpc.R_unit ->
    let ob = find oid in
    let data = match data with Some d -> d | None -> Bytes.make len '\000' in
    let b = zero_extend ob.contents (off + len) in
    Bytes.blit data 0 b off len;
    ob.contents <- b
  | Rpc.Append { oid; len; data }, Rpc.R_unit ->
    let ob = find oid in
    let data = match data with Some d -> d | None -> Bytes.make len '\000' in
    ob.contents <- Bytes.cat ob.contents data
  | Rpc.Truncate { oid; size }, Rpc.R_unit ->
    let ob = find oid in
    ob.contents <-
      (if size <= Bytes.length ob.contents then Bytes.sub ob.contents 0 size
       else zero_extend ob.contents size)
  | Rpc.Set_attr { oid; attr }, Rpc.R_unit -> (find oid).attr <- Bytes.copy attr
  | _ -> ()

let expected_read ob ~off ~len =
  let size = Bytes.length ob.contents in
  if off >= size || len = 0 then Bytes.empty else Bytes.sub ob.contents off (min len (size - off))

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)

let gen_req o rng i =
  if i land 7 = 7 then Rpc.Sync
  else begin
    let live = live_oids o in
    if live = [] then Rpc.Create { acl = [] }
    else begin
      let oid = List.nth live (Rng.int rng (List.length live)) in
      let size = Bytes.length (Hashtbl.find o.objects oid).contents in
      let r = Rng.int rng 100 in
      if r < 30 then begin
        let off = Rng.int rng (size + 256) in
        let len = 1 + Rng.int rng 1024 in
        Rpc.Write { oid; off; len; data = Some (Rng.bytes rng len) }
      end
      else if r < 55 then begin
        let len = 1 + Rng.int rng 512 in
        Rpc.Append { oid; len; data = Some (Rng.bytes rng len) }
      end
      else if r < 65 then Rpc.Truncate { oid; size = Rng.int rng (size + 1) }
      else if r < 73 then Rpc.Set_attr { oid; attr = Rng.bytes rng (1 + Rng.int rng 32) }
      else if r < 80 then Rpc.Create { acl = [] }
      else if r < 85 && List.length live > 2 then Rpc.Delete { oid }
      else if r < 93 then begin
        let off = Rng.int rng (size + 1) in
        Rpc.Read { oid; off; len = 1 + Rng.int rng (size + 16); at = None }
      end
      else Rpc.Sync
    end
  end

(* Run the seeded workload until it completes or the disk crashes.
   Returns (completed ops, crashed, in-flight violations). [backend]
   is any producer of the uniform vectored surface: a bare drive or a
   shard router. *)
let exec_workload ~ops ~seed ~(backend : S4.Backend.t) o =
  let clock = backend.S4.Backend.clock in
  let handle req = S4.Backend.handle backend cred req in
  let rng = Rng.create ~seed in
  let completed = ref 0 in
  let violations = ref [] in
  let crashed = ref false in
  (try
     for i = 0 to ops - 1 do
       let req = gen_req o rng i in
       let resp = handle req in
       incr completed;
       let ok = match resp with Rpc.R_error _ -> false | _ -> true in
       o.audit_log <- { a_op = Rpc.op_name req; a_oid = oid_of req; a_ok = ok } :: o.audit_log;
       (match (req, resp) with
        | Rpc.Read { oid; off; len; at = None }, Rpc.R_data b ->
          let ob = Hashtbl.find o.objects oid in
          if not (Bytes.equal b (expected_read ob ~off ~len)) then
            violations := Printf.sprintf "pre-crash read mismatch on oid %Ld" oid :: !violations
        | _ -> ());
       if ok then o_apply o req resp;
       (match (req, resp) with
        | Rpc.Sync, Rpc.R_unit ->
          let live =
            List.map
              (fun oid ->
                let ob = Hashtbl.find o.objects oid in
                (oid, Bytes.copy ob.contents, Bytes.copy ob.attr))
              (live_oids o)
          in
          let dead =
            List.rev o.order
            |> List.filter (fun oid -> not (Hashtbl.find o.objects oid).alive)
          in
          o.snaps <- { at = Simclock.now clock; live; dead } :: o.snaps
        | _ -> ())
     done
   with Fault.Crashed -> crashed := true);
  (!completed, !crashed, List.rev !violations)

(* ------------------------------------------------------------------ *)
(* Post-crash verification                                             *)

let resp_str r = Format.asprintf "%a" Rpc.pp_resp r

(* The recovered drive must keep serving: create, write, sync, read
   back. [adds] receives one message per broken step. With [log_full]
   (the recovered log had no free segment) a [No_space] refusal is a
   full log guarding its window, not a recovery fault. *)
let service_check ?(log_full = false) adds t2 =
  let refused what = function
    | Rpc.R_error Rpc.No_space when log_full -> ()
    | r -> adds (what ^ resp_str r)
  in
  match Drive.handle t2 cred (Rpc.Create { acl = [] }) with
  | Rpc.R_oid oid -> (
    let data = Bytes.of_string "post-recovery write" in
    let len = Bytes.length data in
    match Drive.handle t2 cred (Rpc.Write { oid; off = 0; len; data = Some data }) with
    | Rpc.R_unit -> (
      match Drive.handle t2 cred Rpc.Sync with
      | Rpc.R_unit -> (
        match Drive.handle t2 cred (Rpc.Read { oid; off = 0; len; at = None }) with
        | Rpc.R_data b when Bytes.equal b data -> ()
        | r -> adds ("post-recovery read: " ^ resp_str r))
      | r -> refused "post-recovery sync: " r)
    | r -> refused "post-recovery write: " r)
  | r -> refused "post-recovery create: " r

(* Reattach the surviving disk contents and check every invariant.
   Returns (snapshots checked, audit records matched, violations).
   [lenient_audit_tail] permits recovered records beyond the acked
   ops: a kill -9 run may have handled (and flushed) requests whose
   acks never reached the client — the audit rightly records them. *)
let verify ?(lenient_audit_tail = false) ~disk o =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  match (try Ok (Drive.attach disk) with e -> Error e) with
  | Error e ->
    add "attach raised %s" (Printexc.to_string e);
    (0, 0, List.rev !violations)
  | Ok t2 ->
    (* Capture the recovered audit trail first: the verification reads
       below are themselves audited and would pollute it. *)
    let recovered_audit = Audit.records (Drive.audit t2) () in
    List.iter (fun m -> add "fsck: %s" m) (Drive.fsck t2);
    (* The recovered hash chain must show truncation at worst, never
       tampering: a crash can tear or lose the blocks of the final
       flush, seal included (hence lenient), but every record that
       survives must walk. *)
    List.iter
      (fun e -> add "%s" e)
      (Audit.verify ~lenient_tail:true (Drive.audit t2)).Chain.v_errors;
    let st = Drive.store t2 in
    (* Window survival: every synced version is still readable with a
       time-based read at its sync time. *)
    List.iter
      (fun s ->
        List.iter
          (fun (oid, contents, attr) ->
            let size = Bytes.length contents in
            (match (try Ok (Store.size st ~at:s.at oid) with e -> Error e) with
             | Error e ->
               add "snapshot@%Ld: oid %Ld lost (%s)" s.at oid (Printexc.to_string e)
             | Ok sz when sz <> size ->
               add "snapshot@%Ld: oid %Ld size %d, expected %d" s.at oid sz size
             | Ok _ ->
               (match
                  Drive.handle t2 cred (Rpc.Read { oid; off = 0; len = max size 1; at = Some s.at })
                with
                | Rpc.R_data b ->
                  if not (Bytes.equal b contents) then
                    add "snapshot@%Ld: oid %Ld contents differ" s.at oid
                | r -> add "snapshot@%Ld: read oid %Ld: %s" s.at oid (resp_str r));
               (match Drive.handle t2 cred (Rpc.Get_attr { oid; at = Some s.at }) with
                | Rpc.R_attr b ->
                  if not (Bytes.equal b attr) then
                    add "snapshot@%Ld: oid %Ld attr differs" s.at oid
                | r -> add "snapshot@%Ld: attr oid %Ld: %s" s.at oid (resp_str r))))
          s.live;
        List.iter
          (fun oid ->
            if Store.exists st ~at:s.at oid then
              add "snapshot@%Ld: oid %Ld should be deleted" s.at oid)
          s.dead)
      o.snaps;
    (* Audit continuity: the recovered trail is a contiguous prefix of
       the handled requests — a crash may lose the buffered tail,
       never a middle record. *)
    let recovered = recovered_audit in
    let expected = List.rev o.audit_log in
    let matched = ref 0 in
    let rec go rs es =
      match (rs, es) with
      | [], _ -> ()
      | r :: rs', e :: es' ->
        if r.Audit.op = e.a_op && Int64.equal r.Audit.oid e.a_oid && r.Audit.ok = e.a_ok then begin
          incr matched;
          go rs' es'
        end
        else
          add "audit record %d: got %s/%Ld/%b, expected %s/%Ld/%b" !matched r.Audit.op
            r.Audit.oid r.Audit.ok e.a_op e.a_oid e.a_ok
      | _ :: _, [] ->
        if not lenient_audit_tail then
          add "audit trail has %d records beyond the ops handled" (List.length rs)
    in
    go recovered expected;
    service_check (fun s -> add "%s" s) t2;
    (List.length o.snaps, !matched, List.rev !violations)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let build () =
  let clock = Simclock.create () in
  let disk = Sim_disk.create ~geometry:geom clock in
  (disk, Drive.format disk)

let drive_workload ~ops ~seed ~drive o =
  exec_workload ~ops ~seed ~backend:(Drive.backend drive) o

let workload_writes ?(ops = default_ops) ~seed () =
  let disk, drive = build () in
  let base = (Sim_disk.stats disk).Sim_disk.writes in
  ignore (drive_workload ~ops ~seed ~drive (fresh_oracle ()));
  (Sim_disk.stats disk).Sim_disk.writes - base

(* When the caller has enabled tracing, every run doubles as a trace-
   checker scenario: whatever spans the workload (and the post-crash
   verification reads) produced must satisfy the whole-run invariants. *)
let trace_violations () =
  if not (Trace.on ()) then []
  else
    let r = Check.run (Trace.spans ()) in
    List.map (fun v -> "trace: " ^ v) r.Check.violations

let run ?(ops = default_ops) ~seed ~crash_after () =
  if Trace.on () then Trace.clear ();
  let disk, drive = build () in
  let o = fresh_oracle () in
  let policy = Fault.create (Rng.create ~seed:((seed * 7919) + 17)) in
  Sim_disk.set_fault disk (Some policy);
  if crash_after > 0 then Fault.schedule_crash policy ~after_writes:crash_after;
  let completed, crashed, wviol = drive_workload ~ops ~seed ~drive o in
  Sim_disk.set_fault disk None;
  let snapshots, audit_checked, rviol =
    if crashed then verify ~disk o else (List.length o.snaps, 0, [])
  in
  {
    seed;
    crash_after;
    crashed;
    ops_before_crash = completed;
    snapshots;
    audit_checked;
    violations = wviol @ rviol @ trace_violations ();
  }

let boundary_sweep ?(ops = default_ops) ~seed () =
  let span = workload_writes ~ops ~seed () in
  List.init span (fun i -> run ~ops ~seed ~crash_after:(i + 1) ())

let sweep ?(ops = default_ops) ~seed ~runs () =
  let rng = Rng.create ~seed in
  List.init runs (fun i ->
      let wseed = seed + (i * 101) + 1 in
      let span = max 1 (workload_writes ~ops ~seed:wseed ()) in
      let crash_after = 1 + Rng.int rng span in
      run ~ops ~seed:wseed ~crash_after ())

(* ------------------------------------------------------------------ *)
(* Sharded array: crash mid-rebalance                                  *)

(* Run the seeded workload over a 2-shard array, add a third drive to
   the live array, and crash the whole array partway through the
   migration (the crash point counts the new drive's disk writes).
   Reattach every drive individually, reassemble with [Router.attach]
   and verify the detection-window guarantee survived the interrupted
   membership change. *)
let array_scenario ~ops ~seed ~crash_after =
  let clock = Simclock.create () in
  let mkdisk () = Sim_disk.create ~geometry:geom clock in
  let d0 = mkdisk () and d1 = mkdisk () and d2 = mkdisk () in
  let router =
    Router.create [ (0, Router.Single (Drive.format d0)); (1, Router.Single (Drive.format d1)) ]
  in
  let o = fresh_oracle () in
  let completed, _, wviol = exec_workload ~ops ~seed ~backend:(Router.backend router) o in
  ignore (Router.add_shard router 2 (Router.Single (Drive.format d2)));
  let policy = Fault.create (Rng.create ~seed:((seed * 31) + 5)) in
  Sim_disk.set_fault d2 (Some policy);
  if crash_after > 0 then Fault.schedule_crash policy ~after_writes:crash_after;
  let crashed = ref false in
  (try ignore (Router.rebalance router) with Fault.Crashed -> crashed := true);
  Sim_disk.set_fault d2 None;
  ((d0, d1, d2), o, completed, !crashed, wviol)

let rebalance_writes ?(ops = default_ops) ~seed () =
  let clock = Simclock.create () in
  let mkdisk () = Sim_disk.create ~geometry:geom clock in
  let d0 = mkdisk () and d1 = mkdisk () and d2 = mkdisk () in
  let router =
    Router.create [ (0, Router.Single (Drive.format d0)); (1, Router.Single (Drive.format d1)) ]
  in
  let o = fresh_oracle () in
  ignore (exec_workload ~ops ~seed ~backend:(Router.backend router) o);
  let base = (Sim_disk.stats d2).Sim_disk.writes in
  ignore (Router.add_shard router 2 (Router.Single (Drive.format d2)));
  ignore (Router.rebalance router);
  (Sim_disk.stats d2).Sim_disk.writes - base

(* Post-crash verification for the array: reattach each drive, repair
   placement, and check (1) every object has exactly one authoritative
   holder, (2) every synced in-window version still answers through
   the routed surface, (3) the interrupted migrations complete and the
   array keeps serving. *)
let verify_array (d0, d1, d2) o =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  match (try Ok (Drive.attach d0, Drive.attach d1, Drive.attach d2) with e -> Error e) with
  | Error e ->
    add "attach raised %s" (Printexc.to_string e);
    (0, List.rev !violations)
  | Ok (t0, t1, t2) ->
    let drives = [ t0; t1; t2 ] in
    let router =
      Router.attach [ (0, Router.Single t0); (1, Router.Single t1); (2, Router.Single t2) ]
    in
    (* Exactly one authoritative shard per object: attach must have
       deduplicated double holders and dropped partial copies. *)
    List.iter
      (fun oid ->
        let holders =
          List.filter
            (fun d ->
              (not (Int64.equal oid (Drive.ptable_oid d)))
              && List.mem oid (Store.list_all (Drive.store d)))
            drives
        in
        if List.length holders <> 1 then
          add "oid %Ld held by %d shards after reattach" oid (List.length holders))
      (List.rev o.order);
    (* Window survival through the routed surface: every synced
       version of every object, live and deleted, at each sync time. *)
    List.iter
      (fun s ->
        List.iter
          (fun (oid, contents, attr) ->
            let size = Bytes.length contents in
            (match
               Router.handle router cred (Rpc.Read { oid; off = 0; len = max size 1; at = Some s.at })
             with
            | Rpc.R_data b ->
              if not (Bytes.equal b (expected_read { contents; attr; alive = true } ~off:0 ~len:(max size 1))) then
                add "snapshot@%Ld: oid %Ld contents differ" s.at oid
            | r -> add "snapshot@%Ld: read oid %Ld: %s" s.at oid (resp_str r));
            match Router.handle router cred (Rpc.Get_attr { oid; at = Some s.at }) with
            | Rpc.R_attr b ->
              if not (Bytes.equal b attr) then add "snapshot@%Ld: oid %Ld attr differs" s.at oid
            | r -> add "snapshot@%Ld: attr oid %Ld: %s" s.at oid (resp_str r))
          s.live;
        List.iter
          (fun oid ->
            List.iter
              (fun d ->
                if
                  (not (Int64.equal oid (Drive.ptable_oid d)))
                  && Store.exists (Drive.store d) ~at:s.at oid
                then add "snapshot@%Ld: oid %Ld should be deleted" s.at oid)
              drives)
          s.dead)
      o.snaps;
    (* Interrupted migrations must complete cleanly now. *)
    let _, errs = Router.rebalance router in
    List.iter (fun e -> add "post-crash rebalance: %s" e) errs;
    List.iter (fun m -> add "fsck: %s" m) (Router.fsck router);
    (* The repaired array must keep serving. *)
    (match Router.handle router cred (Rpc.Create { acl = [] }) with
    | Rpc.R_oid oid -> (
      let data = Bytes.of_string "post-recovery write" in
      let len = Bytes.length data in
      match Router.handle router cred (Rpc.Write { oid; off = 0; len; data = Some data }) with
      | Rpc.R_unit -> (
        match Router.handle router cred Rpc.Sync with
        | Rpc.R_unit -> (
          match Router.handle router cred (Rpc.Read { oid; off = 0; len; at = None }) with
          | Rpc.R_data b when Bytes.equal b data -> ()
          | r -> add "post-recovery read: %s" (resp_str r))
        | r -> add "post-recovery sync: %s" (resp_str r))
      | r -> add "post-recovery write: %s" (resp_str r))
    | r -> add "post-recovery create: %s" (resp_str r));
    (List.length o.snaps, List.rev !violations)

let rebalance_run ?(ops = default_ops) ~seed ~crash_after () =
  if Trace.on () then Trace.clear ();
  let disks, o, completed, crashed, wviol = array_scenario ~ops ~seed ~crash_after in
  let snapshots, rviol = if crashed then verify_array disks o else (List.length o.snaps, []) in
  {
    seed;
    crash_after;
    crashed;
    ops_before_crash = completed;
    snapshots;
    audit_checked = 0;
    violations = wviol @ rviol @ trace_violations ();
  }

let rebalance_sweep ~seed ~runs () =
  let rng = Rng.create ~seed in
  List.init runs (fun i ->
      let wseed = seed + (i * 59) + 1 in
      let span = max 1 (rebalance_writes ~seed:wseed ()) in
      let crash_after = 1 + Rng.int rng span in
      rebalance_run ~seed:wseed ~crash_after ())

(* ------------------------------------------------------------------ *)
(* Mirror resync under partial failure                                 *)

type resync_report = {
  r_seed : int;
  fail_writes : int;
  first_error : bool;
  attempts : int;
  r_violations : string list;
}

let resync_run ~seed ~fail_writes () =
  let clock = Simclock.create () in
  let mkd () = Drive.format (Sim_disk.create ~geometry:geom clock) in
  let m = Mirror.create (mkd ()) (mkd ()) in
  let rng = Rng.create ~seed in
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let expect_ok what resp =
    match resp with
    | Rpc.R_error e -> add "%s failed: %s" what (Format.asprintf "%a" Rpc.pp_error e)
    | _ -> ()
  in
  let oid =
    match Mirror.handle m cred (Rpc.Create { acl = [] }) with
    | Rpc.R_oid oid -> oid
    | r ->
      add "create: %s" (resp_str r);
      0L
  in
  expect_ok "seed write"
    (Mirror.handle m cred (Rpc.Write { oid; off = 0; len = 4; data = Some (Bytes.of_string "base") }));
  expect_ok "seed sync" (Mirror.handle m cred Rpc.Sync);
  (* The secondary fails; non-idempotent mutations pile up in the
     missed-journal. Appends never touch the disk until a Sync, so
     during replay only the Syncs can hit an injected write fault. *)
  Mirror.set_failed m Mirror.Secondary true;
  let nmissed = 2 + Rng.int rng 4 in
  for k = 0 to nmissed - 1 do
    let s = Printf.sprintf "m%d" k in
    expect_ok "missed append"
      (Mirror.handle m cred (Rpc.Append { oid; len = String.length s; data = Some (Bytes.of_string s) }));
    expect_ok "missed sync" (Mirror.handle m cred Rpc.Sync)
  done;
  (* Repaired — but its media faults partway through the replay. *)
  Mirror.set_failed m Mirror.Secondary false;
  let sdisk = Log.disk (Drive.log (Mirror.drive m Mirror.Secondary)) in
  let policy = Fault.create (Rng.create ~seed:(seed + 1)) in
  Sim_disk.set_fault sdisk (Some policy);
  if fail_writes > 0 then Fault.fail_next policy ~writes:fail_writes ~transient:false;
  let first_error = ref false in
  let attempts = ref 0 in
  let rec resync_until budget =
    incr attempts;
    match Mirror.resync m with
    | Ok _ -> ()
    | Error e ->
      if !attempts = 1 then first_error := true;
      if budget <= 0 then add "resync never converged: %s" e else resync_until (budget - 1)
  in
  resync_until 10;
  Sim_disk.set_fault sdisk None;
  List.iter (fun d -> add "divergence: %s" d) (Mirror.divergence m);
  if Mirror.lag m <> 0 then add "residual lag %d" (Mirror.lag m);
  {
    r_seed = seed;
    fail_writes;
    first_error = !first_error;
    attempts = !attempts;
    r_violations = List.rev !violations;
  }

let resync_sweep ~seed ~runs () =
  let rng = Rng.create ~seed in
  List.init runs (fun i -> resync_run ~seed:(seed + (i * 37) + 1) ~fail_writes:(Rng.int rng 5) ())

(* ------------------------------------------------------------------ *)
(* Real kill -9: a live server process over a file-backed store        *)

module File_disk = S4_disk.File_disk
module Netserver = S4_net.Server
module Netclient = S4_net.Client
module Transport = S4_net.Transport

(* Fork a child that serves [path] over TCP on an ephemeral port and
   then sleeps until it is SIGKILLed; the port comes back over a pipe.
   The child opens the store itself — sharing a parent fd across the
   fork would share the file offset under it. *)
let fork_server ~path =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (try
       let disk = Sim_disk.of_file (File_disk.open_file path) in
       let drive = Drive.attach disk in
       let srv = Netserver.of_drive drive in
       let listener = Netserver.serve_tcp ~host:"127.0.0.1" ~port:0 srv in
       let msg = string_of_int (Netserver.port listener) ^ "\n" in
       ignore (Unix.write_substring w msg 0 (String.length msg));
       Unix.close w;
       while true do
         Unix.sleep 3600
       done
     with _ -> (try Unix.close w with Unix.Unix_error _ -> ()));
    Unix._exit 127
  | pid ->
    Unix.close w;
    let buf = Bytes.create 16 in
    let n = try Unix.read r buf 0 16 with Unix.Unix_error _ -> 0 in
    Unix.close r;
    if n <= 0 then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith "kill9: server child failed to start"
    end;
    (pid, int_of_string (String.trim (Bytes.sub_string buf 0 n)))

(* Snapshot instant on the server's clock: a Stat answered after the
   Sync ack (Stat is served at the wire layer — no audit record, no
   clock advance, and no other connection is active at that point). *)
let server_instant client =
  ignore (Netclient.capacity client);
  Netclient.server_now client

let kill9_run ?(dir = Filename.get_temp_dir_name ()) ~seed ~kill_after ~midflight () =
  if Trace.on () then Trace.clear ();
  let path = Filename.concat dir (Printf.sprintf "kill9_%d.s4" seed) in
  (* Format a fresh file-backed store in-process; format ends with a
     barrier, so the empty drive itself is durable. *)
  (let disk0 = Sim_disk.of_file (File_disk.create ~path geom) in
   ignore (Drive.format disk0);
   Sim_disk.close disk0);
  let pid, port = fork_server ~path in
  let o = fresh_oracle () in
  let rng = Rng.create ~seed in
  let client =
    Netclient.connect
      ~config:{ Netclient.default_config with Netclient.req_timeout_s = 30.0; seed }
      (Transport.tcp ~host:"127.0.0.1" ~port)
  in
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let acked = ref 0 in
  (* The acked workload: like [exec_workload], but over the wire, with
     snapshot instants taken from the server's clock. *)
  for i = 0 to kill_after - 1 do
    let req = gen_req o rng i in
    let resp = Netclient.handle client cred req in
    (match resp with
     | Rpc.R_error (Rpc.Io_error _) -> add "op %d: server unreachable before the kill" i
     | _ -> incr acked);
    let ok = match resp with Rpc.R_error _ -> false | _ -> true in
    o.audit_log <- { a_op = Rpc.op_name req; a_oid = oid_of req; a_ok = ok } :: o.audit_log;
    (match (req, resp) with
     | Rpc.Read { oid; off; len; at = None }, Rpc.R_data b ->
       let ob = Hashtbl.find o.objects oid in
       if not (Bytes.equal b (expected_read ob ~off ~len)) then
         add "pre-kill read mismatch on oid %Ld" oid
     | _ -> ());
    if ok then o_apply o req resp;
    match (req, resp) with
    | Rpc.Sync, Rpc.R_unit ->
      let live =
        List.map
          (fun oid ->
            let ob = Hashtbl.find o.objects oid in
            (oid, Bytes.copy ob.contents, Bytes.copy ob.attr))
          (live_oids o)
      in
      let dead =
        List.rev o.order |> List.filter (fun oid -> not (Hashtbl.find o.objects oid).alive)
      in
      o.snaps <- { at = server_instant client; live; dead } :: o.snaps
    | _ -> ()
  done;
  (* Optionally put a doomed batch in flight on a second connection:
     its writes may be half-handled when the KILL lands, exercising
     buffered-but-unacked state in the dying server. The batch is
     never applied to the oracle — whether it survives is the server's
     business, not the contract's. *)
  let doomed =
    if not midflight then None
    else begin
      let targets = Array.of_list (live_oids o) in
      let reqs =
        Array.init 64 (fun _ ->
            if Array.length targets = 0 then Rpc.Create { acl = [] }
            else begin
              let oid = targets.(Rng.int rng (Array.length targets)) in
              let len = 64 + Rng.int rng 192 in
              Rpc.Write { oid; off = Rng.int rng 512; len; data = Some (Rng.bytes rng len) }
            end)
      in
      let th =
        Thread.create
          (fun () ->
            let c2 =
              Netclient.connect
                ~config:
                  {
                    Netclient.default_config with
                    Netclient.req_timeout_s = 2.0;
                    max_retries = 0;
                    seed = seed + 1;
                  }
                (Transport.tcp ~host:"127.0.0.1" ~port)
            in
            ignore (Netclient.submit c2 cred ~sync:true reqs))
          ()
      in
      Thread.delay (float_of_int (Rng.int rng 4) /. 1000.0);
      Some th
    end
  in
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  (match doomed with Some th -> Thread.join th | None -> ());
  (try Netclient.close client with _ -> ());
  (* Reopen whatever survived on the host file and run the full
     verification: window survival, audit continuity (the kill may
     have flushed handled-but-unacked work — a lenient tail), fsck,
     and post-recovery service. *)
  let disk2 = Sim_disk.of_file (File_disk.open_file path) in
  let snapshots, audit_checked, rviol = verify ~lenient_audit_tail:true ~disk:disk2 o in
  Sim_disk.close disk2;
  let report =
    {
      seed;
      crash_after = kill_after;
      crashed = true;
      ops_before_crash = !acked;
      snapshots;
      audit_checked;
      violations = List.rev !violations @ rviol @ trace_violations ();
    }
  in
  if report.violations = [] then (try Sys.remove path with Sys_error _ -> ());
  report

let kill9_sweep ?dir ~seed ~runs () =
  let rng = Rng.create ~seed in
  List.init runs (fun i ->
      let wseed = seed + (i * 73) + 1 in
      let kill_after = 8 + Rng.int rng 72 in
      let midflight = Rng.int rng 2 = 1 in
      kill9_run ?dir ~seed:wseed ~kill_after ~midflight ())

(* ------------------------------------------------------------------ *)
(* Tamper injection: the attacker the hash chain exists for            *)

type tamper = Rewrite | Drop | Reorder | Fork

let tamper_name = function
  | Rewrite -> "rewrite"
  | Drop -> "drop"
  | Reorder -> "reorder"
  | Fork -> "fork"

let final_sync drive =
  match Drive.handle drive cred Rpc.Sync with
  | Rpc.R_unit -> ()
  | r -> failwith ("tamper: final sync: " ^ resp_str r)

let verify_log drive ~from =
  match Drive.handle drive cred (Rpc.Verify_log { from }) with
  | Rpc.R_verify r -> r
  | r -> failwith ("verify-log: " ^ resp_str r)

(* Block CRCs are integrity against media error, not against an
   attacker: anyone with platter access recomputes them. The forgeries
   below do exactly that, so only the hash chain stands in the way. *)
let recrc b =
  let n = Bytes.length b in
  Bcodec.frame ~size:n (fun w -> Bcodec.w_raw w (Bytes.sub b 0 (n - 4)))

(* Forge a CRC-valid variant of a persisted audit block whose records
   decode differently — a surgical edit of sealed history. Scans the
   record region (from the offset the codec reports) for a single-byte
   flip that keeps the block decodable; if none exists the flip at the
   scan origin stands (an undecodable block is also a rewrite the chain
   must catch). *)
let forge_record_edit original =
  let n = Bytes.length original in
  let flipped i =
    let b = Bytes.copy original in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
    recrc b
  in
  let records b = Option.map (fun (d : Audit.block) -> d.Audit.records) (Audit.decode_block b) in
  let base = records original in
  let origin = Option.get (Audit.records_offset original) in
  let rec scan i =
    if i >= n - 4 then flipped origin
    else
      let b = flipped i in
      match (base, records b) with
      | Some r0, Some r1 when r0 <> r1 -> b
      | _ -> scan (i + 1)
  in
  scan origin

let tamper_scenario ~seed inject =
  let disk, drive = build () in
  let o = fresh_oracle () in
  ignore (drive_workload ~ops:default_ops ~seed ~drive o);
  final_sync drive;
  let audit = Drive.audit drive in
  let trusted = Audit.sealed_head audit in
  let log = Drive.log drive in
  let spb = Log.block_size log / (Sim_disk.geometry disk).Geometry.sector_size in
  let poke addr data = Sim_disk.poke disk ~lba:(addr * spb) ~data in
  (* Sealed record blocks, oldest first (everything is sealed after the
     final sync). *)
  let addrs = List.rev (Audit.block_addrs audit) in
  inject ~log ~poke ~addrs;
  let res = verify_log drive ~from:(Some trusted) in
  (not (Chain.clean res), res.Chain.v_errors)

let too_few () = failwith "tamper: workload produced too few audit blocks"

let tamper_run ~seed tamper =
  match tamper with
  | Rewrite ->
    tamper_scenario ~seed (fun ~log ~poke ~addrs ->
        match addrs with
        | addr :: _ -> poke addr (forge_record_edit (Log.peek log addr))
        | [] -> too_few ())
  | Drop ->
    (* Zero a middle block. (Dropping the oldest block is expiry, which
       is legitimate and indistinguishable by design — the catalog's
       epoch floor, not the chain, bounds how much may age out.) *)
    tamper_scenario ~seed (fun ~log ~poke ~addrs ->
        match addrs with
        | _ :: addr :: _ -> poke addr (Bytes.make (Log.block_size log) '\000')
        | _ -> too_few ())
  | Reorder ->
    (* Relocate a block on the chain: patch its claimed start index
       (the low bit of the varint at the codec's start offset) and
       re-CRC. Physical placement is immaterial — the walk orders
       blocks by claimed position — so a reorder attack is precisely a
       block claiming somebody else's position. *)
    tamper_scenario ~seed (fun ~log ~poke ~addrs ->
        match addrs with
        | _ :: addr :: _ ->
          let b = Log.peek log addr in
          let i = Option.get (Audit.start_offset b) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
          poke addr (recrc b)
        | _ -> too_few ())
  | Fork ->
    (* The attacker restores a stale image behind a "crash" and regrows
       different history past the admin's trusted head. Determinism
       stands in for the stolen image: replaying the first half of the
       seeded workload reproduces it bit-for-bit. *)
    let _, drive1 = build () in
    ignore (drive_workload ~ops:default_ops ~seed ~drive:drive1 (fresh_oracle ()));
    final_sync drive1;
    let trusted = Audit.sealed_head (Drive.audit drive1) in
    let _, drive2 = build () in
    let o2 = fresh_oracle () in
    ignore (drive_workload ~ops:(default_ops / 2) ~seed ~drive:drive2 o2);
    ignore (drive_workload ~ops:default_ops ~seed:(seed + 7777) ~drive:drive2 o2);
    final_sync drive2;
    let res = verify_log drive2 ~from:(Some trusted) in
    (not (Chain.clean res), res.Chain.v_errors)

let tamper_clean ~seed =
  let detected, errs = tamper_scenario ~seed (fun ~log:_ ~poke:_ ~addrs:_ -> ()) in
  (detected, errs)

(* ------------------------------------------------------------------ *)
(* Seal atomicity: a torn final block is truncation                    *)

(* The last block of a barrier's flush carries the records and the
   seal together. A SIGKILL can still land while that block reaches
   the platter; this reproduces the state in-process: flush the
   records, tear the freshly flushed block down to its first sector,
   leave the device anchor where the last completed barrier put it
   (the dying barrier never publishes its own), and abandon the
   process state. Recovery must read it as tail truncation — a crash —
   and never as tampering. *)
let torn_block_run ?(dir = Filename.get_temp_dir_name ()) ~seed () =
  let path = Filename.concat dir (Printf.sprintf "tornblock_%d.s4" seed) in
  let disk0 = Sim_disk.of_file (File_disk.create ~path geom) in
  let drive = Drive.format disk0 in
  let o = fresh_oracle () in
  ignore (drive_workload ~ops:48 ~seed ~drive o);
  let handled = List.length o.audit_log in
  let anchor = Sim_disk.saved_head disk0 in
  if Drive.barrier drive <> None then failwith "torn block: barrier failed";
  (match Audit.block_addrs (Drive.audit drive) with
   | addr :: _ ->
     let log = Drive.log drive in
     let bs = Log.block_size log in
     let ss = (Sim_disk.geometry disk0).Geometry.sector_size in
     let torn = Log.peek log addr in
     Bytes.fill torn ss (bs - ss) '\000';
     Sim_disk.poke disk0 ~lba:(addr * (bs / ss)) ~data:torn
   | [] -> ());
  Sim_disk.set_head_provider disk0 (fun () -> anchor);
  Sim_disk.barrier disk0;
  Sim_disk.close disk0;
  let disk2 = Sim_disk.of_file (File_disk.open_file path) in
  let snapshots, audit_checked, rviol = verify ~lenient_audit_tail:true ~disk:disk2 o in
  Sim_disk.close disk2;
  (* Strict re-walk of what survived: the torn block must read as a
     shorter chain (no bad record, no chain error), not tampering. *)
  let disk3 = Sim_disk.of_file (File_disk.open_file path) in
  let strict =
    match (try Ok (Drive.attach disk3) with e -> Error e) with
    | Ok t3 -> Audit.verify (Drive.audit t3)
    | Error e -> failwith ("torn block: reattach raised " ^ Printexc.to_string e)
  in
  Sim_disk.close disk3;
  let report =
    {
      seed;
      crash_after = 0;
      crashed = true;
      ops_before_crash = handled;
      snapshots;
      audit_checked;
      violations = rviol @ trace_violations ();
    }
  in
  if report.violations = [] && Chain.clean strict then (try Sys.remove path with Sys_error _ -> ());
  (report, strict)

(* ------------------------------------------------------------------ *)
(* PostMark under kill -9: zero acked-write loss                       *)

module Systems = S4_workload.Systems
module Postmark = S4_workload.Postmark
module Translator = S4_nfs.Translator
module Nfsserver = S4_nfs.Server

type postmark_report = {
  pm_seed : int;
  pm_completed : bool;  (** PostMark finished all transactions before the kill *)
  pm_checkpoints : int;
  pm_acked : int;  (** audit records covered by the newest checkpoint *)
  pm_recovered : int;  (** audit records recovered after the kill *)
  pm_violations : string list;
}

(* PostMark runs over the full client stack — NFS-level benchmark,
   translator, wire protocol — against the forked server, while a
   second connection takes durability checkpoints: read the server
   clock, Sync, then Read_audit up to the pre-sync instant. Every
   record strictly below that instant was appended before the Sync was
   acked, so the barrier has made it durable; after the SIGKILL the
   recovered audit log must reproduce each checkpoint's records
   exactly. The audit trail is the acked-write oracle — one record per
   accepted RPC. *)
let kill9_postmark_run ?(dir = Filename.get_temp_dir_name ()) ?(transactions = 1500)
    ?(checkpoints = 6) ~seed () =
  if Trace.on () then Trace.clear ();
  let path = Filename.concat dir (Printf.sprintf "kill9pm_%d.s4" seed) in
  (let disk0 = Sim_disk.of_file (File_disk.create ~path geom) in
   ignore (Drive.format disk0);
   Sim_disk.close disk0);
  let pid, port = fork_server ~path in
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let clock = Simclock.create () in
  let client =
    Netclient.connect
      ~config:{ Netclient.default_config with Netclient.req_timeout_s = 10.0; max_retries = 1; seed }
      (Transport.tcp ~host:"127.0.0.1" ~port)
  in
  let tr = Translator.mount (Translator.Backend (Netclient.backend ~clock ~keep_data:true client)) in
  let sys =
    {
      Systems.name = "S4-kill9";
      server = Nfsserver.of_translator ~name:"S4-kill9" tr;
      clock;
      disk = Sim_disk.create ~geometry:geom clock;  (* client-side bookkeeping only *)
      drive = None;
      translator = Some tr;
      router = None;
    }
  in
  let pm_config =
    {
      Postmark.files = 60;
      transactions;
      subdirectories = 4;
      min_size = 512;
      max_size = 4096;
      seed;
      cleaner_every = None;
    }
  in
  let pm_done = ref false in
  let pm_thread =
    Thread.create
      (fun () -> match Postmark.run ~config:pm_config sys with _ -> pm_done := true | exception _ -> ())
      ()
  in
  let c2 =
    Netclient.connect
      ~config:
        { Netclient.default_config with Netclient.req_timeout_s = 10.0; max_retries = 1; seed = seed + 1 }
      (Transport.tcp ~host:"127.0.0.1" ~port)
  in
  let taken = ref [] in
  (* A checkpoint Sync refused with [No_space] is judged after
     recovery: acceptable only if the log really was full. *)
  let refused_syncs = ref 0 in
  Thread.delay 0.1;
  for _k = 1 to checkpoints do
    Thread.delay 0.04;
    let t_before = server_instant c2 in
    match Netclient.handle c2 cred Rpc.Sync with
    | Rpc.R_unit -> (
      match
        Netclient.handle c2 cred (Rpc.Read_audit { since = 0L; until = Int64.pred t_before })
      with
      | Rpc.R_audit rs -> taken := (t_before, rs) :: !taken
      | r -> add "checkpoint read_audit: %s" (resp_str r))
    | Rpc.R_error Rpc.No_space -> incr refused_syncs
    | r -> add "checkpoint sync: %s" (resp_str r)
  done;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Thread.join pm_thread;
  (try Netclient.close client with _ -> ());
  (try Netclient.close c2 with _ -> ());
  let checkpoints_chrono = List.rev !taken in
  if checkpoints_chrono = [] then add "no checkpoint was captured before the kill";
  let disk2 = Sim_disk.of_file (File_disk.open_file path) in
  let recovered = ref 0 in
  (match (try Ok (Drive.attach disk2) with e -> Error e) with
   | Error e -> add "attach raised %s" (Printexc.to_string e)
   | Ok t2 ->
     let recovered_audit = Audit.records (Drive.audit t2) () in
     recovered := List.length recovered_audit;
     let log_full = Log.free_segments (Drive.log t2) = 0 in
     if !refused_syncs > 0 && not log_full then
       add "%d checkpoint syncs refused with no space, but the recovered log has free segments"
         !refused_syncs;
     List.iter (fun m -> add "fsck: %s" m) (Drive.fsck t2);
     List.iter
       (fun e -> add "%s" e)
       (Audit.verify ~lenient_tail:true (Drive.audit t2)).Chain.v_errors;
     (* Zero acked-write loss: each checkpoint's records must survive
        verbatim. Records at or past the checkpoint instant were still
        in flight and are the server's business, not the contract's. *)
     List.iter
       (fun (t_before, rs) ->
         let upto =
           List.filter (fun r -> Int64.compare r.Audit.at t_before < 0) recovered_audit
         in
         let rec go i xs ys =
           match (xs, ys) with
           | [], _ -> ()
           | x :: xs', y :: ys' ->
             if x = y then go (i + 1) xs' ys'
             else add "checkpoint@%Ld: acked audit record %d differs after recovery" t_before i
           | rest, [] ->
             add "checkpoint@%Ld: %d acked audit records lost by the kill" t_before
               (List.length rest)
         in
         go 0 rs upto)
       checkpoints_chrono;
     (* Namespace walk: every surviving name must mount and answer. *)
     (match Drive.handle t2 cred (Rpc.P_list { at = None }) with
      | Rpc.R_names names ->
        List.iter
          (fun name ->
            match Drive.handle t2 cred (Rpc.P_mount { name; at = None }) with
            | Rpc.R_oid oid -> (
              match Drive.handle t2 cred (Rpc.Get_attr { oid; at = None }) with
              | Rpc.R_attr _ -> ()
              | r -> add "walk: attr of %s: %s" name (resp_str r))
            | r -> add "walk: mount %s: %s" name (resp_str r))
          names
      | r -> add "walk: list: %s" (resp_str r));
     service_check ~log_full (fun s -> add "%s" s) t2);
  Sim_disk.close disk2;
  let report =
    {
      pm_seed = seed;
      pm_completed = !pm_done;
      pm_checkpoints = List.length checkpoints_chrono;
      pm_acked =
        (match !taken with (_, rs) :: _ -> List.length rs | [] -> 0);
      pm_recovered = !recovered;
      pm_violations = List.rev !violations @ trace_violations ();
    }
  in
  if report.pm_violations = [] then (try Sys.remove path with Sys_error _ -> ());
  report

let pp_postmark_report ppf r =
  Format.fprintf ppf "postmark kill9 seed=%d: %s, %d checkpoints, %d acked, %d recovered%s"
    r.pm_seed
    (if r.pm_completed then "completed" else "killed mid-run")
    r.pm_checkpoints r.pm_acked r.pm_recovered
    (match r.pm_violations with
     | [] -> ""
     | v -> Printf.sprintf ", %d VIOLATIONS: %s" (List.length v) (String.concat "; " v))

let failed_reports rs = List.filter (fun r -> r.violations <> []) rs

let pp_report ppf r =
  Format.fprintf ppf "crash@%d seed=%d: %s, %d ops, %d snapshots, %d audit ok%s" r.crash_after
    r.seed
    (if r.crashed then "crashed" else "no crash")
    r.ops_before_crash r.snapshots r.audit_checked
    (match r.violations with
     | [] -> ""
     | v -> Printf.sprintf ", %d VIOLATIONS: %s" (List.length v) (String.concat "; " v))
