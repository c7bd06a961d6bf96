(* Tests for the S4 drive: ACLs, audit log, throttle, and the full
   RPC security perimeter. *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Net = S4_disk.Net
module Log = S4_seglog.Log
module Store = S4_store.Obj_store
module Acl = S4.Acl
module Audit = S4.Audit
module Rpc = S4.Rpc
module Throttle = S4.Throttle
module Drive = S4.Drive
module Backend = S4.Backend

let check = Alcotest.check
let qtest = Qseed.qtest
let bytes_of = Bytes.of_string

let geom mb = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)

let mk_drive ?(mb = 64) ?config () =
  let clock = Simclock.create () in
  let disk = Sim_disk.create ~geometry:(geom mb) clock in
  (clock, disk, Drive.format ?config disk)

let alice = Rpc.user_cred ~user:1 ~client:100
let bob = Rpc.user_cred ~user:2 ~client:200
let admin = Rpc.admin_cred
let tick clock = Simclock.advance clock 1_000_000L

let expect_oid = function
  | Rpc.R_oid oid -> oid
  | r -> Alcotest.failf "expected oid, got %a" Rpc.pp_resp r

let expect_data = function
  | Rpc.R_data b -> b
  | r -> Alcotest.failf "expected data, got %a" Rpc.pp_resp r

let expect_unit = function
  | Rpc.R_unit -> ()
  | r -> Alcotest.failf "expected unit, got %a" Rpc.pp_resp r

let expect_error expected = function
  | Rpc.R_error e when e = expected -> ()
  | r -> Alcotest.failf "expected error, got %a" Rpc.pp_resp r

let create_file drive cred ?(acl = []) content =
  let oid = expect_oid (Drive.handle drive cred (Rpc.Create { acl })) in
  expect_unit
    (Drive.handle drive cred
       (Rpc.Write { oid; off = 0; len = String.length content; data = Some (bytes_of content) }));
  oid

let read_str drive cred ?at oid =
  Bytes.to_string (expect_data (Drive.handle drive cred (Rpc.Read { oid; off = 0; len = 1 lsl 20; at })))

(* --- ACL ------------------------------------------------------------- *)

let test_acl_roundtrip () =
  let acl =
    [
      Acl.owner_entry ~user:7;
      { Acl.user = 3; client = 5; perms = [ Acl.Read; Acl.Write ]; recovery = false };
      Acl.public_read;
    ]
  in
  check Alcotest.bool "roundtrip" true (Acl.decode (Acl.encode acl) = acl);
  check Alcotest.bool "empty" true (Acl.decode Bytes.empty = [])

let test_acl_matching () =
  let acl = [ Acl.owner_entry ~user:7; Acl.public_read ] in
  check Alcotest.bool "owner write" true (Acl.allows acl ~user:7 ~client:9 Acl.Write);
  check Alcotest.bool "stranger read" true (Acl.allows acl ~user:3 ~client:9 Acl.Read);
  check Alcotest.bool "stranger write" false (Acl.allows acl ~user:3 ~client:9 Acl.Write);
  check Alcotest.bool "owner recovery" true (Acl.allows_recovery acl ~user:7 ~client:9);
  check Alcotest.bool "stranger recovery" false (Acl.allows_recovery acl ~user:3 ~client:9)

let test_acl_client_scoping () =
  let acl = [ { Acl.user = 1; client = 5; perms = [ Acl.Read ]; recovery = false } ] in
  check Alcotest.bool "right client" true (Acl.allows acl ~user:1 ~client:5 Acl.Read);
  check Alcotest.bool "wrong client" false (Acl.allows acl ~user:1 ~client:6 Acl.Read)

let test_acl_indexing () =
  let acl = [ Acl.owner_entry ~user:1; Acl.public_read ] in
  check Alcotest.bool "nth 1" true (Acl.nth acl 1 = Some Acl.public_read);
  check Alcotest.bool "nth out" true (Acl.nth acl 5 = None);
  let e = { Acl.user = 9; client = -1; perms = [ Acl.Read ]; recovery = true } in
  let acl2 = Acl.set_nth acl 1 e in
  check Alcotest.bool "replaced" true (Acl.nth acl2 1 = Some e);
  let acl3 = Acl.set_nth acl 10 e in
  check Alcotest.int "appended" 3 (List.length acl3)

let prop_acl_roundtrip =
  QCheck.Test.make ~name:"acl encode/decode roundtrip" ~count:200
    QCheck.(
      list_of_size
        Gen.(0 -- 10)
        (quad (int_range (-1) 100) (int_range (-1) 100) (int_bound 31) bool))
    (fun raw ->
      let perms_of bits =
        List.filter_map
          (fun (b, p) -> if bits land b <> 0 then Some p else None)
          [ (1, Acl.Read); (2, Acl.Write); (4, Acl.Delete); (8, Acl.Set_attr); (16, Acl.Set_acl) ]
      in
      let acl =
        List.map (fun (u, c, bits, rec_) -> { Acl.user = u; client = c; perms = perms_of bits; recovery = rec_ }) raw
      in
      Acl.decode (Acl.encode acl) = acl)

(* --- Audit ------------------------------------------------------------ *)

let mk_store ?(mb = 64) () =
  let clock = Simclock.create () in
  let disk = Sim_disk.create ~geometry:(geom mb) clock in
  (clock, disk, S4_store.Obj_store.create (Log.create disk))

(* A barrier of a store and its audit trail. *)
let barrier store audit = S4_store.Obj_store.sync ?tail:(Audit.seal audit) store

let rec_ at op = { Audit.at; user = 1; client = 2; op; oid = 42L; info = "x=1"; ok = true }

let test_audit_record_block_roundtrip () =
  let records = [ rec_ 1L "read"; rec_ 2L "write"; rec_ 3L "delete" ] in
  let _, _, store = mk_store () in
  let audit = Audit.create store in
  List.iter (Audit.append audit) records;
  barrier store audit;
  check Alcotest.int "one block" 1 (Audit.block_count audit);
  let back = Audit.records audit () in
  check Alcotest.bool "records roundtrip" true (back = records)

let test_audit_buffering () =
  let _, _, store = mk_store () in
  let audit = Audit.create store in
  (* Small records buffer in memory; no block until ~4KB accumulate. *)
  for i = 1 to 10 do
    Audit.append audit (rec_ (Int64.of_int i) "op")
  done;
  check Alcotest.int "still buffered" 0 (Audit.block_count audit);
  for i = 11 to 300 do
    Audit.append audit (rec_ (Int64.of_int i) "some-longer-operation-name")
  done;
  check Alcotest.bool "blocks written" true (Audit.block_count audit > 0);
  check Alcotest.int "all records visible" 300 (List.length (Audit.records audit ()))

let test_audit_time_filter () =
  let _, _, store = mk_store () in
  let audit = Audit.create store in
  List.iter (Audit.append audit) [ rec_ 10L "a"; rec_ 20L "b"; rec_ 30L "c" ];
  let mid = Audit.records audit ~since:15L ~until:25L () in
  check Alcotest.int "one in range" 1 (List.length mid);
  check Alcotest.string "the right one" "b" (List.hd mid).Audit.op

let test_audit_disabled () =
  let _, _, store = mk_store () in
  let audit = Audit.create ~enabled:false store in
  Audit.append audit (rec_ 1L "x");
  check Alcotest.int "nothing recorded" 0 (Audit.record_count audit)

let test_audit_expire () =
  let _, _, store = mk_store () in
  let audit = Audit.create store in
  Audit.append audit (rec_ 5L "old");
  barrier store audit;
  Audit.append audit (rec_ 100L "new");
  barrier store audit;
  check Alcotest.int "two blocks" 2 (Audit.block_count audit);
  let freed = Audit.expire audit ~cutoff:50L in
  check Alcotest.int "one freed" 1 freed;
  let remaining = Audit.records audit () in
  check Alcotest.int "one block left" 1 (List.length remaining);
  check Alcotest.string "new survives" "new" (List.hd remaining).Audit.op

let test_audit_recover () =
  let _, disk, store = mk_store () in
  let audit = Audit.create store in
  List.iter (Audit.append audit) [ rec_ 1L "r1"; rec_ 2L "r2" ];
  barrier store audit;
  let store2 = S4_store.Obj_store.recover (Log.reattach disk) in
  let audit2 = Audit.create store2 in
  Audit.recover audit2;
  check Alcotest.int "block refound" 1 (Audit.block_count audit2);
  check Alcotest.int "records refound" 2 (List.length (Audit.records audit2 ()))

(* Records that outgrow the buffer while the log is full stay
   buffered. Once there is room, the next barrier writes them out in
   unsealed tails first, each in a journal block with no entries, and
   seals them with a record-less tail in its journal block: every
   record is on the chain, under the seal, and back after recovery. *)
let test_audit_overgrown_buffer_barrier () =
  let _, disk, store = mk_store ~mb:8 () in
  let log = Store.log store in
  let rec fill acc i =
    match Log.append log (S4_seglog.Tag.Data { oid = 99L; fblock = i }) () with
    | addr -> fill (addr :: acc) (i + 1)
    | exception Log.Log_full -> acc
  in
  let filler = fill [] 0 in
  let audit = Audit.create store in
  let records = List.init 600 (fun i -> rec_ (Int64.of_int i) "some-longer-operation-name") in
  List.iter (fun r -> try Audit.append audit r with Log.Log_full -> ()) records;
  check Alcotest.int "nothing written while the log is full" 0 (Audit.block_count audit);
  List.iter (Log.kill log) filler;
  check Alcotest.bool "room again" true (Log.reclaim_dead_segments log > 0);
  barrier store audit;
  check Alcotest.bool "unsealed blocks, then the tail" true (Audit.block_count audit >= 3);
  check Alcotest.bool "every record, in order" true (Audit.records audit () = records);
  check Alcotest.int "the seal covers them all" 600 (Audit.sealed_head audit).S4_integrity.Chain.records;
  check Alcotest.(list string) "verify clean" [] (Audit.verify audit).S4_integrity.Chain.v_errors;
  (* Recovery reads a reclaimed segment by the summary written when it
     closes, so fill the log again to close the one the barrier wrote
     into. *)
  ignore (fill [] 0 : int list);
  let audit2 = Audit.create (Store.recover (Log.reattach disk)) in
  Audit.recover audit2;
  check Alcotest.bool "every record after recovery" true (Audit.records audit2 () = records)

(* --- Throttle ---------------------------------------------------------- *)

let test_throttle_quiescent () =
  let clock = Simclock.create () in
  let th = Throttle.create clock in
  Throttle.note_write th ~client:1 ~bytes:1_000_000;
  check Alcotest.int64 "no pressure, no penalty" 0L (Throttle.penalty th ~client:1)

let test_throttle_abuser_penalised () =
  let clock = Simclock.create () in
  let th = Throttle.create clock in
  Throttle.note_write th ~client:666 ~bytes:100_000_000;
  Throttle.note_write th ~client:1 ~bytes:1_000;
  Throttle.set_pool_pressure th 0.95;
  check Alcotest.bool "abuser throttled" true (Throttle.is_throttled th ~client:666);
  check Alcotest.bool "abuser pays" true (Int64.compare (Throttle.penalty th ~client:666) 0L > 0);
  check Alcotest.bool "innocent free" false (Throttle.is_throttled th ~client:1);
  check Alcotest.int64 "innocent penalty" 0L (Throttle.penalty th ~client:1);
  check (Alcotest.list Alcotest.int) "listing" [ 666 ] (Throttle.throttled_clients th)

let test_throttle_decay () =
  let clock = Simclock.create () in
  let th = Throttle.create clock in
  Throttle.note_write th ~client:1 ~bytes:1_000_000;
  let s1 = Throttle.client_share th ~client:1 in
  check (Alcotest.float 1e-6) "sole writer" 1.0 s1;
  (* Long after, a new writer dominates the decayed counter. *)
  Simclock.advance clock 100_000_000_000L;
  Throttle.note_write th ~client:2 ~bytes:1_000_000;
  check Alcotest.bool "old client decayed" true (Throttle.client_share th ~client:1 < 0.01)

let test_throttle_penalty_scales_with_pressure () =
  let clock = Simclock.create () in
  let th = Throttle.create clock in
  Throttle.note_write th ~client:1 ~bytes:1_000_000;
  Throttle.set_pool_pressure th 0.85;
  let p1 = Throttle.penalty th ~client:1 in
  Throttle.set_pool_pressure th 1.0;
  let p2 = Throttle.penalty th ~client:1 in
  check Alcotest.bool "higher pressure, higher penalty" true (Int64.compare p2 p1 > 0)

(* --- Drive: basic RPC behaviour ---------------------------------------- *)

let test_drive_create_write_read () =
  let _, _, drive = mk_drive () in
  let oid = create_file drive alice "hello s4" in
  check Alcotest.string "read back" "hello s4" (read_str drive alice oid)

let test_drive_all_table1_rpcs () =
  (* Exercise every RPC from Table 1 at least once. *)
  let clock, _, drive = mk_drive () in
  let oid = expect_oid (Drive.handle drive alice (Rpc.Create { acl = [] })) in
  expect_unit (Drive.handle drive alice (Rpc.Write { oid; off = 0; len = 4; data = Some (bytes_of "abcd") }));
  expect_unit (Drive.handle drive alice (Rpc.Append { oid; len = 4; data = Some (bytes_of "efgh") }));
  check Alcotest.string "write+append" "abcdefgh" (read_str drive alice oid);
  expect_unit (Drive.handle drive alice (Rpc.Truncate { oid; size = 4 }));
  expect_unit (Drive.handle drive alice (Rpc.Set_attr { oid; attr = bytes_of "nfs-attrs" }));
  (match Drive.handle drive alice (Rpc.Get_attr { oid; at = None }) with
   | Rpc.R_attr b -> check Alcotest.string "attr" "nfs-attrs" (Bytes.to_string b)
   | r -> Alcotest.failf "getattr: %a" Rpc.pp_resp r);
  (match Drive.handle drive alice (Rpc.Get_acl_by_user { oid; acl_user = 1; at = None }) with
   | Rpc.R_acl e -> check Alcotest.int "owner acl" 1 e.Acl.user
   | r -> Alcotest.failf "getacl: %a" Rpc.pp_resp r);
  (match Drive.handle drive alice (Rpc.Get_acl_by_index { oid; index = 0; at = None }) with
   | Rpc.R_acl _ -> ()
   | r -> Alcotest.failf "getacl idx: %a" Rpc.pp_resp r);
  expect_unit (Drive.handle drive alice (Rpc.Set_acl { oid; index = 1; entry = Acl.public_read }));
  check Alcotest.string "bob can read now" "abcd" (read_str drive bob oid);
  expect_unit (Drive.handle drive alice (Rpc.P_create { name = "home"; oid }));
  (match Drive.handle drive bob (Rpc.P_list { at = None }) with
   | Rpc.R_names [ "home" ] -> ()
   | r -> Alcotest.failf "plist: %a" Rpc.pp_resp r);
  (match Drive.handle drive bob (Rpc.P_mount { name = "home"; at = None }) with
   | Rpc.R_oid o -> check Alcotest.int64 "pmount" oid o
   | r -> Alcotest.failf "pmount: %a" Rpc.pp_resp r);
  expect_unit (Drive.handle drive alice Rpc.Sync);
  expect_unit (Drive.handle drive alice (Rpc.P_delete { name = "home" }));
  tick clock;
  expect_unit (Drive.handle drive alice (Rpc.Delete { oid }));
  expect_unit (Drive.handle drive admin (Rpc.Set_window { window = 1_000_000_000L }));
  expect_unit (Drive.handle drive admin (Rpc.Flush_object { oid; until = 0L }));
  expect_unit (Drive.handle drive admin (Rpc.Flush { until = 0L }));
  (match Drive.handle drive admin (Rpc.Read_audit { since = 0L; until = Int64.max_int }) with
   | Rpc.R_audit rs -> check Alcotest.bool "audited" true (List.length rs > 10)
   | r -> Alcotest.failf "readaudit: %a" Rpc.pp_resp r)

let test_drive_permission_checks () =
  let _, _, drive = mk_drive () in
  let oid = create_file drive alice "private" in
  expect_error Rpc.Permission_denied (Drive.handle drive bob (Rpc.Read { oid; off = 0; len = 7; at = None }));
  expect_error Rpc.Permission_denied
    (Drive.handle drive bob (Rpc.Write { oid; off = 0; len = 1; data = Some (bytes_of "x") }));
  expect_error Rpc.Permission_denied (Drive.handle drive bob (Rpc.Delete { oid }));
  expect_error Rpc.Permission_denied (Drive.handle drive bob (Rpc.Set_attr { oid; attr = Bytes.empty }));
  expect_error Rpc.Permission_denied
    (Drive.handle drive bob (Rpc.Set_acl { oid; index = 0; entry = Acl.owner_entry ~user:2 }));
  (* Admin RPCs refused to ordinary users — even the owner. *)
  expect_error Rpc.Permission_denied (Drive.handle drive alice (Rpc.Flush { until = 0L }));
  expect_error Rpc.Permission_denied (Drive.handle drive alice (Rpc.Set_window { window = 1L }));
  expect_error Rpc.Permission_denied
    (Drive.handle drive alice (Rpc.Read_audit { since = 0L; until = 1L }))

let test_drive_admin_bypasses_acl () =
  let _, _, drive = mk_drive () in
  let oid = create_file drive alice "secret" in
  check Alcotest.string "admin reads anything" "secret" (read_str drive admin oid)

let test_drive_time_based_read_requires_recovery_flag () =
  let clock, _, drive = mk_drive () in
  (* Alice grants bob read, but NOT recovery. *)
  let acl =
    [ Acl.owner_entry ~user:1; { Acl.user = 2; client = -1; perms = [ Acl.Read ]; recovery = false } ]
  in
  let oid = create_file drive alice ~acl "version-one" in
  let t1 = Simclock.now clock in
  tick clock;
  expect_unit
    (Drive.handle drive alice (Rpc.Write { oid; off = 0; len = 11; data = Some (bytes_of "version-two") }));
  (* Bob reads current fine, but history is denied. *)
  check Alcotest.string "bob current" "version-two" (read_str drive bob oid);
  expect_error Rpc.Permission_denied
    (Drive.handle drive bob (Rpc.Read { oid; off = 0; len = 11; at = Some t1 }));
  (* Alice (owner, recovery) and admin can see the old version. *)
  check Alcotest.string "alice history" "version-one" (read_str drive alice ~at:t1 oid);
  check Alcotest.string "admin history" "version-one" (read_str drive admin ~at:t1 oid)

(* The headline property: even with the owner's credential, an
   intruder cannot remove pre-intrusion data within the window. *)
let test_drive_intruder_cannot_destroy_history () =
  let clock, _, drive = mk_drive () in
  let oid = create_file drive alice "system log: normal activity" in
  let before_intrusion = Simclock.now clock in
  tick clock;
  (* Intruder with alice's credential scrubs the log and deletes it. *)
  expect_unit (Drive.handle drive alice (Rpc.Truncate { oid; size = 0 }));
  expect_unit
    (Drive.handle drive alice (Rpc.Write { oid; off = 0; len = 6; data = Some (bytes_of "hacked") }));
  expect_unit (Drive.handle drive alice (Rpc.Delete { oid }));
  (* Flush/SetWindow with stolen user credentials fail. *)
  expect_error Rpc.Permission_denied (Drive.handle drive alice (Rpc.Flush { until = Int64.max_int }));
  (* The administrator recovers the pre-intrusion contents. *)
  check Alcotest.string "history intact" "system log: normal activity"
    (read_str drive admin ~at:before_intrusion oid);
  (* And the audit log shows exactly what the intruder did. *)
  match Drive.handle drive admin (Rpc.Read_audit { since = 0L; until = Int64.max_int }) with
  | Rpc.R_audit rs ->
    let ops = List.map (fun r -> r.Audit.op) rs in
    check Alcotest.bool "truncate audited" true (List.mem "truncate" ops);
    check Alcotest.bool "delete audited" true (List.mem "delete" ops)
  | r -> Alcotest.failf "audit: %a" Rpc.pp_resp r

let test_drive_rejected_requests_are_audited () =
  let _, _, drive = mk_drive () in
  let oid = create_file drive alice "data" in
  ignore (Drive.handle drive bob (Rpc.Read { oid; off = 0; len = 4; at = None }));
  match Drive.handle drive admin (Rpc.Read_audit { since = 0L; until = Int64.max_int }) with
  | Rpc.R_audit rs ->
    check Alcotest.bool "denied request recorded" true
      (List.exists (fun r -> r.Audit.user = 2 && not r.Audit.ok) rs)
  | r -> Alcotest.failf "audit: %a" Rpc.pp_resp r

let test_drive_not_found_and_deleted_errors () =
  let _, _, drive = mk_drive () in
  expect_error Rpc.Not_found (Drive.handle drive admin (Rpc.Read { oid = 9999L; off = 0; len = 1; at = None }));
  let oid = create_file drive alice "x" in
  expect_unit (Drive.handle drive alice (Rpc.Delete { oid }));
  expect_error Rpc.Object_deleted
    (Drive.handle drive alice (Rpc.Write { oid; off = 0; len = 1; data = Some (bytes_of "y") }))

let test_drive_partition_table_is_versioned () =
  let clock, _, drive = mk_drive () in
  let oid = create_file drive alice "fs root" in
  expect_unit (Drive.handle drive alice (Rpc.P_create { name = "vol0"; oid }));
  let t = Simclock.now clock in
  tick clock;
  expect_unit (Drive.handle drive alice (Rpc.P_delete { name = "vol0" }));
  (match Drive.handle drive alice (Rpc.P_list { at = None }) with
   | Rpc.R_names [] -> ()
   | r -> Alcotest.failf "plist now: %a" Rpc.pp_resp r);
  (* Admin sees the old partition table. *)
  match Drive.handle drive admin (Rpc.P_mount { name = "vol0"; at = Some t }) with
  | Rpc.R_oid o -> check Alcotest.int64 "old table entry" oid o
  | r -> Alcotest.failf "pmount at: %a" Rpc.pp_resp r

let test_drive_duplicate_partition_rejected () =
  let _, _, drive = mk_drive () in
  let oid = create_file drive alice "root" in
  expect_unit (Drive.handle drive alice (Rpc.P_create { name = "a"; oid }));
  match Drive.handle drive alice (Rpc.P_create { name = "a"; oid }) with
  | Rpc.R_error (Rpc.Bad_request _) -> ()
  | r -> Alcotest.failf "expected bad request, got %a" Rpc.pp_resp r

let test_drive_flush_ages_history () =
  let clock, _, drive = mk_drive () in
  let oid = create_file drive alice "v1" in
  let t1 = Simclock.now clock in
  tick clock;
  expect_unit (Drive.handle drive alice (Rpc.Write { oid; off = 0; len = 2; data = Some (bytes_of "v2") }));
  expect_unit (Drive.handle drive alice Rpc.Sync);
  tick clock;
  expect_unit (Drive.handle drive admin (Rpc.Flush { until = Simclock.now clock }));
  (* v1 was admin-flushed; current still fine. *)
  check Alcotest.string "current survives flush" "v2" (read_str drive admin oid);
  ignore t1

let test_drive_fsck_clean () =
  let clock, _, drive = mk_drive () in
  let oid = create_file drive alice "fsck me" in
  expect_unit (Drive.handle drive alice (Rpc.Write { oid; off = 0; len = 7; data = Some (bytes_of "fsck me") }));
  expect_unit (Drive.handle drive alice Rpc.Sync);
  tick clock;
  ignore (Drive.run_cleaner drive);
  check (Alcotest.list Alcotest.string) "no violations" [] (Drive.fsck drive)

let test_drive_crash_recovery () =
  let clock, disk, drive = mk_drive () in
  let oid = create_file drive alice "persistent data" in
  let t = Simclock.now clock in
  tick clock;
  expect_unit (Drive.handle drive alice (Rpc.Write { oid; off = 0; len = 10; data = Some (bytes_of "new conten") }));
  expect_unit (Drive.handle drive alice Rpc.Sync);
  check Alcotest.bool "barrier" true (Drive.barrier drive = None);
  (* Crash; reattach from the same disk. *)
  let drive2 = Drive.attach disk in
  check Alcotest.string "current recovered" "new conten data" (read_str drive2 admin oid);
  check Alcotest.string "history recovered" "persistent data" (read_str drive2 admin ~at:t oid);
  (match Drive.handle drive2 admin (Rpc.Read_audit { since = 0L; until = Int64.max_int }) with
   | Rpc.R_audit rs -> check Alcotest.bool "audit recovered" true (List.length rs > 0)
   | r -> Alcotest.failf "audit: %a" Rpc.pp_resp r);
  check (Alcotest.list Alcotest.string) "fsck after recovery" [] (Drive.fsck drive2)

let test_drive_window_persists_across_crash () =
  let _, disk, drive = mk_drive () in
  expect_unit (Drive.handle drive admin (Rpc.Set_window { window = 42_000_000_000L }));
  expect_unit (Drive.handle drive admin Rpc.Sync);
  Log.sync (Drive.log drive);
  let drive2 = Drive.attach disk in
  check Alcotest.int64 "window recovered" 42_000_000_000L (Drive.window drive2)

let test_drive_throttling_under_pressure () =
  (* A tiny drive with a small history reserve: an abuser filling the
     pool gets slowed; a well-behaved client is not throttled. *)
  let config =
    { Drive.default_config with
      history_reserve = 0.02;
      window = Int64.mul 365L (Int64.mul 86_400L 1_000_000_000L) }
  in
  let clock, _, drive = mk_drive ~mb:32 ~config () in
  let abuser = Rpc.user_cred ~user:66 ~client:666 in
  let oid = expect_oid (Drive.handle drive abuser (Rpc.Create { acl = [] })) in
  let junk = Bytes.make 8192 'j' in
  for _ = 1 to 2000 do
    expect_unit (Drive.handle drive abuser (Rpc.Write { oid; off = 0; len = 8192; data = Some junk }));
    tick clock
  done;
  ignore (Drive.handle drive abuser Rpc.Sync);
  let th = Option.get (Drive.throttle drive) in
  Throttle.set_pool_pressure th (Drive.pool_pressure drive);
  check Alcotest.bool "pressure high" true (Drive.pool_pressure drive > 0.8);
  check Alcotest.bool "abuser throttled" true (Throttle.is_throttled th ~client:666);
  check Alcotest.bool "innocent not throttled" false (Throttle.is_throttled th ~client:100);
  (* The penalty manifests as added latency on the abuser's next op. *)
  let before = Simclock.now clock in
  ignore (Drive.handle drive abuser (Rpc.Get_attr { oid; at = None }));
  let abuser_cost = Int64.sub (Simclock.now clock) before in
  check Alcotest.bool "abuser delayed" true (Int64.compare abuser_cost (Simclock.of_ms 1.0) > 0)

let test_drive_detection_window_guarantee () =
  (* The contract: a version is recoverable for at least the window,
     and may be reclaimed after it. *)
  let window = Simclock.of_seconds 10.0 in
  let config = { Drive.default_config with Drive.window } in
  let clock, _, drive = mk_drive ~config () in
  let oid = create_file drive alice "inside the window" in
  let t1 = Simclock.now clock in
  tick clock;
  expect_unit
    (Drive.handle drive alice (Rpc.Write { oid; off = 0; len = 17; data = Some (bytes_of "OVERWRITTEN nowww") }));
  expect_unit (Drive.handle drive alice Rpc.Sync);
  (* Just inside the window: the cleaner must not touch v1. *)
  Simclock.advance clock (Simclock.of_seconds 5.0);
  ignore (Drive.run_cleaner drive);
  check Alcotest.string "still recoverable inside window" "inside the window"
    (read_str drive admin ~at:t1 oid);
  (* Well past the window: aging may reclaim it. *)
  Simclock.advance clock (Simclock.of_seconds 60.0);
  ignore (Drive.run_cleaner drive);
  (match Drive.handle drive admin (Rpc.Read { oid; off = 0; len = 17; at = Some t1 }) with
   | Rpc.R_data b when Bytes.to_string b = "inside the window" ->
     Alcotest.fail "expired version should have been reclaimed"
   | _ -> ());
  (* The current version is of course untouched. *)
  check Alcotest.string "current intact" "OVERWRITTEN nowww" (read_str drive admin oid);
  check (Alcotest.list Alcotest.string) "fsck clean" [] (Drive.fsck drive)

let test_drive_set_window_shrinks_guarantee () =
  let config = { Drive.default_config with Drive.window = Simclock.of_seconds 3600.0 } in
  let clock, _, drive = mk_drive ~config () in
  let oid = create_file drive alice "history" in
  let t1 = Simclock.now clock in
  tick clock;
  expect_unit (Drive.handle drive alice (Rpc.Write { oid; off = 0; len = 3; data = Some (bytes_of "new") }));
  expect_unit (Drive.handle drive alice Rpc.Sync);
  Simclock.advance clock (Simclock.of_seconds 60.0);
  ignore (Drive.run_cleaner drive);
  check Alcotest.string "long window keeps it" "history" (read_str drive admin ~at:t1 oid);
  (* Admin shrinks the window; the old version becomes reclaimable. *)
  expect_unit (Drive.handle drive admin (Rpc.Set_window { window = Simclock.of_seconds 1.0 }));
  ignore (Drive.run_cleaner drive);
  match Drive.handle drive admin (Rpc.Read { oid; off = 0; len = 7; at = Some t1 }) with
  | Rpc.R_data b when Bytes.to_string b = "history" -> Alcotest.fail "window shrink ignored"
  | _ -> ()

(* --- Client / network ---------------------------------------------------- *)

let test_drive_no_space_is_an_error_not_a_crash () =
  (* Fill a tiny drive (no cleaner runs, generous window): the drive
     must fail requests with No_space, not die. *)
  let clock, _, drive = mk_drive ~mb:4 () in
  let oid = create_file drive alice "seed" in
  let filler = create_file drive alice "filler" in
  let junk = Bytes.make 65536 'f' in
  let saw_no_space = ref false in
  (try
     for i = 1 to 200 do
       match
         Drive.handle drive alice
           (Rpc.Write { oid = filler; off = i * 65536; len = 65536; data = Some junk })
       with
       | Rpc.R_error Rpc.No_space ->
         saw_no_space := true;
         raise Exit
       | _ -> tick clock
     done
   with Exit -> ());
  check Alcotest.bool "No_space surfaced" true !saw_no_space;
  (* Reads still work. *)
  check Alcotest.string "drive still serves reads" "seed" (read_str drive alice oid)

(* The modelled network as a [Backend.t] decorator (Fig. 1a): each
   request pays its round trip after the batch. *)
let test_client_rpc_costs_time () =
  let clock, _, drive = mk_drive () in
  let net = Net.create clock in
  let b = Backend.over_net net (Drive.backend drive) in
  let before = Simclock.now clock in
  let oid = expect_oid (Backend.handle b alice (Rpc.Create { acl = [] })) in
  check Alcotest.bool "network time charged" true (Int64.compare (Simclock.now clock) before > 0);
  check Alcotest.int "rpc counted" 1 (Net.stats net).Net.rpcs;
  ignore oid

let test_client_payload_costs_bandwidth () =
  let clock, _, drive = mk_drive () in
  let net = Net.create clock in
  let b = Backend.over_net net (Drive.backend drive) in
  let oid = expect_oid (Backend.handle b alice (Rpc.Create { acl = [] })) in
  let t0 = Simclock.now clock in
  expect_unit (Backend.handle b alice (Rpc.Write { oid; off = 0; len = 64; data = Some (Bytes.make 64 'a') }));
  let small = Int64.sub (Simclock.now clock) t0 in
  let t1 = Simclock.now clock in
  expect_unit
    (Backend.handle b alice
       (Rpc.Write { oid; off = 0; len = 1 lsl 20; data = Some (Bytes.make (1 lsl 20) 'b') }));
  let big = Int64.sub (Simclock.now clock) t1 in
  check Alcotest.bool "1MB write much slower than 64B" true
    (Int64.to_float big > 5.0 *. Int64.to_float small);
  check Alcotest.int "one rpc per request" 3 (Net.stats net).Net.rpcs

(* A sync batch on a full log: the barrier's audit and journal flush
   find no segment. The batch must answer [No_space] in every slot that
   had succeeded, as an explicit [Sync] does, not raise out of submit. *)
let test_sync_batch_on_full_log () =
  let _, _, d = mk_drive ~mb:4 () in
  let oid = expect_oid (Drive.handle d admin (Rpc.Create { acl = [] })) in
  let chunk = 64 * 1024 in
  let data = Bytes.make chunk 'z' in
  let batch i =
    [| Rpc.Write { oid; off = i * chunk; len = chunk; data = Some data }; Rpc.Get_attr { oid; at = None } |]
  in
  let rec fill i =
    if i > 1000 then Alcotest.fail "log never filled";
    let resps = Drive.submit d admin ~sync:true (batch i) in
    if Array.exists (fun r -> r = Rpc.R_error Rpc.No_space) resps then
      Array.iter
        (function
          | Rpc.R_error Rpc.No_space -> ()
          | r -> Alcotest.failf "slot of a refused batch reads %a" Rpc.pp_resp r)
        resps
    else fill (i + 1)
  in
  fill 0;
  (* Full now: a read-only batch still needs the barrier's audit flush. *)
  let resps = Drive.submit d admin ~sync:true [| Rpc.Get_attr { oid; at = None } |] in
  check Alcotest.bool "barrier refusal answers No_space" true (resps = [| Rpc.R_error Rpc.No_space |])

(* A copy of the platter, as a crash at this instant would leave it. *)
let copy_disk disk =
  let copy = Sim_disk.create ~geometry:(Sim_disk.geometry disk) (Simclock.create ()) in
  let sectors = Sim_disk.capacity_sectors disk in
  let step = 2048 in
  let rec go lba =
    if lba < sectors then begin
      Sim_disk.poke copy ~lba ~data:(Sim_disk.peek disk ~lba ~sectors:(min step (sectors - lba)));
      go (lba + step)
    end
  in
  go 0;
  Sim_disk.set_saved_head copy (Sim_disk.saved_head disk);
  copy

(* On a full log, a refused write must not touch the platter (the
   current segment is already closed and summarised), and a crash
   afterwards recovers what a crash before it would have. *)
let test_refused_writes_write_nothing () =
  let _, disk, d = mk_drive ~mb:16 () in
  let oid = expect_oid (Drive.handle d admin (Rpc.Create { acl = [] })) in
  let chunk = 64 * 1024 in
  let data = Bytes.make chunk 'f' in
  let write i = Rpc.Write { oid; off = i * chunk; len = chunk; data = Some data } in
  let rec fill i =
    if i > 1000 then Alcotest.fail "log never filled";
    if Array.exists (fun r -> r = Rpc.R_error Rpc.No_space) (Drive.submit d admin ~sync:true [| write i |])
    then i
    else fill (i + 1)
  in
  let next = fill 0 in
  let before_crash = copy_disk disk in
  let writes0 = (Sim_disk.stats disk).Sim_disk.writes in
  let summaries0 = (Log.stats (Drive.log d)).Log.summaries_written in
  for i = 1 to 10 do
    match Drive.handle d admin (write (next + i)) with
    | Rpc.R_error Rpc.No_space -> ()
    | r -> Alcotest.failf "refused write %d: %a" i Rpc.pp_resp r
  done;
  check Alcotest.int "no disk writes" 0 ((Sim_disk.stats disk).Sim_disk.writes - writes0);
  check Alcotest.int "no summaries" 0
    ((Log.stats (Drive.log d)).Log.summaries_written - summaries0);
  let trail disk = Audit.records (Drive.audit (Drive.attach disk)) () in
  check Alcotest.int "attach recovers the same audit trail"
    (List.length (trail before_crash)) (List.length (trail disk));
  check Alcotest.bool "same records" true (trail before_crash = trail disk);
  check Alcotest.(list string) "fsck clean" [] (Drive.fsck (Drive.attach disk))

(* 500 refused sync writes on a full drive: the audit records of the
   refused requests outgrow a block and every flush of them finds no
   segment. No exception may escape, no record may be lost, and the
   barrier keeps answering [No_space]. *)
let test_full_log_keeps_audit_records () =
  let _, _, d = mk_drive ~mb:16 () in
  let oid = expect_oid (Drive.handle d admin (Rpc.Create { acl = [] })) in
  let chunk = 64 * 1024 in
  let data = Bytes.make chunk 'f' in
  let refused = ref 0 and i = ref 0 in
  while !refused < 500 do
    if !i > 5000 then Alcotest.fail "log never filled";
    let resps = Drive.submit d admin ~sync:true [| Rpc.Write { oid; off = !i * chunk; len = chunk; data = Some data } |] in
    if resps = [| Rpc.R_error Rpc.No_space |] then incr refused;
    incr i
  done;
  check Alcotest.bool "barrier answers No_space" true (Drive.barrier d = Some Rpc.No_space);
  let audit = Drive.audit d in
  let count = Audit.record_count audit in
  match Drive.handle d admin (Rpc.Read_audit { since = 0L; until = Int64.max_int }) with
  | Rpc.R_audit records ->
    check Alcotest.int "one record per request" (1 + !i) count;
    check Alcotest.int "every record readable" count (List.length records)
  | r -> Alcotest.failf "read_audit: %a" Rpc.pp_resp r

(* A media fault in the segment close that follows a placed block must
   not fail the append that placed it: the audit block is taken, so its
   records leave the buffer, and the close completes at the next
   append. Re-flushing those records would write them twice, and the
   verifier would report overlapping blocks. *)
let test_fault_in_trailing_close () =
  let _, disk, d = mk_drive ~mb:16 () in
  let pol = S4_disk.Fault.create ~config:S4_disk.Fault.quiet (S4_util.Rng.create ~seed:7) in
  Sim_disk.set_fault disk (Some pol);
  let oid = expect_oid (Drive.handle d admin (Rpc.Create { acl = [] })) in
  let log = Drive.log d in
  let last_slot = Log.blocks_per_segment log - 2 in
  let open_written () =
    match List.find_opt (fun i -> i.Log.seg_state = Log.Open) (Array.to_list (Log.segments log)) with
    | Some i -> i.Log.seg_written
    | None -> -1
  in
  let rec fill i =
    if i > 2000 then Alcotest.fail "no segment stopped one slot short";
    if open_written () <> last_slot then begin
      expect_unit
        (Drive.handle d admin (Rpc.Write { oid; off = i * 4096; len = 4096; data = Some (Bytes.make 4096 'd') }));
      fill (i + 1)
    end
  in
  fill 0;
  S4_disk.Fault.fail_next pol ~writes:1 ~transient:false;
  ignore (Drive.barrier d);
  check Alcotest.bool "clean second barrier" true (Drive.barrier d = None);
  (match Drive.handle d admin (Rpc.Verify_log { from = None }) with
   | Rpc.R_verify v ->
     check Alcotest.(list string) "verify clean" [] v.S4_integrity.Chain.v_errors
   | r -> Alcotest.failf "verify: %a" Rpc.pp_resp r);
  let count = Audit.record_count (Drive.audit d) in
  match Drive.handle d admin (Rpc.Read_audit { since = 0L; until = Int64.max_int }) with
  | Rpc.R_audit records -> check Alcotest.int "every record once" count (List.length records)
  | r -> Alcotest.failf "read_audit: %a" Rpc.pp_resp r

(* Erase everything past the log's reserved first segment, keeping the
   superblock in it: the log area of a wiped image. *)
let wipe_log_area disk =
  let sectors = Sim_disk.capacity_sectors disk in
  let from = 128 * 8 (* one reserved 128-block segment of 8-sector blocks *) in
  let step = 2048 in
  let rec go lba =
    if lba < sectors then begin
      Sim_disk.write disk ~lba ~sectors:(min step (sectors - lba)) ();
      go (lba + step)
    end
  in
  go from

let anchor_errors d = List.filter (String.starts_with ~prefix:"device anchor") (Drive.fsck d)

(* The device-held anchor fails closed: a synced drive whose log area
   is wiped attaches degraded, fsck names the anchor, and the event is
   on the audit trail once, also after several barriers and a reattach
   of the image they wrote. A clean reattach, and a crash image whose
   chain runs past the anchor, stay clean. *)
let test_off_chain_anchor_fails_closed () =
  let _, disk, d = mk_drive ~mb:16 () in
  let oid = create_file d alice "anchored" in
  for i = 1 to 20 do
    expect_unit (Drive.handle d alice (Rpc.Write { oid; off = i * 100; len = 5; data = Some (bytes_of "hello") }))
  done;
  check Alcotest.bool "synced" true (Drive.barrier d = None);
  check Alcotest.bool "anchor set" true (Sim_disk.saved_head disk <> None);
  let clean = Drive.attach (copy_disk disk) in
  check Alcotest.bool "clean reattach not degraded" false (Drive.degraded clean);
  check Alcotest.(list string) "clean reattach fsck" [] (Drive.fsck clean);
  (* Past the barrier: enough records to flush audit blocks, and enough
     data to close segments, so they reach the platter unsealed. *)
  for i = 1 to 400 do
    expect_unit (Drive.handle d alice (Rpc.Write { oid; off = 4096 * i; len = 4096; data = Some (Bytes.make 4096 'x') }))
  done;
  let crashed = copy_disk disk in
  check Alcotest.bool "anchor unchanged" true (Sim_disk.saved_head crashed = Sim_disk.saved_head disk);
  let d2 = Drive.attach crashed in
  check Alcotest.bool "chain runs past the anchor" true
    (Audit.chained (Drive.audit d2) > (Option.get (Sim_disk.saved_head disk)).S4_integrity.Chain.records);
  check Alcotest.bool "crash image not degraded" false (Drive.degraded d2);
  check Alcotest.(list string) "crash image fsck" [] (Drive.fsck d2);
  let wiped = copy_disk disk in
  wipe_log_area wiped;
  let d3 = Drive.attach wiped in
  check Alcotest.bool "wiped image degraded" true (Drive.degraded d3);
  check Alcotest.int "fsck names the anchor" 1 (List.length (anchor_errors d3));
  let stats = Format.asprintf "%a" Drive.pp_stats d3 in
  let k = "device anchor off chain" in
  let rec has i = i + String.length k <= String.length stats && (String.sub stats i (String.length k) = k || has (i + 1)) in
  check Alcotest.bool "pp_stats says so" true (has 0);
  let anchor_events d =
    match Drive.handle d admin (Rpc.Read_audit { since = 0L; until = Int64.max_int }) with
    | Rpc.R_audit rs ->
      List.filter
        (fun r -> r.Audit.op = "attach" && (not r.Audit.ok) && String.starts_with ~prefix:"device anchor off chain" r.Audit.info)
        rs
    | r -> Alcotest.failf "read_audit: %a" Rpc.pp_resp r
  in
  check Alcotest.int "the event is on the trail" 1 (List.length (anchor_events d3));
  for _ = 1 to 3 do
    ignore (create_file d3 alice "after the wipe");
    check Alcotest.bool "barrier after the wipe" true (Drive.barrier d3 = None)
  done;
  check Alcotest.int "once, after several barriers" 1 (List.length (anchor_events d3));
  check Alcotest.int "once, after a reattach" 1 (List.length (anchor_events (Drive.attach (copy_disk wiped))))

(* An image written in another on-disk format is refused at attach,
   before recovery reads any of its blocks, with both versions named:
   version 1 (pre-chain audit blocks), version 2 (a standalone audit
   block per barrier) and version 3 (standalone audit blocks between
   barriers). *)
let test_superblock_version_checked () =
  let _, disk, d = mk_drive ~mb:16 () in
  check Alcotest.bool "synced" true (Drive.barrier d = None);
  let log = Drive.log d in
  List.iter
    (fun v ->
      let sb = Log.read_superblock log in
      Bytes.set sb 4 (Char.chr v) (* the version byte, after the 4-byte magic *);
      Log.write_superblock log sb;
      match Drive.attach (copy_disk disk) with
      | _ -> Alcotest.failf "a version %d image attached" v
      | exception Invalid_argument m ->
        check Alcotest.string "names both versions"
          (Printf.sprintf "Drive.attach: on-disk format version %d, this build reads version 4" v)
          m)
    [ 1; 2; 3 ]

(* A negative oid is a malformed request: it answers [Bad_request] and
   leaves one audit record naming no object (the audit encoding has no
   negative oids). *)
let test_negative_oid_is_bad_request () =
  let _, _, d = mk_drive () in
  let n0 = Audit.record_count (Drive.audit d) in
  (match Drive.handle d alice (Rpc.Get_attr { oid = -5L; at = None }) with
   | Rpc.R_error (Rpc.Bad_request _) -> ()
   | r -> Alcotest.failf "get_attr -5: %a" Rpc.pp_resp r);
  check Alcotest.int "one audit record" (n0 + 1) (Audit.record_count (Drive.audit d));
  match List.rev (Audit.records (Drive.audit d) ()) with
  | r :: _ ->
    check Alcotest.bool "refused" false r.Audit.ok;
    check Alcotest.int64 "names no object" 0L r.Audit.oid;
    check Alcotest.string "request kept in info" "oid=-5" r.Audit.info
  | [] -> Alcotest.fail "no audit record"

let () =
  Alcotest.run "s4_core"
    [
      ( "acl",
        [
          Alcotest.test_case "roundtrip" `Quick test_acl_roundtrip;
          Alcotest.test_case "matching" `Quick test_acl_matching;
          Alcotest.test_case "client scoping" `Quick test_acl_client_scoping;
          Alcotest.test_case "indexing" `Quick test_acl_indexing;
          qtest prop_acl_roundtrip;
        ] );
      ( "audit",
        [
          Alcotest.test_case "block roundtrip" `Quick test_audit_record_block_roundtrip;
          Alcotest.test_case "buffering" `Quick test_audit_buffering;
          Alcotest.test_case "time filter" `Quick test_audit_time_filter;
          Alcotest.test_case "disabled" `Quick test_audit_disabled;
          Alcotest.test_case "expire" `Quick test_audit_expire;
          Alcotest.test_case "recover" `Quick test_audit_recover;
          Alcotest.test_case "overgrown buffer goes out at the barrier" `Quick test_audit_overgrown_buffer_barrier;
        ] );
      ( "throttle",
        [
          Alcotest.test_case "quiescent" `Quick test_throttle_quiescent;
          Alcotest.test_case "abuser penalised" `Quick test_throttle_abuser_penalised;
          Alcotest.test_case "decay" `Quick test_throttle_decay;
          Alcotest.test_case "penalty scaling" `Quick test_throttle_penalty_scales_with_pressure;
        ] );
      ( "drive",
        [
          Alcotest.test_case "sync batch on a full log" `Quick test_sync_batch_on_full_log;
          Alcotest.test_case "refused writes on a full log write nothing" `Quick
            test_refused_writes_write_nothing;
          Alcotest.test_case "negative oid answers bad_request" `Quick
            test_negative_oid_is_bad_request;
          Alcotest.test_case "a fault in the trailing segment close" `Quick test_fault_in_trailing_close;
          Alcotest.test_case "a full log keeps every audit record" `Quick
            test_full_log_keeps_audit_records;
          Alcotest.test_case "an off-chain device anchor fails closed" `Quick
            test_off_chain_anchor_fails_closed;
          Alcotest.test_case "another format version is refused" `Quick test_superblock_version_checked;
          Alcotest.test_case "create/write/read" `Quick test_drive_create_write_read;
          Alcotest.test_case "all Table-1 RPCs" `Quick test_drive_all_table1_rpcs;
          Alcotest.test_case "permission checks" `Quick test_drive_permission_checks;
          Alcotest.test_case "admin bypass" `Quick test_drive_admin_bypasses_acl;
          Alcotest.test_case "recovery flag" `Quick test_drive_time_based_read_requires_recovery_flag;
          Alcotest.test_case "intruder cannot destroy history" `Quick
            test_drive_intruder_cannot_destroy_history;
          Alcotest.test_case "rejections audited" `Quick test_drive_rejected_requests_are_audited;
          Alcotest.test_case "error mapping" `Quick test_drive_not_found_and_deleted_errors;
          Alcotest.test_case "partition table versioned" `Quick test_drive_partition_table_is_versioned;
          Alcotest.test_case "duplicate partition" `Quick test_drive_duplicate_partition_rejected;
          Alcotest.test_case "flush ages history" `Quick test_drive_flush_ages_history;
          Alcotest.test_case "fsck clean" `Quick test_drive_fsck_clean;
          Alcotest.test_case "crash recovery" `Quick test_drive_crash_recovery;
          Alcotest.test_case "window persists" `Quick test_drive_window_persists_across_crash;
          Alcotest.test_case "throttling" `Quick test_drive_throttling_under_pressure;
          Alcotest.test_case "no-space error" `Quick test_drive_no_space_is_an_error_not_a_crash;
          Alcotest.test_case "detection window guarantee" `Quick test_drive_detection_window_guarantee;
          Alcotest.test_case "setwindow shrinks" `Quick test_drive_set_window_shrinks_guarantee;
        ] );
      ( "client",
        [
          Alcotest.test_case "rpc costs time" `Quick test_client_rpc_costs_time;
          Alcotest.test_case "bandwidth" `Quick test_client_payload_costs_bandwidth;
        ] );
    ]
