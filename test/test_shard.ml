(* Tests for the sharded scale-out array: consistent-hash placement
   stability, the router's drive-shaped surface (oracle: a bare drive
   fed the same op stream), fan-out semantics, degraded-shard
   reporting, and history-preserving online rebalancing. *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Fault = S4_disk.Fault
module Rng = S4_util.Rng
module Drive = S4.Drive
module Rpc = S4.Rpc
module Store = S4_store.Obj_store
module Mirror = S4_multi.Mirror
module Ring = S4_shard.Ring
module Router = S4_shard.Router

let check = Alcotest.check
let alice = Rpc.user_cred ~user:1 ~client:1

let geom mb = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)

let content_config =
  { Drive.default_config with store = { Store.default_config with keep_data = true } }

let mk_drive ?(mb = 64) clock =
  Drive.format ~config:content_config (Sim_disk.create ~geometry:(geom mb) clock)

let mk_array ?vnodes ?(mb = 64) n =
  let clock = Simclock.create () in
  let members = List.init n (fun i -> (i, Router.Single (mk_drive ~mb clock))) in
  (clock, Router.create ?vnodes members)

let expect_oid = function
  | Rpc.R_oid oid -> oid
  | r -> Alcotest.failf "expected oid, got %a" Rpc.pp_resp r

let expect_unit = function
  | Rpc.R_unit -> ()
  | r -> Alcotest.failf "expected unit, got %a" Rpc.pp_resp r

let create r = expect_oid (Router.handle r alice (Rpc.Create { acl = [] }))

let write r oid s =
  expect_unit
    (Router.handle r alice
       (Rpc.Write { oid; off = 0; len = String.length s; data = Some (Bytes.of_string s) }))

let read_str ?at r oid =
  match Router.handle r alice (Rpc.Read { oid; off = 0; len = 1 lsl 16; at }) with
  | Rpc.R_data b -> Bytes.to_string b
  | r -> Alcotest.failf "read: %a" Rpc.pp_resp r

let holder_store r oid =
  match Router.member r (Router.shard_of r oid) with
  | Router.Single d -> Drive.store d
  | Router.Mirrored m -> Drive.store (Mirror.drive m Mirror.Primary)

let shard_disk r id =
  match Router.member r id with
  | Router.Single d -> S4_seglog.Log.disk (Drive.log d)
  | Router.Mirrored m -> S4_seglog.Log.disk (Drive.log (Mirror.drive m Mirror.Primary))

(* --- Ring ------------------------------------------------------------- *)

let test_ring_placement_stability () =
  let ring = Ring.create () in
  List.iter (Ring.add ring) [ 0; 1; 2; 3 ];
  let oids = List.init 1000 (fun i -> Int64.of_int (i + 2)) in
  let before = List.map (fun oid -> (oid, Ring.owner ring oid)) oids in
  (* Every member owns a nontrivial share of the space. *)
  List.iter
    (fun m ->
      let share = List.length (List.filter (fun (_, o) -> o = m) before) in
      if share < 50 then Alcotest.failf "member %d owns only %d/1000 keys" m share)
    [ 0; 1; 2; 3 ];
  (* Adding a member only captures keys: no key moves between two
     pre-existing members. *)
  Ring.add ring 4;
  let moved = ref 0 in
  List.iter
    (fun (oid, old) ->
      let now = Ring.owner ring oid in
      if now <> old then begin
        check Alcotest.int "moved keys go to the new member only" 4 now;
        incr moved
      end)
    before;
  if !moved = 0 then Alcotest.fail "new member captured nothing";
  (* Removing it restores the exact old placement (determinism). *)
  Ring.remove ring 4;
  List.iter
    (fun (oid, old) -> check Alcotest.int "placement restored" old (Ring.owner ring oid))
    before;
  (* Same membership in a fresh ring places identically. *)
  let ring' = Ring.create () in
  List.iter (Ring.add ring') [ 3; 1; 0; 2 ];
  List.iter
    (fun (oid, old) -> check Alcotest.int "order-independent" old (Ring.owner ring' oid))
    before

(* --- Single-shard router == bare drive (oracle) ----------------------- *)

let resp_string = function
  | Rpc.R_data b -> Printf.sprintf "data:%s" (Digest.to_hex (Digest.bytes b))
  | r -> Format.asprintf "%a" Rpc.pp_resp r

let oracle_ops oids =
  let arr = Array.of_list oids in
  let oid i = arr.(i mod Array.length arr) in
  [
    Rpc.Write { oid = oid 0; off = 0; len = 700; data = Some (Bytes.make 700 'a') };
    Rpc.Write { oid = oid 1; off = 4000; len = 500; data = Some (Bytes.make 500 'b') };
    Rpc.Append { oid = oid 0; len = 300; data = Some (Bytes.make 300 'c') };
    Rpc.Sync;
    Rpc.Read { oid = oid 0; off = 0; len = 1000; at = None };
    Rpc.Truncate { oid = oid 1; size = 100 };
    Rpc.Set_attr { oid = oid 2; attr = Bytes.of_string "meta" };
    Rpc.Get_attr { oid = oid 2; at = None };
    Rpc.Write { oid = oid 2; off = 50; len = 200; data = Some (Bytes.make 200 'd') };
    Rpc.Sync;
    Rpc.Read { oid = oid 1; off = 0; len = 4096; at = None };
    Rpc.Delete { oid = oid 3 };
    Rpc.Read { oid = oid 3; off = 0; len = 10; at = None };
    Rpc.P_create { name = "vol"; oid = oid 0 };
    Rpc.P_mount { name = "vol"; at = None };
    Rpc.P_list { at = None };
    Rpc.Sync;
  ]

let test_single_shard_matches_bare_drive () =
  let bare = mk_drive (Simclock.create ()) in
  let _, router = mk_array 1 in
  (* Same creates produce the same oids on both sides. *)
  let boids = List.init 4 (fun _ -> expect_oid (Drive.handle bare alice (Rpc.Create { acl = [] }))) in
  let roids = List.init 4 (fun _ -> create router) in
  check (Alcotest.list Alcotest.int64) "oid allocation" boids roids;
  List.iter
    (fun req ->
      let rb = Drive.handle bare alice req in
      let rr = Router.handle router alice req in
      check Alcotest.string
        (Format.asprintf "response to %s" (Rpc.op_name req))
        (resp_string rb) (resp_string rr))
    (oracle_ops boids);
  (* The clocks advanced identically: phantom-delta charging is
     faithful to direct disk accounting. *)
  check Alcotest.int64 "clock parity"
    (Simclock.now (Drive.clock bare))
    (Simclock.now (Router.clock router));
  (* Version histories are identical, and every retained version reads
     back the same through both surfaces. *)
  List.iter
    (fun oid ->
      let vb = Store.versions (Drive.store bare) oid in
      let vr = Store.versions (holder_store router oid) oid in
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int64))
        "version history"
        (List.map (fun (e : S4_store.Entry.t) -> (e.S4_store.Entry.seq, e.S4_store.Entry.time)) vb)
        (List.map (fun (e : S4_store.Entry.t) -> (e.S4_store.Entry.seq, e.S4_store.Entry.time)) vr);
      List.iter
        (fun (e : S4_store.Entry.t) ->
          let at = Some e.S4_store.Entry.time in
          let rb = Drive.handle bare alice (Rpc.Read { oid; off = 0; len = 1 lsl 16; at }) in
          let rr = Router.handle router alice (Rpc.Read { oid; off = 0; len = 1 lsl 16; at }) in
          check Alcotest.string "historical read" (resp_string rb) (resp_string rr))
        vb)
    boids

(* --- Fan-out semantics ------------------------------------------------ *)

let test_fanout_admin_and_audit () =
  let _, router = mk_array 3 in
  let oids = List.init 12 (fun _ -> create router) in
  List.iteri (fun i oid -> write router oid (Printf.sprintf "object %d" i)) oids;
  (* Objects really spread over the members. *)
  let holders = List.sort_uniq compare (List.map (Router.shard_of router) oids) in
  if List.length holders < 2 then Alcotest.fail "all objects landed on one shard";
  expect_unit (Router.handle router alice Rpc.Sync);
  expect_unit (Router.handle router Rpc.admin_cred (Rpc.Set_window { window = 1_000_000_000L }));
  expect_unit (Router.handle router Rpc.admin_cred (Rpc.Flush { until = 1L }));
  (* Audit fan-out merges every shard's records in time order and
     covers activity on every holding shard. *)
  match Router.handle router Rpc.admin_cred (Rpc.Read_audit { since = 0L; until = Int64.max_int }) with
  | Rpc.R_audit records ->
    if List.length records < List.length oids then
      Alcotest.failf "audit too small: %d records" (List.length records);
    let rec sorted = function
      | a :: (b :: _ as rest) ->
        if Int64.compare a.S4.Audit.at b.S4.Audit.at > 0 then false else sorted rest
      | _ -> true
    in
    if not (sorted records) then Alcotest.fail "audit records not time-ordered";
    let audited = List.map (fun r -> r.S4.Audit.oid) records in
    List.iter
      (fun oid ->
        if not (List.mem oid audited) then
          Alcotest.failf "object %Ld missing from merged audit" oid)
      oids
  | r -> Alcotest.failf "audit: %a" Rpc.pp_resp r

(* --- Degraded-shard reporting ----------------------------------------- *)

let oid_on router shard =
  let rec loop n =
    if n > 64 then Alcotest.failf "no object landed on shard %d" shard
    else
      let oid = create router in
      if Router.shard_of router oid = shard then oid else loop (n + 1)
  in
  loop 0

let test_degraded_shard_reporting () =
  let _, router = mk_array 2 in
  let victim = oid_on router 1 in
  let healthy = oid_on router 0 in
  check Alcotest.bool "initially healthy" false (Router.degraded router);
  let policy = Fault.create (Rng.create ~seed:7) in
  Sim_disk.set_fault (shard_disk router 1) (Some policy);
  Fault.fail_next policy ~writes:100 ~transient:false;
  (match
     (Router.submit router alice ~sync:true
        [| Rpc.Write { oid = victim; off = 0; len = 64; data = Some (Bytes.make 64 'x') } |]).(0)
   with
  | Rpc.R_error (Rpc.Io_error _) -> ()
  | r -> Alcotest.failf "expected Io_error, got %a" Rpc.pp_resp r);
  Sim_disk.set_fault (shard_disk router 1) None;
  check (Alcotest.list Alcotest.int) "degraded shard listed" [ 1 ] (Router.degraded_shards router);
  check Alcotest.bool "array degraded" true (Router.degraded router);
  if Router.io_errors router < 1 then Alcotest.fail "io_errors not counted";
  (* The healthy shard keeps serving. *)
  write router healthy "still fine";
  check Alcotest.string "healthy shard serves" "still fine" (read_str router healthy)

let test_mirrored_shard_fails_over () =
  let clock = Simclock.create () in
  let mirror = Mirror.create (mk_drive clock) (mk_drive clock) in
  let members = [ (0, Router.Mirrored mirror); (1, Router.Single (mk_drive clock)) ] in
  let router = Router.create members in
  let victim = oid_on router 0 in
  write router victim "replicated";
  (* Fail the primary replica's disk: the mirror absorbs the fault, so
     the array never reports the shard degraded. *)
  let pdisk = S4_seglog.Log.disk (Drive.log (Mirror.drive mirror Mirror.Primary)) in
  let policy = Fault.create (Rng.create ~seed:8) in
  Sim_disk.set_fault pdisk (Some policy);
  Fault.fail_next policy ~writes:100 ~transient:false;
  expect_unit
    (Router.submit router alice ~sync:true
       [| Rpc.Write { oid = victim; off = 0; len = 10; data = Some (Bytes.of_string "new bytes!") } |]).(0);
  Sim_disk.set_fault pdisk None;
  check (Alcotest.list Alcotest.int) "no degraded shards" [] (Router.degraded_shards router);
  check Alcotest.bool "mirror noticed the dead replica" true (Mirror.is_failed mirror Mirror.Primary);
  check Alcotest.string "data survived failover" "new bytes!" (read_str router victim)

(* --- Online rebalancing ----------------------------------------------- *)

(* Observable history of an oid through the router surface: for every
   retained version timestamp, the (size-extended) content digest. *)
let history router oid =
  let entries = Store.versions (holder_store router oid) oid in
  List.filter_map
    (fun (e : S4_store.Entry.t) ->
      let at = Some e.S4_store.Entry.time in
      match Router.handle router alice (Rpc.Read { oid; off = 0; len = 1 lsl 16; at }) with
      | Rpc.R_data b ->
        Some (e.S4_store.Entry.time, Printf.sprintf "%d:%s" (Bytes.length b) (Digest.to_hex (Digest.bytes b)))
      | Rpc.R_error Rpc.Object_deleted | Rpc.R_error Rpc.Not_found ->
        Some (e.S4_store.Entry.time, "absent")
      | r -> Alcotest.failf "history read %Ld: %a" oid Rpc.pp_resp r)
    entries

let test_rebalance_preserves_every_version () =
  let clock, router = mk_array 2 in
  let oids = List.init 24 (fun _ -> create router) in
  (* Several distinct versions per object, spaced in time. *)
  for v = 1 to 3 do
    List.iteri
      (fun i oid ->
        write router oid (Printf.sprintf "object %d version %d" i v);
        Simclock.advance clock 1_000_000L)
      oids
  done;
  expect_unit (Router.handle router alice Rpc.Sync);
  let before = List.map (fun oid -> (oid, history router oid)) oids in
  (* Membership change: a third drive joins the live array. *)
  let queued = Router.add_shard router 2 (Router.Single (mk_drive clock)) in
  if queued = 0 then Alcotest.fail "new member captured no objects";
  check Alcotest.int "migrations queued" queued (Router.pending_migrations router);
  (* Mid-migration: forwarding keeps every object readable from its old
     home, historical versions included. *)
  List.iter
    (fun (oid, h) -> check (Alcotest.list (Alcotest.pair Alcotest.int64 Alcotest.string))
        "forwarded history" h (history router oid))
    before;
  let moved, errors = Router.rebalance router in
  check (Alcotest.list Alcotest.string) "no migration errors" [] errors;
  check Alcotest.int "every queued move completed" queued moved;
  check Alcotest.int "queue drained" 0 (Router.pending_migrations router);
  (* Post-cutover: placement is clean and every version of every object
     still answers identically at every timestamp. *)
  check (Alcotest.list Alcotest.string) "fsck clean" [] (Router.fsck router);
  let relocated = ref 0 in
  List.iter
    (fun (oid, h) ->
      if Router.shard_of router oid = 2 then incr relocated;
      check
        (Alcotest.list (Alcotest.pair Alcotest.int64 Alcotest.string))
        (Printf.sprintf "history of %Ld" oid)
        h (history router oid))
    before;
  if !relocated = 0 then Alcotest.fail "no test object actually moved";
  let stats = Router.migration_stats router in
  if stats.Router.objects < queued then Alcotest.fail "migration stats undercount";
  (* The array still takes writes, including to relocated objects. *)
  List.iter (fun oid -> write router oid "after rebalance") oids;
  List.iter
    (fun oid ->
      match Router.handle router alice (Rpc.Read { oid; off = 0; len = 15; at = None }) with
      | Rpc.R_data b ->
        check Alcotest.string "post-rebalance write" "after rebalance" (Bytes.to_string b)
      | r -> Alcotest.failf "post-rebalance read: %a" Rpc.pp_resp r)
    oids

let test_rebalance_preserves_deleted_versions () =
  let clock, router = mk_array 2 in
  let oid = oid_on router 0 in
  write router oid "short-lived";
  Simclock.advance clock 1_000_000L;
  expect_unit (Router.handle router alice (Rpc.Delete { oid }));
  expect_unit (Router.handle router alice Rpc.Sync);
  let h = history router oid in
  (* Keep adding members (rebalancing each time) until the deleted
     object gets reassigned off its original home. Placement is
     deterministic, so this terminates identically on every run. *)
  let rec relocate id =
    if id > 8 then Alcotest.fail "object never reassigned"
    else begin
      ignore (Router.add_shard router id (Router.Single (mk_drive clock)));
      let _, errors = Router.rebalance router in
      check (Alcotest.list Alcotest.string) "no errors" [] errors;
      if Router.shard_of router oid = 0 then relocate (id + 1)
    end
  in
  relocate 2;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int64 Alcotest.string))
    "deleted object's history survives the move" h (history router oid);
  (* Still deleted now. *)
  match Router.handle router alice (Rpc.Read { oid; off = 0; len = 8; at = None }) with
  | Rpc.R_error Rpc.Object_deleted | Rpc.R_error Rpc.Not_found -> ()
  | r -> Alcotest.failf "expected deleted, got %a" Rpc.pp_resp r

let test_overlapping_membership_changes () =
  let clock, router = mk_array 2 in
  let oids = List.init 24 (fun _ -> create router) in
  List.iteri (fun i oid -> write router oid (Printf.sprintf "payload %d" i)) oids;
  expect_unit (Router.handle router alice Rpc.Sync);
  (* First membership change; drain only part of its queue... *)
  let q1 = Router.add_shard router 2 (Router.Single (mk_drive clock)) in
  if q1 = 0 then Alcotest.fail "first add captured no objects";
  (match Router.rebalance_step router with
   | Ok (Some _) -> ()
   | Ok None -> Alcotest.fail "queue unexpectedly empty"
   | Error e -> Alcotest.fail e);
  (* ...then add another member while moves are still queued. Their
     planned destinations are stale against the new ring: executing
     one as queued used to strand the object on a shard the ring no
     longer points at (every later read -> No_such_object). *)
  ignore (Router.add_shard router 3 (Router.Single (mk_drive clock)));
  let _, errors = Router.rebalance router in
  check (Alcotest.list Alcotest.string) "no migration errors" [] errors;
  check Alcotest.int "queue drained" 0 (Router.pending_migrations router);
  check (Alcotest.list Alcotest.string) "fsck clean" [] (Router.fsck router);
  List.iteri
    (fun i oid ->
      check Alcotest.string "object survives overlapping rebalances"
        (Printf.sprintf "payload %d" i) (read_str router oid))
    oids

let test_lagging_mirror_defers_migration () =
  let clock = Simclock.create () in
  let mirror = Mirror.create (mk_drive clock) (mk_drive clock) in
  let router = Router.create [ (0, Router.Mirrored mirror); (1, Router.Single (mk_drive clock)) ] in
  let oids = List.init 16 (fun _ -> create router) in
  List.iter (fun oid -> write router oid "v1") oids;
  expect_unit (Router.handle router alice Rpc.Sync);
  (* Fail the mirror's PRIMARY: the secondary becomes the authoritative
     replica; the primary's store is stale and owes every mutation
     below to the missed-op journal. *)
  Mirror.set_failed mirror Mirror.Primary true;
  List.iter (fun oid -> write router oid "v2") oids;
  (* A Create landing on the mirrored shard is journalled with its
     resolved oid (replayed onto the same id at resync). *)
  let fresh = oid_on router 0 in
  write router fresh "v2";
  check Alcotest.bool "mutations journalled" true (Mirror.lag mirror > 0);
  (* Membership change while the mirror lags: moves touching shard 0
     are deferred, not exported off the stale primary store. *)
  ignore (Router.add_shard router 2 (Router.Single (mk_drive clock)));
  let _, errors = Router.rebalance router in
  check Alcotest.bool "lagging-mirror moves deferred" true (errors <> []);
  check Alcotest.bool "moves still pending" true (Router.pending_migrations router > 0);
  (* Nothing was lost to a stale export. *)
  List.iter (fun oid -> check Alcotest.string "data intact" "v2" (read_str router oid)) oids;
  check Alcotest.string "degraded-mode create intact" "v2" (read_str router fresh);
  (* Repair and drain the journal (replaying the Create onto its
     original oid through the array's allocator guard), then the
     deferred moves proceed. *)
  Mirror.set_failed mirror Mirror.Primary false;
  (match Mirror.resync mirror with
   | Ok n -> check Alcotest.bool "replayed" true (n > 0)
   | Error e -> Alcotest.fail e);
  check (Alcotest.list Alcotest.string) "replicas re-converged" [] (Mirror.divergence mirror);
  let _, errors = Router.rebalance router in
  check (Alcotest.list Alcotest.string) "post-resync migration errors" [] errors;
  check Alcotest.int "queue drained" 0 (Router.pending_migrations router);
  check (Alcotest.list Alcotest.string) "fsck clean" [] (Router.fsck router);
  List.iter (fun oid -> check Alcotest.string "data after rebalance" "v2" (read_str router oid)) oids;
  check Alcotest.string "fresh object after rebalance" "v2" (read_str router fresh)

(* --- ring properties ----------------------------------------------- *)

let qtest = Qseed.qtest

(* Distinct member ids, 2..8 of them. *)
let arb_members =
  QCheck.(
    map
      (fun ids ->
        let ids = List.sort_uniq compare (List.map (fun i -> i mod 64) ids) in
        match ids with [] -> [ 0; 1 ] | [ x ] -> [ x; (x + 1) mod 64 ] | _ -> ids)
      (list_of_size Gen.(2 -- 8) small_nat))

let prop_ring_balance =
  QCheck.Test.make ~name:"ring balances keys across members" ~count:50 arb_members
    (fun members ->
      let ring = Ring.create ~vnodes:128 () in
      List.iter (Ring.add ring) members;
      let n = List.length members in
      let keys = 2000 in
      let counts = Hashtbl.create 8 in
      for i = 0 to keys - 1 do
        let o = Ring.owner ring (Int64.of_int (i * 7919)) in
        Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o))
      done;
      let fair = float_of_int keys /. float_of_int n in
      List.for_all
        (fun m ->
          let c = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts m)) in
          (* 128 vnodes give rough balance, not perfection: every member
             must own something and none may own triple its fair share. *)
          c > fair *. 0.15 && c < fair *. 3.0)
        members)

let prop_ring_remove_only_remaps_removed =
  QCheck.Test.make ~name:"removing a member only remaps its own keys" ~count:50
    QCheck.(pair arb_members small_nat)
    (fun (members, pick) ->
      let victim = List.nth members (pick mod List.length members) in
      let ring = Ring.create ~vnodes:128 () in
      List.iter (Ring.add ring) members;
      let keys = List.init 1000 (fun i -> Int64.of_int ((i * 104729) + 3)) in
      let before = List.map (fun k -> (k, Ring.owner ring k)) keys in
      Ring.remove ring victim;
      List.for_all
        (fun (k, old) -> old = victim || Ring.owner ring k = old)
        before)

(* --- integrity-catalog aging ----------------------------------------- *)

module Catalog = S4_integrity.Catalog

let read_raw_catalog d =
  match Drive.named_oid d ".s4/integrity" with
  | None -> Alcotest.fail "meta drive has no catalog object"
  | Some oid ->
    let st = Drive.store d in
    (match Catalog.decode (Store.read st oid ~off:0 ~len:(Store.size st oid)) with
     | Some entries -> entries
     | None -> Alcotest.fail "catalog undecodable")

let test_catalog_ages_departed_floor () =
  (* A member that leaves the array keeps its catalog floor — still
     evidence against a rewritten chain — until the floor ages out of
     the detection window; live members' floors never age out. *)
  let clock = Simclock.create () in
  let d0 = mk_drive clock and d1 = mk_drive clock and d2 = mk_drive clock in
  let r =
    Router.create [ (0, Router.Single d0); (1, Router.Single d1); (2, Router.Single d2) ]
  in
  let oid = create r in
  write r oid "catalogued";
  Router.sync_all r;
  check Alcotest.bool "departed member pinned while present" true
    (Catalog.find (read_raw_catalog d0) ~shard:2 ~replica:0 <> None);
  (* Reattach without shard 2 (its disk was lost/pulled). *)
  let r = Router.attach [ (0, Router.Single d0); (1, Router.Single d1) ] in
  Router.sync_all r;
  check Alcotest.bool "departed floor retained inside the window" true
    (Catalog.find (read_raw_catalog d0) ~shard:2 ~replica:0 <> None);
  (* Age past every member's detection window: the floor is pruned on
     the next admin barrier, the live members' entries are not. *)
  let day = 86_400_000_000_000L in
  Simclock.advance clock (Int64.mul 8L day);
  Router.sync_all r;
  let entries = read_raw_catalog d0 in
  check Alcotest.bool "departed floor pruned after the window" true
    (Catalog.find entries ~shard:2 ~replica:0 = None);
  check Alcotest.bool "live floors survive" true
    (Catalog.find entries ~shard:0 ~replica:0 <> None
    && Catalog.find entries ~shard:1 ~replica:0 <> None)

(* --- trace checker over a mid-rebalance crash ----------------------- *)

module Trace = S4_obs.Trace
module Crashtest = S4_tools.Crashtest

let test_trace_checker_mid_rebalance () =
  Trace.clear ();
  Trace.enable ();
  Fun.protect ~finally:Trace.disable (fun () ->
      let r = Crashtest.rebalance_run ~seed:19 ~crash_after:1 () in
      check Alcotest.bool "scenario crashed" true r.Crashtest.crashed;
      check Alcotest.bool "spans recorded" true (Trace.count () > 0);
      check (Alcotest.list Alcotest.string) "no violations (incl. trace checker)" []
        r.Crashtest.violations);
  Trace.clear ()

let () =
  Alcotest.run "s4_shard"
    [
      ("ring", [ Alcotest.test_case "placement stability" `Quick test_ring_placement_stability;
                 qtest prop_ring_balance;
                 qtest prop_ring_remove_only_remaps_removed ]);
      ( "trace",
        [ Alcotest.test_case "checker over mid-rebalance crash" `Quick
            test_trace_checker_mid_rebalance ] );
      ( "router",
        [
          Alcotest.test_case "single shard == bare drive" `Quick test_single_shard_matches_bare_drive;
          Alcotest.test_case "fan-out admin + audit merge" `Quick test_fanout_admin_and_audit;
          Alcotest.test_case "catalog ages departed floors" `Quick
            test_catalog_ages_departed_floor;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "io-error shard reported" `Quick test_degraded_shard_reporting;
          Alcotest.test_case "mirrored shard fails over" `Quick test_mirrored_shard_fails_over;
        ] );
      ( "rebalance",
        [
          Alcotest.test_case "all versions survive" `Quick test_rebalance_preserves_every_version;
          Alcotest.test_case "deleted objects survive" `Quick test_rebalance_preserves_deleted_versions;
          Alcotest.test_case "overlapping membership changes" `Quick
            test_overlapping_membership_changes;
          Alcotest.test_case "lagging mirror defers migration" `Quick
            test_lagging_mirror_defers_migration;
        ] );
    ]
