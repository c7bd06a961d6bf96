(* Tests for the administrator tools: time-enhanced browsing,
   point-in-time recovery, and audit-log diagnosis — including a full
   end-to-end intrusion scenario. *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Drive = S4.Drive
module Rpc = S4.Rpc
module N = S4_nfs.Nfs_types
module Translator = S4_nfs.Translator
module History = S4_tools.History
module Recovery = S4_tools.Recovery
module Diagnosis = S4_tools.Diagnosis
module Target = S4_tools.Target

let check = Alcotest.check

let geom mb = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)

let mk ?(mb = 64) () =
  let clock = Simclock.create () in
  let disk = Sim_disk.create ~geometry:(geom mb) clock in
  let drive = Drive.format disk in
  let tr = Translator.mount (Translator.Backend (Drive.backend drive)) in
  (clock, drive, tr)

let tick clock = Simclock.advance clock 1_000_000L

let write_file tr path s =
  match Translator.write_file tr path (Bytes.of_string s) with
  | Ok fh -> fh
  | Error e -> Alcotest.failf "write %s: %a" path N.pp_error e

let read_file tr path =
  match Translator.read_file tr path with
  | Ok b -> Bytes.to_string b
  | Error e -> Alcotest.failf "read %s: %a" path N.pp_error e

let remove tr path =
  match Translator.lookup_path tr (Filename.dirname path) with
  | Ok (dir, _) ->
    (match Translator.handle tr (N.Remove { dir; name = Filename.basename path }) with
     | N.R_unit -> ()
     | r -> Alcotest.failf "remove %s: %s" path (match r with N.R_error e -> Format.asprintf "%a" N.pp_error e | _ -> "?"))
  | Error e -> Alcotest.failf "lookup dir of %s: %a" path N.pp_error e

(* --- History ------------------------------------------------------------ *)

let test_history_ls_and_cat () =
  let _, drive, tr = mk () in
  ignore (write_file tr "etc/passwd" "root:x:0:0");
  ignore (write_file tr "etc/hosts" "127.0.0.1 localhost");
  let h = History.create drive in
  (match History.resolve h "etc" with
   | Ok dir ->
     (match History.ls h dir with
      | Ok entries ->
        check (Alcotest.list Alcotest.string) "ls" [ "hosts"; "passwd" ]
          (List.sort compare (List.map (fun ((e : N.dirent), _) -> e.N.name) entries))
      | Error m -> Alcotest.fail m)
   | Error m -> Alcotest.fail m);
  match History.cat_path h "etc/passwd" with
  | Ok b -> check Alcotest.string "cat" "root:x:0:0" (Bytes.to_string b)
  | Error m -> Alcotest.fail m

let test_history_time_travel_ls () =
  let clock, drive, tr = mk () in
  ignore (write_file tr "dir/original" "here first");
  let t1 = Simclock.now clock in
  tick clock;
  ignore (write_file tr "dir/newcomer" "here later");
  remove tr "dir/original";
  let h = History.create drive in
  (* Now: only newcomer. *)
  (match History.resolve h "dir" with
   | Ok dir ->
     (match History.ls h dir with
      | Ok entries ->
        check (Alcotest.list Alcotest.string) "now" [ "newcomer" ]
          (List.map (fun ((e : N.dirent), _) -> e.N.name) entries)
      | Error m -> Alcotest.fail m)
   | Error m -> Alcotest.fail m);
  (* Then: only original. *)
  match History.resolve h ~at:t1 "dir" with
  | Ok dir ->
    (match History.ls h ~at:t1 dir with
     | Ok entries ->
       check (Alcotest.list Alcotest.string) "then" [ "original" ]
         (List.map (fun ((e : N.dirent), _) -> e.N.name) entries)
     | Error m -> Alcotest.fail m)
  | Error m -> Alcotest.fail m

let test_history_cat_old_version () =
  let clock, drive, tr = mk () in
  let _ = write_file tr "notes.txt" "version one" in
  let t1 = Simclock.now clock in
  tick clock;
  let _ = write_file tr "notes.txt" "version TWO" in
  let h = History.create drive in
  (match History.cat_path h "notes.txt" with
   | Ok b -> check Alcotest.string "now" "version TWO" (Bytes.to_string b)
   | Error m -> Alcotest.fail m);
  match History.cat_path h ~at:t1 "notes.txt" with
  | Ok b -> check Alcotest.string "then" "version one" (Bytes.to_string b)
  | Error m -> Alcotest.fail m

let test_history_versions () =
  let clock, drive, tr = mk () in
  let fh = write_file tr "v.txt" "a" in
  tick clock;
  ignore (write_file tr "v.txt" "bb");
  tick clock;
  ignore (write_file tr "v.txt" "ccc");
  let h = History.create drive in
  let times = History.version_times h fh in
  check Alcotest.bool "several versions" true (List.length times >= 3);
  check Alcotest.bool "versions list nonempty" true (History.versions_of h fh <> [])

let test_history_non_admin_denied () =
  let clock, drive, tr = mk () in
  ignore (write_file tr "secret" "alice only");
  let t1 = Simclock.now clock in
  tick clock;
  ignore (write_file tr "secret" "updated");
  (* A different, non-admin user without the Recovery flag. *)
  let h = History.create ~cred:(Rpc.user_cred ~user:9 ~client:9) drive in
  match History.cat_path h ~at:t1 "secret" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stranger read history without the recovery flag"

(* --- Recovery ------------------------------------------------------------ *)

let test_restore_file () =
  let clock, drive, tr = mk () in
  let fh = write_file tr "config" "clean configuration" in
  let before = Simclock.now clock in
  tick clock;
  ignore (write_file tr "config" "TROJANED");
  let rec_ = Recovery.create drive in
  (match Recovery.restore_file rec_ ~at:before fh with
   | Ok bytes -> check Alcotest.int "bytes" 19 bytes
   | Error m -> Alcotest.fail m);
  Translator.invalidate_caches tr;
  check Alcotest.string "restored" "clean configuration" (read_file tr "config")

let test_restore_is_versioned () =
  (* Restoration copies forward: the tampered version remains visible
     in the history pool as evidence. *)
  let clock, drive, tr = mk () in
  let fh = write_file tr "f" "good" in
  let t_good = Simclock.now clock in
  tick clock;
  ignore (write_file tr "f" "evil");
  let t_evil = Simclock.now clock in
  tick clock;
  let rec_ = Recovery.create drive in
  (match Recovery.restore_file rec_ ~at:t_good fh with Ok _ -> () | Error m -> Alcotest.fail m);
  let h = History.create drive in
  (match History.cat h ~at:t_evil fh with
   | Ok b -> check Alcotest.string "evidence preserved" "evil" (Bytes.to_string b)
   | Error m -> Alcotest.fail m);
  Translator.invalidate_caches tr;
  check Alcotest.string "current is clean" "good" (read_file tr "f")

let test_restore_tree_full_scenario () =
  let clock, drive, tr = mk () in
  (* Legitimate system state. *)
  ignore (write_file tr "sys/log" "day1: all quiet");
  ignore (write_file tr "sys/sshd" "sshd-binary-v1");
  ignore (write_file tr "sys/motd" "welcome");
  let pre_intrusion = Simclock.now clock in
  tick clock;
  (* Intrusion: scrub the log, trojan the daemon, drop a backdoor,
     delete the motd. *)
  ignore (write_file tr "sys/log" "nothing happened here");
  ignore (write_file tr "sys/sshd" "sshd-with-backdoor");
  ignore (write_file tr "sys/backdoor.sh" "#!/bin/sh evil");
  remove tr "sys/motd";
  tick clock;
  (* Admin restores the subtree. *)
  let rec_ = Recovery.create drive in
  (match Recovery.restore_tree rec_ ~at:pre_intrusion ~path:"sys" with
   | Ok report ->
     check Alcotest.bool "restored some files" true (report.Recovery.files_restored >= 3);
     check Alcotest.bool "removed the backdoor" true (report.Recovery.files_removed >= 1)
   | Error m -> Alcotest.fail m);
  Translator.invalidate_caches tr;
  check Alcotest.string "log restored" "day1: all quiet" (read_file tr "sys/log");
  check Alcotest.string "daemon restored" "sshd-binary-v1" (read_file tr "sys/sshd");
  check Alcotest.string "motd resurrected" "welcome" (read_file tr "sys/motd");
  match Translator.lookup_path tr "sys/backdoor.sh" with
  | Error N.Enoent -> ()
  | _ -> Alcotest.fail "backdoor should be gone"

let test_restore_tree_with_subdirs () =
  let clock, drive, tr = mk () in
  ignore (write_file tr "proj/src/main.ml" "let () = ()");
  ignore (write_file tr "proj/doc/readme" "docs");
  let t = Simclock.now clock in
  tick clock;
  ignore (write_file tr "proj/src/main.ml" "EVIL");
  (match Translator.lookup_path tr "proj/doc" with
   | Ok (dir, _) ->
     (match Translator.handle tr (N.Remove { dir; name = "readme" }) with
      | N.R_unit -> ()
      | _ -> Alcotest.fail "remove readme")
   | Error _ -> Alcotest.fail "lookup doc");
  let rec_ = Recovery.create drive in
  (match Recovery.restore_tree rec_ ~at:t ~path:"proj" with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  Translator.invalidate_caches tr;
  check Alcotest.string "nested file" "let () = ()" (read_file tr "proj/src/main.ml");
  check Alcotest.string "resurrected in subdir" "docs" (read_file tr "proj/doc/readme")

(* --- Landmarks -------------------------------------------------------------- *)

module Landmark = S4_tools.Landmark

let test_landmark_survives_expiry () =
  (* A landmark keeps a version alive beyond the detection window. *)
  let clock, drive, tr = mk () in
  let fh = write_file tr "report.tex" "the important draft" in
  let t_draft = Simclock.now clock in
  tick clock;
  ignore (write_file tr "report.tex" "scribbled over");
  let lm = Landmark.create drive in
  (match Landmark.take lm ~name:"draft-v1" ~at:t_draft fh with
   | Ok l ->
     check Alcotest.int "bytes preserved" 19 l.Landmark.l_bytes;
     check Alcotest.int64 "source recorded" fh l.Landmark.l_source
   | Error m -> Alcotest.fail m);
  (* Age everything out of the pool. *)
  Simclock.advance clock (Int64.mul 30L (Int64.mul 86_400L 1_000_000_000L));
  ignore (Drive.handle drive Rpc.admin_cred (Rpc.Flush { until = Simclock.now clock }));
  ignore (Drive.run_cleaner drive);
  (* The original version is gone from the pool... *)
  (match Drive.handle drive Rpc.admin_cred (Rpc.Read { oid = fh; off = 0; len = 19; at = Some t_draft }) with
   | Rpc.R_data b when Bytes.to_string b = "the important draft" ->
     Alcotest.fail "version should have aged out"
   | _ -> ());
  (* ...but the landmark still has it. *)
  match Landmark.contents lm "draft-v1" with
  | Ok b -> check Alcotest.string "landmark intact" "the important draft" (Bytes.to_string b)
  | Error m -> Alcotest.fail m

let test_landmark_index_and_restore () =
  let clock, drive, tr = mk () in
  let fh = write_file tr "conf" "golden config" in
  let t = Simclock.now clock in
  tick clock;
  ignore (write_file tr "conf" "broken config");
  let lm = Landmark.create drive in
  (match Landmark.take lm ~name:"golden" ~at:t fh with Ok _ -> () | Error m -> Alcotest.fail m);
  check Alcotest.bool "listed" true (match Landmark.list lm with
     | Ok lms -> List.exists (fun l -> l.Landmark.l_name = "golden") lms
     | Error e -> Alcotest.fail e);
  check Alcotest.bool "duplicate refused" true
    (match Landmark.take lm ~name:"golden" ~at:t fh with Error _ -> true | Ok _ -> false);
  (match Landmark.restore_to lm "golden" fh with
   | Ok n -> check Alcotest.int "restored bytes" 13 n
   | Error m -> Alcotest.fail m);
  Translator.invalidate_caches tr;
  check Alcotest.string "live file restored" "golden config" (read_file tr "conf")

let test_landmark_index_is_versioned_too () =
  (* The landmark index is an ordinary object: an intruder deleting a
     landmark entry is itself recoverable. *)
  let _, drive, tr = mk () in
  let fh = write_file tr "x" "v" in
  let lm = Landmark.create drive in
  (match Landmark.take lm ~name:"keeper" ~at:(Simclock.now (Drive.clock drive)) fh with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  let h = History.create drive in
  (match History.mount_at h "landmarks" with
   | Ok idx -> check Alcotest.bool "index has versions" true (History.versions_of h idx <> [])
   | Error m -> Alcotest.fail m)

(* --- Diagnosis ------------------------------------------------------------ *)

let test_damage_report () =
  let clock, drive, _tr = mk () in
  let intruder = Rpc.user_cred ~user:13 ~client:666 in
  let oid =
    match Drive.handle drive intruder (Rpc.Create { acl = [] }) with
    | Rpc.R_oid oid -> oid
    | _ -> Alcotest.fail "create"
  in
  let since = Simclock.now clock in
  ignore (Drive.handle drive intruder (Rpc.Write { oid; off = 0; len = 4; data = Some (Bytes.of_string "evil") }));
  tick clock;
  ignore (Drive.handle drive intruder (Rpc.Read { oid; off = 0; len = 4; at = None }));
  let report = Diagnosis.damage_report ~client:666 ~since ~until:Int64.max_int (Target.of_drive drive) in
  (match List.find_opt (fun a -> a.Diagnosis.a_oid = oid) report with
   | Some a ->
     check Alcotest.bool "write counted" true (a.Diagnosis.a_writes >= 1);
     check Alcotest.bool "read counted" true (a.Diagnosis.a_reads >= 1)
   | None -> Alcotest.fail "object missing from report");
  (* Another client's view is empty. *)
  check Alcotest.int "innocent client clean" 0
    (List.length (Diagnosis.damage_report ~client:1234 ~since ~until:Int64.max_int (Target.of_drive drive)))

let test_taint_edges () =
  let clock, drive, _ = mk () in
  let user = Rpc.user_cred ~user:5 ~client:50 in
  let mk_obj () =
    match Drive.handle drive user (Rpc.Create { acl = [] }) with
    | Rpc.R_oid oid -> oid
    | _ -> Alcotest.fail "create"
  in
  let src = mk_obj () in
  let dst = mk_obj () in
  ignore (Drive.handle drive user (Rpc.Write { oid = src; off = 0; len = 3; data = Some (Bytes.of_string "src") }));
  let since = Simclock.now clock in
  tick clock;
  (* Read src then promptly write dst: a compile-like dependency. *)
  ignore (Drive.handle drive user (Rpc.Read { oid = src; off = 0; len = 3; at = None }));
  Simclock.advance clock 100_000_000L;
  ignore (Drive.handle drive user (Rpc.Write { oid = dst; off = 0; len = 3; data = Some (Bytes.of_string "out") }));
  let edges = Diagnosis.taint_edges ~client:50 ~since ~until:Int64.max_int (Target.of_drive drive) in
  check Alcotest.bool "src->dst edge found" true
    (List.exists (fun e -> e.Diagnosis.src = src && e.Diagnosis.dst = dst) edges)

let test_taint_horizon () =
  let clock, drive, _ = mk () in
  let user = Rpc.user_cred ~user:5 ~client:50 in
  let mk_obj () =
    match Drive.handle drive user (Rpc.Create { acl = [] }) with
    | Rpc.R_oid oid -> oid
    | _ -> Alcotest.fail "create"
  in
  let src = mk_obj () and dst = mk_obj () in
  let since = Simclock.now clock in
  ignore (Drive.handle drive user (Rpc.Read { oid = src; off = 0; len = 0; at = None }));
  (* A long pause: outside the dependency horizon. *)
  Simclock.advance clock 60_000_000_000L;
  ignore (Drive.handle drive user (Rpc.Write { oid = dst; off = 0; len = 1; data = Some (Bytes.of_string "x") }));
  let edges = Diagnosis.taint_edges ~client:50 ~since ~until:Int64.max_int (Target.of_drive drive) in
  check Alcotest.bool "no stale edge" false
    (List.exists (fun e -> e.Diagnosis.src = src && e.Diagnosis.dst = dst) edges)

let test_timeline_and_denials () =
  let clock, drive, _ = mk () in
  let alice = Rpc.user_cred ~user:1 ~client:1 in
  let bob = Rpc.user_cred ~user:2 ~client:2 in
  let oid =
    match Drive.handle drive alice (Rpc.Create { acl = [] }) with
    | Rpc.R_oid oid -> oid
    | _ -> Alcotest.fail "create"
  in
  let since = Simclock.now clock in
  ignore (Drive.handle drive alice (Rpc.Write { oid; off = 0; len = 1; data = Some (Bytes.of_string "x") }));
  ignore (Drive.handle drive bob (Rpc.Read { oid; off = 0; len = 1; at = None }));
  (* denied *)
  let tl = Diagnosis.timeline ~oid ~since ~until:Int64.max_int (Target.of_drive drive) in
  check Alcotest.bool "timeline has write" true (List.exists (fun r -> r.S4.Audit.op = "write") tl);
  let denials = Diagnosis.suspicious_denials ~since ~until:Int64.max_int (Target.of_drive drive) in
  check Alcotest.bool "bob's probe flagged" true
    (List.exists (fun r -> r.S4.Audit.user = 2 && not r.S4.Audit.ok) denials)

(* --- Disk image persistence -------------------------------------------- *)

module Disk_image = S4_tools.Disk_image

let test_image_roundtrip () =
  let path = Filename.temp_file "s4img" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let clock, drive, tr = mk ~mb:16 () in
      ignore (write_file tr "etc/data" "persisted across processes");
      Simclock.advance clock 123_456_789L;
      check Alcotest.bool "barrier" true (Drive.barrier drive = None);
      let disk = S4_seglog.Log.disk (Drive.log drive) in
      Disk_image.save path clock disk;
      (* A "new process": load and attach. *)
      let clock2, disk2 = Disk_image.load path in
      check Alcotest.int64 "clock restored" (Simclock.now clock) (Simclock.now clock2);
      let drive2 = Drive.attach disk2 in
      let tr2 = Translator.mount (Translator.Backend (Drive.backend drive2)) in
      check Alcotest.string "contents restored" "persisted across processes"
        (read_file tr2 "etc/data");
      check (Alcotest.list Alcotest.string) "fsck clean after reload" [] (Drive.fsck drive2))

let test_image_rejects_garbage () =
  let path = Filename.temp_file "s4img" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not an image at all";
      close_out oc;
      check Alcotest.bool "rejected" true
        (try
           ignore (Disk_image.load path);
           false
         with Failure _ | S4_util.Bcodec.Decode_error _ -> true))

let () =
  Alcotest.run "s4_tools"
    [
      ( "history",
        [
          Alcotest.test_case "ls and cat" `Quick test_history_ls_and_cat;
          Alcotest.test_case "time travel ls" `Quick test_history_time_travel_ls;
          Alcotest.test_case "cat old version" `Quick test_history_cat_old_version;
          Alcotest.test_case "versions" `Quick test_history_versions;
          Alcotest.test_case "non-admin denied" `Quick test_history_non_admin_denied;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "restore file" `Quick test_restore_file;
          Alcotest.test_case "restore is versioned" `Quick test_restore_is_versioned;
          Alcotest.test_case "full intrusion scenario" `Quick test_restore_tree_full_scenario;
          Alcotest.test_case "subdirectories" `Quick test_restore_tree_with_subdirs;
        ] );
      ( "landmarks",
        [
          Alcotest.test_case "survives expiry" `Quick test_landmark_survives_expiry;
          Alcotest.test_case "index and restore" `Quick test_landmark_index_and_restore;
          Alcotest.test_case "index versioned" `Quick test_landmark_index_is_versioned_too;
        ] );
      ( "disk-image",
        [
          Alcotest.test_case "roundtrip" `Quick test_image_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_image_rejects_garbage;
        ] );
      ( "diagnosis",
        [
          Alcotest.test_case "damage report" `Quick test_damage_report;
          Alcotest.test_case "taint edges" `Quick test_taint_edges;
          Alcotest.test_case "taint horizon" `Quick test_taint_horizon;
          Alcotest.test_case "timeline and denials" `Quick test_timeline_and_denials;
        ] );
    ]
