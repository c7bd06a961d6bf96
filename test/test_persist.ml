(* Tests for real persistence: the file-backed sector store, the
   checksummed serialized-image format with atomic save, and recovery
   after a genuine kill -9 of a serving process. *)

module Simclock = S4_util.Simclock
module Rng = S4_util.Rng
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module File_disk = S4_disk.File_disk
module Log = S4_seglog.Log
module Drive = S4.Drive
module Rpc = S4.Rpc
module Audit = S4.Audit
module Disk_image = S4_tools.Disk_image
module Crashtest = S4_tools.Crashtest
module History = S4_tools.History

let check = Alcotest.check
let qtest = Qseed.qtest
let cred = Rpc.admin_cred

let geom mb = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)

let with_tmp f =
  let path = Filename.temp_file "s4persist" ".s4" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let oid_die = function
  | Rpc.R_oid oid -> oid
  | r -> Alcotest.failf "create: %a" Rpc.pp_resp r

let unit_die what = function
  | Rpc.R_unit -> ()
  | r -> Alcotest.failf "%s: %a" what Rpc.pp_resp r

(* --- File_disk ---------------------------------------------------------- *)

let test_file_roundtrip () =
  with_tmp (fun path ->
      let g = geom 16 in
      let f = File_disk.create ~path g in
      let data = Bytes.init (4 * 512) (fun i -> Char.chr (i land 0xff)) in
      File_disk.write f ~lba:10 data;
      check Alcotest.bool "read back" true (Bytes.equal data (File_disk.read f ~lba:10 ~sectors:4));
      check Alcotest.bool "unwritten is zeros" true
        (Bytes.equal (Bytes.make 512 '\000') (File_disk.read f ~lba:99 ~sectors:1));
      File_disk.erase f ~lba:11 ~sectors:1;
      check Alcotest.bool "erased to zeros" true
        (Bytes.equal (Bytes.make 512 '\000') (File_disk.read f ~lba:11 ~sectors:1));
      File_disk.sync f ~clock_ns:123_456_789L;
      File_disk.close f;
      (* A "new process". *)
      let f2 = File_disk.open_file path in
      check Alcotest.int64 "clock from header" 123_456_789L (File_disk.clock_ns f2);
      check Alcotest.string "geometry name" g.Geometry.name (File_disk.geometry f2).Geometry.name;
      check Alcotest.int "geometry sectors" g.Geometry.sectors
        (File_disk.geometry f2).Geometry.sectors;
      check Alcotest.bool "sector survived close" true
        (Bytes.equal (Bytes.sub data 0 512) (File_disk.read f2 ~lba:10 ~sectors:1));
      check Alcotest.bool "erase survived close" true
        (Bytes.equal (Bytes.make 512 '\000') (File_disk.read f2 ~lba:11 ~sectors:1));
      File_disk.close f2;
      File_disk.close f2 (* idempotent *))

let expect_failure what f =
  check Alcotest.bool what true (try ignore (f ()); false with Failure _ -> true)

let test_file_rejects_bad () =
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "definitely not a store, but long enough to probe";
      close_out oc;
      expect_failure "foreign file rejected" (fun () -> File_disk.open_file path));
  with_tmp (fun path ->
      File_disk.close (File_disk.create ~path (geom 16));
      (* Flip a byte inside the header payload: CRC must catch it. *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd 20 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1);
      Unix.close fd;
      expect_failure "corrupt header rejected" (fun () -> File_disk.open_file path))

(* --- serialized image: qcheck round-trip -------------------------------- *)

let sector_digest disk =
  let sectors = Sim_disk.capacity_sectors disk in
  let buf = Buffer.create 64 in
  let chunk = 1024 in
  let lba = ref 0 in
  while !lba < sectors do
    let n = min chunk (sectors - !lba) in
    Buffer.add_string buf (Digest.bytes (Sim_disk.peek disk ~lba:!lba ~sectors:n));
    lba := !lba + n
  done;
  Digest.string (Buffer.contents buf)

let gen_image =
  QCheck.Gen.(
    let* seed = int_bound 0xFFFF in
    let* nsectors = int_range 0 64 in
    let* clock_ns = map Int64.abs int64 in
    return (seed, nsectors, clock_ns))

let arb_image =
  QCheck.make
    ~print:(fun (s, n, c) -> Printf.sprintf "seed=%d sectors=%d clock=%Ld" s n c)
    gen_image

let qcheck_image_roundtrip =
  QCheck.Test.make ~name:"image save/load preserves clock and every sector" ~count:30 arb_image
    (fun (seed, nsectors, clock_ns) ->
      with_tmp (fun path ->
          let clock = Simclock.create () in
          Simclock.set clock clock_ns;
          let disk = Sim_disk.create ~geometry:(geom 16) clock in
          let rng = Rng.create ~seed in
          for _ = 1 to nsectors do
            let lba = Rng.int rng (Sim_disk.capacity_sectors disk) in
            Sim_disk.poke disk ~lba ~data:(Rng.bytes rng 512)
          done;
          Disk_image.save path clock disk;
          let clock2, disk2 = Disk_image.load path in
          Int64.equal (Simclock.now clock) (Simclock.now clock2)
          && String.equal (sector_digest disk) (sector_digest disk2)))

let test_image_corrupt_rejected () =
  let mk path =
    let clock = Simclock.create () in
    let disk = Sim_disk.create ~geometry:(geom 16) clock in
    Sim_disk.poke disk ~lba:7 ~data:(Bytes.make 512 'x');
    Disk_image.save path clock disk
  in
  let expect_corrupt what f =
    check Alcotest.bool what true
      (try ignore (f ()); false
       with Failure m ->
         if not (String.length m > 0 && String.index_opt m '(' <> None) then
           Alcotest.failf "%s: unhelpful message %S" what m;
         true)
  in
  with_tmp (fun path ->
      mk path;
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd 40 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 1 '\x99') 0 1);
      Unix.close fd;
      expect_corrupt "flipped byte rejected" (fun () -> Disk_image.load path));
  with_tmp (fun path ->
      mk path;
      let sz = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (sz - 100);
      Unix.close fd;
      expect_corrupt "truncated rejected" (fun () -> Disk_image.load path));
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "garbage";
      close_out oc;
      expect_failure "foreign rejected" (fun () -> Disk_image.load path))

let test_save_is_atomic () =
  with_tmp (fun path ->
      let clock = Simclock.create () in
      Simclock.set clock 42L;
      let disk = Sim_disk.create ~geometry:(geom 16) clock in
      Sim_disk.poke disk ~lba:3 ~data:(Bytes.make 512 'v');
      Disk_image.save path clock disk;
      let before = Digest.file path in
      (* Force the save to fail mid-way: its temp slot is occupied by a
         directory, so the new image can never be written ... *)
      let tmp = path ^ ".tmp" in
      Unix.mkdir tmp 0o755;
      Fun.protect
        ~finally:(fun () -> Unix.rmdir tmp)
        (fun () ->
          Simclock.set clock 99L;
          Sim_disk.poke disk ~lba:3 ~data:(Bytes.make 512 'w');
          check Alcotest.bool "failed save raises" true
            (try Disk_image.save path clock disk; false with Sys_error _ -> true));
      (* ... and the previous image must be byte-identical and loadable. *)
      check Alcotest.string "old image untouched" before (Digest.file path);
      let clock2, disk2 = Disk_image.load path in
      check Alcotest.int64 "old clock" 42L (Simclock.now clock2);
      check Alcotest.bool "old sector" true
        (Bytes.equal (Bytes.make 512 'v') (Sim_disk.peek disk2 ~lba:3 ~sectors:1)))

(* --- the durability hole itself ----------------------------------------- *)

(* The bug this PR fixes: with a file-backed store, simply exiting
   without any save step (the moral equivalent of kill -9 after the
   last barrier) must lose nothing that was synced. *)
let test_file_backed_survives_no_save () =
  with_tmp (fun path ->
      let oid =
        let disk = Sim_disk.of_file (File_disk.create ~path (geom 16)) in
        let drive = Drive.format disk in
        let oid = oid_die (Drive.handle drive cred (Rpc.Create { acl = [] })) in
        let data = Bytes.of_string "synced and acked" in
        unit_die "write"
          (Drive.handle drive cred
             (Rpc.Write { oid; off = 0; len = Bytes.length data; data = Some data }));
        unit_die "sync" (Drive.handle drive cred Rpc.Sync);
        (* No Disk_image.save, no Log.sync: the process just dies. *)
        Sim_disk.close disk;
        oid
      in
      let clock2, disk2 = Disk_image.load_any path in
      ignore clock2;
      let drive2 = Drive.attach disk2 in
      check (Alcotest.list Alcotest.string) "fsck clean" [] (Drive.fsck drive2);
      (match Drive.handle drive2 cred (Rpc.Read { oid; off = 0; len = 16; at = None }) with
       | Rpc.R_data b -> check Alcotest.string "acked write survived" "synced and acked"
                           (Bytes.to_string b)
       | r -> Alcotest.failf "read after reopen: %a" Rpc.pp_resp r);
      Sim_disk.close disk2)

(* Identical semantics over both backings: the same seeded workload
   must leave the same simulated clock and the same sector contents. *)
let test_mem_file_equivalence () =
  with_tmp (fun path ->
      let workload disk =
        let drive = Drive.format disk in
        let rng = Rng.create ~seed:7 in
        let oids =
          Array.init 4 (fun _ -> oid_die (Drive.handle drive cred (Rpc.Create { acl = [] })))
        in
        for i = 0 to 99 do
          let oid = oids.(Rng.int rng 4) in
          let len = 1 + Rng.int rng 2048 in
          let req =
            match Rng.int rng 4 with
            | 0 -> Rpc.Append { oid; len; data = Some (Rng.bytes rng len) }
            | 1 -> Rpc.Write { oid; off = Rng.int rng 4096; len; data = Some (Rng.bytes rng len) }
            | 2 -> Rpc.Truncate { oid; size = Rng.int rng 8192 }
            | _ -> Rpc.Sync
          in
          match Drive.handle drive cred req with
          | Rpc.R_error e -> Alcotest.failf "op %d: %a" i Rpc.pp_error e
          | _ -> ()
        done;
        unit_die "final sync" (Drive.handle drive cred Rpc.Sync)
      in
      let mem = Sim_disk.create ~geometry:(geom 16) (Simclock.create ()) in
      workload mem;
      let file = Sim_disk.of_file (File_disk.create ~path (geom 16)) in
      workload file;
      check Alcotest.int64 "same simulated clock" (Simclock.now (Sim_disk.clock mem))
        (Simclock.now (Sim_disk.clock file));
      check Alcotest.string "same sector contents" (sector_digest mem) (sector_digest file);
      Sim_disk.close file)

(* Journal blocks can reach the file without a barrier (segment close);
   their entry times then postdate the header clock a restart resumes
   from. Recovery must bump the clock past them so mutation times stay
   monotone across the restart. *)
let test_recovery_clock_monotone () =
  with_tmp (fun path ->
      let oid =
        let disk = Sim_disk.of_file (File_disk.create ~path (geom 16)) in
        let drive = Drive.format disk in
        let oid = oid_die (Drive.handle drive cred (Rpc.Create { acl = [] })) in
        unit_die "sync" (Drive.handle drive cred Rpc.Sync);
        (* Enough unsynced appends to fill and close log segments: their
           journal blocks hit the file with no barrier behind them. *)
        let chunk = Bytes.make 4096 'j' in
        for _ = 1 to 300 do
          unit_die "append"
            (Drive.handle drive cred (Rpc.Append { oid; len = 4096; data = Some chunk }))
        done;
        Sim_disk.close disk;
        oid
      in
      let _, disk2 = Disk_image.load_any path in
      let drive2 = Drive.attach disk2 in
      let clock2 = Sim_disk.clock disk2 in
      let h = History.create drive2 in
      let recovered_times = History.version_times h oid in
      check Alcotest.bool "some journal entries recovered" true (recovered_times <> []);
      List.iter
        (fun t ->
          if Int64.compare t (Simclock.now clock2) >= 0 then
            Alcotest.failf "recovered entry time %Ld not before resumed clock %Ld" t
              (Simclock.now clock2))
        recovered_times;
      (* New mutations must get strictly newer times than everything
         recovered. *)
      let before = Simclock.now clock2 in
      let oid2 = oid_die (Drive.handle drive2 cred (Rpc.Create { acl = [] })) in
      ignore oid2;
      check Alcotest.bool "clock advances" true (Simclock.now clock2 > before);
      Sim_disk.close disk2)

(* --- the real thing: kill -9 a serving process -------------------------- *)

let test_kill9_smoke () =
  let reports = Crashtest.kill9_sweep ~seed:1042 ~runs:3 () in
  List.iter
    (fun r ->
      if r.Crashtest.violations <> [] then
        Alcotest.failf "kill9 %a" Crashtest.pp_report r)
    reports;
  check Alcotest.int "three kills" 3 (List.length reports);
  List.iter
    (fun r -> check Alcotest.bool "acked ops ran" true (r.Crashtest.ops_before_crash > 0))
    reports

(* SIGKILL between the audit flush and the seal write must read back as
   a crash-truncated tail, never as tampering. *)
let test_seal_gap () =
  let report, strict = Crashtest.seal_gap_run ~seed:907 () in
  if report.Crashtest.violations <> [] then
    Alcotest.failf "seal gap %a" Crashtest.pp_report report;
  check Alcotest.bool "strict chain clean" true (S4_integrity.Chain.clean strict);
  check Alcotest.int "no record read as tampered" (-1) strict.S4_integrity.Chain.v_first_bad

(* Full PostMark through NFS + wire against a forked server killed
   mid-run: zero acked-write loss. Every audit record below a
   checkpoint instant (instant read, then acked Sync) must be recovered
   verbatim from the surviving file. *)
let test_postmark_kill9 () =
  let r = Crashtest.kill9_postmark_run ~seed:2042 () in
  if r.Crashtest.pm_violations <> [] then
    Alcotest.failf "postmark kill9 %a" Crashtest.pp_postmark_report r;
  check Alcotest.bool "checkpoints taken" true (r.Crashtest.pm_checkpoints > 0);
  check Alcotest.bool "writes were acked" true (r.Crashtest.pm_acked > 0);
  check Alcotest.bool "acked records all recovered" true
    (r.Crashtest.pm_recovered >= r.Crashtest.pm_acked)

(* --- A full log across reattach ------------------------------------------ *)

(* Write and sync until the log refuses, then reattach the same disk.
   Reattach must rebuild the full log, not reclaim it: every segment
   holds live history until the owners have re-marked it, so a
   reclaiming reattach would recover an empty drive that fscks clean.
   Only records that no successful Sync covered may go. *)
let fill_then_reattach ~disk ~reopen =
  let d = Drive.format disk in
  let payload = Bytes.make (64 * 1024) 'f' in
  let rec fill n synced =
    if n > 1000 then Alcotest.fail "log never filled";
    match Drive.handle d cred (Rpc.Create { acl = [] }) with
    | Rpc.R_oid oid -> (
      match Drive.handle d cred (Rpc.Write { oid; off = 0; len = Bytes.length payload; data = Some payload }) with
      | Rpc.R_unit -> (
        match Drive.handle d cred Rpc.Sync with
        | Rpc.R_unit ->
          (* Durable now: everything but the Sync's own record, which
             is appended after its barrier. *)
          let all = Audit.records (Drive.audit d) () in
          fill (n + 1) (List.filteri (fun i _ -> i < List.length all - 1) all)
        | Rpc.R_error Rpc.No_space -> synced
        | r -> Alcotest.failf "sync: %a" Rpc.pp_resp r)
      | Rpc.R_error Rpc.No_space -> synced
      | r -> Alcotest.failf "write: %a" Rpc.pp_resp r)
    | Rpc.R_error Rpc.No_space -> synced
    | r -> Alcotest.failf "create: %a" Rpc.pp_resp r
  in
  let synced = fill 0 [] in
  check Alcotest.bool "records synced before the log filled" true (List.length synced > 100);
  let d2 = Drive.attach (reopen ()) in
  let log = Drive.log d2 in
  check Alcotest.int "reattach reclaims nothing" 0 (Log.stats log).Log.segments_reclaimed;
  check Alcotest.int "no free segment" 0 (Log.free_segments log);
  let recovered = Audit.records (Drive.audit d2) () in
  let rec prefix = function
    | [], _ -> true
    | x :: xs, y :: ys -> x = y && prefix (xs, ys)
    | _ :: _, [] -> false
  in
  check Alcotest.bool "every synced record recovered" true (prefix (synced, recovered));
  check Alcotest.(list string) "fsck clean" [] (Drive.fsck d2);
  (* Still full: writes are refused, never granted by wiping history. *)
  (match Drive.handle d2 cred ~sync:true (Rpc.Create { acl = [] }) with
   | Rpc.R_error Rpc.No_space | Rpc.R_oid _ -> ()
   | r -> Alcotest.failf "post-attach create: %a" Rpc.pp_resp r);
  check Alcotest.bool "history kept after a refused write" true
    (prefix (synced, Audit.records (Drive.audit d2) ()))

let test_full_log_reattach_mem () =
  let disk = Sim_disk.create ~geometry:(geom 4) (Simclock.create ()) in
  fill_then_reattach ~disk ~reopen:(fun () -> disk)

let test_full_log_reattach_file () =
  with_tmp (fun path ->
      let disk = Sim_disk.of_file (File_disk.create ~path (geom 4)) in
      fill_then_reattach ~disk ~reopen:(fun () ->
          Sim_disk.close disk;
          Sim_disk.of_file (File_disk.open_file path)))

let () =
  Alcotest.run "s4_persist"
    [
      ( "file-disk",
        [
          Alcotest.test_case "roundtrip across close" `Quick test_file_roundtrip;
          Alcotest.test_case "foreign and corrupt rejected" `Quick test_file_rejects_bad;
        ] );
      ( "image",
        [
          qtest qcheck_image_roundtrip;
          Alcotest.test_case "corrupt and truncated rejected" `Quick test_image_corrupt_rejected;
          Alcotest.test_case "save is atomic" `Quick test_save_is_atomic;
        ] );
      ( "durability",
        [
          Alcotest.test_case "file-backed survives exit with no save" `Quick
            test_file_backed_survives_no_save;
          Alcotest.test_case "mem and file backings are equivalent" `Quick
            test_mem_file_equivalence;
          Alcotest.test_case "recovery keeps mutation times monotone" `Quick
            test_recovery_clock_monotone;
          Alcotest.test_case "full log survives reattach (memory)" `Quick test_full_log_reattach_mem;
          Alcotest.test_case "full log survives reattach (file)" `Quick test_full_log_reattach_file;
        ] );
      ( "kill9",
        [
          Alcotest.test_case "three real kills" `Quick test_kill9_smoke;
          Alcotest.test_case "seal gap reads as truncation" `Quick test_seal_gap;
          Alcotest.test_case "postmark: zero acked-write loss" `Quick test_postmark_kill9;
        ] );
    ]
