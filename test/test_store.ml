(* Tests for the comprehensive-versioning object store and cleaner. *)

module Simclock = S4_util.Simclock
module Rng = S4_util.Rng
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Log = S4_seglog.Log
module Entry = S4_store.Entry
module Store = S4_store.Obj_store
module Cleaner = S4_store.Cleaner

let check = Alcotest.check
let qtest = Qseed.qtest

let geom mb = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)

let mk ?(mb = 64) ?(config = Store.default_config) () =
  let clock = Simclock.create () in
  let disk = Sim_disk.create ~geometry:(geom mb) clock in
  let log = Log.create disk in
  (clock, disk, log, Store.create ~config log)

let bytes_of = Bytes.of_string
let tick clock = Simclock.advance clock 1_000_000L (* 1 ms *)

let write_str st oid ~off s = Store.write st oid ~off ~data:(bytes_of s) ~len:(String.length s) ()
let read_str ?at st oid ~off ~len = Bytes.to_string (Store.read st ?at oid ~off ~len)

let no_errors st extra_live =
  match Store.check ~extra_live st with
  | [] -> ()
  | errs -> Alcotest.fail (String.concat "; " errs)

(* --- Entry codec ---------------------------------------------------- *)

let entry_roundtrip op =
  let e = { Entry.oid = 9L; seq = 3; time = 123456789L; op } in
  let e' = Entry.decode (Entry.to_jentry e) in
  check Alcotest.bool "roundtrip" true (e = e')

let test_entry_roundtrips () =
  entry_roundtrip Entry.Create;
  entry_roundtrip
    (Entry.Write { off = 100; len = 5000; old_size = 0; new_size = 5100; blocks = [ (0, 130, -1); (1, 131, 99) ] });
  entry_roundtrip (Entry.Truncate { old_size = 9000; new_size = 100; freed = [ (1, 131); (2, 140) ] });
  entry_roundtrip (Entry.Set_attr { old_attr = bytes_of "old"; new_attr = bytes_of "new" });
  entry_roundtrip (Entry.Set_acl { old_acl = Bytes.empty; new_acl = bytes_of "acl!" });
  entry_roundtrip (Entry.Delete { old_size = 42 });
  entry_roundtrip (Entry.Checkpoint { addrs = [ 1; 2; 3 ] });
  entry_roundtrip (Entry.Relocate { moves = [ (0, 128, 256); (-1, 300, 301) ] })

let test_entry_superseded_and_new () =
  let op = Entry.Write { off = 0; len = 8192; old_size = 8192; new_size = 8192; blocks = [ (0, 200, 150); (1, 201, -1) ] } in
  check (Alcotest.list Alcotest.int) "superseded" [ 150 ] (Entry.superseded_blocks op);
  check (Alcotest.list Alcotest.int) "new" [ 200; 201 ] (Entry.new_blocks op)

let test_entry_remap () =
  let op = Entry.Write { off = 0; len = 4096; old_size = 0; new_size = 4096; blocks = [ (0, 10, 5) ] } in
  match Entry.remap (fun a -> if a = 10 then 99 else a) op with
  | Entry.Write { blocks = [ (0, 99, 5) ]; _ } -> ()
  | _ -> Alcotest.fail "remap failed"

(* [Entry.size] sizes an entry without encoding it; it must agree with
   the encoded form's size, or Fig. 2's journal bytes would move. *)
let prop_entry_size_matches_encoding =
  let gen =
    QCheck.Gen.(
      let addr = int_range (-1) 3_000_000 in
      let n = int_bound 1_000_000 in
      let blob = map Bytes.of_string (string_size (int_bound 300)) in
      let op =
        oneof
          [
            return Entry.Create;
            map2
              (fun (off, len, old_size, new_size) blocks -> Entry.Write { off; len; old_size; new_size; blocks })
              (quad n n n n)
              (list_size (int_bound 200) (triple (int_bound 5000) addr addr));
            map2
              (fun (old_size, new_size) freed -> Entry.Truncate { old_size; new_size; freed })
              (pair n n)
              (list_size (int_bound 50) (pair (int_bound 5000) addr));
            map2 (fun old_attr new_attr -> Entry.Set_attr { old_attr; new_attr }) blob blob;
            map2 (fun old_acl new_acl -> Entry.Set_acl { old_acl; new_acl }) blob blob;
            map (fun old_size -> Entry.Delete { old_size }) n;
            map (fun addrs -> Entry.Checkpoint { addrs }) (list_size (int_bound 20) addr);
            map
              (fun moves -> Entry.Relocate { moves })
              (list_size (int_bound 127) (triple (int_range (-1) 5000) addr addr));
          ]
      in
      map2 (fun seq op -> { Entry.oid = 7L; seq; time = 1L; op }) (int_bound 100_000_000) op)
  in
  QCheck.Test.make ~name:"entry size matches its encoding" ~count:500 (QCheck.make gen) (fun e ->
      Entry.size e = S4_seglog.Jblock.entry_size (Entry.to_jentry e))

(* --- Basic object operations ---------------------------------------- *)

let test_create_read_write () =
  let _, _, _, st = mk () in
  let oid = Store.create_object st in
  check Alcotest.bool "exists" true (Store.exists st oid);
  check Alcotest.int "empty" 0 (Store.size st oid);
  write_str st oid ~off:0 "hello world";
  check Alcotest.int "size" 11 (Store.size st oid);
  check Alcotest.string "contents" "hello world" (read_str st oid ~off:0 ~len:11);
  check Alcotest.string "partial" "world" (read_str st oid ~off:6 ~len:100)

let test_overwrite () =
  let _, _, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "aaaaaaaaaa";
  write_str st oid ~off:3 "BBB";
  check Alcotest.string "merged" "aaaBBBaaaa" (read_str st oid ~off:0 ~len:10)

let test_cross_block_write () =
  let _, _, _, st = mk () in
  let oid = Store.create_object st in
  let big = String.init 10_000 (fun i -> Char.chr (65 + (i mod 26))) in
  write_str st oid ~off:0 big;
  check Alcotest.string "big roundtrip" big (read_str st oid ~off:0 ~len:10_000);
  (* Unaligned write across a block boundary. *)
  write_str st oid ~off:4090 "0123456789AB";
  check Alcotest.string "straddles boundary" "0123456789AB" (read_str st oid ~off:4090 ~len:12);
  check Alcotest.string "prefix intact" (String.sub big 0 4090) (read_str st oid ~off:0 ~len:4090)

let test_sparse_holes_read_zero () =
  let _, _, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:10_000 "end";
  check Alcotest.int "size" 10_003 (Store.size st oid);
  check Alcotest.string "hole is zeros" (String.make 100 '\000') (read_str st oid ~off:100 ~len:100)

let test_append () =
  let _, _, _, st = mk () in
  let oid = Store.create_object st in
  Store.append st oid ~data:(bytes_of "one,") ~len:4 ();
  Store.append st oid ~data:(bytes_of "two") ~len:3 ();
  check Alcotest.string "appended" "one,two" (read_str st oid ~off:0 ~len:7)

let test_truncate () =
  let _, _, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 (String.make 9000 'x');
  Store.truncate st oid ~size:100;
  check Alcotest.int "shrunk" 100 (Store.size st oid);
  check Alcotest.string "kept prefix" (String.make 100 'x') (read_str st oid ~off:0 ~len:200);
  Store.truncate st oid ~size:200;
  check Alcotest.int "grown" 200 (Store.size st oid);
  check Alcotest.string "grown tail zeros" (String.make 100 '\000') (read_str st oid ~off:100 ~len:100)

let test_attrs_and_acl () =
  let _, _, _, st = mk () in
  let oid = Store.create_object st in
  Store.set_attr st oid (bytes_of "attr-v1");
  check Alcotest.string "attr" "attr-v1" (Bytes.to_string (Store.get_attr st oid));
  Store.set_acl_raw st oid (bytes_of "acl-v1");
  check Alcotest.string "acl" "acl-v1" (Bytes.to_string (Store.get_acl_raw st oid))

let test_delete_semantics () =
  let _, _, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "precious";
  Store.delete_object st oid;
  check Alcotest.bool "gone" false (Store.exists st oid);
  check Alcotest.bool "write raises Is_deleted" true
    (try
       write_str st oid ~off:0 "nope";
       false
     with Store.Is_deleted _ -> true);
  check Alcotest.bool "delete twice raises" true
    (try
       Store.delete_object st oid;
       false
     with Store.Is_deleted _ -> true)

let test_no_such_object () =
  let _, _, _, st = mk () in
  check Alcotest.bool "read unknown raises" true
    (try
       ignore (Store.read st 999L ~off:0 ~len:1);
       false
     with Store.No_such_object 999L -> true)

let test_list_objects () =
  let _, _, _, st = mk () in
  let a = Store.create_object st in
  let b = Store.create_object st in
  Store.delete_object st a;
  check (Alcotest.list Alcotest.int64) "existing" [ b ] (Store.list_objects st);
  check (Alcotest.list Alcotest.int64) "all" [ a; b ] (Store.list_all st)

(* --- Versioning: the heart of S4 ------------------------------------ *)

let test_time_based_read () =
  let clock, _, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "version-1";
  let t1 = Simclock.now clock in
  tick clock;
  write_str st oid ~off:0 "version-2";
  let t2 = Simclock.now clock in
  tick clock;
  write_str st oid ~off:0 "version-3";
  check Alcotest.string "current" "version-3" (read_str st oid ~off:0 ~len:9);
  check Alcotest.string "at t1" "version-1" (read_str ~at:t1 st oid ~off:0 ~len:9);
  check Alcotest.string "at t2" "version-2" (read_str ~at:t2 st oid ~off:0 ~len:9)

let test_every_modification_is_a_version () =
  (* Unlike close-to-open versioning file systems, S4 keeps one version
     per modification. *)
  let clock, _, _, st = mk () in
  let oid = Store.create_object st in
  let times = ref [] in
  for i = 0 to 9 do
    write_str st oid ~off:0 (Printf.sprintf "v%02d" i);
    times := Simclock.now clock :: !times;
    tick clock
  done;
  List.iteri
    (fun back at ->
      let i = 9 - back in
      check Alcotest.string (Printf.sprintf "version %d" i) (Printf.sprintf "v%02d" i)
        (read_str ~at st oid ~off:0 ~len:3))
    !times;
  check Alcotest.int "10 write versions" 11 (List.length (Store.versions st oid))
(* 10 writes + create *)

let test_version_of_size_changes () =
  let clock, _, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 (String.make 5000 'a');
  let t_big = Simclock.now clock in
  tick clock;
  Store.truncate st oid ~size:10;
  check Alcotest.int "current small" 10 (Store.size st oid);
  check Alcotest.int "was big" 5000 (Store.size ~at:t_big st oid);
  check Alcotest.string "old tail readable" (String.make 100 'a')
    (read_str ~at:t_big st oid ~off:4000 ~len:100)

let test_deleted_object_history_readable () =
  let clock, _, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "exploit-tool-source";
  let t = Simclock.now clock in
  tick clock;
  Store.delete_object st oid;
  check Alcotest.bool "gone now" false (Store.exists st oid);
  check Alcotest.bool "existed then" true (Store.exists ~at:t st oid);
  check Alcotest.string "history read" "exploit-tool-source" (read_str ~at:t st oid ~off:0 ~len:19)

let test_attr_history () =
  let clock, _, _, st = mk () in
  let oid = Store.create_object st in
  Store.set_attr st oid (bytes_of "mode=0644");
  let t = Simclock.now clock in
  tick clock;
  Store.set_attr st oid (bytes_of "mode=4755");
  check Alcotest.string "old attr" "mode=0644" (Bytes.to_string (Store.get_attr ~at:t st oid));
  check Alcotest.string "new attr" "mode=4755" (Bytes.to_string (Store.get_attr st oid))

let test_before_creation_not_found () =
  let clock, _, _, st = mk () in
  tick clock;
  let t_before = Simclock.now clock in
  tick clock;
  let oid = Store.create_object st in
  check Alcotest.bool "not there yet" false (Store.exists ~at:t_before st oid);
  check Alcotest.bool "read raises" true
    (try
       ignore (Store.read ~at:t_before st oid ~off:0 ~len:1);
       false
     with Store.No_such_object _ -> true)

let test_overwrite_mid_file_history () =
  let clock, _, _, st = mk () in
  let oid = Store.create_object st in
  let original = String.init 12_288 (fun i -> Char.chr (97 + (i mod 26))) in
  write_str st oid ~off:0 original;
  let t = Simclock.now clock in
  tick clock;
  write_str st oid ~off:5000 (String.make 2000 '!');
  check Alcotest.string "old version intact" original (read_str ~at:t st oid ~off:0 ~len:12_288);
  let now = read_str st oid ~off:0 ~len:12_288 in
  check Alcotest.string "new version edited" (String.make 2000 '!') (String.sub now 5000 2000);
  check Alcotest.string "outside edit untouched" (String.sub original 0 5000) (String.sub now 0 5000)

(* --- Sync and durability -------------------------------------------- *)

let test_sync_writes_journal () =
  let _, _, log, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "data";
  let before = (Log.stats log).Log.blocks_flushed in
  Store.sync st;
  check Alcotest.bool "flushed blocks" true ((Log.stats log).Log.blocks_flushed > before);
  check Alcotest.bool "journal written" true ((Store.stats st).Store.journal_blocks_written > 0)

let test_invariants_after_workload () =
  let clock, _, _, st = mk () in
  let rng = Rng.create ~seed:1234 in
  let oids = Array.init 20 (fun _ -> Store.create_object st) in
  for _ = 1 to 300 do
    let oid = Rng.pick rng oids in
    (match Rng.int rng 5 with
     | 0 -> write_str st oid ~off:(Rng.int rng 5000) (String.make (1 + Rng.int rng 3000) 'w')
     | 1 -> Store.append st oid ~data:(Bytes.make 100 'a') ~len:100 ()
     | 2 -> Store.truncate st oid ~size:(Rng.int rng 8000)
     | 3 -> Store.set_attr st oid (Bytes.make (Rng.int rng 64) 'x')
     | _ -> ignore (Store.read st oid ~off:0 ~len:2000));
    tick clock
  done;
  Store.sync st;
  no_errors st []

(* --- Checkpoints ----------------------------------------------------- *)

let test_explicit_checkpoint () =
  let _, _, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "some data";
  Store.checkpoint_object st oid;
  Store.sync st;
  check Alcotest.bool "checkpoint blocks written" true
    ((Store.stats st).Store.checkpoint_blocks_written > 0);
  no_errors st []

let test_auto_checkpoint_on_interval () =
  let config = { Store.default_config with checkpoint_interval = 10 } in
  let _, _, _, st = mk ~config () in
  let oid = Store.create_object st in
  for _ = 1 to 25 do
    write_str st oid ~off:0 "x"
  done;
  (* Small images are packed and reach the log at the next sync. *)
  Store.sync st;
  check Alcotest.bool "auto checkpointed" true ((Store.stats st).Store.checkpoint_blocks_written >= 1)

(* --- Expiration ------------------------------------------------------ *)

let test_expire_frees_history () =
  let clock, _, log, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 (String.make 8192 'a');
  tick clock;
  write_str st oid ~off:0 (String.make 8192 'b');
  Store.sync st;
  let live_before = Log.live_blocks log in
  tick clock;
  Store.expire st ~cutoff:(Simclock.now clock);
  Store.sync st;
  check Alcotest.bool "blocks freed" true (Log.live_blocks log < live_before);
  check Alcotest.string "current survives" (String.make 10 'b') (read_str st oid ~off:0 ~len:10);
  no_errors st []

let test_expire_respects_window () =
  let clock, _, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "v1";
  let t1 = Simclock.now clock in
  Simclock.advance clock 10_000_000L;
  write_str st oid ~off:0 "v2";
  Store.sync st;
  (* cutoff before v1: nothing should be reclaimed *)
  Store.expire st ~cutoff:t1;
  check Alcotest.string "v1 still readable" "v1" (read_str ~at:t1 st oid ~off:0 ~len:2);
  no_errors st []

let test_expire_deleted_object_disappears () =
  let clock, _, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "temp";
  tick clock;
  Store.delete_object st oid;
  Store.sync st;
  tick clock;
  Store.expire st ~cutoff:(Simclock.now clock);
  check Alcotest.bool "object fully forgotten" true
    (try
       ignore (Store.journal st oid);
       false
     with Store.No_such_object _ -> true);
  check Alcotest.bool "expired count" true ((Store.stats st).Store.objects_expired = 1);
  no_errors st []

let test_expire_keeps_checkpoint_reachable () =
  let clock, disk, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "cold data";
  Store.sync st;
  Simclock.advance clock 1_000_000_000L;
  Store.expire st ~cutoff:(Simclock.now clock);
  Store.sync st;
  (* The object is cold: its whole journal expired, so its state must
     be held by a self-identifying checkpoint image — prove it by
     crash-recovering from disk alone. *)
  check Alcotest.string "data intact" "cold data" (read_str st oid ~off:0 ~len:9);
  no_errors st [];
  let st2 = Store.recover (Log.reattach disk) in
  check Alcotest.string "cold object survives recovery" "cold data"
    (read_str st2 oid ~off:0 ~len:9)

(* --- Cleaner --------------------------------------------------------- *)

let test_cleaner_run_reclaims () =
  let clock, _, log, st = mk ~mb:16 () in
  let cleaner = Cleaner.create ~window:0L st in
  let oid = Store.create_object st in
  (* Churn enough data to fill segments, overwriting so history builds. *)
  for _ = 1 to 40 do
    write_str st oid ~off:0 (String.make 40_000 'c');
    Store.sync st;
    tick clock
  done;
  let free_before = Log.free_segments log in
  let report = Cleaner.run cleaner in
  check Alcotest.bool "expired something" true (report.Cleaner.expired_blocks > 0);
  check Alcotest.bool "freed space" true (Log.free_segments log >= free_before);
  no_errors st []

let test_cleaner_compaction_moves_blocks () =
  let clock, _, log, st = mk ~mb:16 () in
  let cleaner = Cleaner.create ~window:0L ~live_threshold:0.95 ~max_segments_per_run:64 st in
  let oids = Array.init 8 (fun _ -> Store.create_object st) in
  (* Round 1 writes everything interleaved; later rounds churn only the
     odd objects, so early segments end up sparsely live (the even
     objects' blocks survive there) — compaction victims. *)
  let fill round oid =
    write_str st oid ~off:0 (String.make 20_000 (Char.chr (65 + (round mod 26))))
  in
  Array.iter (fill 1) oids;
  Store.sync st;
  tick clock;
  for round = 2 to 30 do
    Array.iteri (fun i oid -> if i mod 2 = 1 then fill round oid) oids;
    Store.sync st;
    tick clock
  done;
  tick clock;
  let report = Cleaner.run cleaner in
  check Alcotest.bool "compacted segments" true (report.Cleaner.segments_compacted > 0);
  check Alcotest.bool "moved blocks" true (report.Cleaner.blocks_moved > 0);
  (* Data still correct after relocation. *)
  Array.iteri
    (fun i oid ->
      check Alcotest.int "size intact" 20_000 (Store.size st oid);
      let expected = if i mod 2 = 1 then Char.chr (65 + (30 mod 26)) else 'B' in
      check Alcotest.string "content intact" (String.make 50 expected)
        (read_str st oid ~off:1000 ~len:50))
    oids;
  ignore log;
  no_errors st []

let test_cleaner_uncharged_costs_nothing () =
  let clock, _, _, st = mk ~mb:16 () in
  let cleaner = Cleaner.create ~window:0L st in
  Cleaner.set_charged cleaner false;
  let oid = Store.create_object st in
  for _ = 1 to 20 do
    write_str st oid ~off:0 (String.make 30_000 'u');
    Store.sync st;
    tick clock
  done;
  let t = Simclock.now clock in
  ignore (Cleaner.run cleaner);
  check Alcotest.int64 "no simulated time consumed" t (Simclock.now clock);
  no_errors st []

let test_cleaner_overlapped_mode () =
  (* With ample idle credit, overlapped cleaning is free; with none, it
     costs like charged cleaning. *)
  let run idle =
    let clock, _, _, st = mk ~mb:16 () in
    let cleaner = Cleaner.create ~window:0L ~live_threshold:0.95 ~max_segments_per_run:64 st in
    Cleaner.set_mode cleaner Cleaner.Overlapped;
    let oid = Store.create_object st in
    for _ = 1 to 20 do
      write_str st oid ~off:0 (String.make 30_000 'o');
      Store.sync st;
      tick clock
    done;
    let t0 = Simclock.now clock in
    ignore (Cleaner.run ~idle_ns:idle cleaner);
    Int64.sub (Simclock.now clock) t0
  in
  let free_cost = run Int64.max_int in
  let full_cost = run 0L in
  check Alcotest.int64 "fully absorbed by idle time" 0L free_cost;
  check Alcotest.bool "charged when no idle" true (Int64.compare full_cost 0L > 0)

let test_cleaner_window_accessors () =
  let _, _, _, st = mk () in
  let c = Cleaner.create st in
  Cleaner.set_window c 123L;
  check Alcotest.int64 "window" 123L (Cleaner.window c);
  check Alcotest.bool "negative rejected" true
    (try
       Cleaner.set_window c (-1L);
       false
     with Invalid_argument _ -> true)

let test_cleaner_differencing_measurement () =
  let clock, _, _, st = mk () in
  let oid = Store.create_object st in
  (* Successive versions share most content: differencing should shrink
     the history pool a lot. *)
  let base = String.init 8192 (fun i -> Char.chr (97 + (i mod 26))) in
  write_str st oid ~off:0 base;
  for i = 1 to 5 do
    tick clock;
    write_str st oid ~off:(i * 10) "EDIT"
  done;
  Store.sync st;
  let c = Cleaner.create st in
  let d = Cleaner.measure_differencing c in
  check Alcotest.bool "history exists" true (d.Cleaner.history_blocks > 0);
  check Alcotest.bool "differencing shrinks >3x" true
    (d.Cleaner.delta_bytes * 3 < d.Cleaner.history_bytes);
  check Alcotest.bool "compression not larger" true
    (d.Cleaner.delta_compressed_bytes <= d.Cleaner.delta_bytes * 2)

(* --- Crash recovery --------------------------------------------------- *)

let test_recover_basic () =
  let clock, disk, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "survives crashes";
  Store.set_attr st oid (bytes_of "mode=0600");
  Store.checkpoint_object st oid;
  Store.sync st;
  tick clock;
  (* Crash: rebuild everything from disk contents. *)
  let log2 = Log.reattach disk in
  let st2 = Store.recover log2 in
  check Alcotest.string "data recovered" "survives crashes" (read_str st2 oid ~off:0 ~len:16);
  check Alcotest.string "attr recovered" "mode=0600" (Bytes.to_string (Store.get_attr st2 oid));
  no_errors st2 []

let test_recover_without_checkpoint () =
  let _, disk, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "journal only";
  Store.sync st;
  let st2 = Store.recover (Log.reattach disk) in
  check Alcotest.string "rebuilt from journal" "journal only" (read_str st2 oid ~off:0 ~len:12)

let test_recover_loses_unsynced () =
  let _, disk, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "synced";
  Store.sync st;
  write_str st oid ~off:0 "UNSYNC";
  (* no sync before crash *)
  let st2 = Store.recover (Log.reattach disk) in
  check Alcotest.string "pre-crash state" "synced" (read_str st2 oid ~off:0 ~len:6)

let test_recover_history_access () =
  let clock, disk, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "gen-one";
  let t1 = Simclock.now clock in
  tick clock;
  write_str st oid ~off:0 "gen-two";
  Store.sync st;
  let st2 = Store.recover (Log.reattach disk) in
  check Alcotest.string "old version after recovery" "gen-one" (read_str ~at:t1 st2 oid ~off:0 ~len:7);
  check Alcotest.string "current after recovery" "gen-two" (read_str st2 oid ~off:0 ~len:7)

let test_recover_deleted_object () =
  let clock, disk, _, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "to be deleted";
  let t = Simclock.now clock in
  tick clock;
  Store.delete_object st oid;
  Store.sync st;
  let st2 = Store.recover (Log.reattach disk) in
  check Alcotest.bool "still deleted" false (Store.exists st2 oid);
  check Alcotest.string "history still there" "to be deleted" (read_str ~at:t st2 oid ~off:0 ~len:13)

let test_recover_after_compaction () =
  let clock, disk, _, st = mk ~mb:16 () in
  let cleaner = Cleaner.create ~window:0L ~live_threshold:0.95 ~max_segments_per_run:64 st in
  let oids = Array.init 4 (fun _ -> Store.create_object st) in
  for round = 1 to 20 do
    Array.iter
      (fun oid -> write_str st oid ~off:0 (String.make 15_000 (Char.chr (97 + (round mod 26)))))
      oids;
    Store.sync st;
    tick clock
  done;
  tick clock;
  ignore (Cleaner.run cleaner);
  Store.sync st;
  let st2 = Store.recover (Log.reattach disk) in
  Array.iter
    (fun oid ->
      check Alcotest.int "size recovered" 15_000 (Store.size st2 oid);
      check Alcotest.string "content recovered"
        (String.make 100 (Char.chr (97 + (20 mod 26))))
        (read_str st2 oid ~off:0 ~len:100))
    oids

(* A sync refused by a full log keeps what it could not write: once
   expiry frees space, the next sync writes it and recovery sees the
   last version of the overwritten block. 582 overwrites leave three
   free slots, so the refused sync writes the pending checkpoint pack
   and two journal blocks of a five-block flush before it meets the
   full log; 585 leave none, so its pack flush is refused. The final
   sync lands in a segment reclaimed by the expiry, and recovery would
   read that segment's summary from its previous use, so the test
   fills the segment until it closes before recovering. *)
let full_log_keeps_pending overwrites () =
  let clock, disk, log, st = mk ~mb:4 () in
  let doomed = Store.create_object st in
  Store.write st doomed ~off:0 ~len:(300 * 4096) ();
  Store.sync st;
  tick clock;
  Store.delete_object st doomed;
  Store.sync st;
  tick clock;
  let oid = Store.create_object st in
  let version i = Printf.sprintf "v%04d" i in
  write_str st oid ~off:0 (version 0);
  Store.sync st;
  for i = 1 to overwrites do
    tick clock;
    write_str st oid ~off:0 (version i)
  done;
  let packs = (Store.stats st).Store.checkpoint_blocks_written in
  (match Store.sync st with
   | () -> Alcotest.fail "sync should meet a full log"
   | exception Log.Log_full -> ());
  tick clock;
  Store.expire_one st doomed ~cutoff:(Simclock.now clock);
  Store.sync st;
  check Alcotest.bool "checkpoint pack written" true
    ((Store.stats st).Store.checkpoint_blocks_written > packs);
  let open_segment () =
    List.find_opt (fun i -> i.Log.seg_state = Log.Open) (Array.to_list (Log.segments log))
  in
  let filler = Store.create_object st in
  (match open_segment () with
   | None -> ()
   | Some reopened ->
     let rec fill n =
       if (Log.segments log).(reopened.Log.seg_index).Log.seg_state = Log.Open then begin
         Store.write st filler ~off:(n * 4096) ~len:4096 ();
         Store.sync st;
         fill (n + 1)
       end
     in
     fill 0);
  let st2 = Store.recover (Log.reattach disk) in
  check Alcotest.string "last version recovered" (version overwrites) (read_str st2 oid ~off:0 ~len:5);
  check Alcotest.int "every write journaled" (overwrites + 2) (List.length (Store.journal st2 oid))

let test_recover_oid_counter () =
  let _, disk, _, st = mk () in
  let a = Store.create_object st in
  Store.sync st;
  let st2 = Store.recover (Log.reattach disk) in
  let b = Store.create_object st2 in
  check Alcotest.bool "fresh oid distinct" true (Int64.compare b a > 0)

(* --- Property tests --------------------------------------------------- *)

let prop_random_workload_invariants =
  QCheck.Test.make ~name:"invariants hold under random op sequences" ~count:30
    QCheck.(pair small_int (list (pair (int_bound 4) (pair small_nat small_nat))))
    (fun (seed, ops) ->
      let clock, _, _, st = mk ~mb:32 () in
      let rng = Rng.create ~seed in
      let oids = Array.init 5 (fun _ -> Store.create_object st) in
      List.iter
        (fun (kind, (a, b)) ->
          let oid = oids.(Rng.int rng 5) in
          (try
             match kind with
             | 0 ->
               let len = 1 + (b mod 6000) in
               Store.write st oid ~off:(a mod 10_000) ~data:(Bytes.make len 'p') ~len ()
             | 1 -> Store.truncate st oid ~size:(a mod 12_000)
             | 2 -> Store.set_attr st oid (Bytes.make (a mod 32) 'q')
             | 3 -> ignore (Store.read st oid ~off:(a mod 4096) ~len:(b mod 4096))
             | _ -> Store.sync st
           with Store.Is_deleted _ -> ());
          tick clock)
        ops;
      Store.sync st;
      Store.check st = [])

let prop_time_travel_write_read =
  QCheck.Test.make ~name:"any recorded version is exactly re-readable" ~count:25
    QCheck.(list_of_size Gen.(1 -- 12) (pair (int_bound 6000) (int_bound 2000)))
    (fun writes ->
      let clock, _, _, st = mk () in
      let oid = Store.create_object st in
      (* Shadow model: byte array tracking expected contents. *)
      let shadow = Bytes.make 16_384 '\000' in
      let size = ref 0 in
      let snapshots =
        List.mapi
          (fun i (off, len) ->
            let len = 1 + len in
            let c = Char.chr (65 + (i mod 26)) in
            Store.write st oid ~off ~data:(Bytes.make len c) ~len ();
            Bytes.fill shadow off len c;
            size := max !size (off + len);
            let snap = (Simclock.now clock, Bytes.sub shadow 0 !size) in
            tick clock;
            snap)
          writes
      in
      Store.sync st;
      List.for_all
        (fun (at, expected) ->
          let got = Store.read st ~at oid ~off:0 ~len:(Bytes.length expected) in
          Bytes.equal got expected && Store.size st ~at oid = Bytes.length expected)
        snapshots)

let prop_expire_never_touches_window =
  QCheck.Test.make ~name:"expire preserves all versions within the window" ~count:20
    QCheck.(list_of_size Gen.(2 -- 10) (int_bound 1000))
    (fun lens ->
      let clock, _, _, st = mk () in
      QCheck.assume (lens <> []);
      let oid = Store.create_object st in
      let max_size = ref 0 in
      let snaps =
        List.mapi
          (fun i len ->
            let len = 1 + len in
            let c = Char.chr (97 + (i mod 26)) in
            Store.write st oid ~off:0 ~data:(Bytes.make len c) ~len ();
            max_size := max !max_size len;
            (* writes never shrink: expected size is the running max *)
            let s = (Simclock.now clock, c, !max_size) in
            Simclock.advance clock 1_000_000L;
            s)
          lens
      in
      Store.sync st;
      (* Expire with a cutoff placed in the middle of the history. *)
      let n = List.length snaps in
      let mid_time, _, _ = List.nth snaps (n / 2) in
      Store.expire st ~cutoff:mid_time;
      Store.sync st;
      List.for_all
        (fun (at, c, len) ->
          if Int64.compare at mid_time >= 0 then begin
            let got = Store.read st ~at oid ~off:0 ~len:1 in
            Bytes.length got = 1 && Bytes.get got 0 = c && Store.size st ~at oid = len
          end
          else true)
        snaps
      && Store.check st = [])

(* --- Packed checkpoints and failure injection ------------------------- *)

let test_packed_checkpoints_share_blocks () =
  (* Many small objects checkpointed together must land in far fewer
     pack blocks than objects. *)
  let _, _, _, st = mk () in
  let oids = List.init 40 (fun _ -> Store.create_object st) in
  List.iter (fun oid -> write_str st oid ~off:0 "tiny") oids;
  List.iter (fun oid -> Store.checkpoint_object st oid) oids;
  Store.sync st;
  let blocks = (Store.stats st).Store.checkpoint_blocks_written in
  check Alcotest.bool "packed (<= 40/4 blocks)" true (blocks > 0 && blocks <= 10);
  no_errors st []

let test_pack_refcount_churn () =
  (* Re-checkpointing objects releases their old pack slots; packs die
     when the last member leaves. *)
  let clock, _, log, st = mk () in
  let oids = List.init 12 (fun _ -> Store.create_object st) in
  List.iter (fun oid -> write_str st oid ~off:0 "v1") oids;
  List.iter (Store.checkpoint_object st) oids;
  Store.sync st;
  let live1 = Log.live_blocks log in
  for round = 1 to 5 do
    List.iter (fun oid -> write_str st oid ~off:0 (Printf.sprintf "v%d" round)) oids;
    List.iter (Store.checkpoint_object st) oids;
    Store.sync st;
    tick clock
  done;
  (* Expire old versions: superseded packs must be reclaimed too. *)
  Store.expire st ~cutoff:(Simclock.now clock);
  Store.sync st;
  no_errors st [];
  check Alcotest.bool "no pack leak" true (Log.live_blocks log < live1 + 12 * 3)

let test_large_object_dedicated_checkpoint () =
  (* An object with a big block table exceeds the pack threshold and
     gets a dedicated multi-block image; it must survive a crash. *)
  let _, disk, _, st = mk ~mb:128 () in
  let oid = Store.create_object st in
  (* ~8 MB file -> 2048-entry table -> multi-KB image. *)
  Store.write st oid ~off:0 ~data:(Bytes.make 100 'h') ~len:100 ();
  Store.write st oid ~off:(8 * 1024 * 1024) ~data:(Bytes.make 4096 't') ~len:4096 ();
  Store.checkpoint_object st oid;
  Store.sync st;
  no_errors st [];
  (* Recover purely from disk: expire everything first so the journal
     cannot help. *)
  let clock = Store.clock st in
  Simclock.advance clock 1_000_000_000L;
  Store.expire st ~cutoff:(Simclock.now clock);
  Store.sync st;
  no_errors st [];
  let st2 = Store.recover (Log.reattach disk) in
  check Alcotest.int "size recovered" (8 * 1024 * 1024 + 4096) (Store.size st2 oid);
  check Alcotest.string "head recovered" (String.make 100 'h') (read_str st2 oid ~off:0 ~len:100);
  check Alcotest.string "tail recovered" (String.make 50 't')
    (read_str st2 oid ~off:(8 * 1024 * 1024) ~len:50)

let test_corrupt_journal_block_skipped () =
  (* A corrupted journal block must not crash recovery; unaffected
     objects recover fine. *)
  let _, disk, log, st = mk () in
  let a = Store.create_object st in
  write_str st a ~off:0 "object a";
  Store.sync st;
  let b = Store.create_object st in
  write_str st b ~off:0 "object b";
  Store.checkpoint_object st a;
  Store.checkpoint_object st b;
  Store.sync st;
  (* Find a journal block on disk and flip a byte. *)
  let jaddrs =
    List.filter_map
      (fun (addr, tag) -> match tag with S4_seglog.Tag.Journal -> Some addr | _ -> None)
      (Log.all_tagged log)
  in
  check Alcotest.bool "journal blocks exist" true (jaddrs <> []);
  let victim = List.hd jaddrs in
  let lba = victim * 8 in
  let sector = Sim_disk.peek disk ~lba ~sectors:1 in
  Bytes.set sector 7 (Char.chr (Char.code (Bytes.get sector 7) lxor 0xFF));
  Sim_disk.poke disk ~lba ~data:sector;
  let st2 = Store.recover (Log.reattach disk) in
  (* Both objects survive via their checkpoint images even though some
     journal history was lost to corruption. *)
  check Alcotest.string "a recovered" "object a" (read_str st2 a ~off:0 ~len:8);
  check Alcotest.string "b recovered" "object b" (read_str st2 b ~off:0 ~len:8)

let test_corrupt_pack_block_skipped () =
  let _, disk, log, st = mk () in
  let oid = Store.create_object st in
  write_str st oid ~off:0 "packable";
  Store.checkpoint_object st oid;
  Store.sync st;
  let packs =
    List.filter_map
      (fun (addr, tag) -> match tag with S4_seglog.Tag.Ckpack -> Some addr | _ -> None)
      (Log.all_tagged log)
  in
  check Alcotest.bool "pack exists" true (packs <> []);
  let lba = List.hd packs * 8 in
  let sector = Sim_disk.peek disk ~lba ~sectors:1 in
  Bytes.set sector 3 'X';
  Sim_disk.poke disk ~lba ~data:sector;
  (* Recovery must not raise; the journal still rebuilds the object. *)
  let st2 = Store.recover (Log.reattach disk) in
  check Alcotest.string "rebuilt from journal" "packable" (read_str st2 oid ~off:0 ~len:8)

let prop_crash_recovery_equivalence =
  QCheck.Test.make ~name:"synced state survives crash recovery exactly" ~count:15
    QCheck.(pair small_int (list_of_size Gen.(1 -- 25) (pair (int_bound 5) (pair small_nat small_nat))))
    (fun (seed, ops) ->
      let clock, disk, _, st = mk ~mb:64 () in
      let rng = Rng.create ~seed in
      let oids = Array.init 4 (fun _ -> Store.create_object st) in
      List.iter
        (fun (kind, (a, b)) ->
          let oid = oids.(Rng.int rng 4) in
          (try
             match kind with
             | 0 | 1 ->
               let len = 1 + (b mod 5000) in
               Store.write st oid ~off:(a mod 9000)
                 ~data:(Bytes.make len (Char.chr (33 + (b mod 90))))
                 ~len ()
             | 2 -> Store.truncate st oid ~size:(a mod 10_000)
             | 3 -> Store.set_attr st oid (Bytes.make (a mod 40) 'q')
             | 4 -> Store.delete_object st oid
             | _ -> Store.checkpoint_object st oid
           with Store.Is_deleted _ -> ());
          tick clock)
        ops;
      Store.sync st;
      let st2 = Store.recover (Log.reattach disk) in
      Array.for_all
        (fun oid ->
          let ex1 = Store.exists st oid and ex2 = Store.exists st2 oid in
          ex1 = ex2
          &&
          if not ex1 then true
          else begin
            let s1 = Store.size st oid and s2 = Store.size st2 oid in
            s1 = s2
            && Bytes.equal (Store.read st oid ~off:0 ~len:s1) (Store.read st2 oid ~off:0 ~len:s2)
            && Bytes.equal (Store.get_attr st oid) (Store.get_attr st2 oid)
          end)
        oids
      && Store.check st2 = [])

let prop_cleaner_never_loses_in_window_versions =
  (* The headline security property, under active cleaning with
     compaction: every version still inside the detection window stays
     byte-exact no matter how hard the cleaner works. *)
  QCheck.Test.make ~name:"cleaner preserves every in-window version" ~count:10
    QCheck.(pair small_int (list_of_size Gen.(10 -- 30) (pair (int_bound 3) (int_bound 2000))))
    (fun (seed, ops) ->
      let clock, _, _, st = mk ~mb:24 () in
      let window = 50_000_000L (* 50 simulated ms *) in
      let cleaner = Cleaner.create ~window ~live_threshold:0.95 ~max_segments_per_run:8 st in
      ignore seed;
      let oids = Array.init 3 (fun _ -> Store.create_object st) in
      let recorded = ref [] in
      List.iteri
        (fun i (oid_pick, len) ->
          let oid = oids.(oid_pick mod 3) in
          let len = 1 + len in
          let c = Char.chr (33 + (i mod 90)) in
          Store.write st oid ~off:0 ~data:(Bytes.make len c) ~len ();
          recorded := (Simclock.now clock, oid, c, len) :: !recorded;
          Simclock.advance clock 2_000_000L;
          if i mod 5 = 0 then begin
            Store.sync st;
            ignore (Cleaner.run cleaner)
          end)
        ops;
      Store.sync st;
      ignore (Cleaner.run cleaner);
      let cutoff = Cleaner.cutoff cleaner in
      List.for_all
        (fun (at, oid, c, len) ->
          if Int64.compare at cutoff < 0 then true
          else begin
            let b = Store.read st ~at oid ~off:0 ~len:1 in
            Bytes.length b = 1 && Bytes.get b 0 = c && Store.size st ~at oid >= len
          end)
        !recorded
      && Store.check st = [])

let () =
  Alcotest.run "s4_store"
    [
      ( "entry",
        [
          Alcotest.test_case "roundtrips" `Quick test_entry_roundtrips;
          Alcotest.test_case "superseded/new" `Quick test_entry_superseded_and_new;
          Alcotest.test_case "remap" `Quick test_entry_remap;
          qtest prop_entry_size_matches_encoding;
        ] );
      ( "basic",
        [
          Alcotest.test_case "create/read/write" `Quick test_create_read_write;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "cross-block write" `Quick test_cross_block_write;
          Alcotest.test_case "sparse holes" `Quick test_sparse_holes_read_zero;
          Alcotest.test_case "append" `Quick test_append;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "attrs and acl" `Quick test_attrs_and_acl;
          Alcotest.test_case "delete semantics" `Quick test_delete_semantics;
          Alcotest.test_case "no such object" `Quick test_no_such_object;
          Alcotest.test_case "list objects" `Quick test_list_objects;
        ] );
      ( "versioning",
        [
          Alcotest.test_case "time-based read" `Quick test_time_based_read;
          Alcotest.test_case "version per modification" `Quick test_every_modification_is_a_version;
          Alcotest.test_case "size history" `Quick test_version_of_size_changes;
          Alcotest.test_case "deleted history readable" `Quick test_deleted_object_history_readable;
          Alcotest.test_case "attr history" `Quick test_attr_history;
          Alcotest.test_case "before creation" `Quick test_before_creation_not_found;
          Alcotest.test_case "mid-file overwrite history" `Quick test_overwrite_mid_file_history;
        ] );
      ( "durability",
        [
          Alcotest.test_case "sync writes journal" `Quick test_sync_writes_journal;
          Alcotest.test_case "invariants after workload" `Quick test_invariants_after_workload;
          Alcotest.test_case "explicit checkpoint" `Quick test_explicit_checkpoint;
          Alcotest.test_case "auto checkpoint" `Quick test_auto_checkpoint_on_interval;
        ] );
      ( "expiration",
        [
          Alcotest.test_case "frees history" `Quick test_expire_frees_history;
          Alcotest.test_case "respects window" `Quick test_expire_respects_window;
          Alcotest.test_case "deleted object disappears" `Quick test_expire_deleted_object_disappears;
          Alcotest.test_case "checkpoint reachable" `Quick test_expire_keeps_checkpoint_reachable;
        ] );
      ( "cleaner",
        [
          Alcotest.test_case "run reclaims" `Quick test_cleaner_run_reclaims;
          Alcotest.test_case "compaction moves blocks" `Quick test_cleaner_compaction_moves_blocks;
          Alcotest.test_case "uncharged is free" `Quick test_cleaner_uncharged_costs_nothing;
          Alcotest.test_case "overlapped mode" `Quick test_cleaner_overlapped_mode;
          Alcotest.test_case "window accessors" `Quick test_cleaner_window_accessors;
          Alcotest.test_case "differencing measurement" `Quick test_cleaner_differencing_measurement;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "basic" `Quick test_recover_basic;
          Alcotest.test_case "journal only" `Quick test_recover_without_checkpoint;
          Alcotest.test_case "unsynced lost" `Quick test_recover_loses_unsynced;
          Alcotest.test_case "history access" `Quick test_recover_history_access;
          Alcotest.test_case "deleted object" `Quick test_recover_deleted_object;
          Alcotest.test_case "after compaction" `Quick test_recover_after_compaction;
          Alcotest.test_case "oid counter" `Quick test_recover_oid_counter;
          Alcotest.test_case "full log keeps journal entries" `Quick (full_log_keeps_pending 582);
          Alcotest.test_case "full log keeps checkpoint images" `Quick (full_log_keeps_pending 585);
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "packing shares blocks" `Quick test_packed_checkpoints_share_blocks;
          Alcotest.test_case "pack refcount churn" `Quick test_pack_refcount_churn;
          Alcotest.test_case "large object chunks" `Quick test_large_object_dedicated_checkpoint;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "corrupt journal block" `Quick test_corrupt_journal_block_skipped;
          Alcotest.test_case "corrupt pack block" `Quick test_corrupt_pack_block_skipped;
        ] );
      ( "properties",
        [
          qtest prop_random_workload_invariants;
          qtest prop_time_travel_write_read;
          qtest prop_expire_never_touches_window;
          qtest prop_crash_recovery_equivalence;
          qtest prop_cleaner_never_loses_in_window_versions;
        ] );
    ]
