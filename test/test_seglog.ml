(* Tests for the segment log: codecs, allocation, sync, liveness,
   reclaim and reattach. *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Tag = S4_seglog.Tag
module Jblock = S4_seglog.Jblock
module Summary = S4_seglog.Summary
module Log = S4_seglog.Log

let check = Alcotest.check
let qtest = Qseed.qtest

let small_geom = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(16 * 1024 * 1024)

let mk () =
  let clock = Simclock.create () in
  let disk = Sim_disk.create ~geometry:small_geom clock in
  (clock, disk, Log.create disk)

let block n c = Bytes.make n c

(* --- Tag codec ------------------------------------------------------ *)

let tag = Alcotest.testable Tag.pp Tag.equal

let test_tag_roundtrip () =
  let roundtrip tg =
    let w = S4_util.Bcodec.writer () in
    Tag.encode w tg;
    let r = S4_util.Bcodec.reader (S4_util.Bcodec.contents w) in
    check tag "roundtrip" tg (Tag.decode r)
  in
  List.iter roundtrip
    [
      Tag.Data { oid = 42L; fblock = 17 };
      Tag.Journal;
      Tag.Checkpoint { oid = 7L };
      Tag.Ckpack;
      Tag.Unknown;
    ]

(* Each remaining kind keeps its byte; the bytes of the retired kinds
   (an object map and a summary tag nothing wrote, and the standalone
   audit block) no longer decode. *)
let test_tag_bytes () =
  let first_byte tg =
    let w = S4_util.Bcodec.writer () in
    Tag.encode w tg;
    Bytes.get_uint8 (S4_util.Bcodec.contents w) 0
  in
  check Alcotest.(list int) "kind bytes" [ 0; 1; 2; 7; 6 ]
    (List.map first_byte
       [ Tag.Data { oid = 1L; fblock = 0 }; Tag.Journal; Tag.Checkpoint { oid = 1L }; Tag.Ckpack; Tag.Unknown ]);
  List.iter
    (fun k ->
      match Tag.decode (S4_util.Bcodec.reader (Bytes.make 1 (Char.chr k))) with
      | tg -> Alcotest.failf "kind %d decoded as %a" k Tag.pp tg
      | exception S4_util.Bcodec.Decode_error _ -> ())
    [ 3; 4; 5 ]

let test_tag_oid () =
  check (Alcotest.option Alcotest.int64) "data oid" (Some 3L)
    (Tag.oid (Tag.Data { oid = 3L; fblock = 0 }));
  check (Alcotest.option Alcotest.int64) "journal none" None (Tag.oid Tag.Journal)

(* --- Jblock codec --------------------------------------------------- *)

let je oid seq kind payload =
  { Jblock.oid; seq; time = Int64.of_int (seq * 1000); kind; payload = Bytes.of_string payload }

let test_jblock_roundtrip () =
  let entries = [ je 1L 1 0 ""; je 1L 2 1 "payload-a"; je 2L 1 3 "x" ] in
  let b = Jblock.encode ~block_size:4096 ~prev:1234 entries in
  check Alcotest.int "block sized" 4096 (Bytes.length b);
  match Jblock.decode b with
  | None -> Alcotest.fail "decode failed"
  | Some (prev, decoded) ->
    check Alcotest.int "prev" 1234 prev;
    check Alcotest.int "count" 3 (List.length decoded);
    List.iter2
      (fun (a : Jblock.entry) (b : Jblock.entry) ->
        check Alcotest.int64 "oid" a.Jblock.oid b.Jblock.oid;
        check Alcotest.int "seq" a.seq b.seq;
        check Alcotest.int64 "time" a.time b.time;
        check Alcotest.int "kind" a.kind b.kind;
        check Alcotest.bytes "payload" a.payload b.payload)
      entries decoded

let test_jblock_crc_rejects_corruption () =
  let b = Jblock.encode ~block_size:4096 ~prev:(-1) [ je 1L 1 0 "data" ] in
  Bytes.set b 100 'Z';
  check Alcotest.bool "corrupted rejected" true (Jblock.decode b = None)

let test_jblock_not_a_block () =
  check Alcotest.bool "zeros rejected" true (Jblock.decode (Bytes.make 4096 '\000') = None);
  check Alcotest.bool "short rejected" true (Jblock.decode (Bytes.create 4) = None)

let test_jblock_overflow_rejected () =
  let big = je 1L 1 1 (String.make 5000 'x') in
  check Alcotest.bool "too big raises" true
    (try
       ignore (Jblock.encode ~block_size:4096 ~prev:(-1) [ big ]);
       false
     with Invalid_argument _ -> true)

let test_jblock_fits () =
  let e = je 1L 1 1 "0123456789" in
  let sz = Jblock.entry_size e in
  check Alcotest.bool "fits in empty" true (Jblock.fits ~block_size:4096 ~current:0 e);
  check Alcotest.bool "does not fit when nearly full" false
    (Jblock.fits ~block_size:4096 ~current:(4096 - sz) e)

(* --- Summary codec --------------------------------------------------- *)

let test_summary_roundtrip () =
  let tags = Array.init 127 (fun i -> if i mod 2 = 0 then Tag.Journal else Tag.Data { oid = Int64.of_int i; fblock = i }) in
  let b = Summary.encode ~block_size:4096 { Summary.epoch = 99; tags } in
  match Summary.decode b with
  | None -> Alcotest.fail "decode failed"
  | Some s ->
    check Alcotest.int "epoch" 99 s.Summary.epoch;
    check Alcotest.int "tags" 127 (Array.length s.Summary.tags);
    Array.iteri (fun i tg -> check tag "tag" tags.(i) tg) s.Summary.tags

let test_summary_crc () =
  let b = Summary.encode ~block_size:4096 { Summary.epoch = 1; tags = [| Tag.Journal |] } in
  Bytes.set b 3 '\255';
  check Alcotest.bool "corrupt rejected" true (Summary.decode b = None)

(* --- Log ------------------------------------------------------------- *)

let test_log_layout () =
  let _, _, log = mk () in
  check Alcotest.int "block size" 4096 (Log.block_size log);
  check Alcotest.int "blocks per segment" 128 (Log.blocks_per_segment log);
  (* 16 MiB disk = 32 segments, minus 1 reserved = 31, 127 usable each *)
  check Alcotest.int "segments" 31 (Log.total_segments log);
  check Alcotest.int "usable blocks" (31 * 127) (Log.usable_blocks log)

let test_append_assigns_increasing_addrs () =
  let _, _, log = mk () in
  let a1 = Log.append log Tag.Journal () in
  let a2 = Log.append log Tag.Journal () in
  check Alcotest.bool "increasing" true (a2 = a1 + 1)

let test_buffered_until_sync () =
  let _, disk, log = mk () in
  let before = (Sim_disk.stats disk).Sim_disk.writes in
  let _ = Log.append log Tag.Journal ~data:(block 4096 'j') () in
  check Alcotest.int "no disk write yet" before (Sim_disk.stats disk).Sim_disk.writes;
  Log.sync log;
  check Alcotest.bool "disk write on sync" true ((Sim_disk.stats disk).Sim_disk.writes > before)

let test_read_buffered_is_free () =
  let clock, _, log = mk () in
  let a = Log.append log Tag.Journal ~data:(block 4096 'b') () in
  let t = Simclock.now clock in
  let b = Log.read log a in
  check Alcotest.bytes "contents" (block 4096 'b') b;
  check Alcotest.int64 "free read" t (Simclock.now clock)

let test_read_after_sync_charges () =
  let clock, _, log = mk () in
  let a = Log.append log Tag.Ckpack ~data:(block 4096 'c') () in
  Log.sync log;
  let t = Simclock.now clock in
  let b = Log.read log a in
  check Alcotest.bytes "contents" (block 4096 'c') b;
  check Alcotest.bool "charged" true (Int64.compare (Simclock.now clock) t > 0)

let test_segment_close_writes_summary () =
  let _, disk, log = mk () in
  for _ = 1 to 127 do
    ignore (Log.append log Tag.Journal ~data:(block 4096 's') ())
  done;
  check Alcotest.int "one summary written" 1 (Log.stats log).Log.summaries_written;
  (* Summary block is at slot 127 of segment 0 (after the reserved segment). *)
  let summary_addr = 128 + 127 in
  let sblock = Sim_disk.peek disk ~lba:(summary_addr * 8) ~sectors:8 in
  match Summary.decode sblock with
  | None -> Alcotest.fail "summary not on disk"
  | Some s -> check Alcotest.int "epoch 1" 1 s.Summary.epoch

let test_kill_and_liveness () =
  let _, _, log = mk () in
  let a = Log.append log Tag.Journal () in
  check Alcotest.bool "live" true (Log.is_live log a);
  Log.kill log a;
  check Alcotest.bool "dead" false (Log.is_live log a);
  Log.kill log a;
  (* idempotent *)
  check Alcotest.int "live count" 0 (Log.live_blocks log)

let test_tag_of () =
  let _, _, log = mk () in
  let a = Log.append log (Tag.Data { oid = 5L; fblock = 2 }) () in
  check (Alcotest.option tag) "tag" (Some (Tag.Data { oid = 5L; fblock = 2 })) (Log.tag_of log a);
  Log.kill log a;
  check (Alcotest.option tag) "tag survives kill" (Some (Tag.Data { oid = 5L; fblock = 2 }))
    (Log.tag_of log a)

let test_reclaim_dead_segments () =
  let _, _, log = mk () in
  let addrs = List.init 127 (fun _ -> Log.append log Tag.Journal ()) in
  let free_before = Log.free_segments log in
  List.iter (Log.kill log) addrs;
  let n = Log.reclaim_dead_segments log in
  check Alcotest.int "one segment reclaimed" 1 n;
  check Alcotest.int "free grew" (free_before + 1) (Log.free_segments log)

let test_auto_reclaim_on_full () =
  let clock = Simclock.create () in
  let disk = Sim_disk.create ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(2 * 1024 * 1024)) clock in
  let log = Log.create disk in
  (* 4 segments - 1 reserved = 3 segments; fill and kill as we go. *)
  for _ = 1 to 127 * 5 do
    let a = Log.append log Tag.Journal () in
    Log.kill log a
  done;
  check Alcotest.bool "auto reclaimed" true ((Log.stats log).Log.segments_reclaimed > 0)

let test_log_full_raises () =
  let clock = Simclock.create () in
  let disk = Sim_disk.create ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(2 * 1024 * 1024)) clock in
  let log = Log.create disk in
  (* Every usable slot takes a block, the one filling the last slot
     included: an append that has placed its block returns its address.
     Only the next append is refused. *)
  let placed = ref [] in
  check Alcotest.bool "raises Log_full" true
    (try
       for _ = 1 to 127 * 4 do
         placed := Log.append log Tag.Journal () :: !placed
       done;
       false
     with Log.Log_full -> true);
  check Alcotest.int "every slot placed" (Log.usable_blocks log) (List.length !placed);
  check Alcotest.bool "last block tagged" true
    (Log.tag_of log (List.hd !placed) = Some Tag.Journal)

let test_read_run_clamps () =
  let _, _, log = mk () in
  let first = Log.append log Tag.Journal ~data:(block 4096 '0') () in
  for i = 1 to 9 do
    ignore (Log.append log Tag.Journal ~data:(block 4096 (Char.chr (48 + i))) ())
  done;
  Log.sync log;
  let reads = (Log.stats log).Log.blocks_read in
  let k = Log.read_run log first 100 in
  check Alcotest.int "clamped to written extent" 10 k;
  check Alcotest.int "one charge for the run" 10 ((Log.stats log).Log.blocks_read - reads);
  for i = 0 to k - 1 do
    check Alcotest.bytes "content" (block 4096 (Char.chr (48 + i))) (Log.peek log (first + i))
  done

let test_charge_io_toggle () =
  let clock, _, log = mk () in
  Log.charge_io log false;
  let a = Log.append log Tag.Journal ~data:(block 4096 'u') () in
  Log.sync log;
  check Alcotest.int64 "uncharged sync free" 0L (Simclock.now clock);
  Log.charge_io log true;
  (* contents still stored *)
  check Alcotest.bytes "contents stored" (block 4096 'u') (Log.peek log a)

let test_superblock_roundtrip () =
  let _, _, log = mk () in
  Log.write_superblock log (Bytes.of_string "s4-superblock-v1");
  let b = Log.read_superblock log in
  check Alcotest.string "superblock" "s4-superblock-v1" (Bytes.to_string (Bytes.sub b 0 16))

let test_utilization () =
  let _, _, log = mk () in
  check (Alcotest.float 1e-9) "empty" 0.0 (Log.utilization log);
  ignore (Log.append log Tag.Journal ());
  check Alcotest.bool "nonzero" true (Log.utilization log > 0.0)

(* --- Reattach / crash recovery -------------------------------------- *)

let test_reattach_closed_segments () =
  let _, disk, log = mk () in
  (* Fill two segments with journal blocks. *)
  for i = 0 to 253 do
    ignore (Log.append log Tag.Journal ~data:(Jblock.encode ~block_size:4096 ~prev:(-1) [ je 1L (i + 1) 0 "" ]) ())
  done;
  Log.sync log;
  let log2 = Log.reattach disk in
  let infos = Log.segments log2 in
  let closed = Array.to_list infos |> List.filter (fun i -> i.Log.seg_state = Log.Closed) in
  check Alcotest.int "two closed segments" 2 (List.length closed);
  let jbs = Log.journal_blocks log2 in
  check Alcotest.int "254 journal blocks found" 254 (List.length jbs)

let test_reattach_open_segment_probed () =
  let _, disk, log = mk () in
  (* Write a handful of journal blocks, not enough to close a segment. *)
  for i = 0 to 4 do
    ignore (Log.append log Tag.Journal ~data:(Jblock.encode ~block_size:4096 ~prev:(-1) [ je 2L (i + 1) 0 "z" ]) ())
  done;
  Log.sync log;
  let log2 = Log.reattach disk in
  let jbs = Log.journal_blocks log2 in
  check Alcotest.int "probed journal blocks" 5 (List.length jbs)

let test_reattach_loses_unsynced () =
  let _, disk, log = mk () in
  ignore (Log.append log Tag.Journal ~data:(Jblock.encode ~block_size:4096 ~prev:(-1) [ je 3L 1 0 "" ]) ());
  (* no sync: the block never reached the disk *)
  let log2 = Log.reattach disk in
  check Alcotest.int "nothing found" 0 (List.length (Log.journal_blocks log2))

let test_all_tagged () =
  let _, _, log = mk () in
  let a = Log.append log Tag.Journal () in
  let b = Log.append log (Tag.Data { oid = 1L; fblock = 0 }) () in
  Log.kill log b;
  let tags = Log.all_tagged log in
  (* Dead blocks keep their tags until the segment is reclaimed. *)
  check Alcotest.bool "journal listed" true (List.mem_assoc a tags);
  check Alcotest.bool "dead data still listed" true (List.mem_assoc b tags)

let test_mark_live_after_reattach () =
  let _, disk, log = mk () in
  let a = Log.append log Tag.Journal ~data:(Jblock.encode ~block_size:4096 ~prev:(-1) [ je 4L 1 0 "" ]) () in
  Log.sync log;
  let log2 = Log.reattach disk in
  check Alcotest.bool "dead after reattach" false (Log.is_live log2 a);
  Log.mark_live log2 a Tag.Journal;
  check Alcotest.bool "live after mark" true (Log.is_live log2 a);
  Log.mark_live log2 a Tag.Journal;
  check Alcotest.int "idempotent" 1 (Log.live_blocks log2)

let prop_summary_roundtrip =
  QCheck.Test.make ~name:"summary roundtrip (random tags)" ~count:100
    QCheck.(list_of_size Gen.(1 -- 127) (pair small_nat small_nat))
    (fun pairs ->
      let tags =
        Array.of_list
          (List.map
             (fun (a, b) ->
               match a mod 4 with
               | 0 -> Tag.Journal
               | 1 -> Tag.Data { oid = Int64.of_int a; fblock = b }
               | 2 -> Tag.Checkpoint { oid = Int64.of_int b }
               | _ -> Tag.Ckpack)
             pairs)
      in
      match Summary.decode (Summary.encode ~block_size:4096 { Summary.epoch = 5; tags }) with
      | Some s -> s.Summary.tags = tags && s.Summary.epoch = 5
      | None -> false)

let () =
  Alcotest.run "s4_seglog"
    [
      ( "tag",
        [
          Alcotest.test_case "roundtrip" `Quick test_tag_roundtrip;
          Alcotest.test_case "kind bytes" `Quick test_tag_bytes;
          Alcotest.test_case "oid" `Quick test_tag_oid;
        ] );
      ( "jblock",
        [
          Alcotest.test_case "roundtrip" `Quick test_jblock_roundtrip;
          Alcotest.test_case "crc" `Quick test_jblock_crc_rejects_corruption;
          Alcotest.test_case "not a block" `Quick test_jblock_not_a_block;
          Alcotest.test_case "overflow" `Quick test_jblock_overflow_rejected;
          Alcotest.test_case "fits" `Quick test_jblock_fits;
        ] );
      ( "summary",
        [
          Alcotest.test_case "roundtrip" `Quick test_summary_roundtrip;
          Alcotest.test_case "crc" `Quick test_summary_crc;
          qtest prop_summary_roundtrip;
        ] );
      ( "log",
        [
          Alcotest.test_case "layout" `Quick test_log_layout;
          Alcotest.test_case "append addrs" `Quick test_append_assigns_increasing_addrs;
          Alcotest.test_case "buffered until sync" `Quick test_buffered_until_sync;
          Alcotest.test_case "buffered read free" `Quick test_read_buffered_is_free;
          Alcotest.test_case "synced read charged" `Quick test_read_after_sync_charges;
          Alcotest.test_case "segment close summary" `Quick test_segment_close_writes_summary;
          Alcotest.test_case "kill and liveness" `Quick test_kill_and_liveness;
          Alcotest.test_case "tag_of" `Quick test_tag_of;
          Alcotest.test_case "reclaim dead" `Quick test_reclaim_dead_segments;
          Alcotest.test_case "auto reclaim" `Quick test_auto_reclaim_on_full;
          Alcotest.test_case "log full" `Quick test_log_full_raises;
          Alcotest.test_case "read_run clamps" `Quick test_read_run_clamps;
          Alcotest.test_case "charge toggle" `Quick test_charge_io_toggle;
          Alcotest.test_case "superblock" `Quick test_superblock_roundtrip;
          Alcotest.test_case "utilization" `Quick test_utilization;
        ] );
      ( "reattach",
        [
          Alcotest.test_case "closed segments" `Quick test_reattach_closed_segments;
          Alcotest.test_case "open segment probe" `Quick test_reattach_open_segment_probed;
          Alcotest.test_case "unsynced lost" `Quick test_reattach_loses_unsynced;
          Alcotest.test_case "mark live" `Quick test_mark_live_after_reattach;
          Alcotest.test_case "all_tagged" `Quick test_all_tagged;
        ] );
    ]
