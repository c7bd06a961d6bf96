(* Counts read from each layer's public stats functions, summed over
   every drive of a stack (mirror secondaries included). *)

module Drive = S4.Drive
module Store = S4_store.Obj_store
module Log = S4_seglog.Log
module Sim_disk = S4_disk.Sim_disk

type t = {
  audit_records : int;
  block_hits : int;
  block_misses : int;
  journal_bytes : int;
  journal_blocks : int;
  checkpoint_blocks : int;
  data_blocks : int;
  user_bytes : int;
  appends : int;
  flushes : int;
  blocks_flushed : int;
  summaries : int;
  disk_ios : int;
  disk_seq : int;
  disk_busy_ns : int;
  cleaner_moved : int;
  live_bytes : int;
}

let zero =
  {
    audit_records = 0;
    block_hits = 0;
    block_misses = 0;
    journal_bytes = 0;
    journal_blocks = 0;
    checkpoint_blocks = 0;
    data_blocks = 0;
    user_bytes = 0;
    appends = 0;
    flushes = 0;
    blocks_flushed = 0;
    summaries = 0;
    disk_ios = 0;
    disk_seq = 0;
    disk_busy_ns = 0;
    cleaner_moved = 0;
    live_bytes = 0;
  }

let of_drive d =
  let store = Drive.store d in
  let ss = Store.stats store in
  let log = Drive.log d in
  let ls = Log.stats log in
  let ds = Sim_disk.stats (Log.disk log) in
  let hits, misses = Store.cache_stats store in
  {
    audit_records = S4.Audit.record_count (Drive.audit d);
    block_hits = hits;
    block_misses = misses;
    journal_bytes = ss.Store.journal_bytes;
    journal_blocks = ss.Store.journal_blocks_written;
    checkpoint_blocks = ss.Store.checkpoint_blocks_written;
    data_blocks = ss.Store.data_blocks_written;
    user_bytes = ss.Store.bytes_written;
    appends = ls.Log.appends;
    flushes = ls.Log.flush_ops;
    blocks_flushed = ls.Log.blocks_flushed;
    summaries = ls.Log.summaries_written;
    disk_ios = ds.Sim_disk.reads + ds.Sim_disk.writes;
    disk_seq = ds.Sim_disk.sequential;
    (* An array runs its member disks in phantom mode: their service
       time lands in the phantom counter and their I/O counts nowhere. *)
    disk_busy_ns = Int64.to_int ds.Sim_disk.busy_ns + Int64.to_int (Sim_disk.phantom_ns (Log.disk log));
    cleaner_moved = (S4_store.Cleaner.totals (Drive.cleaner d)).S4_store.Cleaner.blocks_moved;
    live_bytes = Log.live_blocks log * Log.block_size log;
  }

let map2 f a b =
  {
    audit_records = f a.audit_records b.audit_records;
    block_hits = f a.block_hits b.block_hits;
    block_misses = f a.block_misses b.block_misses;
    journal_bytes = f a.journal_bytes b.journal_bytes;
    journal_blocks = f a.journal_blocks b.journal_blocks;
    checkpoint_blocks = f a.checkpoint_blocks b.checkpoint_blocks;
    data_blocks = f a.data_blocks b.data_blocks;
    user_bytes = f a.user_bytes b.user_bytes;
    appends = f a.appends b.appends;
    flushes = f a.flushes b.flushes;
    blocks_flushed = f a.blocks_flushed b.blocks_flushed;
    summaries = f a.summaries b.summaries;
    disk_ios = f a.disk_ios b.disk_ios;
    disk_seq = f a.disk_seq b.disk_seq;
    disk_busy_ns = f a.disk_busy_ns b.disk_busy_ns;
    cleaner_moved = f a.cleaner_moved b.cleaner_moved;
    live_bytes = f a.live_bytes b.live_bytes;
  }

let of_drives ds = List.fold_left (fun acc d -> map2 ( + ) acc (of_drive d)) zero ds

(* [diff later earlier]; [live_bytes] is a level, not a count, so the
   later value is kept. *)
let diff a b = { (map2 ( - ) a b) with live_bytes = a.live_bytes }

(* The server process ships its counters to the generator as one line
   of integers in field order. *)
let to_list c =
  [
    c.audit_records; c.block_hits; c.block_misses; c.journal_bytes; c.journal_blocks;
    c.checkpoint_blocks; c.data_blocks; c.user_bytes; c.appends; c.flushes; c.blocks_flushed;
    c.summaries; c.disk_ios; c.disk_seq; c.disk_busy_ns; c.cleaner_moved; c.live_bytes;
  ]

let of_list = function
  | [
      audit_records; block_hits; block_misses; journal_bytes; journal_blocks; checkpoint_blocks;
      data_blocks; user_bytes; appends; flushes; blocks_flushed; summaries; disk_ios; disk_seq;
      disk_busy_ns; cleaner_moved; live_bytes;
    ] ->
    {
      audit_records;
      block_hits;
      block_misses;
      journal_bytes;
      journal_blocks;
      checkpoint_blocks;
      data_blocks;
      user_bytes;
      appends;
      flushes;
      blocks_flushed;
      summaries;
      disk_ios;
      disk_seq;
      disk_busy_ns;
      cleaner_moved;
      live_bytes;
    }
  | _ -> invalid_arg "Counters.of_list"

(* Blocks whose bytes pass through CRC-32 on the way to the log: every
   append that is neither a data block nor a cleaner relocation
   (journal, checkpoint, audit records and seals) plus each segment
   summary. Data blocks carry no CRC. *)
let crc_blocks c = max 0 (c.appends - c.data_blocks - c.cleaner_moved) + c.summaries
