(* The metric catalogue and the per-layer arithmetic shared by the
   three workloads. *)

module Trace = S4_obs.Trace
module Wire = S4_net.Wire
module Chain = S4_integrity.Chain

type better = Higher | Lower

(* Name, unit, direction. The order here is the order printed. *)
let end_to_end =
  [
    ("ops_per_s", "1/s", Higher);
    ("lat_p50_us", "us", Lower);
    ("lat_p99_us", "us", Lower);
    ("cpu_us_per_op", "us", Lower);
    ("alloc_words_per_op", "words", Lower);
    ("sim_ops_per_s", "1/s", Higher);
    ("sim_lat_p99_us", "us", Lower);
    ("space_amp", "ratio", Lower);
    ("setup_s", "s", Lower);
    ("peak_rss_mb", "MB", Lower);
  ]

let traced_layers = [ "nfs"; "net"; "router"; "drive"; "store"; "seglog"; "disk" ]

let per_layer =
  [
    ("nfs.self_us_per_op", "us", Lower);
    ("nfs.rpcs_per_op", "rpc/op", Lower);
    ("nfs.attr_hit_ratio", "ratio", Higher);
    ("net.client.self_us_per_call", "us", Lower);
    ("net.session.self_us_per_call", "us", Lower);
    ("net.wait_us_per_call", "us", Lower);
    ("net.bytes_per_op", "B/op", Lower);
    ("net.codec_ns_per_kb", "ns/KB", Lower);
    ("net.cache.hit_ratio", "ratio", Higher);
    ("net.lease_waits_per_kop", "1/kop", Lower);
    ("qos.share_ratio", "ratio", Higher);
    ("shard.us_per_call", "us", Lower);
    ("multi.secondary_read_share", "ratio", Higher);
    ("core.drive.us_per_call", "us", Lower);
    ("core.audit.records_per_op", "rec/op", Lower);
    ("integrity.chain_ns_per_record", "ns", Lower);
    ("integrity.verify_ms", "ms", Lower);
    ("util.crc32_ns_per_kb", "ns/KB", Lower);
    ("util.crc32_kb_per_op", "KB/op", Lower);
    ("store.cache_hit_ratio", "ratio", Higher);
    ("store.journal_bytes_per_op", "B/op", Lower);
    ("store.write_amp", "ratio", Lower);
    ("store.cleaner.us_per_op", "us", Lower);
    ("store.cleaner.blocks_moved_per_op", "blocks/op", Lower);
    ("seglog.flushes_per_op", "1/op", Lower);
    ("seglog.blocks_per_flush", "blocks", Higher);
    ("disk.ios_per_op", "1/op", Lower);
    ("disk.busy_us_per_op", "us", Lower);
    ("disk.seq_ratio", "ratio", Higher);
  ]
  @ List.map (fun l -> ("trace." ^ l ^ ".sim_self_us_per_op", "us", Lower)) traced_layers
  @ [ ("trace.ops_per_s", "1/s", Higher); ("trace.boundary_coverage", "ratio", Higher) ]

open Stats

(* ------------------------------------------------------------------ *)
(* Counter-derived layer metrics                                       *)

let block_size = 4096

(* [disk_ios] overrides the disk's own count, which misses the I/O of
   phantom-mode (array member) disks. *)
let from_counters ?disk_ios ~ops ~wire_bytes ~cleaner_ns (c : Counters.t) =
  let ios = Option.value disk_ios ~default:c.disk_ios in
  [
    ("core.audit.records_per_op", per c.audit_records ops);
    ( "util.crc32_kb_per_op",
      per ((2 * wire_bytes) + (block_size * Counters.crc_blocks c)) ops /. 1024.0 );
    ("store.cache_hit_ratio", per c.block_hits (c.block_hits + c.block_misses));
    ("store.journal_bytes_per_op", per c.journal_bytes ops);
    ("store.write_amp", per (block_size * c.appends) c.user_bytes);
    ("store.cleaner.us_per_op", per cleaner_ns ops /. 1000.0);
    ("store.cleaner.blocks_moved_per_op", per c.cleaner_moved ops);
    ("seglog.flushes_per_op", per c.flushes ops);
    ("seglog.blocks_per_flush", per c.blocks_flushed c.flushes);
    ("disk.ios_per_op", per ios ops);
    ("disk.busy_us_per_op", per c.disk_busy_ns ops /. 1000.0);
    ("disk.seq_ratio", per c.disk_seq c.disk_ios);
  ]

(* ------------------------------------------------------------------ *)
(* Pricing the run's own inputs                                        *)

(* Repeat [f] (which processes [units] units) until at least 100 ms
   have passed; ns per unit. *)
let price ~units f =
  if units = 0 then 0.0
  else begin
    let t0 = Host.now_ns () in
    let reps = ref 0 in
    while !reps < 3 || Host.now_ns () - t0 < 100_000_000 do
      f ();
      incr reps
    done;
    float_of_int (Host.now_ns () - t0) /. float_of_int (!reps * units)
  end

let streams (cap : Spans.capture) =
  [ Buffer.to_bytes cap.Spans.out_frames; Buffer.to_bytes cap.Spans.in_frames ]

let total bufs = List.fold_left (fun acc b -> acc + Bytes.length b) 0 bufs

(* Every captured frame through [Wire.decode] and back through
   [Wire.encode]. *)
let codec_ns_per_kb cap =
  let bufs = streams cap in
  let bytes = total bufs in
  let replay () =
    List.iter
      (fun b ->
        let rec go pos =
          if pos < Bytes.length b then
            match Wire.decode b ~pos ~avail:(Bytes.length b - pos) with
            | Wire.Frame (f, used) ->
              ignore (Sys.opaque_identity (Wire.encode f));
              go (pos + used)
            | Wire.Need_more _ | Wire.Corrupt _ -> ()
        in
        go 0)
      bufs
  in
  1024.0 *. price ~units:bytes replay

(* CRC-32 over the run's own bytes (captured frames, or canonical
   audit records where no wire is crossed) in 4 KB slices, as blocks
   are checksummed. *)
let crc32_ns_per_kb bufs =
  let bytes = total bufs in
  let run () =
    List.iter
      (fun b ->
        let n = Bytes.length b in
        let pos = ref 0 in
        while !pos < n do
          let len = min block_size (n - !pos) in
          ignore (Sys.opaque_identity (S4_util.Crc32.sub b ~pos:!pos ~len));
          pos := !pos + len
        done)
      bufs
  in
  1024.0 *. price ~units:bytes run

(* The run's own audit records through [Chain.extend]. *)
let chain_ns_per_record (records : S4.Audit.record list) =
  let canons = Array.of_list (List.filteri (fun i _ -> i < 20_000) records) |> Array.map S4.Audit.canonical in
  let n = Array.length canons in
  price ~units:n (fun () ->
      let h = ref Chain.genesis_hash in
      for i = 0 to n - 1 do
        h := Chain.extend !h canons.(i)
      done;
      ignore (Sys.opaque_identity !h))

(* ------------------------------------------------------------------ *)
(* Obs.Trace: simulated self time per traced layer                     *)

let layer_index = function
  | Trace.Nfs -> 0
  | Trace.Net -> 1
  | Trace.Router -> 2
  | Trace.Drive -> 3
  | Trace.Store -> 4
  | Trace.Seglog -> 5
  | Trace.Disk -> 6

type tracefold = { sim_self : int array; mutable disk_ios : int; mutable fold_ns : int }

let tracefold () = { sim_self = Array.make 7 0; disk_ios = 0; fold_ns = 0 }

(* Fold the recorded spans into per-layer simulated self time and drop
   them. Call only between calls, when no span is open. *)
let fold tf =
  let t0 = Host.now_ns () in
  let spans = Trace.spans () in
  let n = Array.length spans in
  let dur (s : Trace.span) =
    if s.Trace.stop_ns = Trace.unset then 0 else Int64.to_int (Int64.sub s.Trace.stop_ns s.Trace.start_ns)
  in
  let child = Array.make n 0 in
  Array.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent >= 0 && s.Trace.parent < n then
        child.(s.Trace.parent) <- child.(s.Trace.parent) + dur s)
    spans;
  Array.iter
    (fun (s : Trace.span) ->
      let i = layer_index s.Trace.layer in
      if s.Trace.layer = Trace.Disk then tf.disk_ios <- tf.disk_ios + 1;
      tf.sim_self.(i) <- tf.sim_self.(i) + dur s - child.(s.Trace.id))
    spans;
  Trace.clear ();
  tf.fold_ns <- tf.fold_ns + (Host.now_ns () - t0)

let trace_metrics ~ops tf =
  List.mapi
    (fun i l -> ("trace." ^ l ^ ".sim_self_us_per_op", per tf.sim_self.(i) ops /. 1000.0))
    traced_layers
