module Bcodec = S4_util.Bcodec
module Simclock = S4_util.Simclock
module Chain = S4_integrity.Chain
module Log = S4_seglog.Log
module Tag = S4_seglog.Tag

type record = {
  at : int64;
  user : int;
  client : int;
  op : string;
  oid : int64;
  info : string;
  ok : bool;
}

let magic = 0x5542 (* "BU" *)

(* One decoded audit block. Every block carries its chain position
   ([start], [prior]) and the prune floor in force when it was written;
   the last block of each sealing flush also carries the seal. *)
type block = {
  base : int64;
  start : int;
  prior : string;
  floor : int;
  seal : Chain.head option;
  records : record list;
}

(* A live block of the log at [addr]; the cleaner's moves update [addr]
   in place. *)
type placed = {
  mutable addr : int;
  start : int;
  newest : int64;  (* newest record's time; [Int64.min_int] for none *)
}

type t = {
  log : Log.t;
  mutable enabled : bool;
  mutable buffer : record list;  (* newest first *)
  mutable buffer_bytes : int;
  mutable blocks : placed list;  (* newest first *)
  mutable nrecords : int;
  (* Hash chain state over flushed records. Buffered records are not
     yet chained: they join the chain in flush order, so the chain is
     exactly the persisted record sequence. *)
  mutable chain_head : string;  (* head after the last flushed record *)
  mutable chained : int;  (* global index: flushed records since format *)
  mutable last_seal : Chain.head;
  mutable seal_start : int;  (* start of the block carrying [last_seal]; max_int for none *)
  mutable floor : int;  (* first record index expiry kept *)
  (* Blocks by address, for the cleaner's moves: built at the first
     move after the block list changes, and dropped at the next
     change. *)
  mutable index : (int, placed) Hashtbl.t option;
}

let create ?(enabled = true) log =
  {
    log;
    enabled;
    buffer = [];
    buffer_bytes = 0;
    blocks = [];
    nrecords = 0;
    chain_head = Chain.genesis_hash;
    chained = 0;
    last_seal = Chain.genesis;
    seal_start = max_int;
    floor = 0;
    index = None;
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

(* Compact wire encoding, so an audit block holds hundreds of records
   (the paper reports roughly one audit write per 750 operations):
   - op names from the fixed RPC vocabulary become a single byte;
   - times are varint deltas against the first record of the block;
   - the argument summary is stored as a short string (it is already
     terse, e.g. "oid=5 off=0 len=64"). *)

let op_codes =
  [|
    "create"; "delete"; "read"; "write"; "append"; "truncate"; "getattr"; "setattr";
    "getacl_user"; "getacl_index"; "setacl"; "pcreate"; "pdelete"; "plist"; "pmount";
    "sync"; "flush"; "flusho"; "setwindow"; "readaudit"; "verifylog";
  |]

let code_of_op op =
  let rec find i = if i >= Array.length op_codes then None else if op_codes.(i) = op then Some i else find (i + 1) in
  find 0

let w_record w ~base r =
  (match code_of_op r.op with
   | Some c -> Bcodec.w_u8 w ((c lsl 1) lor if r.ok then 1 else 0)
   | None ->
     Bcodec.w_u8 w ((0xFF lsl 1) land 0xFF lor if r.ok then 1 else 0);
     Bcodec.w_string w r.op);
  Bcodec.w_int w (Int64.to_int (Int64.sub r.at base));
  Bcodec.w_int w (r.user + 1);
  Bcodec.w_int w (r.client + 1);
  Bcodec.w_int w (Int64.to_int r.oid);
  Bcodec.w_string w r.info

let r_record rd ~base =
  let tagbyte = Bcodec.r_u8 rd in
  let ok = tagbyte land 1 = 1 in
  let code = tagbyte lsr 1 in
  let op = if code < Array.length op_codes then op_codes.(code) else Bcodec.r_string rd in
  let at = Int64.add base (Int64.of_int (Bcodec.r_int rd)) in
  let user = Bcodec.r_int rd - 1 in
  let client = Bcodec.r_int rd - 1 in
  let oid = Int64.of_int (Bcodec.r_int rd) in
  let info = Bcodec.r_string rd in
  { at; user; client; op; oid; info; ok }

(* Encoded size of [w_record ~base r], computed without encoding: a
   record is encoded exactly once, into its block. *)
let record_size ~base r =
  let v = Bcodec.varint_size in
  let op =
    match code_of_op r.op with
    | Some _ -> 1
    | None -> 1 + v (String.length r.op) + String.length r.op
  in
  op
  + v (Int64.to_int (Int64.sub r.at base))
  + v (r.user + 1)
  + v (r.client + 1)
  + v (Int64.to_int r.oid)
  + v (String.length r.info)
  + String.length r.info

(* Slack for the varint time delta against the block base (up to 9
   bytes for multi-hour gaps) and unknown-op strings. *)
let record_wire_bytes r = record_size ~base:r.at r + 10

(* The canonical encoding the hash chain runs over. Deliberately
   self-delimiting and independent of the block-level delta encoding,
   so the chain can be recomputed from decoded records alone. *)
let canonical r =
  let v = Bcodec.varint_size in
  let n =
    8 + v (r.user + 1) + v (r.client + 1)
    + v (String.length r.op) + String.length r.op
    + 8
    + v (String.length r.info) + String.length r.info
    + 1
  in
  let b = Bytes.create n in
  let w = Bcodec.into b in
  Bcodec.w_i64 w r.at;
  Bcodec.w_int w (r.user + 1);
  Bcodec.w_int w (r.client + 1);
  Bcodec.w_string w r.op;
  Bcodec.w_i64 w r.oid;
  Bcodec.w_string w r.info;
  Bcodec.w_u8 w (if r.ok then 1 else 0);
  b

(* Block layout: magic, base time, chain start index, prior head,
   floor, seal, count, records..., zero pad, crc in the last 4 bytes —
   self-identifying like journal blocks. The start index and prior head
   let verification resume at any block boundary (incremental verify,
   pruned logs). The seal is a flag byte, then for a sealed block the
   epoch and the head after the block's records. *)
let start_offset = 10

let encode_block block_size b =
  Bcodec.frame ~size:block_size (fun w ->
      Bcodec.w_u16 w magic;
      Bcodec.w_i64 w b.base;
      Bcodec.w_int w b.start;
      Bcodec.w_raw w (Bytes.unsafe_of_string b.prior);
      Bcodec.w_int w b.floor;
      (match b.seal with
       | None -> Bcodec.w_u8 w 0
       | Some h ->
         Bcodec.w_u8 w 1;
         Bcodec.w_int w h.Chain.epoch;
         Bcodec.w_raw w (Bytes.unsafe_of_string h.Chain.hash));
      Bcodec.w_int w (List.length b.records);
      List.iter (fun r -> w_record w ~base:b.base r) b.records)

(* A decoded block, and the offset of its first record. *)
let decode b =
  if Bytes.length b < 18 || Bcodec.get_u16 b 0 <> magic || not (Bcodec.check_frame b) then None
  else
    try
      let rd = Bcodec.reader ~pos:2 b in
      let base = Bcodec.r_i64 rd in
      let start = Bcodec.r_int rd in
      let prior = Bytes.to_string (Bcodec.r_raw rd Chain.hash_len) in
      let floor = Bcodec.r_int rd in
      let seal =
        match Bcodec.r_u8 rd with
        | 0 -> None
        | 1 ->
          let epoch = Bcodec.r_int rd in
          Some (epoch, Bytes.to_string (Bcodec.r_raw rd Chain.hash_len))
        | _ -> raise (Bcodec.Decode_error "audit block: bad seal flag")
      in
      let count = Bcodec.r_int rd in
      if count < 0 || count > Bcodec.remaining rd then raise (Bcodec.Decode_error "audit block: bad count");
      let pos = Bcodec.position rd in
      let records = List.init count (fun _ -> r_record rd ~base) in
      let seal = Option.map (fun (epoch, hash) -> { Chain.epoch; records = start + count; hash }) seal in
      Some ({ base; start; prior; floor; seal; records }, pos)
    with Bcodec.Decode_error _ -> None

let decode_block b = Option.map fst (decode b)
let records_offset b = Option.map snd (decode b)

(* Header bytes a block spends besides its records, at most: magic
   (2), base (8), start (10), prior (32), floor (10), seal flag, epoch
   and head (1 + 10 + 32), count (3) and crc (4). *)
let overhead = 2 + 8 + 10 + Chain.hash_len + 10 + 1 + 10 + Chain.hash_len + 3 + 4

(* The records of [chrono] (oldest first) that fit one block, newest
   first, packed greedily by actual encoded size (time deltas vary
   against the first record, the block's base); and the rest. *)
let take_block block_size chrono =
  let base = match chrono with r :: _ -> r.at | [] -> 0L in
  let rec take used acc = function
    | r :: rest as all ->
      let sz = record_size ~base r in
      if used + sz + overhead > block_size && acc <> [] then (acc, all)
      else take (used + sz) (r :: acc) rest
    | [] -> (acc, [])
  in
  take 0 [] chrono

let newest_of records = List.fold_left (fun acc r -> max acc r.at) Int64.min_int records

(* Append one block holding [group] (oldest first) at the chain's end;
   [seal] makes it carry the next epoch and the head after [group].
   The chain state moves only once [Log.append] has returned the
   block's address. *)
let emit t ~seal group =
  let start = t.chained in
  let head = List.fold_left (fun h r -> Chain.extend h (canonical r)) t.chain_head group in
  let n = List.length group in
  let seal =
    if seal then Some { Chain.epoch = t.last_seal.Chain.epoch + 1; records = start + n; hash = head }
    else None
  in
  let base = match group with r :: _ -> r.at | [] -> 0L in
  let data =
    encode_block (Log.block_size t.log)
      { base; start; prior = t.chain_head; floor = t.floor; seal; records = group }
  in
  let addr = Log.append t.log Tag.Audit ~data () in
  t.blocks <- { addr; start; newest = newest_of group } :: t.blocks;
  t.index <- None;
  t.chain_head <- head;
  t.chained <- start + n;
  Option.iter
    (fun h ->
      t.last_seal <- h;
      t.seal_start <- start)
    seal

(* Write the buffer out, sealing its last block when [seal]. Records
   leave the buffer only once their block is appended: a full log (or
   a media fault) part-way through keeps the rest buffered. *)
let flush_buffer t ~seal =
  let block_size = Log.block_size t.log in
  let rec go chrono =
    match take_block block_size chrono with
    | [], _ -> ()
    | group_rev, rest ->
      emit t ~seal:(seal && rest = []) (List.rev group_rev);
      List.iter (fun r -> t.buffer_bytes <- t.buffer_bytes - record_wire_bytes r) group_rev;
      t.buffer <- List.rev rest;
      go rest
  in
  go (List.rev t.buffer)

(* A record joins the buffer even when the flush that makes room for
   it fails: the flush keeps what it could not write, and the error
   still reaches the caller. *)
let append t r =
  if t.enabled then begin
    let sz = record_wire_bytes r in
    let push () =
      t.buffer <- r :: t.buffer;
      t.buffer_bytes <- t.buffer_bytes + sz;
      t.nrecords <- t.nrecords + 1
    in
    if t.buffer_bytes + sz + overhead > Log.block_size t.log then
      Fun.protect ~finally:push (fun () -> flush_buffer t ~seal:false)
    else push ()
  end

(* The durability barrier's half of the audit trail: the last block of
   the flush seals the chain, so records and their seal reach the disk
   in one block write and a torn flush reads as a shorter chain. With
   nothing buffered, a chain that has records past its newest seal (a
   recovered unsealed tail) gets one record-less sealed block; else
   nothing is written. *)
let flush t =
  if t.buffer <> [] then flush_buffer t ~seal:true
  else if t.chained > t.last_seal.Chain.records then emit t ~seal:true []

let block_count t = List.length t.blocks
let block_addrs t = List.map (fun p -> p.addr) t.blocks
let record_count t = t.nrecords

(* ------------------------------------------------------------------ *)
(* Chain state, reads and expiry                                      *)

let chained t = t.chained
let sealed_head t = t.last_seal

let records t ?(since = 0L) ?(until = Int64.max_int) () =
  let in_range r = Int64.compare r.at since >= 0 && Int64.compare r.at until <= 0 in
  let from_blocks =
    List.concat_map
      (fun p ->
        match decode_block (Log.read t.log p.addr) with
        | Some b -> List.filter in_range b.records
        | None -> [])
      (List.rev t.blocks)
  in
  from_blocks @ List.filter in_range (List.rev t.buffer)

(* The floor moves to the first record of the oldest block that still
   holds a record inside the window, but never past the newest sealed
   block, which keeps the chain's position across restarts. The new
   floor reaches the log, in a record-less block, before any block it
   drops dies: the log flushes in append order and opens a segment
   (reclaimed or not) only after flushing the one before, so no write
   can overwrite a dropped block while the disk still lacks the floor
   that drops it. A full log keeps everything until the next pass. *)
let expire t ~cutoff =
  let floor =
    List.fold_left
      (fun acc p -> if Int64.compare p.newest cutoff >= 0 then min acc p.start else acc)
      (min t.chained t.seal_start) t.blocks
  in
  if floor <= t.floor then 0
  else begin
    let prev = t.floor in
    t.floor <- floor;
    match emit t ~seal:false [] with
    | () ->
      let dropped, kept = List.partition (fun p -> p.start < floor) t.blocks in
      List.iter (fun p -> Log.kill t.log p.addr) dropped;
      t.blocks <- kept;
      List.length dropped
    | exception Log.Log_full ->
      t.floor <- prev;
      0
    | exception e ->
      t.floor <- prev;
      raise e
  end

(* O(1) per moved block: one index build per change of the block list
   (expiry runs after every cleaner pass), then a lookup. *)
let on_move t ~old_addr ~new_addr =
  let index =
    match t.index with
    | Some index -> index
    | None ->
      let index = Hashtbl.create (List.length t.blocks) in
      List.iter (fun p -> Hashtbl.replace index p.addr p) t.blocks;
      t.index <- Some index;
      index
  in
  match Hashtbl.find_opt index old_addr with
  | Some p ->
    Hashtbl.remove index old_addr;
    p.addr <- new_addr;
    Hashtbl.replace index new_addr p
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)

(* Assemble chain items from the persisted log. Forensic [Log.peek]
   (uncharged) — verification is an offline examination, not workload
   I/O. A block the drive believes is live but no longer decodes is
   reported as Bad. Only live blocks count: an expired audit block
   stays tagged in its segment until the cleaner reclaims the segment,
   and walking it would make the chain's tail reappear and vanish with
   cleaning. *)
let chain_items t =
  List.filter_map
    (fun (addr, tag) ->
      match tag with
      | Tag.Audit when Log.is_live t.log addr -> (
        match decode_block (Log.peek t.log addr) with
        | Some b ->
          Some
            (Chain.Block
               {
                 Chain.b_start = b.start;
                 b_prior = b.prior;
                 b_canons = List.map canonical b.records;
                 b_seal = b.seal;
               })
        | None -> Some (Chain.Bad (Printf.sprintf "undecodable audit block at addr %d" addr)))
      | _ -> None)
    (Log.all_tagged t.log)

let verify ?from ?lenient_tail t = Chain.verify ?from ?lenient_tail (chain_items t)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

(* Re-find the live trail among every decodable audit block on disk,
   dead ones included: only blocks at or above the largest floor any
   block carries, and one copy of byte-identical blocks at one start
   (the cleaner's relocations). Two different blocks at one start both
   stay, for verification to report the overlap. A gap above the floor
   stays a gap: the floor is read from the disk, not inferred from the
   blocks that happen to survive. *)
let recover t =
  let found =
    List.filter_map
      (fun (addr, tag) ->
        match tag with
        | Tag.Audit | Tag.Unknown -> Option.map (fun b -> (addr, b)) (decode_block (Log.peek t.log addr))
        | _ -> None)
      (Log.all_tagged t.log)
  in
  let floor = List.fold_left (fun acc (_, (b : block)) -> max acc b.floor) 0 found in
  let seen = Hashtbl.create 64 in
  let first_copy addr =
    let bytes = Log.peek t.log addr in
    (not (Hashtbl.mem seen bytes))
    &&
    (Hashtbl.replace seen bytes ();
     true)
  in
  let live =
    List.filter (fun (addr, (b : block)) -> b.start >= floor && first_copy addr) found
    |> List.stable_sort (fun (_, (a : block)) (_, (b : block)) ->
           compare (a.start, a.records <> []) (b.start, b.records <> []))
  in
  (* Rebuild the running head by replaying the blocks in index order.
     Anomalies (gaps, mismatched priors — verification's job to report)
     resync on each block's self-declared position so the drive keeps a
     usable head for new records. *)
  let idx = ref (-1) and hash = ref Chain.genesis_hash in
  List.iter
    (fun (addr, (b : block)) ->
      Log.mark_live t.log addr Tag.Audit;
      t.blocks <- { addr; start = b.start; newest = newest_of b.records } :: t.blocks;
      t.nrecords <- t.nrecords + List.length b.records;
      (match b.seal with
       | Some h when h.Chain.epoch > t.last_seal.Chain.epoch ->
         t.last_seal <- h;
         t.seal_start <- b.start
       | _ -> ());
      if b.start <> !idx then begin
        idx := b.start;
        hash := b.prior
      end;
      List.iter
        (fun r ->
          hash := Chain.extend !hash (canonical r);
          incr idx)
        b.records)
    live;
  if live <> [] then begin
    t.chained <- !idx;
    t.chain_head <- !hash
  end;
  t.floor <- floor;
  t.index <- None;
  (* Same monotonicity guard as Obj_store.recover: recovered audit
     records may postdate the barrier clock a file-backed restart
     resumed from. *)
  let tmax = List.fold_left (fun acc p -> max acc p.newest) Int64.min_int t.blocks in
  let clock = Log.clock t.log in
  if Int64.compare tmax (Simclock.now clock) >= 0 then
    Simclock.set clock (Int64.add tmax 1L)
