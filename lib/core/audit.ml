module Bcodec = S4_util.Bcodec
module Simclock = S4_util.Simclock
module Chain = S4_integrity.Chain
module Log = S4_seglog.Log
module Tag = S4_seglog.Tag
module Jblock = S4_seglog.Jblock
module Store = S4_store.Obj_store

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
   a barrier's tail also carries the seal. Every block is a tail: the
   trailing section of a journal block. *)
type block = {
  base : int64;
  start : int;
  prior : string;
  floor : int;
  seal : Chain.head option;
  records : record list;
}

(* A live block at [addr], a journal block the store holds for us; the
   cleaner's moves update [addr] in place. *)
type placed = {
  mutable addr : int;
  start : int;
  newest : int64;  (* newest record's time; [Int64.min_int] for none *)
}

(* A tail sealed at a barrier whose block has not been appended yet:
   its records, chain position and seal are fixed, so a barrier that
   fails (a full log, a media fault) leaves it for the next one with
   the same epoch and head. *)
type sealed = { block : block; head : string; section : Bytes.t }

type t = {
  store : Store.t;
  log : Log.t;
  mutable enabled : bool;
  mutable buffer : record list;  (* newest first; records past [sealed] *)
  mutable buffer_bytes : int;
  mutable sealed : sealed option;
  mutable blocks : placed list;  (* newest first *)
  mutable nrecords : int;
  (* Hash chain state over appended records. Buffered and sealed
     records are not yet chained: they join the chain in append order,
     so the chain is exactly the persisted record sequence. *)
  mutable chain_head : string;  (* head after the last appended record *)
  mutable chained : int;  (* global index: appended records since format *)
  mutable last_seal : Chain.head;  (* newest seal appended *)
  mutable seal_start : int;  (* start of the block carrying [last_seal]; max_int for none *)
  mutable floor : int;  (* first record index expiry kept *)
  (* Blocks by address, for the cleaner's moves: built at the first
     move after the block list changes, and dropped at the next
     change. *)
  mutable index : (int, placed) Hashtbl.t option;
}

let create ?(enabled = true) store =
  {
    store;
    log = Store.log store;
    enabled;
    buffer = [];
    buffer_bytes = 0;
    sealed = None;
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

(* Block body: magic, base time, chain start index, prior head, floor,
   seal, count, records. The start index and prior head let
   verification resume at any block boundary (incremental verify,
   pruned logs). The seal is a flag byte, then for a sealed block the
   epoch and the head after the block's records. The body is a journal
   block's trailing section, under that block's frame. *)
let w_body w b =
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
  List.iter (fun r -> w_record w ~base:b.base r) b.records

let encode_section b =
  let w = Bcodec.writer ~capacity:256 () in
  w_body w b;
  Bcodec.contents w

(* Where the body in [b], a journal block, starts: its trailing
   section. *)
let body_offset b = Option.map fst (Jblock.tail b)

let start_offset b = Option.map (fun off -> off + 10) (body_offset b)

(* A decoded block, and the offset of its first record in [b]. *)
let decode b =
  match body_offset b with
  | None -> None
  | Some off -> (
    try
      let rd = Bcodec.reader ~pos:off b in
      if Bcodec.r_u16 rd <> magic then raise (Bcodec.Decode_error "audit block: bad magic");
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
    with Bcodec.Decode_error _ -> None)

let decode_block b = Option.map fst (decode b)
let records_offset b = Option.map snd (decode b)

(* Header bytes a tail spends besides its records in a journal block of
   its own, at most: the block's header, the section's flag byte and
   length, and the body's magic (2), base (8), start (10), prior (32),
   floor (10), seal flag, epoch and head (1 + 10 + 32) and count (3). *)
let tail_overhead block_size =
  Jblock.header_size + 1 + Bcodec.varint_size block_size
  + (2 + 8 + 10 + Chain.hash_len + 10 + 1 + 10 + Chain.hash_len + 3)

(* The records of [chrono] (oldest first) that fit one tail, newest
   first, packed greedily by actual encoded size (time deltas vary
   against the first record, the block's base); and the rest. *)
let take_block block_size chrono =
  let base = match chrono with r :: _ -> r.at | [] -> 0L in
  let overhead = tail_overhead block_size in
  let rec take used acc = function
    | r :: rest as all ->
      let sz = record_size ~base r in
      if used + sz + overhead > block_size && acc <> [] then (acc, all)
      else take (used + sz) (r :: acc) rest
    | [] -> (acc, [])
  in
  take 0 [] chrono

let newest_of records = List.fold_left (fun acc r -> max acc r.at) Int64.min_int records

(* The block holding [group] (oldest first) at the chain's end, and the
   head after it; [seal] makes it carry the next epoch and that head. *)
let next_block t ~seal group =
  let start = t.chained in
  let head = List.fold_left (fun h r -> Chain.extend h (canonical r)) t.chain_head group in
  let seal =
    if seal then
      Some { Chain.epoch = t.last_seal.Chain.epoch + 1; records = start + List.length group; hash = head }
    else None
  in
  let base = match group with r :: _ -> r.at | [] -> 0L in
  ({ base; start; prior = t.chain_head; floor = t.floor; seal; records = group }, head)

(* The chain state moves only once the journal block holding [b] has
   its address. *)
let appended t ~addr (b : block) ~head =
  t.blocks <- { addr; start = b.start; newest = newest_of b.records } :: t.blocks;
  t.index <- None;
  t.chain_head <- head;
  t.chained <- b.start + List.length b.records;
  Option.iter
    (fun h ->
      t.last_seal <- h;
      t.seal_start <- b.start)
    b.seal

(* A sealed tail as the store takes it: appended once, after which it
   is no longer pending. *)
let sealed_tail t s =
  let on_append addr =
    match t.sealed with
    | Some s' when s' == s ->
      appended t ~addr s.block ~head:s.head;
      t.sealed <- None
    | _ -> ()
  in
  { Store.section = s.section; on_append }

(* A tail sealed at a barrier that failed precedes anything appended
   after it on the chain, so it goes out first, in a journal block of
   its own. *)
let write_sealed t = Option.iter (fun s -> Store.append_tail t.store (sealed_tail t s)) t.sealed

(* Append an unsealed tail holding [group] at the chain's end, in a
   journal block of its own. *)
let emit t group =
  write_sealed t;
  let b, head = next_block t ~seal:false group in
  Store.append_tail t.store
    { Store.section = encode_section b; on_append = (fun addr -> appended t ~addr b ~head) }

(* [group_rev] (newest first) left the buffer, [rest] (oldest first)
   stays. *)
let unbuffer t group_rev rest =
  List.iter (fun r -> t.buffer_bytes <- t.buffer_bytes - record_wire_bytes r) group_rev;
  t.buffer <- List.rev rest

(* Write the buffer out in unsealed tails. Records leave the buffer
   only once their block is appended: a full log (or a media fault)
   part-way through keeps the rest buffered. *)
let flush_buffer t =
  let block_size = Log.block_size t.log in
  let rec go chrono =
    match take_block block_size chrono with
    | [], _ -> ()
    | group_rev, rest ->
      emit t (List.rev group_rev);
      unbuffer t group_rev rest;
      go rest
  in
  go (List.rev t.buffer)

(* The buffer stays small enough for a barrier to seal it whole into a
   journal block. A record joins the buffer even when the flush that
   makes room for it fails: the flush keeps what it could not write,
   and the error still reaches the caller. *)
let append t r =
  if t.enabled then begin
    let sz = record_wire_bytes r in
    let push () =
      t.buffer <- r :: t.buffer;
      t.buffer_bytes <- t.buffer_bytes + sz;
      t.nrecords <- t.nrecords + 1
    in
    let block_size = Log.block_size t.log in
    if t.buffer_bytes + sz + tail_overhead block_size > block_size then
      Fun.protect ~finally:push (fun () -> flush_buffer t)
    else push ()
  end

(* The durability barrier's half of the audit trail: seal the buffered
   records into a tail that rides in the store's last journal block, so
   journal entries, records and seal reach the disk in one block write
   and a torn barrier reads as a shorter chain. [append] keeps the
   buffer small enough for that, unless flushes failed (a full log, a
   media fault) and kept their records: such a buffer goes out in
   unsealed tails first. With nothing buffered, a chain that has
   records past its newest seal (a recovered unsealed tail, or that
   flush) gets a record-less sealed tail; else there is nothing to
   seal. Sealing again before the tail is appended returns the same
   tail. *)
let seal t =
  let block_size = Log.block_size t.log in
  if t.buffer_bytes + tail_overhead block_size > block_size then flush_buffer t;
  if t.buffer <> [] then begin
    write_sealed t;
    let chrono = List.rev t.buffer in
    let b, head = next_block t ~seal:true chrono in
    let section = encode_section b in
    assert (Jblock.tail_fits ~block_size ~current:0 (Bytes.length section));
    t.sealed <- Some { block = b; head; section };
    unbuffer t chrono []
  end
  else if t.sealed = None && t.chained > t.last_seal.Chain.records then begin
    let b, head = next_block t ~seal:true [] in
    t.sealed <- Some { block = b; head; section = encode_section b }
  end;
  Option.map (sealed_tail t) t.sealed

let block_count t = List.length t.blocks
let block_addrs t = List.map (fun p -> p.addr) t.blocks
let record_count t = t.nrecords

(* ------------------------------------------------------------------ *)
(* Chain state, reads and expiry                                      *)

let chained t = t.chained

let sealed_head t =
  match t.sealed with Some { block = { seal = Some h; _ }; _ } -> h | _ -> t.last_seal

let appended_head t = t.last_seal

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
  let sealed = match t.sealed with Some s -> List.filter in_range s.block.records | None -> [] in
  from_blocks @ sealed @ List.filter in_range (List.rev t.buffer)

(* The floor moves to the first record of the oldest block that still
   holds a record inside the window, but never past the newest sealed
   block, which keeps the chain's position across restarts. The new
   floor reaches the log, in a record-less tail, before any block it
   drops is released: the log flushes in append order and opens a segment
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
    match emit t [] with
    | () ->
      let dropped, kept = List.partition (fun p -> p.start < floor) t.blocks in
      List.iter (fun p -> Store.release_tail t.store p.addr) dropped;
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
   reported as Bad. Only the journal blocks whose tail the store holds
   for the trail count. An expired tail stays in its segment until the
   cleaner reclaims the segment (and its journal block may stay live
   for its entries), and walking it would make the chain's tail
   reappear and vanish with cleaning. *)
let chain_items t =
  let item addr =
    match decode_block (Log.peek t.log addr) with
    | Some b ->
      Chain.Block
        { Chain.b_start = b.start; b_prior = b.prior; b_canons = List.map canonical b.records; b_seal = b.seal }
    | None -> Chain.Bad (Printf.sprintf "undecodable audit block at addr %d" addr)
  in
  List.filter_map
    (fun (addr, tag) ->
      match tag with Tag.Journal when Store.holds_tail t.store addr -> Some (item addr) | _ -> None)
    (Log.all_tagged t.log)

let verify ?from ?lenient_tail t = Chain.verify ?from ?lenient_tail (chain_items t)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

(* Re-find the live trail among every decodable tail in the journal
   slots on disk, dead ones included. Only blocks at or above the
   largest floor any block carries count, and one copy of
   byte-identical blocks at one start (the cleaner's relocations; the
   copy store recovery already holds for its entries, if any, so both
   halves of a slot stay in one block). Two
   different blocks at one start both stay, for verification to report
   the overlap. A gap above the floor stays a gap: the floor is read
   from the disk, not inferred from the blocks that happen to survive.
   Runs after store recovery, which re-marks the journal blocks it
   keeps. *)
let recover t =
  let found =
    List.filter_map
      (fun (addr, tag) ->
        match tag with
        | Tag.Journal ->
          let bytes = Log.peek t.log addr in
          Option.map (fun b -> (addr, b, bytes)) (decode_block bytes)
        | _ -> None)
      (Log.all_tagged t.log)
    |> List.stable_sort (fun (a, _, _) (b, _, _) ->
           compare (not (Log.is_live t.log a)) (not (Log.is_live t.log b)))
  in
  let floor = List.fold_left (fun acc (_, (b : block), _) -> max acc b.floor) 0 found in
  let seen = Hashtbl.create 64 in
  let first_copy bytes =
    (not (Hashtbl.mem seen bytes))
    &&
    (Hashtbl.replace seen bytes ();
     true)
  in
  let live =
    List.filter (fun (_, (b : block), bytes) -> b.start >= floor && first_copy bytes) found
    |> List.stable_sort (fun (_, (a : block), _) (_, (b : block), _) ->
           compare (a.start, a.records <> []) (b.start, b.records <> []))
  in
  (* Rebuild the running head by replaying the blocks in index order.
     Anomalies (gaps, mismatched priors — verification's job to report)
     resync on each block's self-declared position so the drive keeps a
     usable head for new records. *)
  let idx = ref (-1) and hash = ref Chain.genesis_hash in
  List.iter
    (fun (addr, (b : block), _) ->
      Store.hold_tail t.store addr;
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
