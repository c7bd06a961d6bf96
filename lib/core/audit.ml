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

let magic_v1 = 0x5541 (* "AU": pre-chain blocks, still decodable *)
let magic = 0x5542 (* "BU": chained blocks carrying start index + prior head *)
let seal_magic = 0x5345 (* "ES": epoch seal *)

(* A block or seal of the log at [addr]; the cleaner's moves update
   [addr] in place. *)
type 'a placed = { mutable addr : int; v : 'a }

(* Members by address, for the cleaner's moves: built at the first move
   after the member lists change, and dropped at the next change. *)
type index = {
  at_block : (int, int64 placed) Hashtbl.t;
  at_seal : (int, Chain.seal placed) Hashtbl.t;
}

type t = {
  log : Log.t;
  mutable enabled : bool;
  mutable buffer : record list;  (* newest first *)
  mutable buffer_bytes : int;
  mutable blocks : int64 placed list;  (* newest record time, newest first *)
  mutable nrecords : int;
  (* Hash chain state over flushed records. Buffered records are not
     yet chained: they join the chain in flush order, so the chain is
     exactly the persisted record sequence. *)
  mutable chain_head : string;  (* head after the last flushed record *)
  mutable chained : int;  (* global index: flushed records since format *)
  mutable seals : Chain.seal placed list;  (* newest first *)
  mutable last_seal : Chain.head;
  mutable index : index option;
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
    seals = [];
    last_seal = Chain.genesis;
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

(* Block layout: magic, base time, chain start index, prior head, count,
   records..., zero pad, crc in the last 4 bytes — self-identifying
   like journal blocks. The start index and prior head let verification
   resume at any block boundary (incremental verify, pruned logs). *)
let encode_block block_size ~start ~prior records_chrono =
  let base = match records_chrono with r :: _ -> r.at | [] -> 0L in
  Bcodec.frame ~size:block_size (fun w ->
      Bcodec.w_u16 w magic;
      Bcodec.w_i64 w base;
      Bcodec.w_int w start;
      Bcodec.w_raw w (Bytes.unsafe_of_string prior);
      Bcodec.w_int w (List.length records_chrono);
      List.iter (fun r -> w_record w ~base r) records_chrono)

(* Decodes either block generation; chain info is [None] for v1. *)
let decode_block_chained b =
  let m = if Bytes.length b < 18 then -1 else Bcodec.get_u16 b 0 in
  if (m <> magic && m <> magic_v1) || not (Bcodec.check_frame b) then None
  else
    try
      let rd = Bcodec.reader ~pos:2 b in
      let base = Bcodec.r_i64 rd in
      let chain =
        if m = magic then begin
          let start = Bcodec.r_int rd in
          let prior = Bytes.to_string (Bcodec.r_raw rd Chain.hash_len) in
          Some (start, prior)
        end
        else None
      in
      let count = Bcodec.r_int rd in
      Some (List.init count (fun _ -> r_record rd ~base), chain)
    with Bcodec.Decode_error _ -> None

let decode_block b = Option.map fst (decode_block_chained b)

(* Seal layout: magic, epoch, records, seal time, head hash, pad, crc. *)
let encode_seal block_size (s : Chain.seal) =
  Bcodec.frame ~size:block_size (fun w ->
      Bcodec.w_u16 w seal_magic;
      Bcodec.w_int w s.Chain.s_head.Chain.epoch;
      Bcodec.w_int w s.Chain.s_head.Chain.records;
      Bcodec.w_i64 w s.Chain.s_at;
      Bcodec.w_raw w (Bytes.unsafe_of_string s.Chain.s_head.Chain.hash))

let decode_seal b : Chain.seal option =
  if Bytes.length b < 10 || Bcodec.get_u16 b 0 <> seal_magic || not (Bcodec.check_frame b) then None
  else
    try
      let rd = Bcodec.reader ~pos:2 b in
      let epoch = Bcodec.r_int rd in
      let records = Bcodec.r_int rd in
      let s_at = Bcodec.r_i64 rd in
      let hash = Bytes.to_string (Bcodec.r_raw rd Chain.hash_len) in
      Some { Chain.s_head = { Chain.epoch; records; hash }; s_at }
    with Bcodec.Decode_error _ -> None

(* The records of [chrono] (oldest first) that fit one block, newest
   first, packed greedily by actual encoded size (time deltas vary
   against the first record, the block's base); and the rest. *)
let take_block block_size chrono =
  let base = match chrono with r :: _ -> r.at | [] -> 0L in
  let rec take used acc = function
    | r :: rest as all ->
      let sz = record_size ~base r in
      if used + sz + 17 + 10 + Chain.hash_len > block_size && acc <> [] then (acc, all)
      else take (used + sz) (r :: acc) rest
    | [] -> (acc, [])
  in
  take 0 [] chrono

(* Each emitted block records where it sits on the chain, then extends
   the running head with its records. Records leave the buffer only
   once [Log.append] has returned their block's address: a full log
   (or a media fault) part-way through keeps the rest buffered. *)
let flush_block t =
  let block_size = Log.block_size t.log in
  let rec emit chrono =
    match take_block block_size chrono with
    | [], _ -> ()
    | (newest :: _ as group_rev), rest ->
      let group = List.rev group_rev in
      let data = encode_block block_size ~start:t.chained ~prior:t.chain_head group in
      let addr = Log.append t.log Tag.Audit ~data () in
      t.blocks <- { addr; v = newest.at } :: t.blocks;
      t.index <- None;
      List.iter
        (fun r ->
          t.chain_head <- Chain.extend t.chain_head (canonical r);
          t.chained <- t.chained + 1;
          t.buffer_bytes <- t.buffer_bytes - record_wire_bytes r)
        group;
      t.buffer <- List.rev rest;
      emit rest
  in
  emit (List.rev t.buffer)

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
    (* header (2) + base (8) + start (10) + prior (32) + count varint
       (3) + crc (4) *)
    if t.buffer_bytes + sz + 27 + Chain.hash_len > Log.block_size t.log then
      Fun.protect ~finally:push (fun () -> flush_block t)
    else push ()
  end

let flush t = flush_block t
let block_count t = List.length t.blocks
let block_addrs t = List.map (fun p -> p.addr) t.blocks
let record_count t = t.nrecords

(* ------------------------------------------------------------------ *)
(* Chain state and sealing                                             *)

let chain_head t = t.chain_head
let chained t = t.chained
let sealed_head t = t.last_seal
let seal_count t = List.length t.seals

let prospective_head t =
  if t.chained > t.last_seal.Chain.records then
    { Chain.epoch = t.last_seal.Chain.epoch + 1; records = t.chained; hash = t.chain_head }
  else t.last_seal

(* Seal the chain at a durability barrier: called after [flush], before
   the log sync, so the seal travels in the same flush as the records
   it covers. A crash between the record blocks and the seal reaching
   the platter therefore loses the seal first — verification sees an
   unsealed tail (legitimate truncation), never a sealed region with
   missing records. Barriers with nothing new to seal write nothing. *)
let seal t =
  if t.enabled && t.chained > t.last_seal.Chain.records then begin
    let head = prospective_head t in
    let s = { Chain.s_head = head; s_at = Simclock.now (Log.clock t.log) } in
    let data = encode_seal (Log.block_size t.log) s in
    let addr = Log.append t.log Tag.Audit ~data () in
    t.seals <- { addr; v = s } :: t.seals;
    t.index <- None;
    t.last_seal <- head
  end

let live_addrs t = block_addrs t @ List.map (fun p -> p.addr) t.seals

let records t ?(since = 0L) ?(until = Int64.max_int) () =
  let in_range r = Int64.compare r.at since >= 0 && Int64.compare r.at until <= 0 in
  let from_blocks =
    List.concat_map
      (fun p ->
        match decode_block (Log.read t.log p.addr) with
        | Some rs -> List.filter in_range rs
        | None -> [])
      (List.rev t.blocks)
  in
  from_blocks @ List.filter in_range (List.rev t.buffer)

let expire t ~cutoff =
  let expired, kept =
    List.partition (fun p -> Int64.compare p.v cutoff < 0) t.blocks
  in
  List.iter (fun p -> Log.kill t.log p.addr) expired;
  t.blocks <- kept;
  t.index <- None;
  (* Old seals go with their records, but the newest seal is always
     kept: it anchors the surviving suffix of the chain. *)
  let newest_epoch = t.last_seal.Chain.epoch in
  let dead_seals, kept_seals =
    List.partition
      (fun { v = (s : Chain.seal); _ } ->
        s.Chain.s_head.Chain.epoch <> newest_epoch && Int64.compare s.Chain.s_at cutoff < 0)
      t.seals
  in
  List.iter (fun p -> Log.kill t.log p.addr) dead_seals;
  t.seals <- kept_seals;
  List.length expired + List.length dead_seals

(* O(1) per moved block: one index build per change of the member
   lists (expiry runs after every cleaner pass), then a lookup. *)
let on_move t ~old_addr ~new_addr =
  let index =
    match t.index with
    | Some index -> index
    | None ->
      let by_addr l =
        let tbl = Hashtbl.create (List.length l) in
        List.iter (fun p -> Hashtbl.replace tbl p.addr p) l;
        tbl
      in
      let index = { at_block = by_addr t.blocks; at_seal = by_addr t.seals } in
      t.index <- Some index;
      index
  in
  let move tbl =
    match Hashtbl.find_opt tbl old_addr with
    | Some p ->
      Hashtbl.remove tbl old_addr;
      p.addr <- new_addr;
      Hashtbl.replace tbl new_addr p;
      true
    | None -> false
  in
  if not (move index.at_block) then ignore (move index.at_seal)

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)

(* Assemble chain items from the persisted log. Forensic [Log.peek]
   (uncharged) — verification is an offline examination, not workload
   I/O. A block the drive believes is live but no longer decodes is
   reported as Bad; seal-magic and record-magic blocks route to their
   item kinds; v1 (pre-chain) blocks cannot be verified and are
   flagged. Only live blocks count: an expired audit block stays
   tagged in its segment until the cleaner reclaims the segment, and
   walking it would make the chain's tail reappear and vanish with
   cleaning. *)
let chain_items t =
  List.filter_map
    (fun (addr, tag) ->
      match tag with
      | Tag.Audit when Log.is_live t.log addr -> (
        let b = Log.peek t.log addr in
        match decode_seal b with
        | Some s -> Some (Chain.Seal s)
        | None -> (
          match decode_block_chained b with
          | Some (rs, Some (start, prior)) ->
            Some
              (Chain.Block
                 { Chain.b_start = start; b_prior = prior; b_canons = List.map canonical rs })
          | Some (_, None) ->
            Some (Chain.Bad (Printf.sprintf "pre-chain audit block at addr %d (unverifiable)" addr))
          | None ->
            Some (Chain.Bad (Printf.sprintf "undecodable audit block at addr %d" addr))))
      | _ -> None)
    (Log.all_tagged t.log)

let verify ?from ?lenient_tail t = Chain.verify ?from ?lenient_tail (chain_items t)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let recover t =
  let record_blocks = ref [] in
  List.iter
    (fun (addr, tag) ->
      match tag with
      | Tag.Audit | Tag.Unknown -> (
        let b = Log.peek t.log addr in
        match decode_seal b with
        | Some s ->
          Log.mark_live t.log addr Tag.Audit;
          t.seals <- { addr; v = s } :: t.seals
        | None -> (
          match decode_block_chained b with
          | Some ([], _) -> ()
          | Some (rs, chain) ->
            let newest = List.fold_left (fun acc r -> max acc r.at) 0L rs in
            Log.mark_live t.log addr Tag.Audit;
            t.nrecords <- t.nrecords + List.length rs;
            t.blocks <- { addr; v = newest } :: t.blocks;
            record_blocks := (chain, rs) :: !record_blocks
          | None -> ()))
      | _ -> ())
    (Log.all_tagged t.log);
  t.blocks <- List.sort (fun a b -> compare b.v a.v) t.blocks;
  t.seals <-
    List.sort
      (fun { v = (a : Chain.seal); _ } { v = b; _ } ->
        compare b.Chain.s_head.Chain.epoch a.Chain.s_head.Chain.epoch)
      t.seals;
  t.index <- None;
  (match t.seals with
   | { v = s; _ } :: _ -> t.last_seal <- s.Chain.s_head
   | [] -> ());
  (* Rebuild the running head by replaying the chained blocks in index
     order. Anomalies (gaps, mismatched priors — verification's job to
     report) resync on each block's self-declared prior so the drive
     keeps a usable head for new records. *)
  let chained_blocks =
    List.filter_map
      (function Some (start, prior), rs -> Some (start, prior, rs) | None, _ -> None)
      !record_blocks
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  (match chained_blocks with
   | [] -> ()
   | (start0, prior0, _) :: _ ->
     let idx = ref start0 and hash = ref prior0 in
     List.iter
       (fun (start, prior, rs) ->
         if start <> !idx then begin
           idx := start;
           hash := prior
         end;
         List.iter
           (fun r ->
             hash := Chain.extend !hash (canonical r);
             incr idx)
           rs)
       chained_blocks;
     t.chained <- !idx;
     t.chain_head <- !hash);
  (* A sealed count ahead of the recovered blocks (sealed-region
     truncation: verification will flag it) must not make the next seal
     claim fewer records than the last. *)
  if t.chained < t.last_seal.Chain.records then t.chained <- t.last_seal.Chain.records;
  (* Same monotonicity guard as Obj_store.recover: recovered audit
     records may postdate the barrier clock a file-backed restart
     resumed from. *)
  let tmax = List.fold_left (fun acc p -> max acc p.v) Int64.min_int t.blocks in
  let tmax =
    List.fold_left (fun acc { v = (s : Chain.seal); _ } -> max acc s.Chain.s_at) tmax t.seals
  in
  let clock = Log.clock t.log in
  if Int64.compare tmax (Simclock.now clock) >= 0 then
    Simclock.set clock (Int64.add tmax 1L)
