module Log = S4_seglog.Log
module Tag = S4_seglog.Tag
module Jblock = S4_seglog.Jblock
module Bcodec = S4_util.Bcodec
module Simclock = S4_util.Simclock
module Trace = S4_obs.Trace

type oid = int64
type addr = int

module Bcache = Lru.Make (struct
  type t = addr

  let equal = Int.equal
  let hash a = a
end)

module Ocache = Lru.Make (struct
  type t = oid

  let equal = Int64.equal
  let hash = Int64.to_int
end)

exception No_such_object of oid
exception Is_deleted of oid

type config = {
  keep_data : bool;
  block_cache_bytes : int;
  object_cache_bytes : int;
  readahead_blocks : int;
  checkpoint_interval : int;
}

let default_config =
  {
    keep_data = true;
    block_cache_bytes = 128 * 1024 * 1024;
    object_cache_bytes = 32 * 1024 * 1024;
    readahead_blocks = 32;
    checkpoint_interval = 128;
  }

type stats = {
  mutable ops : int;
  mutable journal_entries : int;
  mutable journal_bytes : int;
  mutable journal_blocks_written : int;
  mutable checkpoint_blocks_written : int;
  mutable data_blocks_written : int;
  mutable bytes_written : int;
  mutable bytes_read : int;
  mutable entries_expired : int;
  mutable blocks_expired : int;
  mutable objects_expired : int;
}

let fresh_stats () =
  {
    ops = 0;
    journal_entries = 0;
    journal_bytes = 0;
    journal_blocks_written = 0;
    checkpoint_blocks_written = 0;
    data_blocks_written = 0;
    bytes_written = 0;
    bytes_read = 0;
    entries_expired = 0;
    blocks_expired = 0;
    objects_expired = 0;
  }

(* A retained journal entry; [jaddr] is the journal block holding it
   once flushed (Log.none while still pending). [e] is rewritten in
   place when the cleaner relocates blocks the entry references. *)
type rentry = { mutable e : Entry.t; mutable jaddr : addr }

type obj = {
  o_oid : oid;
  mutable o_exists : bool;
  mutable o_size : int;
  mutable o_attr : Bytes.t;
  mutable o_acl : Bytes.t;
  mutable o_table : addr array;
  mutable o_entries : rentry list;  (* newest first *)
  mutable o_seq : int;
  mutable o_created : int64;
  mutable o_ckpt_addrs : addr list;
  mutable o_ckpt_seq : int;
  mutable o_dirty : int;
}

type t = {
  log : Log.t;
  cfg : config;
  objects : (oid, obj) Hashtbl.t;
  bcache : Bytes.t option Bcache.t;
  mutable ocache : unit Ocache.t;
  mutable pending : rentry list;  (* reverse chronological *)
  jrefs : (addr, int ref) Hashtbl.t;
  jback : (addr, rentry list ref) Hashtbl.t;  (* journal block -> resident entries *)
  tails : (addr, unit) Hashtbl.t;  (* journal blocks whose audit tail is held *)
  mutable cpending : (obj * Bytes.t * int) list;  (* small images awaiting a pack flush *)
  cpack_refs : (addr, int ref) Hashtbl.t;  (* pack block -> live member count *)
  cpack_members : (addr, oid list ref) Hashtbl.t;
  mutable last_jaddr : addr;
  mutable oid_counter : int64;
  mutable oid_allocator : (unit -> oid) option;
  kept : (oid, unit) Hashtbl.t;  (* objects whose content a timing-only store keeps *)
  s : stats;
}

let log t = t.log
let clock t = Log.clock t.log
let config t = t.cfg
let stats t = t.s
let now t = Simclock.now (clock t)
let bs t = Log.block_size t.log
let nblocks_of t size = (size + bs t - 1) / bs t

(* ------------------------------------------------------------------ *)
(* Table helpers                                                       *)

let table_get obj i = if i < Array.length obj.o_table then obj.o_table.(i) else Log.none

let table_set obj i a =
  let n = Array.length obj.o_table in
  if i >= n then begin
    let grown = Array.make (max (i + 1) (max 8 (2 * n))) Log.none in
    Array.blit obj.o_table 0 grown 0 n;
    obj.o_table <- grown
  end;
  obj.o_table.(i) <- a

(* ------------------------------------------------------------------ *)
(* Block cache                                                         *)

let zeros t = Bytes.make (bs t) '\000'

(* Whether the store keeps [oid]'s content: always in a content store;
   in a timing-only one, only for drive-private metadata objects. Their
   content reaches the log and is read back from it uncharged, so the
   charges and cache traffic are those of any other object. *)
let keeps t oid = t.cfg.keep_data || Hashtbl.mem t.kept oid

let keep_content t oid = Hashtbl.replace t.kept oid ()

let cache_block t a content =
  Bcache.insert t.bcache a (if t.cfg.keep_data then content else None) ~cost:(bs t)

(* The one block read path. A hit is free; a miss charges one
   read-ahead run and caches every block of it. The charges and cache
   inserts are the same in both modes, but only a content-retaining
   store fetches bytes: a timing-only store caches [None], and every
   caller there uses no contents. [None] in a content-retaining store
   is a block cached as zeros. *)
let block t a =
  match Bcache.find_exn t.bcache a with
  | content -> content
  | exception Not_found ->
    let k = Log.read_run t.log a t.cfg.readahead_blocks in
    let fetch a = if t.cfg.keep_data then Some (Log.peek t.log a) else None in
    let first = fetch a in
    cache_block t a first;
    for i = 1 to k - 1 do
      cache_block t (a + i) (fetch (a + i))
    done;
    first

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

let jref_get t jaddr re =
  (match Hashtbl.find_opt t.jrefs jaddr with
   | Some r -> incr r
   | None -> Hashtbl.replace t.jrefs jaddr (ref 1));
  match Hashtbl.find_opt t.jback jaddr with
  | Some l -> l := re :: !l
  | None -> Hashtbl.replace t.jback jaddr (ref [ re ])

(* A journal block is live while any of its references is: one per
   resident entry, and one for the audit tail it carries while the
   audit trail holds it. *)
let jref_decr t jaddr =
  match Hashtbl.find_opt t.jrefs jaddr with
  | Some r ->
    decr r;
    if !r <= 0 then begin
      Hashtbl.remove t.jrefs jaddr;
      Hashtbl.remove t.jback jaddr;
      Log.kill t.log jaddr
    end
  | None -> ()

let jref_put t jaddr re =
  (match Hashtbl.find_opt t.jback jaddr with
   | Some l -> l := List.filter (fun x -> x != re) !l
   | None -> ());
  jref_decr t jaddr

type tail = { section : Bytes.t; on_append : addr -> unit }

let hold_tail t jaddr =
  if not (Hashtbl.mem t.tails jaddr) then begin
    Log.mark_live t.log jaddr Tag.Journal;
    Hashtbl.replace t.tails jaddr ();
    match Hashtbl.find_opt t.jrefs jaddr with
    | Some r -> incr r
    | None -> Hashtbl.replace t.jrefs jaddr (ref 1)
  end

let release_tail t jaddr =
  if Hashtbl.mem t.tails jaddr then begin
    Hashtbl.remove t.tails jaddr;
    jref_decr t jaddr
  end

let holds_tail t jaddr = Hashtbl.mem t.tails jaddr

(* The first [n] elements of [l] dropped. *)
let rec drop n l = match l with _ :: rest when n > 0 -> drop (n - 1) rest | _ -> l

(* Append one journal block holding [group] (oldest first, each entry
   in the form it was sized in) and [tail] as its trailing section;
   each entry, and the audit trail for the tail, hold a reference. *)
let write_jblock t ?tail group =
  let data =
    Jblock.encode ~block_size:(bs t) ~prev:t.last_jaddr
      ?tail:(Option.map (fun tl -> tl.section) tail)
      (List.map snd group)
  in
  let jaddr = Log.append t.log Tag.Journal ~data () in
  List.iter
    (fun (re, _) ->
      re.jaddr <- jaddr;
      jref_get t jaddr re)
    group;
  t.last_jaddr <- jaddr;
  t.s.journal_blocks_written <- t.s.journal_blocks_written + 1;
  Option.iter
    (fun tl ->
      hold_tail t jaddr;
      tl.on_append jaddr)
    tail

let append_tail t tail = write_jblock t ~tail []

(* Entries leave [pending] only once their block is appended: a full
   log or a media fault part-way through a multi-block flush keeps
   every entry not yet in an appended block pending, and the error
   still reaches the caller. [tail] rides in the last block written,
   beside its entries when it fits there, else in a block of its own
   (with no entries, as when nothing else is pending). *)
let flush_journal ?tail t =
  let chronological = List.rev t.pending in
  let written = ref 0 in
  let block_size = bs t in
  (* Each entry is encoded once, when it is sized; the group keeps
     that form for its block. *)
  let emit ?tail group_rev =
    write_jblock t ?tail (List.rev group_rev);
    written := !written + List.length group_rev
  in
  let group = ref [] in
  let group_size = ref 0 in
  let add re =
    let je = Entry.to_jentry re.e in
    let sz = Jblock.entry_size je in
    if not (Jblock.fits ~block_size ~current:!group_size je) then begin
      emit !group;
      group := [];
      group_size := 0
    end;
    group := (re, je) :: !group;
    group_size := !group_size + sz
  in
  let fits tl = Jblock.tail_fits ~block_size ~current:!group_size (Bytes.length tl.section) in
  let last () =
    match tail with
    | Some tl when !group <> [] && not (fits tl) ->
      emit !group;
      emit ?tail []
    | Some _ -> emit ?tail !group
    | None -> if !group <> [] then emit !group
  in
  match
    List.iter add chronological;
    last ()
  with
  | () -> t.pending <- []
  | exception e ->
    t.pending <- List.rev (drop !written chronological);
    raise e

let push_entry t obj op =
  obj.o_seq <- obj.o_seq + 1;
  let e = { Entry.oid = obj.o_oid; seq = obj.o_seq; time = now t; op } in
  let re = { e; jaddr = Log.none } in
  obj.o_entries <- re :: obj.o_entries;
  t.pending <- re :: t.pending;
  obj.o_dirty <- obj.o_dirty + 1;
  t.s.journal_entries <- t.s.journal_entries + 1;
  t.s.journal_bytes <- t.s.journal_bytes + Entry.size e

let kill_block_raw t a =
  if a <> Log.none then begin
    Log.kill t.log a;
    Bcache.remove t.bcache a;
    t.s.blocks_expired <- t.s.blocks_expired + 1
  end

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)

let encode_checkpoint t obj =
  let w = Bcodec.writer ~capacity:(64 + (8 * Array.length obj.o_table)) () in
  Bcodec.w_i64 w obj.o_oid;
  Bcodec.w_int w obj.o_seq;
  Bcodec.w_i64 w obj.o_created;
  Bcodec.w_u8 w (if obj.o_exists then 1 else 0);
  Bcodec.w_int w obj.o_size;
  Bcodec.w_bytes w obj.o_attr;
  Bcodec.w_bytes w obj.o_acl;
  let n = nblocks_of t obj.o_size in
  Bcodec.w_int w n;
  for i = 0 to n - 1 do
    Bcodec.w_int w (table_get obj i + 1)
  done;
  Bcodec.contents w

type ckpt_image = {
  ci_oid : oid;
  ci_seq : int;
  ci_created : int64;
  ci_exists : bool;
  ci_size : int;
  ci_attr : Bytes.t;
  ci_acl : Bytes.t;
  ci_table : addr array;
}

let decode_checkpoint payload =
  let r = Bcodec.reader payload in
  let ci_oid = Bcodec.r_i64 r in
  let ci_seq = Bcodec.r_int r in
  let ci_created = Bcodec.r_i64 r in
  let ci_exists = Bcodec.r_u8 r = 1 in
  let ci_size = Bcodec.r_int r in
  let ci_attr = Bcodec.r_bytes r in
  let ci_acl = Bcodec.r_bytes r in
  let n = Bcodec.r_int r in
  let ci_table = Array.init n (fun _ -> Bcodec.r_int r - 1) in
  { ci_oid; ci_seq; ci_created; ci_exists; ci_size; ci_attr; ci_acl; ci_table }

(* Checkpoint images are stored self-identifying so crash recovery can
   find them by scanning, without any journal pointer:

   - small images (the common case: ordinary files) are packed several
     to a "ckpack" block, like classic inodes sharing an inode block;
     the pack is reference-counted and dies when every member image has
     been superseded;
   - large images (files with big block tables) get a dedicated chain
     of framed chunks. *)

let ck_magic = 0x4B43 (* "CK": dedicated image chunk *)
let pack_magic = 0x504B (* "KP": packed images *)

let pack_threshold t = bs t / 4

(* Dedicated chunk: magic, oid, seq, idx, nchunks, payload; CRC at the
   block tail. *)
let encode_ckchunk t ~oid ~seq ~idx ~nchunks payload =
  Bcodec.frame ~size:(bs t) (fun w ->
      Bcodec.w_u16 w ck_magic;
      Bcodec.w_i64 w oid;
      Bcodec.w_int w seq;
      Bcodec.w_int w idx;
      Bcodec.w_int w nchunks;
      Bcodec.w_bytes w payload)

let decode_ckchunk b =
  if Bytes.length b < 20 || Bcodec.get_u16 b 0 <> ck_magic || not (Bcodec.check_frame b) then None
  else
    try
      let r = Bcodec.reader ~pos:2 b in
      let oid = Bcodec.r_i64 r in
      let seq = Bcodec.r_int r in
      let idx = Bcodec.r_int r in
      let nchunks = Bcodec.r_int r in
      let payload = Bcodec.r_bytes r in
      Some (oid, seq, idx, nchunks, payload)
    with Bcodec.Decode_error _ -> None

(* Pack block: magic, count, then (oid, seq, image) triples; CRC. *)
let encode_cpack t triples =
  Bcodec.frame ~size:(bs t) (fun w ->
      Bcodec.w_u16 w pack_magic;
      Bcodec.w_int w (List.length triples);
      List.iter
        (fun (oid, seq, image) ->
          Bcodec.w_i64 w oid;
          Bcodec.w_int w seq;
          Bcodec.w_bytes w image)
        triples)

let decode_cpack b =
  if Bytes.length b < 10 || Bcodec.get_u16 b 0 <> pack_magic || not (Bcodec.check_frame b) then None
  else
    try
      let r = Bcodec.reader ~pos:2 b in
      let count = Bcodec.r_int r in
      Some
        (List.init count (fun _ ->
             let oid = Bcodec.r_i64 r in
             let seq = Bcodec.r_int r in
             let image = Bcodec.r_bytes r in
             (oid, seq, image)))
    with Bcodec.Decode_error _ -> None

let is_packed t a = Hashtbl.mem t.cpack_refs a

(* Release the object's current on-disk checkpoint (pack member or
   dedicated chunks). *)
let release_ckpt t obj =
  (match obj.o_ckpt_addrs with
   | [ a ] when is_packed t a ->
     (match Hashtbl.find_opt t.cpack_members a with
      | Some l -> l := List.filter (fun o -> o <> obj.o_oid) !l
      | None -> ());
     (match Hashtbl.find_opt t.cpack_refs a with
      | Some r ->
        decr r;
        if !r <= 0 then begin
          Hashtbl.remove t.cpack_refs a;
          Hashtbl.remove t.cpack_members a;
          kill_block_raw t a
        end
      | None -> ())
   | addrs -> List.iter (kill_block_raw t) addrs);
  obj.o_ckpt_addrs <- []

(* Flush pending small images into pack blocks. Like journal entries,
   images leave [cpending] only once their pack is appended. *)
let flush_cpack t =
  match t.cpending with
  | [] -> ()
  | pend ->
    let chronological = List.rev pend in
    let written = ref 0 in
    let block_size = bs t in
    let budget = block_size - 16 in
    let entry_size image = 8 + 4 + Bytes.length image + 4 in
    let emit group =
      match group with
      | [] -> ()
      | _ ->
        let triples = List.map (fun (obj, image, seq) -> (obj.o_oid, seq, image)) group in
        let data = encode_cpack t triples in
        let a = Log.append t.log Tag.Ckpack ~data () in
        Hashtbl.replace t.cpack_refs a (ref (List.length group));
        Hashtbl.replace t.cpack_members a (ref (List.map (fun (obj, _, _) -> obj.o_oid) group));
        List.iter
          (fun (obj, _, _) ->
            release_ckpt t obj;
            obj.o_ckpt_addrs <- [ a ];
            incr written)
          group;
        t.s.checkpoint_blocks_written <- t.s.checkpoint_blocks_written + 1
    in
    let group = ref [] in
    let used = ref 0 in
    match
      List.iter
        (fun ((_, image, _) as item) ->
          let sz = entry_size image in
          if !used + sz > budget && !group <> [] then begin
            emit (List.rev !group);
            group := [];
            used := 0
          end;
          group := item :: !group;
          used := !used + sz)
        chronological;
      emit (List.rev !group)
    with
    | () -> t.cpending <- []
    | exception e ->
      t.cpending <- List.rev (drop !written chronological);
      raise e

let checkpoint_object_internal t obj =
  let image = encode_checkpoint t obj in
  let seq_at_image = obj.o_seq in
  obj.o_ckpt_seq <- seq_at_image;
  obj.o_dirty <- 0;
  if Bytes.length image <= pack_threshold t then begin
    (* Replace any not-yet-flushed image of the same object. *)
    t.cpending <-
      (obj, image, seq_at_image) :: List.filter (fun (o, _, _) -> o != obj) t.cpending;
    if List.length t.cpending * (pack_threshold t / 2) > bs t * 4 then flush_cpack t
  end
  else begin
    release_ckpt t obj;
    let payload_budget = bs t - 64 in
    let total = Bytes.length image in
    let nchunks = (total + payload_budget - 1) / payload_budget in
    let addrs =
      List.init nchunks (fun idx ->
          let off = idx * payload_budget in
          let len = min payload_budget (total - off) in
          let chunk =
            encode_ckchunk t ~oid:obj.o_oid ~seq:seq_at_image ~idx ~nchunks
              (Bytes.sub image off len)
          in
          Log.append t.log (Tag.Checkpoint { oid = obj.o_oid }) ~data:chunk ())
    in
    obj.o_ckpt_addrs <- addrs;
    t.s.checkpoint_blocks_written <- t.s.checkpoint_blocks_written + nchunks
  end

let maybe_checkpoint t obj =
  if obj.o_dirty >= t.cfg.checkpoint_interval then checkpoint_object_internal t obj

(* ------------------------------------------------------------------ *)
(* Object cache                                                        *)

let object_cost obj = 256 + (8 * Array.length obj.o_table)

let touch_object t obj =
  match Ocache.find_exn t.ocache obj.o_oid with
  | () -> ()
  | exception Not_found ->
    (* Metadata fault: read the checkpoint image and the journal blocks
       written since (the newest 16; they are usually cached), in
       address order, so a read-ahead run that starts at an older block
       covers the newer ones after it. *)
    List.iter (fun a -> ignore (block t a)) obj.o_ckpt_addrs;
    let distinct = Hashtbl.create 8 in
    let budget = ref 16 in
    List.iter
      (fun re ->
        if !budget > 0 && re.jaddr <> Log.none && not (Hashtbl.mem distinct re.jaddr) then begin
          Hashtbl.replace distinct re.jaddr ();
          decr budget
        end)
      obj.o_entries;
    List.iter (fun a -> ignore (block t a)) (List.sort compare (Hashtbl.fold (fun a () l -> a :: l) distinct []));
    Ocache.insert t.ocache obj.o_oid () ~cost:(object_cost obj)

let find_obj t oid =
  match Hashtbl.find_opt t.objects oid with
  | Some obj -> obj
  | None -> raise (No_such_object oid)

let get_obj t oid =
  let obj = find_obj t oid in
  touch_object t obj;
  obj

let get_live_obj t oid =
  let obj = get_obj t oid in
  if not obj.o_exists then raise (Is_deleted oid);
  obj

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ?(config = default_config) log =
  let t =
    {
      log;
      cfg = config;
      objects = Hashtbl.create 1024;
      bcache = Bcache.create ~budget:config.block_cache_bytes ();
      ocache = Ocache.create ~budget:config.object_cache_bytes ();
      pending = [];
      jrefs = Hashtbl.create 1024;
      tails = Hashtbl.create 64;
      jback = Hashtbl.create 1024;
      cpending = [];
      cpack_refs = Hashtbl.create 256;
      cpack_members = Hashtbl.create 256;
      last_jaddr = Log.none;
      oid_counter = 1L;
      oid_allocator = None;
      kept = Hashtbl.create 4;
      s = fresh_stats ();
    }
  in
  (* Wire the eviction callback now that [t] exists: dirty metadata is
     checkpointed to the log before leaving the object cache. *)
  t.ocache <-
    Ocache.create ~budget:config.object_cache_bytes
      ~on_evict:(fun oid () ->
        match Hashtbl.find_opt t.objects oid with
        | Some obj when obj.o_dirty > 0 && obj.o_exists -> checkpoint_object_internal t obj
        | Some _ | None -> ())
      ();
  t

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)

let set_oid_allocator t f = t.oid_allocator <- f
let oid_allocator t = t.oid_allocator
let next_oid t = t.oid_counter

(* The store's span fields: the object and byte count an operation
   names, and the block-cache hits and misses it caused. *)
let probe =
  {
    Trace.clock;
    opened =
      (fun tok t oid bytes ->
        Trace.set_oid tok oid;
        Trace.set_bytes tok bytes;
        (Bcache.hits t.bcache, Bcache.misses t.bcache));
    closed =
      (fun tok t _ _ (h0, m0) _ ->
        Trace.add_cache tok ~hits:(Bcache.hits t.bcache - h0) ~misses:(Bcache.misses t.bcache - m0));
  }

(* A public entry point's body [f t oid bytes], in a span naming [oid]
   and [bytes]. *)
let traced t kind ?(oid = -1L) ?(bytes = 0) f = Trace.span Trace.Store probe ~kind f t oid bytes

let create_object_inner t =
  let oid =
    match t.oid_allocator with
    | None ->
      let o = t.oid_counter in
      t.oid_counter <- Int64.add o 1L;
      o
    | Some alloc ->
      (* Externally-governed oid space (shard router): the allocator
         hands out globally-unique oids; keep the local counter ahead
         so dropping the allocator can never reuse one. *)
      let o = alloc () in
      if Hashtbl.mem t.objects o then
        invalid_arg (Printf.sprintf "create_object: oid %Ld already present" o);
      if Int64.compare o t.oid_counter >= 0 then t.oid_counter <- Int64.add o 1L;
      o
  in
  let obj =
    {
      o_oid = oid;
      o_exists = true;
      o_size = 0;
      o_attr = Bytes.empty;
      o_acl = Bytes.empty;
      o_table = Array.make 4 Log.none;
      o_entries = [];
      o_seq = 0;
      o_created = now t;
      o_ckpt_addrs = [];
      o_ckpt_seq = 0;
      o_dirty = 0;
    }
  in
  Hashtbl.replace t.objects oid obj;
  push_entry t obj Entry.Create;
  Ocache.insert t.ocache oid () ~cost:(object_cost obj);
  t.s.ops <- t.s.ops + 1;
  oid

let create_object t = traced t "create" (fun t _ _ -> create_object_inner t)

let delete_object t oid =
  traced t "delete" ~oid (fun t oid _ ->
      let obj = get_live_obj t oid in
      push_entry t obj (Entry.Delete { old_size = obj.o_size });
      obj.o_exists <- false;
      t.s.ops <- t.s.ops + 1;
      maybe_checkpoint t obj)

(* Split huge writes so each journal entry stays well under a block. *)
let max_blocks_per_entry = 200

let write_chunk t obj ~off ~len data_slice =
  let block_size = bs t in
  let first = off / block_size in
  let last = (off + len - 1) / block_size in
  let old_size = obj.o_size in
  let new_size = max old_size (off + len) in
  let blocks = ref [] in
  (* If the log fills mid-write, undo the partial block allocation so
     the object stays consistent (the caller sees No_space). *)
  let rollback () =
    List.iter
      (fun (fb, fresh, old) ->
        table_set obj fb old;
        kill_block_raw t fresh)
      !blocks
  in
  try
    for fb = last downto first do
      let old = table_get obj fb in
      let block_start = fb * block_size in
      let covers_fully = off <= block_start && off + len >= block_start + block_size in
      let content =
        if not (keeps t obj.o_oid) then None
        else begin
          let base =
            if old <> Log.none && not covers_fully then
              (match block t old with
               | Some b -> Bytes.copy b
               | None -> if t.cfg.keep_data then zeros t else Log.peek t.log old)
            else zeros t
          in
          let from = max off block_start in
          let until = min (off + len) (block_start + block_size) in
          (match data_slice with
           | Some d -> Bytes.blit d (from - off) base (from - block_start) (until - from)
           | None -> ());
          Some base
        end
      in
      (* Even without retained contents, a partial overwrite of an
         existing block costs a read-modify-write. *)
      if old <> Log.none && not covers_fully && not (keeps t obj.o_oid) then ignore (block t old);
      let fresh = Log.append t.log (Tag.Data { oid = obj.o_oid; fblock = fb }) ?data:content () in
      cache_block t fresh content;
      table_set obj fb fresh;
      blocks := (fb, fresh, old) :: !blocks;
      t.s.data_blocks_written <- t.s.data_blocks_written + 1
    done;
    obj.o_size <- new_size;
    push_entry t obj (Entry.Write { off; len; old_size; new_size; blocks = !blocks });
    t.s.bytes_written <- t.s.bytes_written + len
  with Log.Log_full ->
    rollback ();
    raise Log.Log_full

let write_outer t oid ~off ?data ~len () =
  if off < 0 || len < 0 then invalid_arg "Obj_store.write";
  (match data with
   | Some d when Bytes.length d <> len -> invalid_arg "Obj_store.write: data length"
   | Some _ | None -> ());
  let obj = get_live_obj t oid in
  t.s.ops <- t.s.ops + 1;
  if len > 0 then begin
    let block_size = bs t in
    let chunk_bytes = max_blocks_per_entry * block_size in
    let rec go off' remaining doff =
      if remaining > 0 then begin
        (* Align chunk ends to block boundaries to bound the entry. *)
        let this = min remaining (chunk_bytes - (off' mod block_size)) in
        let slice = Option.map (fun d -> Bytes.sub d doff this) data in
        write_chunk t obj ~off:off' ~len:this slice;
        go (off' + this) (remaining - this) (doff + this)
      end
    in
    go off len 0;
    maybe_checkpoint t obj
  end

let write t oid ~off ?data ~len () =
  traced t "write" ~oid ~bytes:len (fun t oid len -> write_outer t oid ~off ?data ~len ())

let append t oid ?data ~len () =
  traced t "append" ~oid ~bytes:len (fun t oid len ->
      let obj = get_live_obj t oid in
      write_outer t oid ~off:obj.o_size ?data ~len ())

let truncate_inner t oid ~size =
  if size < 0 then invalid_arg "Obj_store.truncate";
  let obj = get_live_obj t oid in
  t.s.ops <- t.s.ops + 1;
  let old_size = obj.o_size in
  let keep = nblocks_of t size in
  (* Shrinking into the middle of a block: the new version's last block
     must read back zeros past the new size, so write a zero-tailed
     copy first (the old block stays in the history pool). *)
  (if size < old_size && size mod bs t <> 0 && table_get obj (keep - 1) <> Log.none then begin
     let zero_until = min old_size (keep * bs t) in
     if zero_until > size then begin
       let pad = zero_until - size in
       write_chunk t obj ~off:size ~len:pad
         (if t.cfg.keep_data then Some (Bytes.make pad '\000') else None)
     end
   end);
  let had = nblocks_of t old_size in
  let freed = ref [] in
  for fb = had - 1 downto keep do
    let a = table_get obj fb in
    if a <> Log.none then begin
      freed := (fb, a) :: !freed;
      table_set obj fb Log.none
    end
  done;
  obj.o_size <- size;
  push_entry t obj (Entry.Truncate { old_size; new_size = size; freed = !freed });
  maybe_checkpoint t obj

let truncate t oid ~size = traced t "truncate" ~oid (fun t oid _ -> truncate_inner t oid ~size)

let set_attr t oid attr =
  traced t "setattr" ~oid ~bytes:(Bytes.length attr) (fun t oid _ ->
      let obj = get_live_obj t oid in
      t.s.ops <- t.s.ops + 1;
      push_entry t obj (Entry.Set_attr { old_attr = obj.o_attr; new_attr = Bytes.copy attr });
      obj.o_attr <- Bytes.copy attr;
      maybe_checkpoint t obj)

let set_acl_raw t oid acl =
  let obj = get_live_obj t oid in
  t.s.ops <- t.s.ops + 1;
  push_entry t obj (Entry.Set_acl { old_acl = obj.o_acl; new_acl = Bytes.copy acl });
  obj.o_acl <- Bytes.copy acl;
  maybe_checkpoint t obj

let sync ?tail t =
  traced t "sync" (fun t _ _ ->
      flush_cpack t;
      flush_journal ?tail t;
      Log.sync t.log)

(* ------------------------------------------------------------------ *)
(* Time-based views                                                    *)

type view = {
  v_exists : bool;
  v_size : int;
  v_attr : Bytes.t;
  v_acl : Bytes.t;
  v_overrides : (int, addr) Hashtbl.t;
  v_obj : obj;
}

(* Roll the current state backward through every entry newer than
   [at]. Also charges reads of the traversed journal blocks, modelling
   on-disk history traversal. *)
let view_at t obj ~at =
  let v_overrides = Hashtbl.create 8 in
  let exists = ref obj.o_exists in
  let size = ref obj.o_size in
  let attr = ref obj.o_attr in
  let acl = ref obj.o_acl in
  let touched = Hashtbl.create 4 in
  let undo re =
    if re.jaddr <> Log.none && not (Hashtbl.mem touched re.jaddr) then begin
      Hashtbl.replace touched re.jaddr ();
      ignore (block t re.jaddr)
    end;
    match re.e.Entry.op with
    | Entry.Create -> exists := false
    | Entry.Write { old_size; blocks; _ } ->
      size := old_size;
      List.iter (fun (fb, _, old) -> Hashtbl.replace v_overrides fb old) blocks
    | Entry.Truncate { old_size; freed; _ } ->
      size := old_size;
      List.iter (fun (fb, a) -> Hashtbl.replace v_overrides fb a) freed
    | Entry.Set_attr { old_attr; _ } -> attr := old_attr
    | Entry.Set_acl { old_acl; _ } -> acl := old_acl
    | Entry.Delete { old_size } ->
      exists := true;
      size := old_size
    | Entry.Checkpoint _ -> ()
    | Entry.Relocate _ ->
      (* Relocations are transparent to views: in-memory references
         were rewritten when the move happened. *)
      ()
  in
  let rec walk = function
    | re :: rest when re.e.Entry.time > at ->
      undo re;
      walk rest
    | _ -> ()
  in
  walk obj.o_entries;
  if not !exists then None
  else Some { v_exists = !exists; v_size = !size; v_attr = !attr; v_acl = !acl; v_overrides; v_obj = obj }

let view t ?at oid =
  let obj = get_obj t oid in
  match at with
  | None ->
    if obj.o_exists then
      Some
        {
          v_exists = true;
          v_size = obj.o_size;
          v_attr = obj.o_attr;
          v_acl = obj.o_acl;
          v_overrides = Hashtbl.create 1;
          v_obj = obj;
        }
    else None
  | Some at -> view_at t obj ~at

let view_exn t ?at oid =
  match view t ?at oid with Some v -> v | None -> raise (No_such_object oid)

let view_block v fb =
  match Hashtbl.find_opt v.v_overrides fb with
  | Some a -> a
  | None -> table_get v.v_obj fb

let exists t ?at oid =
  match Hashtbl.find_opt t.objects oid with
  | None -> false
  | Some obj ->
    touch_object t obj;
    (match at with
     | None -> obj.o_exists
     | Some at -> Option.is_some (view_at t obj ~at))

let size t ?at oid = (view_exn t ?at oid).v_size
let seq t oid = (find_obj t oid).o_seq
let created_time t oid = (find_obj t oid).o_created
let get_attr t ?at oid = Bytes.copy (view_exn t ?at oid).v_attr
let get_acl_raw t ?at oid = Bytes.copy (view_exn t ?at oid).v_acl
let current_acl_raw t oid = Bytes.copy (find_obj t oid).o_acl

let read_inner t ?at oid ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Obj_store.read";
  let v = view_exn t ?at oid in
  t.s.ops <- t.s.ops + 1;
  if off >= v.v_size || len = 0 then Bytes.empty
  else begin
    let block_size = bs t in
    let len = min len (v.v_size - off) in
    let out = Bytes.make len '\000' in
    let first = off / block_size in
    let last = (off + len - 1) / block_size in
    for fb = first to last do
      let a = view_block v fb in
      if a <> Log.none then begin
        let block_start = fb * block_size in
        let from = max off block_start in
        let until = min (off + len) (block_start + block_size) in
        match block t a with
        | Some b -> Bytes.blit b (from - block_start) out (from - off) (until - from)
        | None ->
          if (not t.cfg.keep_data) && Hashtbl.mem t.kept oid then
            Bytes.blit (Log.peek t.log a) (from - block_start) out (from - off) (until - from)
      end
    done;
    t.s.bytes_read <- t.s.bytes_read + len;
    out
  end

let read t ?at oid ~off ~len =
  traced t "read" ~oid ~bytes:len (fun t oid len -> read_inner t ?at oid ~off ~len)

let list_objects t =
  Hashtbl.fold (fun oid obj acc -> if obj.o_exists then oid :: acc else acc) t.objects []
  |> List.sort compare

let list_all t = Hashtbl.fold (fun oid _ acc -> oid :: acc) t.objects [] |> List.sort compare

let journal t oid = List.map (fun re -> re.e) (find_obj t oid).o_entries

let versions t oid =
  List.filter
    (fun (e : Entry.t) -> match e.Entry.op with Entry.Checkpoint _ -> false | _ -> true)
    (journal t oid)

let oldest_time t oid =
  match (find_obj t oid).o_entries with
  | [] -> None
  | entries ->
    let rec last = function [ re ] -> Some re.e.Entry.time | _ :: rest -> last rest | [] -> None in
    last entries

let checkpoint_object t oid = checkpoint_object_internal t (find_obj t oid)

(* ------------------------------------------------------------------ *)
(* History migration (shard rebalancing)

   An export captures an object's *entire retained history* in
   device-independent form: the rolled-back base state (only needed
   when the Create entry has already expired) plus every retained
   journal entry as a semantic operation carrying its original seq and
   time and the full content of each block it wrote. Importing replays
   that history block-for-block on another store, so time-based reads
   ([?at]) answer identically on the new home at every timestamp — the
   detection-window guarantee survives the move. *)

type xop =
  | X_create
  | X_write of {
      off : int;
      len : int;
      old_size : int;
      new_size : int;
      blocks : (int * Bytes.t option) list;  (* fblock, post-write content *)
    }
  | X_truncate of { old_size : int; new_size : int }
  | X_set_attr of { old_attr : Bytes.t; new_attr : Bytes.t }
  | X_set_acl of { old_acl : Bytes.t; new_acl : Bytes.t }
  | X_delete of { old_size : int }

type xentry = { x_seq : int; x_time : int64; x_op : xop }

type xbase = {
  xb_seq : int;
  xb_size : int;
  xb_attr : Bytes.t;
  xb_acl : Bytes.t;
  xb_blocks : (int * Bytes.t option) list;
}

type export = {
  x_oid : oid;
  x_created : int64;
  x_base : xbase option;
  x_entries : xentry list;  (* oldest first *)
}

(* Reading a block for export charges real I/O on the source (the
   migrator streams the history off the disk). [None] content only in
   timing-only mode; a hole simply doesn't appear in the block list. *)
let export_block t a =
  let content = block t a in
  t.s.bytes_read <- t.s.bytes_read + bs t;
  if t.cfg.keep_data then Some (match content with Some b -> Bytes.copy b | None -> zeros t) else None

let export_history t oid =
  let obj = get_obj t oid in
  t.s.ops <- t.s.ops + 1;
  let retained = List.rev obj.o_entries in
  (* oldest first *)
  let xentries =
    List.filter_map
      (fun re ->
        let seq = re.e.Entry.seq and time = re.e.Entry.time in
        let mk x_op = Some { x_seq = seq; x_time = time; x_op } in
        match re.e.Entry.op with
        | Entry.Checkpoint _ | Entry.Relocate _ ->
          (* Device-local bookkeeping: meaningless on another store. *)
          None
        | Entry.Create -> mk X_create
        | Entry.Write { off; len; old_size; new_size; blocks } ->
          let blocks =
            List.filter_map
              (fun (fb, nw, _old) -> if nw = Log.none then None else Some (fb, export_block t nw))
              blocks
          in
          mk (X_write { off; len; old_size; new_size; blocks })
        | Entry.Truncate { old_size; new_size; _ } -> mk (X_truncate { old_size; new_size })
        | Entry.Set_attr { old_attr; new_attr } ->
          mk (X_set_attr { old_attr = Bytes.copy old_attr; new_attr = Bytes.copy new_attr })
        | Entry.Set_acl { old_acl; new_acl } ->
          mk (X_set_acl { old_acl = Bytes.copy old_acl; new_acl = Bytes.copy new_acl })
        | Entry.Delete { old_size } -> mk (X_delete { old_size }))
      retained
  in
  let has_create = List.exists (fun xe -> xe.x_op = X_create) xentries in
  let x_base =
    if has_create then None
    else begin
      (* The Create has aged out: the oldest version inside the window
         is not reconstructable from entries alone. Capture the state
         just before the oldest retained entry. *)
      let at =
        match retained with
        | re :: _ -> Int64.sub re.e.Entry.time 1L
        | [] -> now t
      in
      match view_at t obj ~at with
      | None -> invalid_arg (Printf.sprintf "export_history: oid %Ld has no base state" oid)
      | Some v ->
        let xb_seq =
          match retained with re :: _ -> re.e.Entry.seq - 1 | [] -> obj.o_seq
        in
        let nb = nblocks_of t v.v_size in
        let blocks = ref [] in
        for fb = nb - 1 downto 0 do
          let a = view_block v fb in
          if a <> Log.none then blocks := (fb, export_block t a) :: !blocks
        done;
        Some
          {
            xb_seq;
            xb_size = v.v_size;
            xb_attr = Bytes.copy v.v_attr;
            xb_acl = Bytes.copy v.v_acl;
            xb_blocks = !blocks;
          }
    end
  in
  { x_oid = oid; x_created = obj.o_created; x_base; x_entries = xentries }

(* Append one imported block and point the table at it. *)
let import_block t obj fb content =
  let data = match content with Some b when t.cfg.keep_data -> Some (Bytes.copy b) | _ -> None in
  let fresh = Log.append t.log (Tag.Data { oid = obj.o_oid; fblock = fb }) ?data () in
  cache_block t fresh data;
  table_set obj fb fresh;
  t.s.data_blocks_written <- t.s.data_blocks_written + 1;
  fresh

(* Push a replayed entry carrying its *historical* seq and time
   (bypasses [push_entry], which would stamp the present). *)
let import_entry t obj ~seq ~time op =
  let e = { Entry.oid = obj.o_oid; seq; time; op } in
  let re = { e; jaddr = Log.none } in
  obj.o_entries <- re :: obj.o_entries;
  t.pending <- re :: t.pending;
  obj.o_seq <- seq;
  obj.o_dirty <- obj.o_dirty + 1;
  t.s.journal_entries <- t.s.journal_entries + 1;
  t.s.journal_bytes <- t.s.journal_bytes + Entry.size e

let import_history t (x : export) =
  if Hashtbl.mem t.objects x.x_oid then
    invalid_arg (Printf.sprintf "import_history: oid %Ld already present" x.x_oid);
  t.s.ops <- t.s.ops + 1;
  let obj =
    {
      o_oid = x.x_oid;
      o_exists = false;
      o_size = 0;
      o_attr = Bytes.empty;
      o_acl = Bytes.empty;
      o_table = Array.make 4 Log.none;
      o_entries = [];
      o_seq = 0;
      o_created = x.x_created;
      o_ckpt_addrs = [];
      o_ckpt_seq = 0;
      o_dirty = 0;
    }
  in
  Hashtbl.replace t.objects x.x_oid obj;
  if Int64.compare x.x_oid t.oid_counter >= 0 then t.oid_counter <- Int64.add x.x_oid 1L;
  (match x.x_base with
   | None -> ()
   | Some b ->
     obj.o_exists <- true;
     obj.o_size <- b.xb_size;
     obj.o_attr <- Bytes.copy b.xb_attr;
     obj.o_acl <- Bytes.copy b.xb_acl;
     obj.o_seq <- b.xb_seq;
     List.iter (fun (fb, content) -> ignore (import_block t obj fb content)) b.xb_blocks;
     (* The base predates every entry we are about to replay, so no
        journal record covers it: persist a checkpoint image now or a
        crash would lose the oldest in-window versions. *)
     checkpoint_object_internal t obj);
  (match (x.x_base, x.x_entries) with
   | None, first :: _ -> obj.o_seq <- first.x_seq - 1
   | _ -> ());
  List.iter
    (fun xe ->
      match xe.x_op with
      | X_create ->
        obj.o_exists <- true;
        obj.o_created <- xe.x_time;
        import_entry t obj ~seq:xe.x_seq ~time:xe.x_time Entry.Create
      | X_write { off; len; old_size; new_size; blocks } ->
        (* Superseded pointers come from the *target's* table: by
           induction it holds exactly the pre-entry block layout, so
           [view_at] rollback works on the new home. *)
        let placed =
          List.map
            (fun (fb, content) ->
              let old = table_get obj fb in
              let fresh = import_block t obj fb content in
              (fb, fresh, old))
            blocks
        in
        obj.o_size <- new_size;
        t.s.bytes_written <- t.s.bytes_written + len;
        import_entry t obj ~seq:xe.x_seq ~time:xe.x_time
          (Entry.Write { off; len; old_size; new_size; blocks = placed })
      | X_truncate { old_size; new_size } ->
        let keep = nblocks_of t new_size in
        let had = nblocks_of t old_size in
        let freed = ref [] in
        for fb = had - 1 downto keep do
          let a = table_get obj fb in
          if a <> Log.none then begin
            freed := (fb, a) :: !freed;
            table_set obj fb Log.none
          end
        done;
        obj.o_size <- new_size;
        import_entry t obj ~seq:xe.x_seq ~time:xe.x_time
          (Entry.Truncate { old_size; new_size; freed = !freed })
      | X_set_attr { old_attr; new_attr } ->
        obj.o_attr <- Bytes.copy new_attr;
        import_entry t obj ~seq:xe.x_seq ~time:xe.x_time
          (Entry.Set_attr { old_attr = Bytes.copy old_attr; new_attr = Bytes.copy new_attr })
      | X_set_acl { old_acl; new_acl } ->
        obj.o_acl <- Bytes.copy new_acl;
        import_entry t obj ~seq:xe.x_seq ~time:xe.x_time
          (Entry.Set_acl { old_acl = Bytes.copy old_acl; new_acl = Bytes.copy new_acl })
      | X_delete { old_size } ->
        obj.o_exists <- false;
        import_entry t obj ~seq:xe.x_seq ~time:xe.x_time (Entry.Delete { old_size }))
    x.x_entries;
  Ocache.insert t.ocache x.x_oid () ~cost:(object_cost obj);
  maybe_checkpoint t obj

let forget_object t oid =
  let obj = find_obj t oid in
  (* Unflushed entries must not reach the journal: a later flush would
     persist records for an object this store no longer owns, and
     recovery would resurrect a partial copy. *)
  t.pending <- List.filter (fun re -> not (Int64.equal re.e.Entry.oid oid)) t.pending;
  List.iter
    (fun re ->
      List.iter (kill_block_raw t) (Entry.superseded_blocks re.e.Entry.op);
      if re.jaddr <> Log.none then jref_put t re.jaddr re;
      t.s.entries_expired <- t.s.entries_expired + 1)
    obj.o_entries;
  Array.iter (kill_block_raw t) obj.o_table;
  release_ckpt t obj;
  t.cpending <- List.filter (fun (o, _, _) -> o != obj) t.cpending;
  Hashtbl.remove t.objects oid;
  Ocache.remove t.ocache oid;
  t.s.objects_expired <- t.s.objects_expired + 1

(* ------------------------------------------------------------------ *)
(* Expiration (history-pool aging)                                     *)

let kill_block = kill_block_raw

(* An entry whose loss would make the on-disk image stale: everything
   except Checkpoint bookkeeping changes reconstructable state
   (Relocate moves block addresses, so it counts). *)
let state_changing (op : Entry.op) =
  match op with Entry.Checkpoint _ -> false | _ -> true

(* Split newest-first entries into (retained, dropped): an entry may be
   dropped only if it is flushed and strictly older than the cutoff,
   and only as part of the oldest suffix. *)
let split_entries entries ~cutoff =
  let rec go acc = function
    | re :: rest when re.e.Entry.time >= cutoff || re.jaddr = Log.none -> go (re :: acc) rest
    | older -> (List.rev acc, older)
  in
  go [] entries

(* Whether [split_entries] would drop anything: some entry is flushed
   and strictly older than the cutoff. Allocates nothing, so a pass
   over objects with nothing to drop costs no garbage. *)
let rec droppable ~cutoff = function
  | [] -> false
  | re :: rest -> (re.e.Entry.time < cutoff && re.jaddr <> Log.none) || droppable ~cutoff rest

(* Whether [expire_object] has anything to do: entries to drop, or a
   deleted object with no history left (an import without entries, or
   an image recovered without its journal blocks), which it reclaims. *)
let expirable obj ~cutoff = droppable ~cutoff obj.o_entries || ((not obj.o_exists) && obj.o_entries = [])

let drop_entry t re =
  List.iter (kill_block t) (Entry.superseded_blocks re.e.Entry.op);
  if re.jaddr <> Log.none then jref_put t re.jaddr re;
  t.s.entries_expired <- t.s.entries_expired + 1

let expire_object t obj ~cutoff =
  if expirable obj ~cutoff then begin
    let retained, dropped = split_entries obj.o_entries ~cutoff in
    if (not obj.o_exists) && retained = [] then begin
      (* The object's delete has aged out: reclaim everything. *)
      List.iter (fun re -> drop_entry t re) dropped;
      Array.iter (kill_block t) obj.o_table;
      release_ckpt t obj;
      t.cpending <- List.filter (fun (o, _, _) -> o != obj) t.cpending;
      Hashtbl.remove t.objects obj.o_oid;
      Ocache.remove t.ocache obj.o_oid;
      t.s.objects_expired <- t.s.objects_expired + 1
    end
    else begin
      (* Dropping a state change newer than the last image would leave
         the on-disk checkpoint stale: write a fresh one first. *)
      if
        List.exists
          (fun re -> re.e.Entry.seq > obj.o_ckpt_seq && state_changing re.e.Entry.op)
          dropped
      then checkpoint_object_internal t obj;
      obj.o_entries <- retained;
      List.iter (fun re -> drop_entry t re) dropped
    end
  end

let expire t ~cutoff =
  let objs =
    Hashtbl.fold (fun _ obj acc -> if expirable obj ~cutoff then obj :: acc else acc) t.objects []
  in
  List.iter (fun obj -> expire_object t obj ~cutoff) objs

let expire_one t oid ~cutoff = expire_object t (find_obj t oid) ~cutoff

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)

let current_block_count t =
  Hashtbl.fold
    (fun _ obj acc ->
      if obj.o_exists then begin
        let n = nblocks_of t obj.o_size in
        let c = ref 0 in
        for i = 0 to n - 1 do
          if table_get obj i <> Log.none then incr c
        done;
        acc + !c
      end
      else acc)
    t.objects 0

let metadata_block_count t =
  let jblocks = Hashtbl.length t.jrefs in
  let packs = Hashtbl.length t.cpack_refs in
  let chunks =
    Hashtbl.fold
      (fun _ obj acc ->
        match obj.o_ckpt_addrs with
        | [ a ] when is_packed t a -> acc
        | addrs -> acc + List.length addrs)
      t.objects 0
  in
  jblocks + packs + chunks

let history_block_count t =
  Log.live_blocks t.log - current_block_count t - metadata_block_count t

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let recover ?(config = default_config) log =
  let t =
    let base = create ~config log in
    base
  in
  let jbs = Log.journal_blocks log in
  (* Collect entries per object, ascending by seq. *)
  let per_obj : (oid, rentry list ref) Hashtbl.t = Hashtbl.create 256 in
  let tmax = ref Int64.min_int in
  let note jaddr je =
    let e = Entry.decode je in
    let re = { e; jaddr } in
    (match Hashtbl.find_opt per_obj e.Entry.oid with
     | Some l -> l := re :: !l
     | None -> Hashtbl.replace per_obj e.Entry.oid (ref [ re ]));
    if Int64.compare e.Entry.time !tmax > 0 then tmax := e.Entry.time;
    if Int64.compare e.Entry.oid t.oid_counter >= 0 then
      t.oid_counter <- Int64.add e.Entry.oid 1L
  in
  List.iter (fun (jaddr, _prev, jes) -> List.iter (note jaddr) jes) jbs;
  (match jbs with
   | [] -> ()
   | _ ->
     let rec last = function [ (a, _, _) ] -> a | _ :: rest -> last rest | [] -> Log.none in
     t.last_jaddr <- last jbs);
  (* Discover self-identifying checkpoint images (pack blocks and
     dedicated framed chunks), keeping the newest per object. *)
  let images :
      (oid, int * ckpt_image * [ `Pack of addr | `Chunks of addr list ]) Hashtbl.t =
    Hashtbl.create 256
  in
  let consider oid seq image src =
    try
      let img = decode_checkpoint image in
      match Hashtbl.find_opt images oid with
      | Some (s0, _, _) when s0 >= seq -> ()
      | _ -> Hashtbl.replace images oid (seq, img, src)
    with Bcodec.Decode_error _ | Invalid_argument _ -> ()
  in
  let chunk_parts : (oid * int, (int * addr * Bytes.t) list ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (a, tag) ->
      match tag with
      | Tag.Ckpack | Tag.Unknown | Tag.Checkpoint _ ->
        let b = Log.peek log a in
        (match decode_cpack b with
         | Some triples -> List.iter (fun (oid, seq, image) -> consider oid seq image (`Pack a)) triples
         | None ->
           (match decode_ckchunk b with
            | Some (oid, seq, idx, nchunks, payload) ->
              let key = (oid, seq) in
              let parts =
                match Hashtbl.find_opt chunk_parts key with
                | Some l -> l
                | None ->
                  let l = ref [] in
                  Hashtbl.replace chunk_parts key l;
                  l
              in
              if not (List.exists (fun (i, _, _) -> i = idx) !parts) then begin
                parts := (idx, a, payload) :: !parts;
                if List.length !parts = nchunks then begin
                  let sorted = List.sort compare !parts in
                  let image = Bytes.concat Bytes.empty (List.map (fun (_, _, p) -> p) sorted) in
                  let addrs = List.map (fun (_, a, _) -> a) sorted in
                  consider oid seq image (`Chunks addrs)
                end
              end
            | None -> ()))
      | Tag.Data _ | Tag.Journal -> ())
    (Log.all_tagged log);
  (* Cold objects may have an image but no surviving journal entries. *)
  Hashtbl.iter
    (fun oid _ ->
      if not (Hashtbl.mem per_obj oid) then Hashtbl.replace per_obj oid (ref []);
      if Int64.compare oid t.oid_counter >= 0 then t.oid_counter <- Int64.add oid 1L)
    images;
  let cpack_note a oid =
    (match Hashtbl.find_opt t.cpack_refs a with
     | Some r -> incr r
     | None -> Hashtbl.replace t.cpack_refs a (ref 1));
    match Hashtbl.find_opt t.cpack_members a with
    | Some l -> l := oid :: !l
    | None -> Hashtbl.replace t.cpack_members a (ref [ oid ])
  in
  let rebuild oid entries_ref =
    let ascending =
      (* Sort by seq and deduplicate: a journal block relocated by the
         cleaner can leave a stale (dead but still decodable) copy of
         its entries on disk. *)
      let sorted = List.sort (fun a b -> compare a.e.Entry.seq b.e.Entry.seq) !entries_ref in
      let rec dedup = function
        | a :: b :: rest when a.e.Entry.seq = b.e.Entry.seq -> dedup (b :: rest)
        | a :: rest -> a :: dedup rest
        | [] -> []
      in
      dedup sorted
    in
    (* Relocations apply to every *earlier* entry: walk newest-first,
       accumulating the remap, and rewrite each entry's addresses. *)
    let remap_tbl : (addr, addr) Hashtbl.t = Hashtbl.create 8 in
    let resolve a =
      let rec chase a n =
        if n > 64 then a
        else match Hashtbl.find_opt remap_tbl a with Some b -> chase b (n + 1) | None -> a
      in
      chase a 0
    in
    List.iter
      (fun re ->
        re.e <- { re.e with Entry.op = Entry.remap resolve re.e.Entry.op };
        match re.e.Entry.op with
        | Entry.Relocate { moves } ->
          List.iter (fun (_, from_, to_) -> Hashtbl.replace remap_tbl from_ to_) moves
        | _ -> ())
      (List.rev ascending);
    let newest_ckpt = Hashtbl.find_opt images oid in
    let obj =
      match newest_ckpt with
      | Some (_seq, img, src) ->
        let addrs = match src with `Pack a -> [ a ] | `Chunks l -> l in
        {
          o_oid = oid;
          o_exists = img.ci_exists;
          o_size = img.ci_size;
          o_attr = img.ci_attr;
          o_acl = img.ci_acl;
          o_table =
            (let a = Array.make (max 4 (Array.length img.ci_table)) Log.none in
             Array.blit img.ci_table 0 a 0 (Array.length img.ci_table);
             a);
          o_entries = [];
          o_seq = img.ci_seq;
          o_created = img.ci_created;
          o_ckpt_addrs = addrs;
          o_ckpt_seq = img.ci_seq;
          o_dirty = 0;
        }
      | None ->
        {
          o_oid = oid;
          o_exists = false;
          o_size = 0;
          o_attr = Bytes.empty;
          o_acl = Bytes.empty;
          o_table = Array.make 4 Log.none;
          o_entries = [];
          o_seq = 0;
          o_created = 0L;
          o_ckpt_addrs = [];
          o_ckpt_seq = 0;
          o_dirty = 0;
        }
    in
    let apply re =
      if re.e.Entry.seq > obj.o_ckpt_seq then begin
        (match re.e.Entry.op with
         | Entry.Create ->
           obj.o_exists <- true;
           obj.o_created <- re.e.Entry.time
         | Entry.Write { new_size; blocks; _ } ->
           List.iter (fun (fb, nw, _) -> table_set obj fb nw) blocks;
           obj.o_size <- new_size
         | Entry.Truncate { new_size; freed; _ } ->
           List.iter (fun (fb, _) -> table_set obj fb Log.none) freed;
           obj.o_size <- new_size
         | Entry.Set_attr { new_attr; _ } -> obj.o_attr <- new_attr
         | Entry.Set_acl { new_acl; _ } -> obj.o_acl <- new_acl
         | Entry.Delete _ -> obj.o_exists <- false
         | Entry.Checkpoint _ -> ()
         | Entry.Relocate { moves } ->
           (* Fix table slots inherited from a pre-relocation
              checkpoint image (later Write entries already carry
              resolved addresses). *)
           List.iter
             (fun (fb, from_, to_) ->
               if fb >= 0 && table_get obj fb = from_ then table_set obj fb to_)
             moves);
        obj.o_seq <- max obj.o_seq re.e.Entry.seq
      end
    in
    List.iter apply ascending;
    obj.o_entries <- List.rev ascending;
    (* Re-mark liveness: journal blocks, checkpoint blocks, current
       table blocks and all superseded (history) blocks of retained
       entries. *)
    List.iter
      (fun re ->
        if re.jaddr <> Log.none then begin
          Log.mark_live log re.jaddr Tag.Journal;
          jref_get t re.jaddr re
        end)
      ascending;
    (match newest_ckpt with
     | Some (_, _, `Pack a) ->
       Log.mark_live log a Tag.Ckpack;
       cpack_note a oid
     | Some (_, _, `Chunks addrs) ->
       List.iter (fun a -> Log.mark_live log a (Tag.Checkpoint { oid })) addrs
     | None -> ());
    let n = nblocks_of t obj.o_size in
    for i = 0 to n - 1 do
      let a = table_get obj i in
      if a <> Log.none then Log.mark_live log a (Tag.Data { oid; fblock = i })
    done;
    List.iter
      (fun re ->
        match re.e.Entry.op with
        | Entry.Write { blocks; _ } ->
          List.iter
            (fun (fb, _, old) -> if old <> Log.none then Log.mark_live log old (Tag.Data { oid; fblock = fb }))
            blocks
        | Entry.Truncate { freed; _ } ->
          List.iter (fun (fb, a) -> Log.mark_live log a (Tag.Data { oid; fblock = fb })) freed
        | _ -> ())
      ascending;
    (* Historical "new" blocks that are no longer current are covered
       by the superseding entry's old pointer; nothing more to mark. *)
    Hashtbl.replace t.objects oid obj
  in
  Hashtbl.iter rebuild per_obj;
  (* A file-backed restart resumes the clock from the last barrier, but
     journal blocks flushed at segment close may carry newer entry
     times. Keep mutation times monotone across the restart. *)
  (let clock = Log.clock log in
   if Int64.compare !tmax (Simclock.now clock) >= 0 then
     Simclock.set clock (Int64.add !tmax 1L));
  t

(* ------------------------------------------------------------------ *)
(* Segment compaction (cleaner mechanism)                              *)

(* Relocation costs each moved block a constant amount of work:
   - a moved data block's table slot is the one its tag names ([check]
     holds table slot i to blocks tagged [fblock = i]), so the table is
     fixed at move time;
   - the old/new pointers of the owners' retained journal entries
     (still-pending ones included, so the on-disk journal is written
     with final addresses) are remapped once per segment, through the
     segment's from -> to map, before anything else reads them. *)
let compact_segment t ~seg ?(on_audit_move = fun _ _ -> ()) () =
  let log = t.log in
  let infos = Log.segments log in
  if seg < 0 || seg >= Array.length infos then invalid_arg "compact_segment: bad segment";
  let info = infos.(seg) in
  if info.Log.seg_state <> Log.Closed then Error "segment not closed"
  else begin
    let victims = Log.seg_live_addrs log seg in
    match victims with
    | [] -> Ok 0
    | (first, _) :: _ ->
      (* One sequential read covers the whole victim span. *)
      let last = List.fold_left (fun acc (a, _) -> max acc a) first victims in
      ignore (Log.read_run log first (last - first + 1));
      let moved = ref 0 in
      let relocations : (oid, (int * addr * addr) list ref) Hashtbl.t = Hashtbl.create 8 in
      let note_move oid fb from_ to_ =
        match Hashtbl.find_opt relocations oid with
        | Some l -> l := (fb, from_, to_) :: !l
        | None -> Hashtbl.replace relocations oid (ref [ (fb, from_, to_) ])
      in
      (* [moved_to.(a - first)] is where data victim [a] went. *)
      let moved_to = Array.make (last - first + 1) Log.none in
      let unmapped = ref false in
      let remap a =
        if a < first || a > last then a
        else
          let m = moved_to.(a - first) in
          if m = Log.none then a else m
      in
      let remap_entries () =
        if !unmapped then begin
          unmapped := false;
          Hashtbl.iter
            (fun oid _ ->
              match Hashtbl.find_opt t.objects oid with
              | Some obj ->
                List.iter
                  (fun re ->
                    let op = Entry.remap remap re.e.Entry.op in
                    if op != re.e.Entry.op then re.e <- { re.e with Entry.op = op })
                  obj.o_entries
              | None -> ())
            relocations
        end
      in
      let move_block ?(force_data = false) addr tag =
        (* Metadata streams (journal, with its audit tails, and
           checkpoints) always carry real on-disk content, even in
           timing-only mode. *)
        let content =
          if t.cfg.keep_data || force_data then Some (Log.peek log addr) else None
        in
        let fresh = Log.append log tag ?data:content () in
        Log.kill log addr;
        Bcache.remove t.bcache addr;
        cache_block t fresh content;
        incr moved;
        fresh
      in
      (* The owner of the current run of data victims, looked up once
         per run. *)
      let run_oid = ref 0L and run_owner = ref None in
      let owner oid =
        match !run_owner with
        | Some _ as o when Int64.equal !run_oid oid -> o
        | _ ->
          let o = Hashtbl.find_opt t.objects oid in
          run_oid := oid;
          run_owner := o;
          o
      in
      let handle (addr, tag) =
        if Log.is_live log addr then
          match tag with
          | Tag.Data { oid; fblock } ->
            (match owner oid with
             | None ->
               (* Orphaned block (owner fully expired): just reclaim. *)
               kill_block t addr
             | Some obj ->
               let fresh = move_block ~force_data:(keeps t oid) addr tag in
               if fblock >= 0 && table_get obj fblock = addr then obj.o_table.(fblock) <- fresh;
               moved_to.(addr - first) <- fresh;
               unmapped := true;
               note_move oid fblock addr fresh)
          | Tag.Journal ->
            let entries =
              match Hashtbl.find_opt t.jback addr with Some l -> !l | None -> []
            in
            let tail = Hashtbl.mem t.tails addr in
            if entries = [] && not tail then kill_block t addr
            else begin
              let fresh = move_block ~force_data:true addr Tag.Journal in
              (match Hashtbl.find_opt t.jrefs addr with
               | Some r ->
                 Hashtbl.remove t.jrefs addr;
                 Hashtbl.replace t.jrefs fresh r
               | None -> ());
              (match Hashtbl.find_opt t.jback addr with
               | Some l ->
                 Hashtbl.remove t.jback addr;
                 Hashtbl.replace t.jback fresh l
               | None -> ());
              List.iter (fun re -> re.jaddr <- fresh) entries;
              if t.last_jaddr = addr then t.last_jaddr <- fresh;
              if tail then begin
                Hashtbl.remove t.tails addr;
                Hashtbl.replace t.tails fresh ();
                on_audit_move addr fresh
              end
            end
          | Tag.Checkpoint { oid } ->
            (match Hashtbl.find_opt t.objects oid with
             | None -> kill_block t addr
             | Some obj ->
               (* Rather than moving a checkpoint image, write a fresh
                  one (kills all the old image blocks, wherever they
                  are). *)
               remap_entries ();
               checkpoint_object_internal t obj;
               incr moved)
          | Tag.Ckpack ->
            (match Hashtbl.find_opt t.cpack_members addr with
             | None -> kill_block t addr
             | Some members ->
               let fresh = move_block ~force_data:true addr Tag.Ckpack in
               (match Hashtbl.find_opt t.cpack_refs addr with
                | Some r ->
                  Hashtbl.remove t.cpack_refs addr;
                  Hashtbl.replace t.cpack_refs fresh r
                | None -> ());
               Hashtbl.remove t.cpack_members addr;
               Hashtbl.replace t.cpack_members fresh members;
               List.iter
                 (fun oid ->
                   match Hashtbl.find_opt t.objects oid with
                   | Some obj ->
                     obj.o_ckpt_addrs <-
                       List.map (fun a -> if a = addr then fresh else a) obj.o_ckpt_addrs
                   | None -> ())
                 !members)
          | Tag.Unknown ->
            (* Not expected among live data slots; reclaim. *)
            kill_block t addr
      in
      List.iter handle victims;
      remap_entries ();
      Hashtbl.iter
        (fun oid moves ->
          match Hashtbl.find_opt t.objects oid with
          | Some obj -> push_entry t obj (Entry.Relocate { moves = !moves })
          | None -> ())
        relocations;
      Ok !moved
  end

(* ------------------------------------------------------------------ *)
(* Invariant checking                                                  *)

let check ?(extra_live = []) t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let expected : (addr, Tag.t) Hashtbl.t = Hashtbl.create 1024 in
  let expect a tag =
    if a <> Log.none then
      if Hashtbl.mem expected a then err "block %d expected live twice" a
      else Hashtbl.replace expected a tag
  in
  Hashtbl.iter
    (fun oid obj ->
      let n = nblocks_of t obj.o_size in
      for i = 0 to n - 1 do
        let a = table_get obj i in
        if a <> Log.none then expect a (Tag.Data { oid; fblock = i })
      done;
      (match obj.o_ckpt_addrs with
       | [ a ] when is_packed t a -> ()  (* accounted via cpack_refs *)
       | addrs -> List.iter (fun a -> expect a (Tag.Checkpoint { oid })) addrs);
      List.iter
        (fun re ->
          List.iter
            (fun a -> expect a (Tag.Data { oid; fblock = -1 }))
            (Entry.superseded_blocks re.e.Entry.op))
        obj.o_entries)
    t.objects;
  Hashtbl.iter (fun a _ -> expect a Tag.Journal) t.jrefs;
  Hashtbl.iter
    (fun a r ->
      let entries = match Hashtbl.find_opt t.jback a with Some l -> List.length !l | None -> 0 in
      let tail = if Hashtbl.mem t.tails a then 1 else 0 in
      if !r <> entries + tail then
        err "journal block %d refcount %d but %d entries and %d audit tails" a !r entries tail)
    t.jrefs;
  Hashtbl.iter (fun a _ -> expect a Tag.Ckpack) t.cpack_refs;
  (* Pack reference counts must match the objects that point at them. *)
  (let computed : (addr, int ref) Hashtbl.t = Hashtbl.create 16 in
   Hashtbl.iter
     (fun _ obj ->
       match obj.o_ckpt_addrs with
       | [ a ] when is_packed t a -> (
         match Hashtbl.find_opt computed a with
         | Some r -> incr r
         | None -> Hashtbl.replace computed a (ref 1))
       | _ -> ())
     t.objects;
   Hashtbl.iter
     (fun a r ->
       let c = match Hashtbl.find_opt computed a with Some c -> !c | None -> 0 in
       if c <> !r then err "pack block %d refcount %d but %d objects point at it" a !r c)
     t.cpack_refs);
  (* The audit trail's blocks are exactly the journal blocks whose tail
     the store holds (expected above as journal blocks). *)
  let owned = Hashtbl.create (List.length extra_live) in
  List.iter
    (fun a ->
      Hashtbl.replace owned a ();
      if not (Hashtbl.mem t.tails a) then err "audit block %d is not a tail the store holds" a)
    extra_live;
  Hashtbl.iter
    (fun a () -> if not (Hashtbl.mem owned a) then err "journal block %d holds an audit tail nobody owns" a)
    t.tails;
  Hashtbl.iter
    (fun a tag ->
      if not (Log.is_live t.log a) then err "block %d (%a) expected live but dead" a Tag.pp tag
      else begin
        match (tag, Log.tag_of t.log a) with
        | Tag.Data { oid; fblock }, Some (Tag.Data d) ->
          if d.oid <> oid then err "block %d belongs to %Ld, expected %Ld" a d.oid oid
          else if fblock >= 0 && d.fblock <> fblock then
            err "block %d fblock %d, expected %d" a d.fblock fblock
        | Tag.Journal, Some Tag.Journal -> ()
        | Tag.Ckpack, Some Tag.Ckpack -> ()
        | Tag.Checkpoint { oid }, Some (Tag.Checkpoint c) ->
          if c.oid <> oid then err "checkpoint block %d oid mismatch" a
        | _, other ->
          err "block %d tag mismatch: expected %a, found %s" a Tag.pp tag
            (match other with Some tg -> Format.asprintf "%a" Tag.pp tg | None -> "none")
      end)
    expected;
  let live = Log.live_blocks t.log in
  let exp = Hashtbl.length expected in
  if live <> exp then err "live block count %d <> expected %d" live exp;
  List.rev !errors

let drop_caches t =
  Bcache.clear t.bcache;
  Ocache.clear t.ocache

let cache_stats t = (Bcache.hits t.bcache, Bcache.misses t.bcache)

let pp_stats ppf t =
  let s = t.s in
  Format.fprintf ppf
    "store: %d ops, %d entries (%d B journal, %d jblocks), %d ckpt blocks, %d data blocks, %dB written, %dB read, expired %d entries/%d blocks/%d objects"
    s.ops s.journal_entries s.journal_bytes s.journal_blocks_written
    s.checkpoint_blocks_written s.data_blocks_written s.bytes_written s.bytes_read
    s.entries_expired s.blocks_expired s.objects_expired
