(* Tests for the tamper-evident audit subsystem: chain codecs,
   the pure verification state machine over synthetic chains, the
   cross-shard catalog, and the crashtest tamper-injection scenarios
   (a real drive, a real persisted log, an attacker with the platter). *)

module Rng = S4_util.Rng
module Bcodec = S4_util.Bcodec
module Chain = S4_integrity.Chain
module Catalog = S4_integrity.Catalog
module Crashtest = S4_tools.Crashtest

let check = Alcotest.check
let qtest = Qseed.qtest

(* --- generators ----------------------------------------------------- *)

let gen_hash = QCheck.Gen.(string_size ~gen:char (return Chain.hash_len))

let gen_head =
  QCheck.Gen.(
    map3
      (fun epoch records hash -> { Chain.epoch; records; hash })
      (0 -- 10_000) (0 -- 1_000_000) gen_hash)

let arb_head = QCheck.make ~print:(Format.asprintf "%a" Chain.pp_head) gen_head

(* A well-formed synthetic chain: [nblocks] blocks of [1..per_block]
   random records each, priors computed honestly, every [seal_every]th
   block sealed (the last block of a flush). Returns the items plus the
   sealed heads in epoch order. *)
let build_chain ~seed ~nblocks ~per_block ~seal_every =
  let rng = Rng.create ~seed in
  let canon () =
    let n = 4 + Rng.int rng 28 in
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.set b i (Char.chr (Rng.int rng 256))
    done;
    b
  in
  let items = ref [] in
  let seals = ref [] in
  let idx = ref 0 in
  let hash = ref Chain.genesis_hash in
  let epoch = ref 0 in
  for k = 0 to nblocks - 1 do
    let canons = List.init (1 + Rng.int rng per_block) (fun _ -> canon ()) in
    let b_start = !idx and b_prior = !hash in
    idx := !idx + List.length canons;
    hash := Chain.extend_all !hash canons;
    let b_seal =
      if (k + 1) mod seal_every = 0 then begin
        incr epoch;
        let h = { Chain.epoch = !epoch; records = !idx; hash = !hash } in
        seals := h :: !seals;
        Some h
      end
      else None
    in
    items := Chain.Block { b_start; b_prior; b_canons = canons; b_seal } :: !items
  done;
  (List.rev !items, List.rev !seals, !idx)

let flip_bit b i bit = Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))

(* --- codecs ---------------------------------------------------------- *)

let prop_head_roundtrip =
  QCheck.Test.make ~name:"head codec round-trips" ~count:300 arb_head (fun h ->
      let w = Bcodec.writer () in
      Chain.write_head w h;
      Chain.equal_head h (Chain.read_head (Bcodec.reader (Bcodec.contents w))))

let gen_result =
  QCheck.Gen.(
    map
      (fun ((records, sealed, epochs), (head, tail), (pruned, first_bad, errors)) ->
        {
          Chain.v_records = records;
          v_sealed = sealed;
          v_epochs = epochs;
          v_head = head;
          v_tail = tail;
          v_pruned = pruned;
          v_first_bad = first_bad;
          v_errors = errors;
        })
      (triple
         (triple (0 -- 100_000) (0 -- 100_000) (0 -- 1000))
         (pair (opt gen_head) (0 -- 1000))
         (triple (0 -- 1000) (-1 -- 50) (list_size (0 -- 8) (string_size (0 -- 60))))))

let prop_result_roundtrip =
  QCheck.Test.make ~name:"verify_result codec round-trips" ~count:300 (QCheck.make gen_result)
    (fun r ->
      let w = Bcodec.writer () in
      Chain.write_result w r;
      let r' = Chain.read_result (Bcodec.reader (Bcodec.contents w)) in
      r = r')

let test_result_codec_bounds () =
  (* A forged error count past the payload must be rejected, not
     allocate or walk off the buffer. *)
  let r =
    {
      Chain.v_records = 1;
      v_sealed = 1;
      v_epochs = 1;
      v_head = None;
      v_tail = 0;
      v_pruned = 0;
      v_first_bad = -1;
      v_errors = [ "x" ];
    }
  in
  let w = Bcodec.writer () in
  Chain.write_result w r;
  match Chain.read_result ~max_errors:0 (Bcodec.reader (Bcodec.contents w)) with
  | _ -> Alcotest.fail "oversized error list accepted"
  | exception Bcodec.Decode_error _ -> ()

(* --- verification over synthetic chains ------------------------------ *)

let prop_clean_chain_verifies =
  QCheck.Test.make ~name:"honest chain verifies clean (and from any sealed head)" ~count:60
    QCheck.(triple small_nat small_nat small_nat)
    (fun (s, nb, se) ->
      let seed = 9000 + s and nblocks = 2 + (nb mod 8) in
      let seal_every = 1 + (se mod 3) in
      let items, seals, total = build_chain ~seed ~nblocks ~per_block:5 ~seal_every in
      let r = Chain.verify items in
      Chain.clean r && r.Chain.v_records = total
      && r.Chain.v_epochs = List.length seals
      && List.for_all (fun h -> Chain.clean (Chain.verify ~from:h items)) seals)

let prop_flip_pinpoints_record =
  (* One bit anywhere in a sealed record: verification must fail and
     v_first_bad must land inside the damaged block's window — after
     the seal preceding the flipped record, no later than the end of
     the block holding it. (The error surfaces either at the covering
     seal's hash check or at the next block's broken prior linkage,
     whichever localizes it.) *)
  QCheck.Test.make ~name:"bit flip in sealed region pinpoints the record" ~count:120
    QCheck.(triple small_nat small_nat small_nat)
    (fun (s, pick, bit) ->
      let seed = 4000 + s in
      let items, seals, _total = build_chain ~seed ~nblocks:6 ~per_block:4 ~seal_every:2 in
      let sealed_limit = (List.nth seals (List.length seals - 1)).Chain.records in
      (* Sealed records as (victim canon, global index, end of its block). *)
      let sealed_canons =
        List.concat_map
          (function
            | Chain.Block b ->
              let bend = b.Chain.b_start + List.length b.Chain.b_canons in
              List.filteri (fun i _ -> b.Chain.b_start + i < sealed_limit) b.Chain.b_canons
              |> List.mapi (fun i c -> (c, b.Chain.b_start + i, bend))
            | _ -> [])
          items
      in
      let victim, victim_idx, block_end =
        List.nth sealed_canons (pick mod List.length sealed_canons)
      in
      let prev_seal =
        List.fold_left
          (fun acc h -> if h.Chain.records <= victim_idx then h.Chain.records else acc)
          0 seals
      in
      flip_bit victim (Rng.int (Rng.create ~seed:(seed + pick)) (Bytes.length victim)) (bit mod 8);
      let r = Chain.verify items in
      (not (Chain.clean r))
      && r.Chain.v_first_bad >= prev_seal
      && r.Chain.v_first_bad <= block_end)

let test_truncation_after_seal_is_tail_loss () =
  (* Drop every block past the newest seal: still clean, tail zero. *)
  let items, seals, _ = build_chain ~seed:77 ~nblocks:7 ~per_block:4 ~seal_every:2 in
  let last = List.nth seals (List.length seals - 1) in
  let truncated =
    List.filter
      (function
        | Chain.Block b -> b.Chain.b_start < last.Chain.records
        | _ -> true)
      items
  in
  let r = Chain.verify truncated in
  check Alcotest.bool "clean" true (Chain.clean r);
  check Alcotest.int "no tail left" 0 r.Chain.v_tail;
  check Alcotest.int "all sealed" last.Chain.records r.Chain.v_sealed;
  let r' = Chain.verify ~from:last truncated in
  check Alcotest.bool "anchor still on chain" true (Chain.clean r')

let test_torn_block_lenient_vs_strict () =
  let items, _, _ = build_chain ~seed:78 ~nblocks:4 ~per_block:4 ~seal_every:4 in
  let with_bad = items @ [ Chain.Bad "audit block at 42 failed to decode" ] in
  let strict = Chain.verify with_bad in
  check Alcotest.bool "strict flags the torn block" false (Chain.clean strict);
  let lenient = Chain.verify ~lenient_tail:true with_bad in
  check Alcotest.bool "lenient reads it as crash tail loss" true (Chain.clean lenient)

let test_missing_block_below_seal_is_error_even_lenient () =
  (* A block missing below the newest sealed block is tampering even
     under a lenient tail: a seal travels in the block with the records
     it covers, so a torn flush can only lose the chain's end. *)
  let items, seals, _ = build_chain ~seed:79 ~nblocks:6 ~per_block:4 ~seal_every:3 in
  let last = List.nth seals (List.length seals - 1) in
  let below = function
    | Chain.Block b -> b.Chain.b_start + List.length b.Chain.b_canons < last.Chain.records
    | Chain.Bad _ -> false
  in
  let below_seal = List.filter below items in
  let victim = List.nth below_seal (List.length below_seal - 1) in
  let r = Chain.verify ~lenient_tail:true (List.filter (fun i -> i != victim) items) in
  check Alcotest.bool "missing block detected" false (Chain.clean r)

let test_rollback_detected () =
  let items, seals, _ = build_chain ~seed:80 ~nblocks:4 ~per_block:4 ~seal_every:2 in
  let future =
    { Chain.epoch = 99; records = 10_000; hash = Chain.extend Chain.genesis_hash (Bytes.create 1) }
  in
  let r = Chain.verify ~from:future items in
  check Alcotest.bool "rollback detected" false (Chain.clean r);
  ignore seals

(* --- catalog --------------------------------------------------------- *)

let gen_entry =
  QCheck.Gen.(
    map2
      (fun (shard, replica, head) at -> { Catalog.shard; replica; head; at })
      (map3 (fun s r h -> (s, r, h)) (0 -- 64) (0 -- 3) gen_head)
      (map Int64.of_int (0 -- 1_000_000)))

let prop_catalog_roundtrip =
  QCheck.Test.make ~name:"catalog codec round-trips" ~count:200
    (QCheck.make QCheck.Gen.(list_size (0 -- 12) gen_entry))
    (fun entries -> Catalog.decode (Catalog.encode entries) = Some entries)

let test_catalog_reject_garbage () =
  check Alcotest.bool "empty" true (Catalog.decode Bytes.empty = None);
  check Alcotest.bool "noise" true (Catalog.decode (Bytes.make 64 '\xAB') = None);
  let good = Catalog.encode [ { Catalog.shard = 1; replica = 0; head = Chain.genesis; at = 7L } ] in
  let torn = Bytes.sub good 0 (Bytes.length good - 3) in
  check Alcotest.bool "torn" true (Catalog.decode torn = None)

let test_catalog_check_statuses () =
  let h epoch records tag =
    { Chain.epoch; records; hash = S4_util.Sha256.digest_string tag }
  in
  let cat = h 5 100 "a" in
  check Alcotest.bool "consistent" true (Catalog.check ~catalog:cat ~member:cat = Catalog.Consistent);
  check Alcotest.bool "stale catalog" true
    (Catalog.check ~catalog:cat ~member:(h 7 140 "b") = Catalog.Stale_catalog);
  check Alcotest.bool "rolled back" true
    (Catalog.check ~catalog:cat ~member:(h 3 60 "c") = Catalog.Rolled_back);
  check Alcotest.bool "forked" true
    (Catalog.check ~catalog:cat ~member:(h 5 100 "d") = Catalog.Forked)

let test_catalog_find_set () =
  let e = Catalog.set [] ~shard:2 ~replica:1 ~at:10L Chain.genesis in
  let h2 = { Chain.epoch = 3; records = 9; hash = Chain.genesis_hash } in
  let e = Catalog.set e ~shard:2 ~replica:1 ~at:20L h2 in
  check Alcotest.int "replace not append" 1 (List.length e);
  check Alcotest.bool "find updated" true (Catalog.find e ~shard:2 ~replica:1 = Some h2);
  check Alcotest.bool "stamp updated" true
    ((Catalog.find_entry e ~shard:2 ~replica:1 |> Option.get).Catalog.at = 20L);
  check Alcotest.bool "miss" true (Catalog.find e ~shard:0 ~replica:0 = None)

let test_catalog_prune_ages_floors () =
  (* Floors for departed members age out of the detection window;
     live members' floors survive any age. *)
  let h tag = { Chain.epoch = 1; records = 4; hash = S4_util.Sha256.digest_string tag } in
  let e =
    Catalog.set
      (Catalog.set (Catalog.set [] ~shard:0 ~replica:0 ~at:100L (h "live-old")) ~shard:1 ~replica:0
         ~at:100L (h "gone-old"))
      ~shard:2 ~replica:0 ~at:900L (h "gone-new")
  in
  let live ~shard ~replica = shard = 0 && replica = 0 in
  let pruned = Catalog.prune e ~now:1000L ~window:500L ~live in
  check Alcotest.bool "old live floor kept" true
    (Catalog.find pruned ~shard:0 ~replica:0 <> None);
  check Alcotest.bool "old departed floor pruned" true
    (Catalog.find pruned ~shard:1 ~replica:0 = None);
  check Alcotest.bool "in-window departed floor kept" true
    (Catalog.find pruned ~shard:2 ~replica:0 <> None)

(* --- tamper injection on a real drive -------------------------------- *)

let tamper_case t () =
  let detected, errors = Crashtest.tamper_run ~seed:31 t in
  if not detected then
    Alcotest.failf "%s not detected (errors: %s)" (Crashtest.tamper_name t)
      (String.concat "; " errors)

let test_tamper_control () =
  let detected, errors = Crashtest.tamper_clean ~seed:31 in
  if detected then Alcotest.failf "clean run flagged: %s" (String.concat "; " errors)

(* --- verification through the cleaner --------------------------------- *)

module Rpc = S4.Rpc
module Drive = S4.Drive
module Audit = S4.Audit
module Backend = S4.Backend
module Router = S4_shard.Router
module Mirror = S4_multi.Mirror
module Simclock = S4_util.Simclock
module Sim_disk = S4_disk.Sim_disk
module Geometry = S4_disk.Geometry
module Log = S4_seglog.Log
module Tag = S4_seglog.Tag
module Store = S4_store.Obj_store

let content_drive ?(mb = 256) clock =
  Drive.format ~config:S4_workload.Systems.content_drive_config
    (Sim_disk.create ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)) clock)

let mirrored_array ?mb () =
  let clock = Simclock.create () in
  Router.create
    (List.init 2 (fun i -> (i, Router.Mirrored (Mirror.create (content_drive ?mb clock) (content_drive ?mb clock)))))

let array_members router =
  List.map (fun (sid, ri, d) -> (Printf.sprintf "shard %d/%d" sid ri, d)) (Router.members router)

(* A copy of the platter, as a crash at this instant would leave it.
   Unwritten runs stay unwritten, so a copy costs what the disk holds. *)
let copy_disk disk =
  let copy = Sim_disk.create ~geometry:(Sim_disk.geometry disk) (Simclock.create ()) in
  let sectors = Sim_disk.capacity_sectors disk in
  let rec go lba =
    if lba < sectors then begin
      let n = min 2048 (sectors - lba) in
      let data = Sim_disk.peek disk ~lba ~sectors:n in
      if Bytes.exists (fun c -> c <> '\000') data then Sim_disk.poke copy ~lba ~data;
      go (lba + n)
    end
  in
  go 0;
  Sim_disk.set_saved_head copy (Sim_disk.saved_head disk);
  copy

(* Recovery reads a segment that was reclaimed and reopened, and has
   not closed since, through the summary of its previous use, and so
   misses the blocks written in it (a store-side defect, ROADMAP item
   1, that these tests do not target). So a crash copy is taken once
   [write n] for n = 0, 1, ..., each synced, has closed the segment open
   now: un-audited store writes, so the audit blocks to compare all sit
   in closed segments. *)
let close_open_segment d write =
  let log = Drive.log d in
  match List.find_opt (fun i -> i.Log.seg_state = Log.Open) (Array.to_list (Log.segments log)) with
  | None -> ()
  | Some i ->
    let open_still () =
      let now = (Log.segments log).(i.Log.seg_index) in
      now.Log.seg_state = Log.Open && now.Log.seg_epoch = i.Log.seg_epoch
    in
    let rec fill n =
      if open_still () then begin
        write n;
        Store.sync (Drive.store d);
        fill (n + 1)
      end
    in
    fill 0

(* Fill [d]'s open segment with writes to the first of [oids] its store
   holds (see [close_open_segment]). *)
let close_with_filler d oids =
  let st = Drive.store d in
  let oid = List.find (fun oid -> Store.exists st oid) oids in
  let data = Bytes.make (64 * 1024) 'f' in
  close_open_segment d (fun n -> Store.write st oid ~off:(n mod 16 * 64 * 1024) ~data ~len:(Bytes.length data) ())

(* Attach a crash copy of [d]'s disk, taken after a barrier: it must
   read back the live drive's records, verify clean, and come up not
   degraded. One exception is the store's, not the audit trail's:
   recovery replays dead journal blocks, and an aged-out entry can name
   a slot that has since been reused for an audit block, which the
   store's recovery then re-tags as its own data (ROADMAP item 1).
   Audit recovery cannot see such a block; its records
   must be the only ones missing, and the walk's only complaint the
   gaps they leave. *)
let check_crash_copy ?(config = S4_workload.Systems.content_drive_config) what d =
  let d2 = Drive.attach ~config (copy_disk (Log.disk (Drive.log d))) in
  let taken, seen =
    List.partition
      (fun a -> match Log.tag_of (Drive.log d2) a with Some (Tag.Data _) -> true | _ -> false)
      (List.rev (Audit.block_addrs (Drive.audit d)))
  in
  let records_of addrs =
    List.concat_map
      (fun a -> (Option.get (Audit.decode_block (Log.peek (Drive.log d) a))).Audit.records)
      addrs
  in
  check Alcotest.int (what ^ ": live trail") (List.length (Audit.records (Drive.audit d) ()))
    (List.length (records_of (taken @ seen)));
  (match Drive.handle d2 Rpc.admin_cred (Rpc.Read_audit { since = 0L; until = Int64.max_int }) with
   | Rpc.R_audit rs ->
     let live = records_of seen in
     check Alcotest.int (what ^ ": recovered records") (List.length live) (List.length rs);
     check Alcotest.bool (what ^ ": the live drive's records") true (rs = live)
   | r -> Alcotest.failf "%s: read_audit: %a" what Rpc.pp_resp r);
  (match Drive.handle d2 Rpc.admin_cred (Rpc.Verify_log { from = None }) with
   | Rpc.R_verify v ->
     let gap e = String.starts_with ~prefix:"chain: records [" e in
     check Alcotest.(list string) (what ^ ": verify") []
       (List.filter (fun e -> taken = [] || not (gap e)) v.Chain.v_errors)
   | r -> Alcotest.failf "%s: verify: %a" what Rpc.pp_resp r);
  if taken = [] then check Alcotest.bool (what ^ ": not degraded") false (Drive.degraded d2)

let barrier (b : Backend.t) =
  match b.Backend.submit Rpc.admin_cred ~sync:true [||] with
  | [||] -> ()
  | _ -> Alcotest.fail "empty batch answered"

(* Sync batches of eight 64 KB overwrites of 16 objects under a 5 s
   detection window; every 25 batches [pass batch] runs (and cleans),
   and the run stops once it returns true or after [batches]. Returns
   the objects. *)
let cleaned_batches (b : Backend.t) ~batches ~pass =
  let cred = Rpc.user_cred ~user:1 ~client:1 in
  let objects = 16 and chunk = 64 * 1024 in
  let oids =
    Array.map
      (function Rpc.R_oid oid -> oid | r -> Alcotest.failf "create: %a" Rpc.pp_resp r)
      (b.Backend.submit cred ~sync:true (Array.make objects (Rpc.Create { acl = [] })))
  in
  (match Backend.handle b Rpc.admin_cred ~sync:true (Rpc.Set_window { window = 5_000_000_000L }) with
   | Rpc.R_unit -> ()
   | r -> Alcotest.failf "set_window: %a" Rpc.pp_resp r);
  let payload = Bytes.make chunk 'p' in
  let rec go batch =
    if batch <= batches then begin
      let reqs =
        Array.init 8 (fun i ->
            Rpc.Write { oid = oids.(((batch * 8) + i) mod objects); off = 0; len = chunk; data = Some payload })
      in
      Array.iter
        (function Rpc.R_unit -> () | r -> Alcotest.failf "batch %d: %a" batch Rpc.pp_resp r)
        (b.Backend.submit cred ~sync:true reqs);
      if not (batch mod 25 = 0 && pass batch) then go (batch + 1)
    end
  in
  go 1;
  Array.to_list oids

(* Verify_log after each of the 400 batches' cleaner passes. Expired
   audit blocks stay tagged in segments that still hold live data, so
   a verifier walking every tagged block sees the chain's old tail come
   and go with cleaning and reports "records missing". Returns the
   batches whose check failed, with the first error. *)
let verify_through_cleaner (b : Backend.t) ~clean =
  let failures = ref [] in
  ignore @@ cleaned_batches b ~batches:400 ~pass:(fun batch ->
      clean ();
      (match Backend.handle b Rpc.admin_cred (Rpc.Verify_log { from = None }) with
       | Rpc.R_verify v when Chain.clean v -> ()
       | Rpc.R_verify v ->
         failures := (batch, String.concat "; " (List.filteri (fun i _ -> i < 1) v.Chain.v_errors)) :: !failures
       | r -> Alcotest.failf "verify: %a" Rpc.pp_resp r);
      false);
  List.rev !failures

let pp_failures = Alcotest.(list (pair int string))

(* After the run, a crash copy of every member must restart with
   exactly the live trail: not the blocks expiry dropped, nor both
   copies of a block the cleaner relocated. *)
let verify_and_attach_after_cleaning b ~clean members =
  check pp_failures "every check clean" [] (verify_through_cleaner b ~clean);
  barrier b;
  List.iter (fun (what, d) -> check_crash_copy what d) members

let test_cleaner_verify_drive () =
  let d = content_drive (Simclock.create ()) in
  verify_and_attach_after_cleaning (Drive.backend d)
    ~clean:(fun () -> ignore (Drive.run_cleaner d))
    [ ("drive", d) ]

let test_cleaner_verify_mirrored_array () =
  let router = mirrored_array () in
  verify_and_attach_after_cleaning (Router.backend router)
    ~clean:(fun () -> Router.run_cleaners router)
    (array_members router)

(* A cleaner pass drops audit blocks; writes go on until a reclaimed
   segment that held one of them is reused and has closed again, and
   only then is the crash copy taken. The copy must not bring the
   dropped blocks back, whatever of them the reused segment still
   holds. (A segment reclaimed and reopened that has not closed since
   is read at recovery through its previous summary, which loses the
   blocks written in it since — a store-side defect this test does not
   target — hence the wait for the close.) *)
let crash_after_expiry b ~clean members =
  let live_audit d =
    let log = Drive.log d in
    List.map
      (fun a ->
        let seg = Log.seg_of log a in
        (seg, (Log.segments log).(seg).Log.seg_epoch, Log.peek log a))
      (Audit.block_addrs (Drive.audit d))
  in
  (* Segments, as (drive, index, epoch), that held a dropped block. *)
  let targets = ref [] in
  let reused () =
    List.exists
      (fun (d, seg, epoch) ->
        let i = (Log.segments (Drive.log d)).(seg) in
        i.Log.seg_state = Log.Closed && i.Log.seg_epoch <> epoch)
      !targets
  in
  let oids =
    cleaned_batches b ~batches:2000 ~pass:(fun _ ->
      reused ()
      ||
      let before = List.map (fun (_, d) -> (d, live_audit d)) members in
      clean ();
      List.iter
        (fun (d, blocks) ->
          let now = List.map (fun (_, _, bytes) -> bytes) (live_audit d) in
          List.iter
            (fun (seg, epoch, bytes) ->
              if not (List.mem bytes now) then targets := (d, seg, epoch) :: !targets)
            blocks)
        before;
      false)
  in
  check Alcotest.bool "a segment that held a dropped audit block was reused" true (reused ());
  barrier b;
  List.iter (fun (_, d) -> close_with_filler d oids) members;
  List.iter (fun (what, d) -> check_crash_copy what d) members

let test_crash_after_expiry_drive () =
  let d = content_drive ~mb:128 (Simclock.create ()) in
  crash_after_expiry (Drive.backend d) ~clean:(fun () -> ignore (Drive.run_cleaner d)) [ ("drive", d) ]

let test_crash_after_expiry_mirrored_array () =
  let router = mirrored_array ~mb:64 () in
  crash_after_expiry (Router.backend router)
    ~clean:(fun () -> Router.run_cleaners router)
    (array_members router)

(* --- one barrier, one audit block ------------------------------------- *)

let audit_slots d =
  List.length (List.filter (fun (_, tag) -> tag = Tag.Audit) (Log.all_tagged (Drive.log d)))

(* A synced batch whose records fit one block appends exactly one
   audit block to every member drive that recorded it (the seal rides
   in that block), and a barrier with nothing new appends none. *)
let one_block_per_barrier (b : Backend.t) members =
  let cred = Rpc.user_cred ~user:1 ~client:1 in
  let oids =
    Array.map
      (function Rpc.R_oid oid -> oid | r -> Alcotest.failf "create: %a" Rpc.pp_resp r)
      (b.Backend.submit cred ~sync:true (Array.make 8 (Rpc.Create { acl = [] })))
  in
  let counts () = List.map (fun (_, d) -> (audit_slots d, Audit.record_count (Drive.audit d))) members in
  let c0 = counts () in
  ignore
    (b.Backend.submit cred ~sync:true
       (Array.map (fun oid -> Rpc.Write { oid; off = 0; len = 64; data = Some (Bytes.make 64 'w') }) oids));
  let c1 = counts () in
  List.iter2
    (fun ((what, _), (slots0, records0)) (slots1, records1) ->
      check Alcotest.int (what ^ ": audit blocks per synced batch")
        (if records1 > records0 then 1 else 0)
        (slots1 - slots0))
    (List.combine members c0) c1;
  check Alcotest.bool "some member recorded the batch" true
    (List.exists2 (fun (_, r0) (_, r1) -> r1 > r0) c0 c1);
  barrier b;
  List.iter2
    (fun ((what, _), (slots1, _)) (slots2, _) ->
      check Alcotest.int (what ^ ": audit blocks per empty barrier") 0 (slots2 - slots1))
    (List.combine members c1) (counts ())

let test_one_block_per_barrier_drive () =
  let d = content_drive (Simclock.create ()) in
  one_block_per_barrier (Drive.backend d) [ ("drive", d) ]

let test_one_block_per_barrier_mirrored_array () =
  let router = mirrored_array () in
  one_block_per_barrier (Router.backend router) (array_members router)

(* --- compaction differential ----------------------------------------- *)


(* Every object's contents at every instant in [instants], [None] where
   it did not exist. *)
let contents ?oids st instants =
  List.concat_map
    (fun oid ->
      List.map
        (fun at ->
          let v =
            if Store.exists st ~at oid then
              Some (Bytes.to_string (Store.read st ~at oid ~off:0 ~len:(Store.size st ~at oid)))
            else None
          in
          (oid, at, v))
        instants)
    (Option.value oids ~default:(Store.list_all st))

let journals st = List.map (fun oid -> (oid, Store.journal st oid)) (Store.list_all st)

(* The closed segments a cleaner pass may compact that hold data and a
   checkpoint image of one owner side by side, audit blocks, and sealed
   audit blocks, each as (index, epoch). *)
let victim_kinds d =
  let log = Drive.log d in
  let usable = float_of_int (Log.blocks_per_segment log - 1) in
  let shared = ref [] and audit = ref [] and sealed = ref [] in
  Array.iter
    (fun i ->
      let ratio = float_of_int i.Log.seg_live /. usable in
      if i.Log.seg_state = Log.Closed && ratio > 0.0 && ratio < 0.9 then begin
        let id = (i.Log.seg_index, i.Log.seg_epoch) in
        let note l = if not (List.mem id !l) then l := id :: !l in
        let live = Log.seg_live_addrs log i.Log.seg_index in
        List.iter
          (fun (a, tag) ->
            match tag with
            | Tag.Checkpoint { oid } ->
              if List.exists (function _, Tag.Data { oid = o; _ } -> Int64.equal o oid | _ -> false) live
              then note shared
            | Tag.Audit -> (
              note audit;
              match Audit.decode_block (Log.peek log a) with
              | Some { Audit.seal = Some _; _ } -> note sealed
              | _ -> ())
            | _ -> ())
          live
      end)
    (Log.segments log);
  (!shared, !audit, !sealed)

(* Whether a pass emptied one of [segs]: no live block left, or the
   segment was reclaimed (and perhaps reopened). *)
let compacted d segs =
  let infos = Log.segments (Drive.log d) in
  List.exists (fun (i, epoch) -> infos.(i).Log.seg_live = 0 || infos.(i).Log.seg_epoch <> epoch) segs

(* Writes, overwrites, truncates and deletes on a content-retaining
   drive under a 2 s window, with a cleaner pass after every round.
   Each pass must leave every read at every retained instant as it
   was, [fsck] and [Verify_log] clean, and a crash image that recovers
   the same objects, journals and versions inside the window. One
   object is large enough (600 blocks) for its checkpoint image to
   take dedicated chunks, written next to its data; the test fails
   unless some pass emptied a segment holding such a pair, and
   segments holding audit blocks and sealed audit blocks. Each round's
   crash image must also read back the live drive's audit trail. *)
let test_compaction_differential () =
  let clock = Simclock.create () in
  let disk =
    Sim_disk.create ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(48 * 1024 * 1024)) clock
  in
  let config =
    {
      S4_workload.Systems.content_drive_config with
      window = 2_000_000_000L;
      cleaner_live_threshold = 0.9;
      cleaner_max_segments = 64;
    }
  in
  let d = Drive.format ~config disk in
  let st = Drive.store d in
  let cred = Rpc.admin_cred in
  let rng = Rng.create ~seed:2024 in
  let unit_resp what = function
    | Rpc.R_unit -> ()
    | r -> Alcotest.failf "%s: %a" what Rpc.pp_resp r
  in
  let create () =
    match Drive.handle d cred (Rpc.Create { acl = [] }) with
    | Rpc.R_oid oid -> oid
    | r -> Alcotest.failf "create: %a" Rpc.pp_resp r
  in
  let bs = 4096 in
  let big = create () in
  let live = ref (List.init 6 (fun _ -> create ())) in
  let write oid ~off ~len =
    let data = Bytes.init len (fun _ -> Char.chr (97 + Rng.int rng 26)) in
    unit_resp "write" (Drive.handle d cred (Rpc.Write { oid; off; len; data = Some data }))
  in
  write big ~off:0 ~len:(600 * bs);
  let filler = create () in
  let instants = ref [] in
  let seen_shared = ref false and seen_audit = ref false and seen_sealed = ref false in
  for round = 1 to 24 do
    for step = 1 to 30 do
      let oid = List.nth !live (Rng.int rng (List.length !live)) in
      (match Rng.int rng 10 with
       | 0 -> unit_resp "truncate" (Drive.handle d cred (Rpc.Truncate { oid; size = Rng.int rng (8 * bs) }))
       | 1 when List.length !live > 3 ->
         unit_resp "delete" (Drive.handle d cred (Rpc.Delete { oid }));
         live := create () :: List.filter (fun o -> not (Int64.equal o oid)) !live
       | _ -> write oid ~off:(Rng.int rng (6 * bs)) ~len:(1 + Rng.int rng (3 * bs)));
      (* The large object's overwrites dirty its metadata until an
         image is due. *)
      write big ~off:(Rng.int rng 600 * bs) ~len:bs;
      check Alcotest.bool "barrier" true (Drive.barrier d = None);
      if step mod 3 = 0 then instants := Simclock.now clock :: !instants;
      Simclock.advance clock 20_000_000L
    done;
    let shared, audit, sealed = victim_kinds d in
    let cutoff_before = Drive.detection_cutoff d in
    let retained = List.filter (fun at -> Int64.compare at cutoff_before >= 0) !instants in
    let before = contents st retained in
    ignore (Drive.run_cleaner d);
    seen_shared := !seen_shared || compacted d shared;
    seen_audit := !seen_audit || compacted d audit;
    seen_sealed := !seen_sealed || compacted d sealed;
    let cutoff = Drive.detection_cutoff d in
    let still = List.filter (fun (_, at, _) -> Int64.compare at cutoff >= 0) before in
    let after = contents st (List.filter (fun at -> Int64.compare at cutoff >= 0) retained) in
    (* An object whose delete aged out is gone; it must not have
       existed at any retained instant. *)
    let still =
      List.filter
        (fun (oid, _, v) -> List.mem oid (Store.list_all st) || v <> None)
        still
    in
    if still <> after then Alcotest.failf "round %d: a retained version changed" round;
    check Alcotest.(list string) (Printf.sprintf "round %d fsck" round) [] (Drive.fsck d);
    (match Drive.handle d cred (Rpc.Verify_log { from = None }) with
     | Rpc.R_verify v -> check Alcotest.(list string) (Printf.sprintf "round %d verify" round) [] v.Chain.v_errors
     | r -> Alcotest.failf "verify: %a" Rpc.pp_resp r);
    check Alcotest.bool "barrier after pass" true (Drive.barrier d = None);
    (* The filler's own newest entries are not compared (see
       [close_open_segment]). *)
    close_open_segment d (fun n ->
        let len = 16 * bs in
        let data = Bytes.init len (fun _ -> Char.chr (97 + Rng.int rng 26)) in
        Store.write st filler ~off:(n mod 64 * len) ~data ~len ());
    check_crash_copy ~config (Printf.sprintf "round %d" round) d;
    let d2 = Drive.attach ~config (copy_disk disk) in
    let st2 = Drive.store d2 in
    let window_journals st =
      List.filter_map
        (fun (oid, es) ->
          if Int64.equal oid filler then None
          else Some (oid, List.filter (fun (e : S4_store.Entry.t) -> Int64.compare e.time cutoff >= 0) es))
        (journals st)
    in
    (* Recovery also decodes dead journal blocks that no pass has
       reclaimed yet, so it can bring back objects and entries that
       aged out; only what lies inside the window must match. *)
    let recovered = List.filter (fun oid -> List.mem oid (Store.list_all st)) (Store.list_all st2) in
    check Alcotest.(list int64) (Printf.sprintf "round %d objects" round) (Store.list_all st) recovered;
    if contents ~oids:recovered st2 (List.filter (fun at -> Int64.compare at cutoff >= 0) retained) <> after then
      Alcotest.failf "round %d: a recovered version differs" round;
    if window_journals st <> List.filter (fun (oid, _) -> List.mem oid recovered) (window_journals st2) then
      Alcotest.failf "round %d: recovered journals differ" round
  done;
  check Alcotest.bool "compacted data and a checkpoint image of one owner" true !seen_shared;
  check Alcotest.bool "compacted audit blocks" true !seen_audit;
  check Alcotest.bool "compacted sealed audit blocks" true !seen_sealed

let () =
  Alcotest.run "s4_integrity"
    [
      ( "codec",
        [
          qtest prop_head_roundtrip;
          qtest prop_result_roundtrip;
          Alcotest.test_case "error-count bound enforced" `Quick test_result_codec_bounds;
        ] );
      ( "verify",
        [
          qtest prop_clean_chain_verifies;
          qtest prop_flip_pinpoints_record;
          Alcotest.test_case "truncation after last seal = tail loss" `Quick
            test_truncation_after_seal_is_tail_loss;
          Alcotest.test_case "torn block: strict fails, lenient passes" `Quick
            test_torn_block_lenient_vs_strict;
          Alcotest.test_case "block missing below a seal fails lenient" `Quick
            test_missing_block_below_seal_is_error_even_lenient;
          Alcotest.test_case "anchor beyond log = rollback" `Quick test_rollback_detected;
        ] );
      ( "catalog",
        [
          qtest prop_catalog_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_catalog_reject_garbage;
          Alcotest.test_case "check statuses" `Quick test_catalog_check_statuses;
          Alcotest.test_case "find/set" `Quick test_catalog_find_set;
          Alcotest.test_case "pruning ages departed floors" `Quick test_catalog_prune_ages_floors;
        ] );
      ( "tamper",
        [
          Alcotest.test_case "rewrite detected" `Quick (tamper_case Crashtest.Rewrite);
          Alcotest.test_case "drop detected" `Quick (tamper_case Crashtest.Drop);
          Alcotest.test_case "reorder detected" `Quick (tamper_case Crashtest.Reorder);
          Alcotest.test_case "fork detected" `Quick (tamper_case Crashtest.Fork);
          Alcotest.test_case "clean control" `Quick test_tamper_control;
        ] );
      ( "cleaner",
        [
          Alcotest.test_case "drive verifies clean between cleaner passes" `Quick
            test_cleaner_verify_drive;
          Alcotest.test_case "mirrored array verifies clean between cleaner passes" `Quick
            test_cleaner_verify_mirrored_array;
          Alcotest.test_case "compaction differential" `Quick test_compaction_differential;
          Alcotest.test_case "drive crash after expiry" `Quick test_crash_after_expiry_drive;
          Alcotest.test_case "mirrored array crash after expiry" `Quick test_crash_after_expiry_mirrored_array;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "drive: one audit block per synced batch" `Quick test_one_block_per_barrier_drive;
          Alcotest.test_case "array: one audit block per synced batch" `Quick
            test_one_block_per_barrier_mirrored_array;
        ] );
    ]
