module Rpc = S4.Rpc
module Drive = S4.Drive
module Audit = S4.Audit
module Acl = S4.Acl
module Fault = S4_disk.Fault
module Chain = S4_integrity.Chain
module Catalog = S4_integrity.Catalog
module Store = S4_store.Obj_store
module Sim_disk = S4_disk.Sim_disk
module Log = S4_seglog.Log
module Simclock = S4_util.Simclock
module Mirror = S4_multi.Mirror
module Shard_domain = S4_multi.Shard_domain
module Trace = S4_obs.Trace

type member = Single of Drive.t | Mirrored of Mirror.t

type shard = {
  sh_id : int;
  sh_member : member;
  mutable sh_degraded : bool;
  mutable sh_io_errors : int;
  mutable sh_ops : int;
}

type migration = { m_oid : int64; m_src : int; m_dst : int }

type t = {
  clock : Simclock.t;
  ring : Ring.t;
  shards : (int, shard) Hashtbl.t;
  mutable order : int list;  (* shard ids, ascending *)
  (* The meta shard is the first member passed to create/attach — not
     necessarily the smallest id. *)
  meta : int;
  mutable next_oid : int64;
  mutable pending_oid : int64 option;
  forward : (int64, int) Hashtbl.t;  (* oid -> pre-cutover holder *)
  mutable migrations : migration list;  (* FIFO *)
  private_oids : (int64, unit) Hashtbl.t;  (* per-drive ptable objects *)
  mutable catalog_oid : int64 option;  (* meta-shard integrity catalog *)
  mutable catalog_cache : Catalog.entry list option;  (* last written *)
  pmount_cache : (string, int64) Hashtbl.t;
  mutable ops : int;
  mutable migrated_objects : int;
  mutable migrated_entries : int;
  mutable migrated_bytes : int;
  mutable trace_tok : int;  (* open router span, or Trace.null *)
  mutable read_overlap : bool;  (* batch reads charge as parallel work *)
  mutable domains : int;  (* worker-domain knob; <= 1 means serial *)
  mutable pool : Shard_domain.t option;  (* lazily built worker pool *)
}

let member_drives = function
  | Single d -> [ d ]
  | Mirrored m -> [ Mirror.drive m Mirror.Primary; Mirror.drive m Mirror.Secondary ]

let shard_drives sh = member_drives sh.sh_member
let shard_disks sh = List.map (fun d -> Log.disk (Drive.log d)) (shard_drives sh)

(* The store(s) the shard mutates. *)
let shard_stores sh = List.map Drive.store (shard_drives sh)

(* The authoritative store reads (and migration exports) come from:
   for a mirror, the live up-to-date replica — the secondary once the
   primary has failed or is lagging behind the missed-op journal. *)
let shard_store sh =
  match sh.sh_member with
  | Single d -> Drive.store d
  | Mirrored m ->
    let r =
      if Mirror.is_failed m Mirror.Primary || Mirror.lagging m = Some Mirror.Primary then
        Mirror.Secondary
      else Mirror.Primary
    in
    Drive.store (Mirror.drive m r)

let shard t id =
  match Hashtbl.find_opt t.shards id with
  | Some sh -> sh
  | None -> invalid_arg (Printf.sprintf "Router: no shard %d" id)

let shards t = List.map (shard t) t.order
let shard_ids t = t.order
let meta_shard t = t.meta
let clock t = t.clock
let ops_handled t = t.ops
let member t id = (shard t id).sh_member
let set_read_overlap t v = t.read_overlap <- v
let read_overlap t = t.read_overlap

(* --- per-shard worker domains ------------------------------------- *)

let close_domains t =
  match t.pool with
  | Some p ->
    Shard_domain.close p;
    t.pool <- None
  | None -> ()

let set_domains t n =
  let n = max 1 n in
  if n <> t.domains then begin
    (* Pool size depends on the knob; rebuild lazily at next dispatch. *)
    close_domains t;
    t.domains <- n
  end

let domains t = t.domains

(* The pool that parallel dispatch should use right now, if any. Built
   on first use so a router whose knob stays at 1 never spawns a
   domain. One worker per shard up to the knob; shard [id] is pinned
   to worker [id mod size], so each shard's drive stack is only ever
   touched by one domain. *)
let active_pool t =
  if t.domains <= 1 || List.length t.order <= 1 then None
  else
    match t.pool with
    | Some p -> Some p
    | None ->
      let p = Shard_domain.create (min t.domains (List.length t.order)) in
      t.pool <- Some p;
      Some p

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

(* Every member disk runs in phantom mode permanently: the shards of
   the array are physically parallel devices, so a request only costs
   the shared clock the service time of the slowest member it touched
   (see [charge]). Mirror secondaries were already phantom; making the
   whole array phantom subsumes that. *)
let set_all_phantom t =
  List.iter (fun sh -> List.iter (fun d -> Sim_disk.set_phantom d true) (shard_disks sh)) (shards t)

let install_allocator t sh =
  List.iter
    (fun st ->
      Store.set_oid_allocator st
        (Some
           (fun () ->
             match t.pending_oid with
             | Some g -> g
             | None -> invalid_arg "Router: drive-local create bypasses the array oid space")))
    (shard_stores sh)

let register t id m =
  if Hashtbl.mem t.shards id then invalid_arg "Router: duplicate shard id";
  let sh = { sh_id = id; sh_member = m; sh_degraded = false; sh_io_errors = 0; sh_ops = 0 } in
  List.iter
    (fun d ->
      if not (Drive.clock d == t.clock) then
        invalid_arg "Router: all member drives must share one Simclock";
      Hashtbl.replace t.private_oids (Drive.ptable_oid d) ())
    (member_drives m);
  Hashtbl.replace t.shards id sh;
  t.order <- List.sort compare (id :: t.order);
  List.iter
    (fun st -> if Int64.compare (Store.next_oid st) t.next_oid > 0 then t.next_oid <- Store.next_oid st)
    (shard_stores sh);
  install_allocator t sh;
  List.iter (fun d -> Sim_disk.set_phantom d true) (shard_disks sh);
  sh

let create_raw ?vnodes members =
  match members with
  | [] -> invalid_arg "Router.create: need at least one shard"
  | (_, m0) :: _ ->
    let clock = Drive.clock (List.hd (member_drives m0)) in
    let t =
      {
        clock;
        ring = Ring.create ?vnodes ();
        shards = Hashtbl.create 8;
        order = [];
        meta = fst (List.hd members);
        next_oid = 1L;
        pending_oid = None;
        forward = Hashtbl.create 64;
        migrations = [];
        private_oids = Hashtbl.create 8;
        catalog_oid = None;
        catalog_cache = None;
        pmount_cache = Hashtbl.create 16;
        ops = 0;
        migrated_objects = 0;
        migrated_entries = 0;
        migrated_bytes = 0;
        trace_tok = Trace.null;
        read_overlap = false;
        domains = 1;
        pool = None;
      }
    in
    List.iter (fun (id, m) -> ignore (register t id m)) members;
    List.iter (fun id -> Ring.add t.ring id) t.order;
    t

(* ------------------------------------------------------------------ *)
(* Time accounting                                                     *)

(* Run [f], then advance the shared clock by the largest phantom-time
   delta any involved disk accumulated: fan-outs complete when the
   slowest member does, not after the sum of all members. *)
let charge t involved f =
  let disks = List.concat_map shard_disks involved in
  let before = List.map (fun d -> (d, Sim_disk.phantom_ns d)) disks in
  let r = f () in
  let worst =
    List.fold_left
      (fun acc (d, b) ->
        let delta = Int64.sub (Sim_disk.phantom_ns d) b in
        if Int64.compare delta acc > 0 then delta else acc)
      0L before
  in
  if Int64.compare worst 0L > 0 then begin
    Simclock.advance t.clock worst;
    if Trace.on () then Trace.add_charged t.trace_tok worst
  end;
  r

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let is_io_error = function Rpc.R_error (Rpc.Io_error _) -> true | _ -> false

let dispatch sh cred req =
  sh.sh_ops <- sh.sh_ops + 1;
  let resp =
    match sh.sh_member with
    | Single d -> Drive.handle d cred req
    | Mirrored m -> Mirror.handle m cred req
  in
  if is_io_error resp then begin
    (* A mirrored shard only surfaces Io_error once failover inside the
       mirror is exhausted, so in either case the shard is degraded. *)
    sh.sh_degraded <- true;
    sh.sh_io_errors <- sh.sh_io_errors + 1
  end;
  resp

(* Current holder: a not-yet-cut-over migration forwards to the old
   home; everything else is pure ring placement. *)
let holder t oid =
  match Hashtbl.find_opt t.forward oid with
  | Some id -> id
  | None -> Ring.owner t.ring oid

let shard_of = holder

let route_to_holder t oid cred req =
  let sh = shard t (holder t oid) in
  charge t [ sh ] (fun () -> dispatch sh cred req)

let fanout t cred req ~merge =
  let all = shards t in
  charge t all (fun () -> merge (List.map (fun sh -> (sh, dispatch sh cred req)) all))

let merge_units resps =
  match List.find_opt (fun (_, r) -> r <> Rpc.R_unit) resps with
  | Some (_, r) -> r
  | None -> Rpc.R_unit

let merge_audit resps =
  let rec collect acc = function
    | [] ->
      let records = List.concat (List.rev acc) in
      let sorted = List.stable_sort (fun a b -> compare a.Audit.at b.Audit.at) records in
      Rpc.R_audit sorted
    | (_, Rpc.R_audit rs) :: rest -> collect (rs :: acc) rest
    | (_, other) :: _ -> other
  in
  collect [] resps

(* ------------------------------------------------------------------ *)
(* Integrity catalog                                                   *)

(* A meta-shard object replicating every member drive's sealed audit
   chain head. It is written inside the same durability barrier that
   makes the members' seals durable, so after any crash the catalog is
   at most one epoch away from each member; any deeper disagreement
   means a chain was rolled back or forked behind the array's back.
   The object is array-private (admin-only ACL, excluded from
   placement) and found again at attach through a reserved name in the
   meta drive's partition table. *)

let catalog_name = ".s4/integrity"

let all_drives t = List.concat_map shard_drives (shards t)

let replica_name = function 0 -> "primary" | _ -> "secondary"

let drive_entries t =
  List.concat_map
    (fun sh -> List.mapi (fun i d -> (sh.sh_id, i, d)) (shard_drives sh))
    (shards t)

(* A catalog exists only when there is more than one chain to keep
   honest: a single-drive array stays byte-identical to a bare drive
   (its own seals plus the disk-header anchor already cover it). *)
let catalog_wanted t =
  (match all_drives t with [] | [ _ ] -> false | _ -> true)
  && List.exists (fun d -> Audit.enabled (Drive.audit d)) (all_drives t)

(* The stores a catalog write lands on: every live replica of the meta
   member (a failed replica's store may be unusable; the next write
   after resync reconverges it, since the whole object is rewritten). *)
let catalog_stores t =
  match (shard t t.meta).sh_member with
  | Single d -> [ Drive.store d ]
  | Mirrored m ->
    List.filter_map
      (fun r -> if Mirror.is_failed m r then None else Some (Drive.store (Mirror.drive m r)))
      [ Mirror.Primary; Mirror.Secondary ]

let read_catalog t =
  match t.catalog_oid with
  | None -> `No_catalog
  | Some oid -> (
    let st = shard_store (shard t t.meta) in
    match Store.size st oid with
    | 0 -> `Ok []
    | size -> (
      match Catalog.decode (Store.read st oid ~off:0 ~len:size) with
      | Some entries -> `Ok entries
      | None -> `Bad)
    | exception Store.No_such_object _ -> `Bad)

let write_catalog t entries =
  match t.catalog_oid with
  | None -> ()
  | Some oid ->
    let data = Catalog.encode entries in
    let len = Bytes.length data in
    List.iter
      (fun st ->
        Store.write st oid ~off:0 ~data ~len ();
        if Store.size st oid > len then Store.truncate st oid ~size:len)
      (catalog_stores t);
    t.catalog_cache <- Some entries

let catalog_init t =
  if t.catalog_oid = None && catalog_wanted t then begin
    let meta_sh = shard t t.meta in
    let meta_drives = shard_drives meta_sh in
    match List.find_map (fun d -> Drive.named_oid d catalog_name) meta_drives with
    | Some oid ->
      t.catalog_oid <- Some oid;
      Hashtbl.replace t.private_oids oid ()
    | None ->
      let g = t.next_oid in
      t.pending_oid <- Some g;
      Fun.protect
        ~finally:(fun () -> t.pending_oid <- None)
        (fun () ->
          List.iter
            (fun st ->
              let oid = Store.create_object st in
              if not (Int64.equal oid g) then
                invalid_arg (Printf.sprintf "Router: catalog allocated oid %Ld, expected %Ld" oid g);
              (* Empty ACL: only the admin credential passes. *)
              Store.set_acl_raw st oid (Acl.encode []))
            (shard_stores meta_sh));
      t.next_oid <- Int64.add g 1L;
      List.iter (fun d -> Drive.register_name d catalog_name g) meta_drives;
      t.catalog_oid <- Some g;
      Hashtbl.replace t.private_oids g ()
  end

(* The widest detection window any member guarantees: a retained floor
   for a departed member stays cross-checkable for as long as any
   surviving drive could still hold in-window history about it. *)
let array_window t =
  List.fold_left
    (fun acc d ->
      let w = Drive.window d in
      if Int64.compare w acc > 0 then w else acc)
    0L (all_drives t)

(* Seal every member's audit chain and pin the sealed heads into the
   catalog. Runs inside the barrier's charge, before the member
   barriers, so the catalog write is made durable by the same barrier
   that makes the seals it records durable. Direct store access: the
   catalog write itself must not generate audit records, or the heads
   it just recorded would be stale the moment it landed.

   The update is a merge, not a rebuild: a member that is absent this
   barrier (shard removed, auditing switched off) keeps its last
   recorded floor — still evidence against a rewrite — until the
   floor's [at] stamp ages past the detection window, at which point
   it is pruned like any other expired history. *)
let update_catalog t =
  match t.catalog_oid with
  | None -> ()
  | Some _ -> (
    try
      List.iter (fun d -> Audit.flush (Drive.audit d)) (all_drives t);
      let now = Simclock.now t.clock in
      let prev =
        match t.catalog_cache with
        | Some e -> e
        | None -> ( match read_catalog t with `Ok e -> e | `No_catalog | `Bad -> [])
      in
      let live_heads =
        List.filter_map
          (fun (sid, ri, d) ->
            if Audit.enabled (Drive.audit d) then Some (sid, ri, Audit.sealed_head (Drive.audit d))
            else None)
          (drive_entries t)
      in
      let live ~shard ~replica =
        List.exists (fun (sid, ri, _) -> sid = shard && ri = replica) live_heads
      in
      let entries =
        List.fold_left
          (fun acc (sid, ri, head) ->
            match Catalog.find_entry acc ~shard:sid ~replica:ri with
            (* Unchanged head keeps its stamp, so a quiescent array
               does not rewrite the catalog at every barrier. *)
            | Some e when e.Catalog.head = head -> acc
            | _ -> Catalog.set acc ~shard:sid ~replica:ri ~at:now head)
          prev live_heads
        |> Catalog.prune ~now ~window:(array_window t) ~live
      in
      if t.catalog_cache <> Some entries then write_catalog t entries
    with Fault.Read_fault _ | Fault.Write_fault _ | Log.Log_full ->
      let sh = shard t t.meta in
      sh.sh_degraded <- true;
      sh.sh_io_errors <- sh.sh_io_errors + 1)

(* Catalog vs. member cross-check, shared by [fsck] and [Verify_log].
   The catalog is a floor: a member chain must contain its catalog
   entry as an ancestor. *)
let catalog_errors t =
  match read_catalog t with
  | `No_catalog -> []
  | `Bad -> [ "integrity catalog is undecodable" ]
  | `Ok entries ->
    List.concat_map
      (fun (sid, ri, d) ->
        if not (Audit.enabled (Drive.audit d)) then []
        else begin
          let member = Audit.sealed_head (Drive.audit d) in
          let where = Printf.sprintf "shard %d/%s" sid (replica_name ri) in
          match Catalog.find entries ~shard:sid ~replica:ri with
          | None ->
            if member.Chain.records > 0 then
              [ where ^ ": sealed chain missing from the integrity catalog" ]
            else []
          | Some ch -> (
            match Catalog.check ~catalog:ch ~member with
            | Catalog.Consistent -> []
            | Catalog.Forked ->
              [ Printf.sprintf
                  "%s: chain forked against the catalog at epoch %d (%d records): history                    rewritten"
                  where ch.Chain.epoch ch.Chain.records ]
            | Catalog.Rolled_back ->
              [ Printf.sprintf
                  "%s: chain rolled back behind the catalog (catalog epoch %d/%d records, member                    %d/%d)"
                  where ch.Chain.epoch ch.Chain.records member.Chain.epoch member.Chain.records ]
            | Catalog.Stale_catalog ->
              if Chain.clean (Audit.verify ~from:ch (Drive.audit d)) then
                [ Printf.sprintf "%s: catalog entry is stale (epoch %d/%d behind member %d/%d)"
                    where ch.Chain.epoch ch.Chain.records member.Chain.epoch member.Chain.records ]
              else
                [ where
                  ^ ": catalog head is not an ancestor of the member chain: history rewritten" ])
        end)
      (drive_entries t)

(* Attach-time repair: a crash can strand the catalog one epoch away
   from a member in either direction — behind it (the meta barrier was
   the one that died) or ahead by exactly one (the catalog synced but
   the member's seal was torn with the rest of its un-acked batch).
   Both are repaired to the member's recovered head; anything deeper,
   or a forked hash, is evidence and is left in place for [fsck] and
   verify-log to report. *)
let repair_catalog t =
  match read_catalog t with
  | `No_catalog | `Bad -> ()
  | `Ok entries ->
    let at = Simclock.now t.clock in
    let entries' =
      List.fold_left
        (fun acc (sid, ri, d) ->
          if not (Audit.enabled (Drive.audit d)) then acc
          else begin
            let member = Audit.sealed_head (Drive.audit d) in
            match Catalog.find acc ~shard:sid ~replica:ri with
            | None -> Catalog.set acc ~shard:sid ~replica:ri ~at member
            | Some ch -> (
              match Catalog.check ~catalog:ch ~member with
              | Catalog.Consistent -> acc
              | Catalog.Stale_catalog ->
                if Chain.clean (Audit.verify ~from:ch (Drive.audit d)) then
                  Catalog.set acc ~shard:sid ~replica:ri ~at member
                else acc
              | Catalog.Rolled_back when ch.Chain.epoch - member.Chain.epoch <= 1 ->
                Catalog.set acc ~shard:sid ~replica:ri ~at member
              | Catalog.Rolled_back | Catalog.Forked -> acc)
          end)
        entries (drive_entries t)
    in
    if entries' <> entries then begin
      write_catalog t entries';
      List.iter Store.sync (catalog_stores t)
    end
    else t.catalog_cache <- Some entries

(* Fan a Verify_log out to every drive of every shard — mirror
   secondaries included, which ordinary dispatch never reaches — and
   merge the per-chain results under shard/replica prefixes, folding in
   the catalog cross-check. A caller-supplied anchor only names a
   specific chain when the array has exactly one; otherwise the catalog
   plays that role and the anchor is ignored. *)
let verify_all t cred ~from =
  let entries = drive_entries t in
  let from = if List.length entries = 1 then from else None in
  let results =
    charge t (shards t)
      (fun () ->
        List.map
          (fun (sid, ri, d) -> (sid, ri, Drive.handle d cred (Rpc.Verify_log { from })))
          entries)
  in
  match List.find_opt (fun (_, _, r) -> match r with Rpc.R_verify _ -> false | _ -> true) results with
  | Some (_, _, r) -> r
  | None ->
    let vs =
      List.filter_map
        (fun (sid, ri, r) -> match r with Rpc.R_verify v -> Some (sid, ri, v) | _ -> None)
        results
    in
    let sum f = List.fold_left (fun acc (_, _, v) -> acc + f v) 0 vs in
    let catalog_errs = List.map (fun e -> "catalog: " ^ e) (catalog_errors t) in
    let errors =
      List.concat_map
        (fun (sid, ri, v) ->
          List.map
            (fun e -> Printf.sprintf "shard %d/%s: %s" sid (replica_name ri) e)
            v.Chain.v_errors)
        vs
      @ catalog_errs
    in
    let first_bad =
      List.fold_left
        (fun acc (_, _, v) -> if acc = -1 then v.Chain.v_first_bad else acc)
        (-1) vs
    in
    Rpc.R_verify
      {
        Chain.v_records = sum (fun v -> v.Chain.v_records);
        v_sealed = sum (fun v -> v.Chain.v_sealed);
        v_epochs = sum (fun v -> v.Chain.v_epochs);
        v_head = (match vs with [ (_, _, v) ] -> v.Chain.v_head | _ -> None);
        v_tail = sum (fun v -> v.Chain.v_tail);
        v_pruned = sum (fun v -> v.Chain.v_pruned);
        v_first_bad = (if catalog_errs <> [] && first_bad = -1 then 0 else first_bad);
        v_errors = errors;
      }

let create ?vnodes members =
  let t = create_raw ?vnodes members in
  catalog_init t;
  t

(* Requests routed purely by oid, mutations included: the whole
   per-request effect (store mutation, audit record, degraded marks,
   time charge) is confined to the holder shard, so a run of them may
   be partitioned by holder and executed on per-shard worker domains.
   Everything else (Create's oid allocation, partition ops, fan-outs)
   consults or mutates router-global state and stays on the
   dispatching domain. *)
let routed_oid = function
  | Rpc.Delete { oid }
  | Rpc.Read { oid; _ }
  | Rpc.Write { oid; _ }
  | Rpc.Append { oid; _ }
  | Rpc.Truncate { oid; _ }
  | Rpc.Get_attr { oid; _ }
  | Rpc.Set_attr { oid; _ }
  | Rpc.Get_acl_by_user { oid; _ }
  | Rpc.Get_acl_by_index { oid; _ }
  | Rpc.Set_acl { oid; _ }
  | Rpc.Flush_object { oid; _ } -> Some oid
  | _ -> None

(* The router's span fields beyond the RPC-level ones: the shard a
   request lands on, and the open span [charge] books fan-out time
   to. *)
let probe =
  {
    Trace.clock;
    opened =
      (fun tok t _ req ->
        Rpc.trace_request tok req;
        (match (routed_oid req, req) with
         | Some oid, _ -> Trace.set_shard tok (holder t oid)
         | None, (Rpc.P_create _ | Rpc.P_delete _ | Rpc.P_list _ | Rpc.P_mount _) ->
           Trace.set_shard tok t.meta
         | None, _ -> ());
        let saved = t.trace_tok in
        t.trace_tok <- tok;
        saved);
    closed =
      (fun tok t _ req saved resp ->
        t.trace_tok <- saved;
        Rpc.trace_response tok req resp;
        match (req, resp) with
        | Rpc.Create _, Some (Rpc.R_oid oid) -> Trace.set_shard tok (Ring.owner t.ring oid)
        | _ -> ());
  }

let handle t cred req =
  Trace.span Trace.Router probe ~kind:(Rpc.op_name req)
    (fun t cred req ->
      t.ops <- t.ops + 1;
      match req with
      | Rpc.Create _ ->
        let g = t.next_oid in
        let sh = shard t (Ring.owner t.ring g) in
        t.pending_oid <- Some g;
        let resp =
          Fun.protect
            ~finally:(fun () -> t.pending_oid <- None)
            (fun () -> charge t [ sh ] (fun () -> dispatch sh cred req))
        in
        (match resp with
         | Rpc.R_oid oid when Int64.equal oid g -> t.next_oid <- Int64.add g 1L
         | Rpc.R_oid oid ->
           (* Cannot happen with the allocator installed; be loud if it does. *)
           invalid_arg (Printf.sprintf "Router: shard allocated oid %Ld, expected %Ld" oid g)
         | _ -> ());
        resp
      | Rpc.P_create { name; _ } | Rpc.P_delete { name } ->
        Hashtbl.remove t.pmount_cache name;
        let sh = shard t t.meta in
        charge t [ sh ] (fun () -> dispatch sh cred req)
      | Rpc.P_list _ -> (
        let sh = shard t t.meta in
        match charge t [ sh ] (fun () -> dispatch sh cred req) with
        | Rpc.R_names ns ->
          (* The catalog's reserved name is array-private. *)
          Rpc.R_names (List.filter (fun n -> not (String.equal n catalog_name)) ns)
        | r -> r)
      | Rpc.P_mount { name; at = None } -> (
        match Hashtbl.find_opt t.pmount_cache name with
        | Some oid -> Rpc.R_oid oid
        | None ->
          let sh = shard t t.meta in
          let resp = charge t [ sh ] (fun () -> dispatch sh cred req) in
          (match resp with
           | Rpc.R_oid oid -> Hashtbl.replace t.pmount_cache name oid
           | _ -> ());
          resp)
      | Rpc.P_mount _ ->
        (* Time-based mounts see the meta shard's history; never cached. *)
        let sh = shard t t.meta in
        charge t [ sh ] (fun () -> dispatch sh cred req)
      | Rpc.Sync ->
        (* The admin-path durability barrier: seal every member and
           pin its head into the catalog first, then fan the Sync out —
           each member's sync makes the seal just recorded durable, and
           the meta member's makes the catalog write durable. *)
        let all = shards t in
        charge t all (fun () ->
            update_catalog t;
            merge_units (List.map (fun sh -> (sh, dispatch sh cred req)) all))
      | Rpc.Flush _ | Rpc.Set_window _ -> fanout t cred req ~merge:merge_units
      | Rpc.Read_audit _ -> fanout t cred req ~merge:merge_audit
      | Rpc.Verify_log { from } -> verify_all t cred ~from
      | Rpc.Delete { oid }
      | Rpc.Read { oid; _ }
      | Rpc.Write { oid; _ }
      | Rpc.Append { oid; _ }
      | Rpc.Truncate { oid; _ }
      | Rpc.Get_attr { oid; _ }
      | Rpc.Set_attr { oid; _ }
      | Rpc.Get_acl_by_user { oid; _ }
      | Rpc.Get_acl_by_index { oid; _ }
      | Rpc.Set_acl { oid; _ }
      | Rpc.Flush_object { oid; _ } ->
        route_to_holder t oid cred req)
    t cred req

let barrier t =
  (* Group commit across the array: one durability barrier fanned out
     to every member, charged as parallel work (the batch completes
     when the slowest member's barrier does). Mutations of a batch may
     have landed on any shard, so all of them flush. *)
  let all = shards t in
  charge t all (fun () ->
      update_catalog t;
      let errs =
        List.filter_map
          (fun sh ->
            let e =
              match sh.sh_member with
              | Single d -> Drive.barrier d
              | Mirrored m -> Mirror.barrier m
            in
            (match e with
             | Some (Rpc.Io_error _) ->
               sh.sh_degraded <- true;
               sh.sh_io_errors <- sh.sh_io_errors + 1
             | _ -> ());
            e)
          all
      in
      match errs with [] -> None | e :: _ -> Some e)

(* ------------------------------------------------------------------ *)
(* Cross-shard landmark barrier                                        *)

(* A consistent array-wide rollback point. Requests are routed
   synchronously (there is no queued work beyond what [submit] is
   currently running), so by the time this is called the array is
   quiescent; the barrier then pins every member's head into the
   integrity catalog and fans one durability barrier out to all
   members, sealing each chain. The sealed heads collected afterwards
   are therefore mutually consistent: every operation acknowledged
   before the landmark is covered by some head, and none after it is.
   The returned [(shard, replica, head)] list is the landmark record a
   caller persists; verification later replays each chain from its
   recorded head. *)
let landmark_barrier t =
  match barrier t with
  | Some e -> Error (Format.asprintf "landmark barrier: %a" Rpc.pp_error e)
  | None ->
    Ok
      (List.filter_map
         (fun (sid, ri, d) ->
           if Audit.enabled (Drive.audit d) then
             Some (sid, ri, Audit.sealed_head (Drive.audit d))
           else None)
         (drive_entries t))

let members = drive_entries

let store_of t oid = shard_store (shard t (holder t oid))

(* Reads routed purely by oid: no global state consulted, no state
   mutated, so a run of them may execute back-to-back and be charged
   as concurrent work across the distinct shards (and mirror replicas)
   they land on. *)
let routable_read = function
  | Rpc.Read _ | Rpc.Get_attr _ | Rpc.Get_acl_by_user _ | Rpc.Get_acl_by_index _ -> true
  | _ -> false

let read_oid = function
  | Rpc.Read { oid; _ }
  | Rpc.Get_attr { oid; _ }
  | Rpc.Get_acl_by_user { oid; _ }
  | Rpc.Get_acl_by_index { oid; _ } -> oid
  | _ -> invalid_arg "Router.read_oid: not a routable read"

(* Execute the maximal run of oid-routed requests starting at [i] on
   the worker pool, one sub-batch per holder shard. Returns how many
   requests were consumed (0 when the run is too small or lands on a
   single shard — the caller falls back to the serial path).

   Each worker charges time to a domain-local clock lane forked at the
   shared [now]; after the join the shared clock advances by the
   slowest lane — the same slowest-member rule [charge] applies to
   phantom disks, lifted one level up to whole shards. Audit records
   written by a shard carry its lane time, which is deterministic
   (each shard's sub-batch is a fixed sequence from a fixed start), so
   a multi-domain run is reproducible regardless of how the host
   schedules the domains. Responses are positionally identical to
   serial execution; only time accounting differs, exactly as with
   {!set_read_overlap}. *)
let parallel_run t pool cred reqs resps i =
  let n = Array.length reqs in
  let j = ref i in
  while !j < n && routed_oid reqs.(!j) <> None do incr j done;
  if !j - i < 2 then 0
  else begin
    let groups : (int, (shard * int list ref)) Hashtbl.t = Hashtbl.create 8 in
    for k = !j - 1 downto i do
      let sid = holder t (Option.get (routed_oid reqs.(k))) in
      match Hashtbl.find_opt groups sid with
      | Some (_, idxs) -> idxs := k :: !idxs
      | None -> Hashtbl.replace groups sid (shard t sid, ref [ k ])
    done;
    if Hashtbl.length groups < 2 then 0
    else begin
      t.ops <- t.ops + (!j - i);
      let start = Simclock.now t.clock in
      let jobs =
        Hashtbl.fold (fun sid (sh, idxs) acc -> (sid, sh, !idxs) :: acc) groups []
        |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
      in
      let elapsed = Array.make (List.length jobs) 0L in
      Shard_domain.run pool
        (List.mapi
           (fun w (sid, sh, idxs) ->
             ( sid,
               fun () ->
                 Simclock.fork_lane t.clock ~at:start;
                 Fun.protect
                   ~finally:(fun () -> elapsed.(w) <- Simclock.join_lane t.clock)
                   (fun () ->
                     List.iter
                       (fun k ->
                         resps.(k) <- charge t [ sh ] (fun () -> dispatch sh cred reqs.(k)))
                       idxs) ))
           jobs);
      let worst = Array.fold_left (fun acc e -> if Int64.compare e acc > 0 then e else acc) 0L elapsed in
      if Int64.compare worst 0L > 0 then Simclock.advance t.clock worst;
      !j - i
    end
  end

let submit t cred ?(sync = false) reqs =
  (* Requests run in arrival order through the normal per-request
     dispatch (each charged its own shard's time, exactly as
     sequential submission would), so a batched run is bit-identical
     to an unsynced sequential one; the group-commit win is the single
     end-of-batch barrier replacing a per-mutation barrier.

     With {!set_read_overlap} on, a maximal run of consecutive
     oid-routed reads is instead charged as ONE parallel fan-out: the
     run completes when the slowest involved disk does. Responses are
     unchanged (reads execute in order against immutable versions);
     only the clock differs, which is why the mode is opt-in. Tracing
     keeps per-request spans, so an active tracer falls back to
     sequential charging.

     With the domains knob above 1, a maximal run of consecutive
     oid-routed requests — mutations included — is partitioned by
     holder shard and executed on per-shard worker domains (see
     {!parallel_run}); runs that land on a single shard, and
     everything that consults router-global state, keep the serial
     path. Tracing again forces serial execution: spans record the
     per-request charge sequence, which the parallel charge rule
     replaces wholesale. *)
  let n = Array.length reqs in
  let tracing = Trace.on () in
  let overlap = t.read_overlap && not tracing in
  let pool = if tracing then None else active_pool t in
  let resps = Array.make n Rpc.R_unit in
  let i = ref 0 in
  while !i < n do
    let consumed =
      match pool with
      | Some p -> parallel_run t p cred reqs resps !i
      | None -> 0
    in
    if consumed > 0 then i := !i + consumed
    else begin
    let j = ref !i in
    if overlap then while !j < n && routable_read reqs.(!j) do incr j done;
    if !j - !i >= 2 then begin
      let idxs = List.init (!j - !i) (fun k -> !i + k) in
      let involved =
        List.sort_uniq compare (List.map (fun k -> holder t (read_oid reqs.(k))) idxs)
        |> List.map (shard t)
      in
      charge t involved (fun () ->
          List.iter
            (fun k ->
              t.ops <- t.ops + 1;
              let sh = shard t (holder t (read_oid reqs.(k))) in
              resps.(k) <- dispatch sh cred reqs.(k))
            idxs);
      i := !j
    end
    else begin
      resps.(!i) <- handle t cred reqs.(!i);
      incr i
    end
    end
  done;
  S4.Backend.group_commit ~sync barrier t resps

(* ------------------------------------------------------------------ *)
(* Degraded-mode reporting                                             *)

let degraded_shards t =
  List.filter_map (fun sh -> if sh.sh_degraded then Some sh.sh_id else None) (shards t)

let degraded t = degraded_shards t <> []
let io_errors t = List.fold_left (fun acc sh -> acc + sh.sh_io_errors) 0 (shards t)

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)

(* Per-shard cleaners run in parallel on independent devices: charge
   the slowest. Overlapped cleaner mode manipulates the phantom flag
   itself and must not be used under a router; re-assert phantom mode
   afterwards so a misconfigured cleaner cannot silently break the
   array's time accounting. *)
let run_cleaners t =
  List.iter
    (fun sh ->
      ignore
        (charge t [ sh ]
           (fun () -> List.iter (fun d -> ignore (Drive.run_cleaner d)) (shard_drives sh))))
    (shards t);
  set_all_phantom t

let sync_all t =
  ignore (handle t Rpc.admin_cred Rpc.Sync)

(* ------------------------------------------------------------------ *)
(* Online rebalancing                                                  *)

let pending_migrations t = List.length t.migrations

let is_private t oid = Hashtbl.mem t.private_oids oid

(* Objects a shard holds that are eligible for placement (everything
   but the drives' own partition-table objects). *)
let held_oids sh =
  let st = shard_store sh in
  List.filter
    (fun oid ->
      not (List.exists (fun d -> Int64.equal (Drive.ptable_oid d) oid) (shard_drives sh)))
    (Store.list_all st)

let plan_moves t ~against =
  (* [against]: oids currently held, with their holder. Any object
     whose ring owner differs from its holder must move. *)
  List.filter_map
    (fun (oid, src) ->
      if is_private t oid then None
      else begin
        let dst = Ring.owner t.ring oid in
        if dst = src then None else Some { m_oid = oid; m_src = src; m_dst = dst }
      end)
    against

let add_shard t id m =
  ignore (register t id m);
  (* Growing past one drive brings the cross-shard catalog into play. *)
  catalog_init t;
  let held =
    List.concat_map (fun sh -> List.map (fun oid -> (oid, sh.sh_id)) (held_oids sh)) (shards t)
  in
  Ring.add t.ring id;
  (* Queued moves from an unfinished earlier rebalance carry
     destinations computed against the pre-[id] ring; executing one of
     them would strand the object on a shard the ring no longer points
     at. [held] reflects physical placement of every object, so
     replanning against the new ring supersedes the old queue and its
     forward entries wholesale. *)
  t.migrations <- [];
  Hashtbl.reset t.forward;
  let moves = plan_moves t ~against:held in
  List.iter
    (fun mv ->
      (* Read-forwarding: until the copy is verified and cut over, the
         object is served from its old home. *)
      Hashtbl.replace t.forward mv.m_oid mv.m_src)
    moves;
  t.migrations <- moves;
  List.length moves

(* --- verification ------------------------------------------------- *)

let digest_at st oid ~at =
  match Store.exists st ?at oid with
  | false -> None
  | true ->
    let size = Store.size st ?at oid in
    let data = Store.read st ?at oid ~off:0 ~len:size in
    Some
      ( size,
        Digest.bytes data,
        Digest.bytes (Store.get_attr st ?at oid),
        Digest.bytes (Store.get_acl_raw st ?at oid) )

(* Every retained version of the object must answer identically on the
   new home: compare current state and the state at each entry
   timestamp (and just before the oldest, covering the base). *)
let verify_copy ~src ~dst oid =
  let times =
    let ts = List.map (fun (e : S4_store.Entry.t) -> e.S4_store.Entry.time) (Store.versions src oid) in
    let ts = List.sort_uniq compare ts in
    match ts with [] -> [] | oldest :: _ -> Int64.sub oldest 1L :: ts
  in
  let ats = None :: List.map (fun at -> Some at) times in
  let mismatches =
    List.filter_map
      (fun at ->
        let a = try digest_at src oid ~at with Store.No_such_object _ -> None in
        let b = try digest_at dst oid ~at with Store.No_such_object _ -> None in
        if a = b then None
        else
          Some
            (Printf.sprintf "oid %Ld diverges at %s" oid
               (match at with None -> "current" | Some x -> Int64.to_string x)))
      ats
  in
  if mismatches = [] then Ok () else Error (String.concat "; " mismatches)

let forget_everywhere sh oid =
  List.iter
    (fun st ->
      (try Store.forget_object st oid with Store.No_such_object _ -> ());
      Store.sync st;
      ignore (Log.reclaim_dead_segments (Store.log st)))
    (shard_stores sh)

(* Drop the oid's forward entry only if this move owns it: a stale
   queued move must not tear down forwarding installed by a newer plan
   whose source is a different shard. *)
let unforward t mv =
  match Hashtbl.find_opt t.forward mv.m_oid with
  | Some src when src = mv.m_src -> Hashtbl.remove t.forward mv.m_oid
  | _ -> ()

(* A mirrored shard with journalled missed mutations has exactly one
   up-to-date replica and a repair debt; migrating through it would
   either export a converging-but-incomplete pair or leave resync
   replaying onto an object that moved away. Refuse until drained. *)
let mirror_lag sh =
  match sh.sh_member with Single _ -> 0 | Mirrored m -> Mirror.lag m

(* Migrate one object: stream its entire retained history off the old
   home, replay it on the new one, make it durable, verify every
   in-window version, then cut over and purge the source. A crash
   anywhere in the middle leaves either the source authoritative (dst
   copy unsynced or partial — dropped or repaired at attach) or both
   copies whole (deduplicated at attach); no synced in-window version
   is ever lost. *)
let migrate_one t mv =
  let src_sh = shard t mv.m_src in
  (* The ring is the placement authority at execution time: a later
     [add_shard] may have reassigned the object since this move was
     queued, making the planned [m_dst] stale. *)
  let dst_id = Ring.owner t.ring mv.m_oid in
  let src = shard_store src_sh in
  if not (List.mem mv.m_oid (Store.list_all src)) then begin
    (* Expired (or repaired/moved away) since planning; nothing to move. *)
    unforward t mv;
    Ok None
  end
  else if dst_id = mv.m_src then begin
    (* Ownership swung back to the holder; the object is already home. *)
    unforward t mv;
    Ok None
  end
  else begin
    let dst_sh = shard t dst_id in
    let src_lag = mirror_lag src_sh and dst_lag = mirror_lag dst_sh in
    if src_lag > 0 || dst_lag > 0 then
      Error
        (Printf.sprintf "shard %d mirror lags %d ops: resync before migrating oid %Ld"
           (if src_lag > 0 then mv.m_src else dst_id)
           (max src_lag dst_lag) mv.m_oid)
    else begin
      let result =
        charge t [ src_sh; dst_sh ]
          (fun () ->
            let x = Store.export_history src mv.m_oid in
            List.iter (fun st -> Store.import_history st x) (shard_stores dst_sh);
            (* Durability point: after these syncs the new home holds
               the full chain on stable storage. *)
            List.iter Store.sync (shard_stores dst_sh);
            match verify_copy ~src ~dst:(shard_store dst_sh) mv.m_oid with
            | Error e -> Error (x, e)
            | Ok () -> Ok x)
      in
      match result with
      | Error (_, e) ->
        (* Failed verification: drop the copy, keep serving from the old
           home (the forward entry stays). *)
        forget_everywhere dst_sh mv.m_oid;
        Error (Printf.sprintf "migration verify failed: %s" e)
      | Ok x ->
        (* Cut over: new requests now route to the ring owner. *)
        unforward t mv;
        (* Purge the old copy and reclaim its space. *)
        charge t [ src_sh ] (fun () -> forget_everywhere src_sh mv.m_oid);
        t.migrated_objects <- t.migrated_objects + 1;
        t.migrated_entries <- t.migrated_entries + List.length x.Store.x_entries;
        t.migrated_bytes <-
          t.migrated_bytes
          + List.fold_left
              (fun acc (xe : Store.xentry) ->
                match xe.Store.x_op with Store.X_write { len; _ } -> acc + len | _ -> acc)
              0 x.Store.x_entries;
        Ok (Some (mv.m_oid, mv.m_src, dst_id))
    end
  end

let rebalance_step t =
  match t.migrations with
  | [] -> Ok None
  | mv :: rest -> (
    t.migrations <- rest;
    match migrate_one t mv with
    | Ok r -> Ok r
    | Error e ->
      (* Push the failed move to the back so the rest can proceed. *)
      t.migrations <- t.migrations @ [ mv ];
      Error e)

let rebalance t =
  let rec go n errs budget =
    if budget = 0 then (n, List.rev errs)
    else
      match rebalance_step t with
      | Ok None -> (n, List.rev errs)
      | Ok (Some _) -> go (n + 1) errs (budget - 1)
      | Error e -> go n (e :: errs) (budget - 1)
  in
  go 0 [] (2 * (1 + pending_migrations t))

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)

(* Reattach an array after a crash. Drives were individually recovered
   by [Drive.attach]; what is left to repair is *placement*:
   - an object on a non-owner shard only (cut-over never happened, or
     the ring changed): resume its migration with a forward entry;
   - an object on two shards (crash between the new home's sync and
     the old home's purge — or a purged source resurrected from
     dead-but-decodable journal blocks): keep exactly one authoritative
     copy. The copy with the longer history (higher seq) wins; on a tie
     the ring owner does. The loser is purged. *)
let attach ?vnodes members =
  let t = create ?vnodes members in
  let holders : (int64, int list ref) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun sh ->
      List.iter
        (fun oid ->
          if not (is_private t oid) then begin
            match Hashtbl.find_opt holders oid with
            | Some l -> l := sh.sh_id :: !l
            | None -> Hashtbl.replace holders oid (ref [ sh.sh_id ])
          end)
        (held_oids sh))
    (shards t);
  let moves = ref [] in
  Hashtbl.iter
    (fun oid holders_ref ->
      let hs = List.sort compare !holders_ref in
      let owner = Ring.owner t.ring oid in
      let seq_of id = Store.seq (shard_store (shard t id)) oid in
      let winner =
        match hs with
        | [ h ] -> h
        | _ ->
          List.fold_left
            (fun best h ->
              let sb = seq_of best and sh_ = seq_of h in
              if sh_ > sb then h
              else if sh_ = sb && h = owner then h
              else best)
            (List.hd hs) (List.tl hs)
      in
      List.iter (fun h -> if h <> winner then forget_everywhere (shard t h) oid) hs;
      if winner <> owner then begin
        Hashtbl.replace t.forward oid winner;
        moves := { m_oid = oid; m_src = winner; m_dst = owner } :: !moves
      end)
    holders;
  t.migrations <- List.sort compare !moves;
  repair_catalog t;
  t

(* ------------------------------------------------------------------ *)
(* Health and stats                                                    *)

let fsck t =
  let errs = ref [] in
  List.iter
    (fun sh ->
      List.iter
        (fun d ->
          List.iter
            (fun e -> errs := Printf.sprintf "shard %d: %s" sh.sh_id e :: !errs)
            (Drive.fsck d))
        (shard_drives sh);
      (* Placement: every eligible object must live on exactly its
         routing target (array-private objects, like the integrity
         catalog, are pinned to the meta shard by construction). *)
      List.iter
        (fun oid ->
          if not (is_private t oid) then begin
            let h = holder t oid in
            if h <> sh.sh_id then
              errs :=
                Printf.sprintf "oid %Ld held by shard %d, routed to %d" oid sh.sh_id h :: !errs
          end)
        (held_oids sh))
    (shards t);
  List.iter (fun e -> errs := ("catalog: " ^ e) :: !errs) (catalog_errors t);
  List.rev !errs

type migration_stats = { objects : int; entries : int; bytes : int }

let migration_stats t =
  { objects = t.migrated_objects; entries = t.migrated_entries; bytes = t.migrated_bytes }

let pp_stats ppf t =
  Format.fprintf ppf "array: %d shards (meta %d), %d ops, %d pending migrations, moved %d objects/%d entries/%d bytes%s"
    (List.length t.order) t.meta t.ops (pending_migrations t) t.migrated_objects
    t.migrated_entries t.migrated_bytes
    (match degraded_shards t with
     | [] -> ""
     | ds ->
       Printf.sprintf " [DEGRADED shards: %s]" (String.concat "," (List.map string_of_int ds)))

let backend t =
  (* The array backend is [Domain_safe]: one internal mutex makes
     concurrent submits from different domains linearize at the router
     (per-batch atomicity of the router-global state: oid allocation,
     forwarding, the trace token), while the parallelism lives one
     level down — inside a batch, {!parallel_run} fans disjoint shards
     out to worker domains. [Net.Server] uses the capability to drop
     its own global backend lock. *)
  let m = Mutex.create () in
  let locked f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in
  S4.Backend.make ~clock:t.clock
    ~keep_data:
      (S4_store.Obj_store.config (Drive.store (List.hd (all_drives t))))
        .S4_store.Obj_store.keep_data
    ~capacity:(fun () ->
      locked (fun () ->
          List.fold_left
            (fun (total, free) d ->
              let dt, df = Drive.capacity d in
              (total + dt, free + df))
            (0, 0) (all_drives t)))
    ~concurrency:S4.Backend.Domain_safe
    ~close:(fun () -> locked (fun () -> close_domains t))
    (fun cred ?sync reqs -> locked (fun () -> submit t cred ?sync reqs))
