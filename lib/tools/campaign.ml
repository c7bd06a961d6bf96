module Rpc = S4.Rpc
module Drive = S4.Drive
module Acl = S4.Acl
module Audit = S4.Audit
module Chain = S4_integrity.Chain
module Simclock = S4_util.Simclock
module Rng = S4_util.Rng
module N = S4_nfs.Nfs_types
module Translator = S4_nfs.Translator
module Systems = S4_workload.Systems
module Sim_disk = S4_disk.Sim_disk
module Geometry = S4_disk.Geometry
module Trace = S4_obs.Trace
module Check = S4_obs.Check

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type deployment = Single_drive | Array of { shards : int; mirrored : bool }

type config = {
  seed : int;
  deployment : deployment;
  files_per_dir : int;
  legit_ops : int;
  attacks_per_class : int;
  detect_every_s : float;
  disk_mb : int;
  trace : bool;
}

let default =
  {
    seed = 42;
    deployment = Single_drive;
    files_per_dir = 8;
    legit_ops = 60;
    attacks_per_class = 4;
    detect_every_s = 2.0;
    disk_mb = 64;
    trace = false;
  }

type attack_class = Trojan | Scrub | Timestomp | Mass_delete | Exfil

let classes = [| Trojan; Scrub; Timestomp; Mass_delete; Exfil |]

let class_name = function
  | Trojan -> "trojan"
  | Scrub -> "scrub"
  | Timestomp -> "timestomp"
  | Mass_delete -> "mass_delete"
  | Exfil -> "exfil"

type outcome = {
  o_mark : Landmark.mark;
  o_classes : (string * float) list;
      (** per-class detection latency in simulated seconds; negative =
          the IDS never fired for that class *)
  o_attack_ops : int;
  o_legit_ops : int;
  o_denied_probes : int;
  o_damage_objects : int;
  o_damage_bytes : int;
  o_false_negatives : string list;
  o_false_positives : string list;
  o_rollback_s : float;
  o_recovery_rpcs : int;
  o_recovery_ops_per_s : float;
  o_report : Recovery.report;
  o_surviving : string list;
  o_lost : string list;
  o_violations : string list;
}

let detected o = List.for_all (fun (_, l) -> l >= 0.0) o.o_classes

let clean o =
  detected o && o.o_surviving = [] && o.o_lost = [] && o.o_violations = []
  && o.o_false_negatives = [] && o.o_false_positives = []

(* ------------------------------------------------------------------ *)
(* Principals                                                          *)

(* The attacker is a compromised client machine holding user 1's valid
   credentials (the paper's threat model: everything above the drive's
   security perimeter may be subverted). Only the client field tells
   the drive-side audit trail apart — which is exactly what forensics
   has to lean on. *)
let admin = Rpc.admin_cred
let legit1 = Rpc.user_cred ~user:1 ~client:10
let legit2 = Rpc.user_cred ~user:2 ~client:11
let attacker = Rpc.user_cred ~user:1 ~client:66

(* ------------------------------------------------------------------ *)
(* Harness state                                                       *)

type sys = {
  target : Target.t;
  clock : Simclock.t;
  tr_admin : Translator.t;
  tr_u1 : Translator.t;
  tr_u2 : Translator.t;
  tr_att : Translator.t;
}

let build cfg =
  match cfg.deployment with
  | Single_drive ->
    let clock = Simclock.create () in
    let geometry =
      Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(cfg.disk_mb * 1024 * 1024)
    in
    let drive =
      Drive.format ~config:Systems.content_drive_config (Sim_disk.create ~geometry clock)
    in
    let tr cred = Translator.mount ~cred (Translator.Backend (Drive.backend drive)) in
    {
      target = Target.Drive drive;
      clock;
      tr_admin = tr admin;
      tr_u1 = tr legit1;
      tr_u2 = tr legit2;
      tr_att = tr attacker;
    }
  | Array { shards; mirrored } ->
    let s =
      Systems.s4_array
        ~config:
          {
            Systems.Config.content with
            disk_mb = Some cfg.disk_mb;
            mirrored;
          }
        ~shards ()
    in
    let router = Option.get s.Systems.router in
    let backend = S4_shard.Router.backend router in
    let tr cred = Translator.mount ~cred (Translator.Backend backend) in
    {
      target = Target.Array router;
      clock = s.Systems.clock;
      tr_admin = tr admin;
      tr_u1 = tr legit1;
      tr_u2 = tr legit2;
      tr_att = tr attacker;
    }

let nfs_err e = Format.asprintf "%a" N.pp_error e

let fail_nfs what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "Campaign: %s: %s" what (nfs_err e))

(* Multiple translators share one backend, so each acts on a cold
   cache: another principal may have changed any directory since. *)
let via tr f =
  Translator.invalidate_caches tr;
  f ()

let handle t cred req = Target.handle t.target cred req

let oid_of_path t path =
  via t.tr_admin (fun () ->
      match Translator.lookup_path t.tr_admin path with
      | Ok (fh, _) -> fh
      | Error e -> failwith (Printf.sprintf "Campaign: resolve %s: %s" path (nfs_err e)))

let set_acl_list t oid entries =
  List.iteri
    (fun index entry -> ignore (handle t admin (Rpc.Set_acl { oid; index; entry })))
    entries

let read_raw t cred oid =
  match handle t cred (Rpc.Get_attr { oid; at = None }) with
  | Rpc.R_attr b when Bytes.length b > 0 ->
    let a = N.decode_attr b in
    (match handle t cred (Rpc.Read { oid; off = 0; len = a.N.size; at = None }) with
     | Rpc.R_data d -> Some (a, d)
     | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Ground truth                                                        *)

type truth = {
  gt_mut : (int64, unit) Hashtbl.t;  (* oids the attacker successfully mutated *)
  gt_read : (int64, unit) Hashtbl.t;  (* oids the attacker successfully read *)
  gt_denied : (int64, unit) Hashtbl.t;  (* nonzero oids of denied attacker requests *)
  attacked_paths : (string, unit) Hashtbl.t;  (* sys paths whose state the attacker changed *)
  mutable created_paths : (string * int64) list;  (* attacker-created files *)
  mutable timestomped : string list;
  mutable damage_bytes : int;
  mutable attack_ops : int;
  mutable denied_ops : int;
  first_attack : (attack_class, int64) Hashtbl.t;
}

let fresh_truth () =
  {
    gt_mut = Hashtbl.create 64;
    gt_read = Hashtbl.create 64;
    gt_denied = Hashtbl.create 16;
    attacked_paths = Hashtbl.create 64;
    created_paths = [];
    timestomped = [];
    damage_bytes = 0;
    attack_ops = 0;
    denied_ops = 0;
    first_attack = Hashtbl.create 8;
  }

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)

let run cfg =
  let rng = Rng.create ~seed:cfg.seed in
  if cfg.trace then begin
    Trace.clear ();
    Trace.enable ()
  end;
  let t = build cfg in
  let now () = Simclock.now t.clock in
  let jitter () = Simclock.advance t.clock (Int64.of_int (Rng.int_in rng ~min:200_000 ~max:5_000_000)) in
  let content tag i n = Bytes.of_string (Printf.sprintf "%s-%d original payload %s" tag i (String.make n 'x')) in

  (* --- populate --------------------------------------------------- *)
  let dirs = [ "sys"; "sys/bin"; "sys/log"; "sys/data"; "home"; "home/u1"; "home/u2"; "mail" ] in
  List.iter (fun d -> ignore (fail_nfs d (Translator.mkdir_p t.tr_admin d))) dirs;
  let dir_oid = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace dir_oid d (oid_of_path t d)) dirs;
  let doid d = Hashtbl.find dir_oid d in
  (* Skeleton ACLs: the drive enforces these below the compromised
     client, so user 1's stolen credential opens sys/ and home/u1 but
     not home/u2 — failed probes there land in the audit trail. *)
  set_acl_list t (oid_of_path t "") [ Acl.public_read ];
  List.iter
    (fun d -> set_acl_list t (doid d) [ Acl.owner_entry ~user:1; Acl.public_read ])
    [ "sys"; "sys/bin"; "sys/log"; "sys/data" ];
  set_acl_list t (doid "home") [ Acl.public_read ];
  set_acl_list t (doid "home/u1") [ Acl.owner_entry ~user:1 ];
  set_acl_list t (doid "home/u2") [ Acl.owner_entry ~user:2 ];
  set_acl_list t (doid "mail") [ Acl.owner_entry ~user:1; Acl.owner_entry ~user:2 ];
  let n = cfg.files_per_dir in
  let path_list tag = List.init n (fun i -> Printf.sprintf "%s-%d" tag i) in
  let bin_paths = List.map (fun f -> "sys/bin/" ^ f) (path_list "bin") in
  let log_paths = List.map (fun f -> "sys/log/" ^ f) (path_list "log") in
  let data_paths = List.map (fun f -> "sys/data/" ^ f) (path_list "data") in
  let u1_paths = List.map (fun f -> "home/u1/" ^ f) (path_list "doc") in
  let u2_paths = List.map (fun f -> "home/u2/" ^ f) (path_list "secret") in
  let mail_paths = List.map (fun f -> "mail/" ^ f) (path_list "mail") in
  let write_as tr path data = ignore (fail_nfs path (via tr (fun () -> Translator.write_file tr path data))) in
  List.iteri (fun i p -> write_as t.tr_u1 p (content "bin" i (64 + Rng.int rng 512))) bin_paths;
  List.iteri (fun i p -> write_as t.tr_u1 p (content "log" i (64 + Rng.int rng 512))) log_paths;
  List.iteri (fun i p -> write_as t.tr_u1 p (content "data" i (64 + Rng.int rng 1024))) data_paths;
  List.iteri (fun i p -> write_as t.tr_u1 p (content "doc" i (64 + Rng.int rng 512))) u1_paths;
  List.iteri (fun i p -> write_as t.tr_u2 p (content "secret" i (64 + Rng.int rng 512))) u2_paths;
  List.iteri
    (fun i p -> write_as (if i mod 2 = 0 then t.tr_u1 else t.tr_u2) p (content "mail" i 128))
    mail_paths;
  let sys_paths = bin_paths @ log_paths @ data_paths in
  let path_oid = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace path_oid p (oid_of_path t p)) (sys_paths @ u1_paths @ u2_paths @ mail_paths);
  let poid p = Hashtbl.find path_oid p in

  (* The attacker cased the joint before the compromise window: its
     translator resolves every target it can legally reach, so the
     in-window ground truth is exactly the raw requests issued below. *)
  List.iter
    (fun p -> via t.tr_att (fun () -> ignore (Translator.lookup_path t.tr_att p)))
    (sys_paths @ u1_paths);

  (* Baseline snapshot: contents and attributes of everything under
     sys/ (reads only — the state cannot drift before the mark). *)
  let baseline = Hashtbl.create 64 in
  List.iter
    (fun p ->
      match read_raw t admin (poid p) with
      | Some (a, d) -> Hashtbl.replace baseline p (a, d)
      | None -> failwith ("Campaign: baseline read failed for " ^ p))
    sys_paths;

  (* --- the pre-intrusion mark -------------------------------------- *)
  let lm = Landmark.of_target t.target in
  let mark =
    match Landmark.mark lm ~name:"pre-intrusion" with
    | Ok m -> m
    | Error e -> failwith ("Campaign: mark failed: " ^ e)
  in
  let t_mark = mark.Landmark.m_at in

  (* --- op streams --------------------------------------------------- *)
  let truth = fresh_truth () in
  let gt_write oid = Hashtbl.replace truth.gt_mut oid () in
  let gt_read oid = Hashtbl.replace truth.gt_read oid () in
  let attack_first cls =
    if not (Hashtbl.mem truth.first_attack cls) then Hashtbl.replace truth.first_attack cls (now ())
  in
  let raw_attack cls req ~touches =
    attack_first cls;
    truth.attack_ops <- truth.attack_ops + 1;
    let resp = handle t attacker req in
    (match resp with
     | Rpc.R_error Rpc.Permission_denied ->
       truth.denied_ops <- truth.denied_ops + 1;
       let oid = ref 0L in
       (match req with
        | Rpc.Read { oid = o; _ } | Rpc.Write { oid = o; _ } | Rpc.Delete { oid = o }
        | Rpc.Set_attr { oid = o; _ } | Rpc.Get_attr { oid = o; _ }
        | Rpc.Truncate { oid = o; _ } ->
          oid := o
        | _ -> ());
       if !oid <> 0L then Hashtbl.replace truth.gt_denied !oid ()
     | Rpc.R_error e ->
       failwith
         (Format.asprintf "Campaign: attacker %s unexpectedly failed: %a" (Rpc.op_name req)
            Rpc.pp_error e)
     | _ -> touches resp);
    resp
  in
  let attacker_write cls oid data =
    ignore
      (raw_attack cls
         (Rpc.Write { oid; off = 0; len = Bytes.length data; data = Some data })
         ~touches:(fun _ ->
           gt_write oid;
           truth.damage_bytes <- truth.damage_bytes + Bytes.length data))
  in
  let attacker_truncate cls oid =
    ignore (raw_attack cls (Rpc.Truncate { oid; size = 0 }) ~touches:(fun _ -> gt_write oid))
  in
  (* Raw directory-slot surgery: the compromised client speaks the
     translator's on-disk format directly. *)
  let dir_slots dir_o =
    match read_raw t attacker dir_o with
    | Some (_, d) -> d
    | None -> failwith "Campaign: attacker cannot read directory"
  in
  let append_slot cls dir_o name fh =
    match read_raw t attacker dir_o with
    | None -> failwith "Campaign: attacker cannot read directory"
    | Some (a, d) ->
      gt_read dir_o;
      let slot = N.encode_slot (Some { N.name; fh }) in
      let data = Bytes.cat d slot in
      attacker_write cls dir_o data;
      (* Grow the directory's recorded size so the new entry resolves,
         but keep the old mtime — the stealthy way in. *)
      ignore
        (raw_attack cls
           (Rpc.Set_attr { oid = dir_o; attr = N.encode_attr { a with N.size = Bytes.length data } })
           ~touches:(fun _ -> gt_write dir_o))
  in
  let clear_slot cls dir_o name =
    let d = dir_slots dir_o in
    gt_read dir_o;
    let slots, _ = N.decode_dir_slots d in
    match List.find_opt (fun ((e : N.dirent), _) -> e.N.name = name) slots with
    | None -> ()
    | Some (_, idx) ->
      let z = N.encode_slot None in
      Bytes.blit z 0 d (idx * N.slot_size) N.slot_size;
      attacker_write cls dir_o d
  in
  let mark_attacked p = Hashtbl.replace truth.attacked_paths p () in
  let pick_path rng l = List.nth l (Rng.int rng (List.length l)) in
  let live t oid =
    match handle t admin (Rpc.Get_attr { oid; at = None }) with
    | Rpc.R_attr b -> Bytes.length b > 0
    | _ -> false
  in
  (* The exfiltration targets and the mass-deletion targets are
     disjoint halves of sys/data, so the slow reader never trips over
     an object a burst already destroyed. *)
  let half = max 1 (List.length data_paths / 2) in
  let exfil_paths = List.filteri (fun i _ -> i < half) data_paths in
  let del_paths = List.filteri (fun i _ -> i >= half) data_paths in
  let exfil_cursor = ref 0 in
  let next_exfil () =
    let p = List.nth exfil_paths (!exfil_cursor mod List.length exfil_paths) in
    incr exfil_cursor;
    p
  in
  let backdoors = ref 0 in
  let attack_of cls i () =
    match cls with
    | Trojan ->
      if i = 0 || (i = 1 && cfg.attacks_per_class > 2) then begin
        (* Plant a backdoor binary: fresh object, payload, dir entry. *)
        incr backdoors;
        let nm = Printf.sprintf "backdoor-%d" !backdoors in
        attack_first Trojan;
        truth.attack_ops <- truth.attack_ops + 1;
        match handle t attacker (Rpc.Create { acl = [] }) with
        | Rpc.R_oid fresh ->
          let payload = Bytes.of_string ("#!/bin/evil " ^ String.make 200 '!') in
          attacker_write Trojan fresh payload;
          Hashtbl.replace truth.gt_mut fresh ();
          ignore
            (raw_attack Trojan
               (Rpc.Set_attr
                  { oid = fresh; attr = N.encode_attr (N.fresh_attr N.Freg ~uid:1 ~now:(now ())) })
               ~touches:(fun _ -> gt_write fresh));
          append_slot Trojan (doid "sys/bin") nm fresh;
          truth.created_paths <- ("sys/bin/" ^ nm, fresh) :: truth.created_paths
        | r -> failwith (Format.asprintf "Campaign: backdoor create: %a" Rpc.pp_resp r)
      end
      else begin
        let p = pick_path rng bin_paths in
        mark_attacked p;
        attacker_write Trojan (poid p) (Bytes.of_string ("TROJANED " ^ p ^ String.make 300 '~'))
      end
    | Scrub ->
      let p = pick_path rng log_paths in
      if live t (poid p) then begin
        mark_attacked p;
        if Rng.bool rng then attacker_truncate Scrub (poid p)
        else begin
          (* Delete the log and scrub its directory entry. *)
          ignore
            (raw_attack Scrub (Rpc.Delete { oid = poid p }) ~touches:(fun _ -> gt_write (poid p)));
          clear_slot Scrub (doid "sys/log") (Filename.basename p)
        end
      end
    | Timestomp ->
      let p = pick_path rng bin_paths in
      mark_attacked p;
      if not (List.mem p truth.timestomped) then truth.timestomped <- p :: truth.timestomped;
      (match read_raw t attacker (poid p) with
       | Some (a, _) ->
         gt_read (poid p);
         let back = Int64.sub a.N.mtime 3_600_000_000_000L in
         let forged = { a with N.mtime = back; ctime = back } in
         ignore
           (raw_attack Timestomp
              (Rpc.Set_attr { oid = poid p; attr = N.encode_attr forged })
              ~touches:(fun _ -> gt_write (poid p)))
       | None -> ())
    | Mass_delete ->
      (* A burst of distinct deletions — the rate is what the IDS keys
         on, so the first burst must land at least 3 real deletes. *)
      let candidates = Array.of_list del_paths in
      Rng.shuffle rng candidates;
      let burst = ref (3 + Rng.int rng 2) in
      Array.iter
        (fun p ->
          if !burst > 0 && live t (poid p) then begin
            decr burst;
            attack_first Mass_delete;
            mark_attacked p;
            ignore
              (raw_attack Mass_delete (Rpc.Delete { oid = poid p })
                 ~touches:(fun _ -> gt_write (poid p)));
            clear_slot Mass_delete (doid "sys/data") (Filename.basename p)
          end)
        candidates
    | Exfil ->
      (* Slow exfiltration: two sys/data reads per op (systematically
         walking the dataset — the access pattern the IDS keys on),
         one home-directory read for cover, plus the occasional probe
         at data it cannot reach. *)
      for _ = 1 to 2 do
        let p = next_exfil () in
        ignore
          (raw_attack Exfil
             (Rpc.Read { oid = poid p; off = 0; len = 4096; at = None })
             ~touches:(fun _ -> gt_read (poid p)))
      done;
      (let p = pick_path rng u1_paths in
       ignore
         (raw_attack Exfil
            (Rpc.Read { oid = poid p; off = 0; len = 4096; at = None })
            ~touches:(fun _ -> gt_read (poid p))));
      if i land 1 = 0 then begin
        (* Denied probes: user 2's mailbox dir and an admin command. *)
        attack_first Exfil;
        truth.attack_ops <- truth.attack_ops + 1;
        (match handle t attacker (Rpc.Read { oid = doid "home/u2"; off = 0; len = 512; at = None }) with
         | Rpc.R_error Rpc.Permission_denied ->
           truth.denied_ops <- truth.denied_ops + 1;
           Hashtbl.replace truth.gt_denied (doid "home/u2") ()
         | _ -> failwith "Campaign: home/u2 read should be denied");
        truth.attack_ops <- truth.attack_ops + 1;
        match handle t attacker (Rpc.Flush { until = now () }) with
        | Rpc.R_error Rpc.Permission_denied -> truth.denied_ops <- truth.denied_ops + 1
        | _ -> failwith "Campaign: attacker Flush should be denied"
      end
  in
  let legit_model = Hashtbl.create 64 in
  (* Seed the model from what is actually stored. *)
  List.iter
    (fun p ->
      match read_raw t admin (poid p) with
      | Some (_, d) -> Hashtbl.replace legit_model p d
      | None -> ())
    (u1_paths @ u2_paths @ mail_paths);
  let mail_seq = ref 0 in
  let legit_op i () =
    match Rng.int rng 4 with
    | 0 ->
      let p = pick_path rng u1_paths in
      let d = Bytes.of_string (Printf.sprintf "doc rev %d %s" i (String.make (32 + Rng.int rng 256) 'u')) in
      write_as t.tr_u1 p d;
      Hashtbl.replace legit_model p d
    | 1 ->
      let p = pick_path rng u2_paths in
      let d = Bytes.of_string (Printf.sprintf "secret rev %d %s" i (String.make (32 + Rng.int rng 256) 's')) in
      write_as t.tr_u2 p d;
      Hashtbl.replace legit_model p d
    | 2 ->
      incr mail_seq;
      let p = Printf.sprintf "mail/new-%d" !mail_seq in
      let tr = if Rng.bool rng then t.tr_u1 else t.tr_u2 in
      let d = Bytes.of_string (Printf.sprintf "mail %d" !mail_seq) in
      write_as tr p d;
      Hashtbl.replace legit_model p d
    | _ ->
      let tr, paths = if Rng.bool rng then (t.tr_u1, u1_paths) else (t.tr_u2, u2_paths) in
      via tr (fun () -> ignore (Translator.read_file tr (pick_path rng paths)))
  in
  let ops =
    Array.of_list
      (List.init cfg.legit_ops (fun i -> legit_op i)
      @ List.concat_map
          (fun cls -> List.init cfg.attacks_per_class (fun i -> attack_of cls i))
          (Array.to_list classes))
  in
  Rng.shuffle rng ops;

  (* --- the IDS ------------------------------------------------------ *)
  (* A storage-side detector scanning the audit trail on a period: the
     drive is below the compromised client, so the attacker cannot
     scrub these inputs. Watched (tripwire) objects are the system
     tree; legitimate post-mark traffic never touches it. *)
  let watched_bin = List.map poid bin_paths @ [ doid "sys/bin" ] in
  let watched_log = List.map poid log_paths @ [ doid "sys/log" ] in
  let watched_data = List.map poid data_paths @ [ doid "sys/data" ] in
  (* The read tripwire covers only the system dataset: legitimate
     post-mark traffic lives entirely under home/ and mail/, so any
     principal sweeping distinct sys/data objects is exfiltrating. *)
  let watched_reads = List.map poid exfil_paths in
  let exfil_threshold = min 4 (List.length exfil_paths) in
  let detected : (attack_class, int64) Hashtbl.t = Hashtbl.create 8 in
  let exfil_seen : (int * int, (int64, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let last_scan = ref t_mark in
  let scan_period = Int64.of_float (cfg.detect_every_s *. 1e9) in
  let next_scan = ref (Int64.add t_mark scan_period) in
  let is_mut op = List.mem op [ "write"; "append"; "truncate"; "setattr" ] in
  let flag cls at = if not (Hashtbl.mem detected cls) then Hashtbl.replace detected cls at in
  let scan () =
    let t_scan = now () in
    let recs = Target.audit_records ~since:(Int64.add !last_scan 1L) ~until:Int64.max_int t.target in
    let deletes = ref 0 in
    List.iter
      (fun (r : Audit.record) ->
        if r.Audit.at > t_mark && not (r.Audit.user = 0 && r.Audit.client = 0) then begin
          if r.Audit.ok then begin
            if is_mut r.Audit.op && List.mem r.Audit.oid watched_bin then
              if r.Audit.op = "setattr" then flag Timestomp t_scan else flag Trojan t_scan;
            if (is_mut r.Audit.op || r.Audit.op = "delete") && List.mem r.Audit.oid watched_log
            then flag Scrub t_scan;
            if r.Audit.op = "delete" && List.mem r.Audit.oid watched_data then incr deletes;
            if r.Audit.op = "read" && List.mem r.Audit.oid watched_reads then begin
              let key = (r.Audit.user, r.Audit.client) in
              let seen =
                match Hashtbl.find_opt exfil_seen key with
                | Some s -> s
                | None ->
                  let s = Hashtbl.create 16 in
                  Hashtbl.replace exfil_seen key s;
                  s
              in
              Hashtbl.replace seen r.Audit.oid ();
              if Hashtbl.length seen >= exfil_threshold then flag Exfil t_scan
            end
          end
        end)
      recs;
    if !deletes >= 3 then flag Mass_delete t_scan;
    last_scan := t_scan;
    next_scan := Int64.add t_scan scan_period
  in
  Array.iter
    (fun op ->
      jitter ();
      op ();
      if now () >= !next_scan then scan ())
    ops;
  scan ();
  let t_end = now () in

  (* --- forensics ---------------------------------------------------- *)
  let report = Diagnosis.damage_report ~client:attacker.Rpc.client ~since:t_mark ~until:t_end t.target in
  let reported = Hashtbl.create 64 in
  List.iter (fun (a : Diagnosis.activity) -> Hashtbl.replace reported a.Diagnosis.a_oid a) report;
  let fn = ref [] in
  Hashtbl.iter
    (fun oid () ->
      match Hashtbl.find_opt reported oid with
      | Some a when a.Diagnosis.a_writes > 0 || a.Diagnosis.a_deleted || a.Diagnosis.a_created -> ()
      | _ -> fn := Printf.sprintf "mutated oid %Ld missing from damage report" oid :: !fn)
    truth.gt_mut;
  Hashtbl.iter
    (fun oid () ->
      match Hashtbl.find_opt reported oid with
      | Some a when a.Diagnosis.a_reads > 0 -> ()
      | _ -> fn := Printf.sprintf "read oid %Ld missing from damage report" oid :: !fn)
    truth.gt_read;
  Hashtbl.iter
    (fun oid () ->
      match Hashtbl.find_opt reported oid with
      | Some a when a.Diagnosis.a_denied > 0 -> ()
      | _ -> fn := Printf.sprintf "denied probe at oid %Ld missing from damage report" oid :: !fn)
    truth.gt_denied;
  let fp = ref [] in
  Hashtbl.iter
    (fun oid _ ->
      if
        not
          (Hashtbl.mem truth.gt_mut oid || Hashtbl.mem truth.gt_read oid
          || Hashtbl.mem truth.gt_denied oid)
      then fp := Printf.sprintf "oid %Ld attributed to the attacker without ground truth" oid :: !fp)
    reported;
  let denied_probes =
    List.length (Diagnosis.suspicious_denials ~since:t_mark ~until:t_end t.target)
  in

  (* --- recovery ----------------------------------------------------- *)
  let violations = ref [] in
  (match Landmark.verify_since lm mark with
   | Ok () -> ()
   | Error errs -> violations := errs @ !violations);
  let rpcs0 = Target.ops_handled t.target in
  let t_rec0 = now () in
  let rec_ = Recovery.of_target t.target in
  let rec_report =
    match Recovery.restore_tree rec_ ~at:t_mark ~path:"sys" with
    | Ok r -> r
    | Error e ->
      violations := ("recovery failed: " ^ e) :: !violations;
      { Recovery.files_restored = 0; files_removed = 0; dirs_restored = 0; bytes_restored = 0 }
  in
  let rollback_s = Int64.to_float (Int64.sub (now ()) t_rec0) /. 1e9 in
  let recovery_rpcs = Target.ops_handled t.target - rpcs0 in

  (* --- the oracle --------------------------------------------------- *)
  let surviving = ref [] and lost = ref [] in
  Translator.invalidate_caches t.tr_admin;
  Hashtbl.iter
    (fun p ((a0 : N.attr), d0) ->
      match Translator.lookup_path t.tr_admin p with
      | Error _ ->
        if Hashtbl.mem truth.attacked_paths p then
          surviving := (p ^ ": still missing after rollback") :: !surviving
        else violations := (p ^ ": untouched file lost by recovery") :: !violations
      | Ok (fh, a) ->
        (match read_raw t admin fh with
         | Some (_, d) when Bytes.equal d d0 -> ()
         | Some _ ->
           if Hashtbl.mem truth.attacked_paths p then
             surviving := (p ^ ": attacker contents survived rollback") :: !surviving
           else violations := (p ^ ": untouched contents changed by recovery") :: !violations
         | None -> violations := (p ^ ": unreadable after recovery") :: !violations);
        if List.mem p truth.timestomped && a.N.mtime <> a0.N.mtime then
          surviving := (p ^ ": timestomped mtime survived rollback") :: !surviving)
    baseline;
  List.iter
    (fun (p, _) ->
      match via t.tr_admin (fun () -> Translator.lookup_path t.tr_admin p) with
      | Ok _ -> surviving := (p ^ ": backdoor still present after rollback") :: !surviving
      | Error _ -> ())
    truth.created_paths;
  Hashtbl.iter
    (fun p d0 ->
      match via t.tr_admin (fun () -> Translator.read_file t.tr_admin p) with
      | Ok d when Bytes.equal d d0 -> ()
      | Ok _ -> lost := (p ^ ": legitimate contents clobbered") :: !lost
      | Error e -> lost := (p ^ ": legitimate file unreadable: " ^ nfs_err e) :: !lost)
    legit_model;
  (* The audit chain must verify end to end after the whole story —
     campaign, forensics and rollback included. *)
  (match handle t admin (Rpc.Verify_log { from = None }) with
   | Rpc.R_verify v ->
     if not (Chain.clean v) then
       violations :=
         List.map (fun e -> "audit chain: " ^ e) v.Chain.v_errors @ !violations
   | r -> violations := Format.asprintf "verify-log: %a" Rpc.pp_resp r :: !violations);
  (match Landmark.verify_since lm mark with
   | Ok () -> ()
   | Error errs -> violations := errs @ !violations);
  (match Target.fsck t.target with
   | [] -> ()
   | errs -> violations := List.map (fun e -> "fsck: " ^ e) errs @ !violations);
  if cfg.trace then begin
    let audit =
      match t.target with
      | Target.Drive _ ->
        Some
          (List.map
             (fun (r : Audit.record) ->
               { Check.a_at = r.Audit.at; a_op = r.Audit.op; a_oid = r.Audit.oid; a_ok = r.Audit.ok })
             (Target.audit_records t.target))
      | Target.Array _ -> None
    in
    let res =
      match audit with
      | Some audit -> Check.run ~audit ~complete:true (Trace.spans ())
      | None -> Check.run (Trace.spans ())
    in
    if res.Check.violations <> [] then
      violations :=
        List.map (fun v -> "trace checker: " ^ v) res.Check.violations @ !violations;
    Trace.disable ();
    Trace.clear ()
  end;

  let latency cls =
    match (Hashtbl.find_opt detected cls, Hashtbl.find_opt truth.first_attack cls) with
    | Some d, Some f -> Int64.to_float (Int64.sub d f) /. 1e9
    | _ -> -1.0
  in
  {
    o_mark = mark;
    o_classes = List.map (fun c -> (class_name c, latency c)) (Array.to_list classes);
    o_attack_ops = truth.attack_ops;
    o_legit_ops = cfg.legit_ops;
    o_denied_probes = denied_probes;
    o_damage_objects = Hashtbl.length truth.gt_mut;
    o_damage_bytes = truth.damage_bytes;
    o_false_negatives = !fn;
    o_false_positives = !fp;
    o_rollback_s = rollback_s;
    o_recovery_rpcs = recovery_rpcs;
    o_recovery_ops_per_s =
      (if rollback_s > 0.0 then float_of_int recovery_rpcs /. rollback_s else 0.0);
    o_report = rec_report;
    o_surviving = !surviving;
    o_lost = !lost;
    o_violations = !violations;
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>attack ops %d (%d denied probes), damage %d objects / %d bytes@,%a@,rollback %.3fs, %d RPCs (%.0f ops/s), %a@,oracle: %d surviving, %d lost, %d FN, %d FP, %d violations@]"
    o.o_attack_ops o.o_denied_probes o.o_damage_objects o.o_damage_bytes
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (c, l) ->
         if l >= 0.0 then Format.fprintf ppf "%s detected in %.2fs" c l
         else Format.fprintf ppf "%s UNDETECTED" c))
    o.o_classes o.o_rollback_s o.o_recovery_rpcs o.o_recovery_ops_per_s Recovery.pp_report
    o.o_report
    (List.length o.o_surviving)
    (List.length o.o_lost)
    (List.length o.o_false_negatives)
    (List.length o.o_false_positives)
    (List.length o.o_violations)

let problems o =
  List.concat
    [
      List.filter_map
        (fun (c, l) -> if l < 0.0 then Some (c ^ ": undetected") else None)
        o.o_classes;
      o.o_surviving;
      o.o_lost;
      o.o_false_negatives;
      o.o_false_positives;
      o.o_violations;
    ]
