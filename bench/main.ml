(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5), plus bechamel micro-benchmarks of
   the core data structures.

   Usage:
     bench/main.exe                 run everything at default scale
     bench/main.exe fig3 fig5       run selected experiments
     bench/main.exe --full ...      paper-scale parameters (slower)
     bench/main.exe --json FILE ... also dump recorded series as JSON
     bench/main.exe --seed N ...    override the workload RNG seed

   Results are simulated time on the modelled 1999-era testbed (Cheetah
   disk, 100 Mb Ethernet, 600 MHz server); shapes, not wall-clock, are
   the point. EXPERIMENTS.md records paper-vs-measured. *)

module Simclock = S4_util.Simclock
module Rng = S4_util.Rng
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Log = S4_seglog.Log
module Store = S4_store.Obj_store
module Cleaner = S4_store.Cleaner
module Drive = S4.Drive
module Rpc = S4.Rpc
module N = S4_nfs.Nfs_types
module Nv = S4_baseline.Naive_versioning
module Systems = S4_workload.Systems
module Postmark = S4_workload.Postmark
module Ssh_build = S4_workload.Ssh_build
module Microbench = S4_workload.Microbench
module Daily = S4_workload.Daily
module Capacity = S4_analysis.Capacity
module Diffstudy = S4_analysis.Diffstudy
module Report = S4_analysis.Report
module Router = S4_shard.Router

let full_scale = ref false
let seed_override : int option ref = ref None

let pm_seeded (c : Postmark.config) =
  match !seed_override with None -> c | Some seed -> { c with Postmark.seed }

let rng_seed default = Option.value !seed_override ~default

(* ------------------------------------------------------------------ *)
(* Table 1: the RPC interface                                          *)

let table1 () =
  Report.heading "Table 1: S4 RPC interface (time-based access support)";
  let rows =
    [
      ("Create", "no", "create an object");
      ("Delete", "no", "delete an object");
      ("Read", "yes", "read data from an object");
      ("Write", "no", "write data to an object");
      ("Append", "no", "append data to the end of an object");
      ("Truncate", "no", "truncate an object to a specified length");
      ("GetAttr", "yes", "get the attributes of an object");
      ("SetAttr", "no", "set the opaque attributes of an object");
      ("GetACLByUser", "yes", "get an ACL entry by UserID");
      ("GetACLByIndex", "yes", "get an ACL entry by table index");
      ("SetACL", "no", "set an ACL entry");
      ("PCreate", "no", "create a partition (name -> ObjectID)");
      ("PDelete", "no", "delete a partition");
      ("PList", "yes", "list the partitions");
      ("PMount", "yes", "retrieve the ObjectID given its name");
      ("Sync", "n/a", "sync the entire cache to disk");
      ("Flush", "n/a", "remove versions older than a time (admin)");
      ("FlushO", "n/a", "remove one object's old versions (admin)");
      ("SetWindow", "n/a", "adjust the guaranteed detection window (admin)");
    ]
  in
  Report.table ~header:[ "RPC"; "time-based"; "description" ]
    (List.map (fun (a, b, c) -> [ a; b; c ]) rows);
  (* Prove the matrix by exercising each RPC against a live drive. *)
  let clock = Simclock.create () in
  let disk =
    Sim_disk.create
      ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(64 * 1024 * 1024))
      clock
  in
  let drive = Drive.format disk in
  let alice = Rpc.user_cred ~user:1 ~client:1 in
  let ok = ref 0 in
  let exec cred req =
    match Drive.handle drive cred req with
    | Rpc.R_error e -> failwith (Format.asprintf "%a" Rpc.pp_error e)
    | _ -> incr ok
  in
  let oid =
    match Drive.handle drive alice (Rpc.Create { acl = [] }) with
    | Rpc.R_oid o ->
      incr ok;
      o
    | _ -> failwith "create"
  in
  exec alice (Rpc.Write { oid; off = 0; len = 4; data = Some (Bytes.of_string "abcd") });
  exec alice (Rpc.Append { oid; len = 4; data = Some (Bytes.of_string "efgh") });
  exec alice (Rpc.Read { oid; off = 0; len = 8; at = None });
  exec alice (Rpc.Truncate { oid; size = 4 });
  exec alice (Rpc.Get_attr { oid; at = None });
  exec alice (Rpc.Set_attr { oid; attr = Bytes.of_string "attrs" });
  exec alice (Rpc.Get_acl_by_user { oid; acl_user = 1; at = None });
  exec alice (Rpc.Get_acl_by_index { oid; index = 0; at = None });
  exec alice (Rpc.Set_acl { oid; index = 1; entry = S4.Acl.public_read });
  exec alice (Rpc.P_create { name = "vol"; oid });
  exec alice (Rpc.P_list { at = None });
  exec alice (Rpc.P_mount { name = "vol"; at = None });
  exec alice Rpc.Sync;
  exec alice (Rpc.P_delete { name = "vol" });
  exec alice (Rpc.Delete { oid });
  exec Rpc.admin_cred (Rpc.Set_window { window = 1_000_000_000L });
  exec Rpc.admin_cred (Rpc.Flush_object { oid; until = 0L });
  exec Rpc.admin_cred (Rpc.Flush { until = 0L });
  Printf.printf "\nAll 19 RPC types executed successfully against a live drive (%d calls ok).\n" !ok

(* ------------------------------------------------------------------ *)
(* Figure 2: journal-based metadata vs conventional versioning         *)

let fig2 () =
  Report.heading "Figure 2: metadata cost per update (journal-based vs conventional versioning)";
  let scenario name offsets =
    let clock = Simclock.create () in
    let disk =
      Sim_disk.create
        ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(512 * 1024 * 1024))
        clock
    in
    let log = Log.create disk in
    let store = Store.create ~config:{ Store.default_config with keep_data = false } log in
    let oid = Store.create_object store in
    (* Pre-size the file so updates land in indirect territory. *)
    let max_off = List.fold_left max 0 offsets in
    Store.write store oid ~off:0 ~len:(max_off + 4096) ();
    let nv = Nv.create () in
    Nv.write nv ~off:0 ~len:(max_off + 4096);
    let s4_meta0 = (Store.stats store).Store.journal_bytes in
    let nv_meta0 = Nv.metadata_bytes nv in
    List.iter
      (fun off ->
        Store.write store oid ~off ~len:4096 ();
        Nv.write nv ~off ~len:4096)
      offsets;
    Store.sync store;
    let s4_meta = (Store.stats store).Store.journal_bytes - s4_meta0 in
    let nv_meta = Nv.metadata_bytes nv - nv_meta0 in
    let n = List.length offsets in
    [
      name;
      string_of_int n;
      Printf.sprintf "%d B" (nv_meta / n);
      Printf.sprintf "%d B" (s4_meta / n);
      Printf.sprintf "%.0fx" (float_of_int nv_meta /. float_of_int s4_meta);
    ]
  in
  let direct = List.init 50 (fun i -> i mod 12 * 4096) in
  let single = List.init 50 (fun i -> (12 + (i mod 1000)) * 4096) in
  let double = List.init 50 (fun i -> (12 + 1024 + (i * 13)) * 4096) in
  Report.table
    ~header:
      [ "update pattern"; "updates"; "conventional meta/update"; "S4 journal meta/update"; "ratio" ]
    [
      scenario "direct blocks" direct;
      scenario "single indirect" single;
      scenario "double indirect" double;
    ];
  Report.note
    "conventional versioning copies the indirect chain + inode per update (the paper's up-to-4x growth); a journal entry is tens of bytes"

(* ------------------------------------------------------------------ *)
(* Figure 3: PostMark                                                  *)

let fig3 () =
  Report.heading "Figure 3: PostMark benchmark (four servers)";
  let config =
    pm_seeded
      (if !full_scale then Postmark.default
       else { Postmark.default with Postmark.files = 1000; transactions = 5000 })
  in
  Printf.printf "files=%d transactions=%d\n\n" config.Postmark.files config.Postmark.transactions;
  let results = List.map (fun sys -> Postmark.run ~config sys) (Systems.all_four ()) in
  List.iter
    (fun (r : Postmark.result) ->
      Report.record ~experiment:"fig3" ~label:r.Postmark.system
        [
          ("creation_seconds", r.Postmark.creation_seconds);
          ("transaction_seconds", r.Postmark.transaction_seconds);
          ("transactions_per_second", r.Postmark.transactions_per_second);
        ])
    results;
  Report.table
    ~header:[ "system"; "creation (s)"; "transactions (s)"; "txn/s" ]
    (List.map
       (fun (r : Postmark.result) ->
         [
           r.Postmark.system;
           Printf.sprintf "%.2f" r.Postmark.creation_seconds;
           Printf.sprintf "%.2f" r.Postmark.transaction_seconds;
           Printf.sprintf "%.1f" r.Postmark.transactions_per_second;
         ])
       results);
  print_newline ();
  Report.bars
    (List.map
       (fun (r : Postmark.result) -> (r.Postmark.system ^ " (txn s)", r.Postmark.transaction_seconds))
       results);
  Report.note "paper: S4 comparable to BSD/Linux NFS, slightly better due to its log-structured layout"

(* ------------------------------------------------------------------ *)
(* Figure 4: SSH-build                                                 *)

let fig4 () =
  Report.heading "Figure 4: SSH-build benchmark (unpack / configure / build)";
  let config =
    if !full_scale then Ssh_build.default
    else { Ssh_build.default with Ssh_build.source_files = 60; configure_tests = 30 }
  in
  let results = List.map (fun sys -> Ssh_build.run ~config sys) (Systems.all_four ()) in
  List.iter
    (fun (r : Ssh_build.result) ->
      Report.record ~experiment:"fig4" ~label:r.Ssh_build.system
        [
          ("unpack_seconds", r.Ssh_build.unpack_seconds);
          ("configure_seconds", r.Ssh_build.configure_seconds);
          ("build_seconds", r.Ssh_build.build_seconds);
          ("total_seconds", Ssh_build.total r);
        ])
    results;
  Report.table
    ~header:[ "system"; "unpack (s)"; "configure (s)"; "build (s)"; "total (s)" ]
    (List.map
       (fun (r : Ssh_build.result) ->
         [
           r.Ssh_build.system;
           Printf.sprintf "%.2f" r.Ssh_build.unpack_seconds;
           Printf.sprintf "%.2f" r.Ssh_build.configure_seconds;
           Printf.sprintf "%.2f" r.Ssh_build.build_seconds;
           Printf.sprintf "%.2f" (Ssh_build.total r);
         ])
       results);
  Report.note
    "paper: similar across S4 and BSD; Linux wins configure via its sync-mount write-coalescing flaw"

(* ------------------------------------------------------------------ *)
(* Figure 5: cleaner overhead vs capacity utilisation                  *)

let fig5_rows () =
  Report.heading "Figure 5: cleaner overhead vs capacity utilisation (PostMark transactions)";
  let disk_mb = if !full_scale then 2048 else 512 in
  let transactions = if !full_scale then 50_000 else 8_000 in
  let utilisations = [ 0.02; 0.10; 0.30; 0.50; 0.60; 0.80; 0.90 ] in
  Printf.printf "disk=%d MB, transactions=%d\n\n" disk_mb transactions;
  (* Utilisation is measured in occupied blocks: a PostMark file
     (uniform 512..9216 B) occupies ~1.71 4KB blocks, plus ~0.2 blocks
     of metadata (journal + packed checkpoint share). *)
  let blocks_per_file = 1.9 in
  let run ~mode util =
    (* Tiny window so overwritten data expires immediately; the
       cleaner (when enabled) competes with foreground work. *)
    let drive_config =
      {
        Systems.benchmark_drive_config with
        Drive.window = 0L;
        cleaner_live_threshold = 0.9;
        cleaner_max_segments = 16;
      }
    in
    let sys =
      Systems.s4_nfs_server
        ~config:{ Systems.Config.default with disk_mb = Some disk_mb; drive_config }
        ()
    in
    (match sys.Systems.drive with
     | Some d -> Cleaner.set_mode (Drive.cleaner d) mode
     | None -> ());
    let usable =
      match sys.Systems.drive with
      | Some d -> S4_seglog.Log.usable_blocks (Drive.log d)
      | None -> disk_mb * 256
    in
    let files = int_of_float (util *. float_of_int usable /. blocks_per_file) in
    (* The paper ran the cleaner continuously competing with foreground
       activity; a short period approximates that. *)
    let config =
      pm_seeded { Postmark.default with Postmark.files; transactions; cleaner_every = Some 50 }
    in
    let r = Postmark.run ~config sys in
    r.Postmark.transactions_per_second
  in
  let rows =
    List.map
      (fun util ->
        (* Free mode: cleaning happens (it must, to keep space) but
           costs nothing - the paper's solid "no cleaning" line. *)
        let normal = run ~mode:Cleaner.Free util in
        (* Charged: the paper's untuned continuous *foreground* cleaner
           (the dashed line / worst case). *)
        let fg = run ~mode:Cleaner.Charged util in
        (* Overlapped: the Sec 5.1.5 remedy - cleaning soaks up idle
           disk time first. *)
        let bg = run ~mode:Cleaner.Overlapped util in
        Report.record ~experiment:"fig5"
          [
            ("utilisation", util);
            ("tps_no_cleaning", normal);
            ("tps_foreground", fg);
            ("tps_overlapped", bg);
          ];
        (util, normal, fg, bg))
      utilisations
  in
  Report.table
    ~header:
      [ "utilisation"; "txn/s (no cleaning cost)"; "txn/s (foreground cleaner)"; "degradation";
        "txn/s (idle-overlapped)"; "bg degradation" ]
    (List.map
       (fun (u, n, fg, bg) ->
         [
           Printf.sprintf "%.0f%%" (100.0 *. u);
           Printf.sprintf "%.1f" n;
           Printf.sprintf "%.1f" fg;
           Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. (fg /. n)));
           Printf.sprintf "%.1f" bg;
           Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. (bg /. n)));
         ])
       rows);
  Report.note
    "paper: sharp drop 2%->10% as the set leaves the cache; continuous foreground cleaning costs up to ~50%; idle-time cleaning is the paper's proposed remedy (Sec 5.1.5)";
  List.map (fun (u, n, fg, _) -> (u, n, fg)) rows

let fig5 () = ignore (fig5_rows ())

let fundamental () =
  Report.heading "Section 5.1.5: fundamental cost of keeping the history pool";
  let rows = fig5_rows () in
  let find u = List.find_opt (fun (x, _, _) -> abs_float (x -. u) < 0.01) rows in
  match (find 0.60, find 0.80) with
  | Some (_, n60, c60), Some (_, n80, c80) ->
    let d60 = 1.0 -. (c60 /. n60) and d80 = 1.0 -. (c80 /. n80) in
    Report.kv
      [
        ("cleaning overhead at 60% (active set only)", Printf.sprintf "%.0f%%" (100.0 *. d60));
        ( "cleaning overhead at 80% (active set + history pool)",
          Printf.sprintf "%.0f%%" (100.0 *. d80) );
        ( "extra overhead attributable to the history pool",
          Printf.sprintf "%.0f%%" (100.0 *. (d80 -. d60)) );
      ];
    Report.note
      "paper's example: 43% at 60% utilisation vs 53% at 80% -> the history pool itself costs ~10%"
  | _ -> print_endline "fig5 points missing"

(* ------------------------------------------------------------------ *)
(* Figure 6: audit-log overhead microbenchmark                         *)

let fig6 () =
  Report.heading "Figure 6: audit-log overhead (create/read/delete 1KB files)";
  let files = if !full_scale then 10_000 else 4_000 in
  Printf.printf "files=%d in 10 directories\n\n" files;
  let run audit =
    let drive_config = { Systems.benchmark_drive_config with Drive.audit_enabled = audit } in
    let sys = Systems.s4_nfs_server ~config:{ Systems.Config.default with drive_config } () in
    Microbench.run ~config:{ Microbench.default with Microbench.files } sys
  in
  let off = run false in
  let on = run true in
  let pct a b = 100.0 *. (a -. b) /. b in
  Report.record ~experiment:"fig6"
    [
      ("create_off_s", off.Microbench.create_seconds);
      ("create_on_s", on.Microbench.create_seconds);
      ("read_off_s", off.Microbench.read_seconds);
      ("read_on_s", on.Microbench.read_seconds);
      ("delete_off_s", off.Microbench.delete_seconds);
      ("delete_on_s", on.Microbench.delete_seconds);
    ];
  Report.table
    ~header:[ "phase"; "audit off (s)"; "audit on (s)"; "penalty" ]
    [
      [
        "create";
        Printf.sprintf "%.2f" off.Microbench.create_seconds;
        Printf.sprintf "%.2f" on.Microbench.create_seconds;
        Printf.sprintf "%.1f%%" (pct on.Microbench.create_seconds off.Microbench.create_seconds);
      ];
      [
        "read";
        Printf.sprintf "%.2f" off.Microbench.read_seconds;
        Printf.sprintf "%.2f" on.Microbench.read_seconds;
        Printf.sprintf "%.1f%%" (pct on.Microbench.read_seconds off.Microbench.read_seconds);
      ];
      [
        "delete";
        Printf.sprintf "%.2f" off.Microbench.delete_seconds;
        Printf.sprintf "%.2f" on.Microbench.delete_seconds;
        Printf.sprintf "%.1f%%" (pct on.Microbench.delete_seconds off.Microbench.delete_seconds);
      ];
    ];
  Report.note
    "paper: create 2.8%, read 7.2% (audit blocks interleave with data in segments), delete 2.9%"

let audit_macro () =
  Report.heading "Section 5.1.4: audit overhead on an application benchmark (PostMark)";
  let config = pm_seeded { Postmark.default with Postmark.files = 1000; transactions = 5000 } in
  let run audit =
    let drive_config = { Systems.benchmark_drive_config with Drive.audit_enabled = audit } in
    Postmark.run ~config
      (Systems.s4_nfs_server ~config:{ Systems.Config.default with drive_config } ())
  in
  let off = run false and on = run true in
  let t r = r.Postmark.creation_seconds +. r.Postmark.transaction_seconds in
  Report.record ~experiment:"audit-macro"
    [
      ("audit_off_s", t off);
      ("audit_on_s", t on);
      ("penalty_pct", 100.0 *. ((t on /. t off) -. 1.0));
    ];
  Report.kv
    [
      ("audit off", Printf.sprintf "%.2f s" (t off));
      ("audit on", Printf.sprintf "%.2f s" (t on));
      ("penalty", Printf.sprintf "%.1f%%" (100.0 *. ((t on /. t off) -. 1.0)));
    ];
  Report.note "paper: 1-3% on the macro benchmarks"

(* ------------------------------------------------------------------ *)
(* Figure 7: projected detection window                                *)

let fig7 () =
  Report.heading "Figure 7: projected detection window (10 GB history pool)";
  print_endline "(a) with the paper's differencing/compression factors (3x / 5x):";
  let projections = Capacity.project_all () in
  Report.table
    ~header:[ "workload"; "MB/day"; "baseline (days)"; "+differencing"; "+diff+compression" ]
    (List.map
       (fun (p : Capacity.projection) ->
         [
           p.Capacity.p_study;
           Printf.sprintf "%.0f" (float_of_int p.Capacity.daily_write_bytes /. 1048576.0);
           Printf.sprintf "%.0f" p.Capacity.baseline_days;
           Printf.sprintf "%.0f" p.Capacity.differenced_days;
           Printf.sprintf "%.0f" p.Capacity.compressed_days;
         ])
       projections);
  print_newline ();
  print_endline "(b) with OUR measured differencing/compression factors (see diffstudy):";
  let d = Diffstudy.run ~files:(if !full_scale then 60 else 30) () in
  let projections =
    Capacity.project_all ~diff_factor:d.Diffstudy.diff_efficiency
      ~comp_factor:(Float.max d.Diffstudy.comp_efficiency d.Diffstudy.diff_efficiency)
      ()
  in
  Printf.printf "measured: differencing %.1fx, differencing+compression %.1fx\n"
    d.Diffstudy.diff_efficiency d.Diffstudy.comp_efficiency;
  Report.table
    ~header:[ "workload"; "baseline (days)"; "+differencing"; "+diff+compression" ]
    (List.map
       (fun (p : Capacity.projection) ->
         [
           p.Capacity.p_study;
           Printf.sprintf "%.0f" p.Capacity.baseline_days;
           Printf.sprintf "%.0f" p.Capacity.differenced_days;
           Printf.sprintf "%.0f" p.Capacity.compressed_days;
         ])
       projections);
  print_newline ();
  print_endline "(c) measured history growth, scaled replay on a live S4 drive:";
  List.iter
    (fun study ->
      let sys = Systems.s4_remote () in
      let m = Daily.replay ~scale:0.002 ~days:3 study sys in
      Format.printf "  %a@." Daily.pp_measurement m)
    Daily.all;
  Report.note
    "paper: 70+ days (AFS), 10 days (NT), 90+ days (Santry); 50-470 days with differencing+compression"

(* ------------------------------------------------------------------ *)
(* Section 5.2: differencing experiment                                *)

let diffstudy () =
  Report.heading "Section 5.2: cross-version differencing + compression (7 daily snapshots)";
  let r = Diffstudy.run ~files:(if !full_scale then 80 else 40) () in
  Report.table
    ~header:[ "day"; "tree (KB)"; "delta vs prev (KB)"; "delta+lz (KB)" ]
    (List.map
       (fun (d : Diffstudy.day) ->
         [
           string_of_int d.Diffstudy.day_index;
           Printf.sprintf "%.0f" (float_of_int d.Diffstudy.tree_bytes /. 1024.0);
           Printf.sprintf "%.0f" (float_of_int d.Diffstudy.delta_bytes /. 1024.0);
           Printf.sprintf "%.0f" (float_of_int d.Diffstudy.delta_lz_bytes /. 1024.0);
         ])
       r.Diffstudy.days);
  print_newline ();
  Report.record ~experiment:"diffstudy"
    [
      ("diff_efficiency", r.Diffstudy.diff_efficiency);
      ("comp_efficiency", r.Diffstudy.comp_efficiency);
    ];
  Report.kv
    [
      ( "space efficiency from differencing",
        Printf.sprintf "%.1fx (paper ~3x)" r.Diffstudy.diff_efficiency );
      ("with compression on top", Printf.sprintf "%.1fx (paper ~5x)" r.Diffstudy.comp_efficiency);
    ]

(* ------------------------------------------------------------------ *)
(* Section 6 discussion: versioning vs snapshots                       *)

let snapshots () =
  Report.heading "Section 6: comprehensive versioning vs periodic snapshots";
  let module Snap = S4_analysis.Snapshots in
  let periods = [ 60.0; 600.0; 3600.0; 86_400.0 ] in
  let rows = Snap.sweep ~periods_s:periods () in
  let fmt_period p =
    if p >= 86_400.0 then Printf.sprintf "%.0f d" (p /. 86_400.0)
    else if p >= 3600.0 then Printf.sprintf "%.0f h" (p /. 3600.0)
    else Printf.sprintf "%.0f min" (p /. 60.0)
  in
  Report.table
    ~header:
      [ "snapshot period"; "files captured"; "short-lived files"; "intermediate versions";
        "mean loss window" ]
    (List.map
       (fun (r : Snap.result) ->
         [
           fmt_period r.Snap.period_s;
           Printf.sprintf "%.0f%%" (100.0 *. r.Snap.files_captured);
           Printf.sprintf "%.0f%%" (100.0 *. r.Snap.short_lived_captured);
           Printf.sprintf "%.0f%%" (100.0 *. r.Snap.versions_captured);
           Printf.sprintf "%.0f s" (r.Snap.mean_loss_window_s);
         ])
       rows
     @ [ [ "every modification (S4)"; "100%"; "100%"; "100%"; "0 s" ] ]);
  Report.note
    "paper: snapshots often cannot recover short-lived files (exploit tools) or intermediate versions (scrubbed log updates); comprehensive versioning is the end-point of shrinking the period"

(* ------------------------------------------------------------------ *)
(* Ablations of S4 design choices                                      *)

let ablation () =
  Report.heading "Ablations: S4 design-parameter sensitivity (small PostMark / microbench)";
  let pm_config = pm_seeded { Postmark.default with Postmark.files = 500; transactions = 2_500 } in
  let run_pm drive_config =
    let sys = Systems.s4_nfs_server ~config:{ Systems.Config.default with drive_config } () in
    (Postmark.run ~config:pm_config sys).Postmark.transactions_per_second
  in
  print_endline "(a) block (buffer) cache size - the Figure 5 knee:";
  Report.table ~header:[ "cache"; "txn/s" ]
    (List.map
       (fun mb ->
         let dc =
           { Systems.benchmark_drive_config with
             Drive.store =
               { Systems.benchmark_drive_config.Drive.store with
                 Store.block_cache_bytes = mb * 1024 * 1024 } }
         in
         [ Printf.sprintf "%d MB" mb; Printf.sprintf "%.1f" (run_pm dc) ])
       [ 2; 8; 32; 128 ]);
  print_endline "\n(b) read-ahead (blocks per cache miss) - microbench cold reads:";
  Report.table ~header:[ "readahead"; "read phase (s)" ]
    (List.map
       (fun ra ->
         let dc =
           { Systems.benchmark_drive_config with
             Drive.store =
               { Systems.benchmark_drive_config.Drive.store with Store.readahead_blocks = ra } }
         in
         let sys =
           Systems.s4_nfs_server
             ~config:{ Systems.Config.default with drive_config = dc }
             ()
         in
         let r = Microbench.run ~config:{ Microbench.default with Microbench.files = 2000 } sys in
         [ string_of_int ra; Printf.sprintf "%.2f" r.Microbench.read_seconds ])
       [ 1; 8; 32; 64 ]);
  print_endline "\n(c) checkpoint interval (journal entries between metadata images):";
  Report.table ~header:[ "interval"; "txn/s"; "ckpt blocks written" ]
    (List.map
       (fun iv ->
         let dc =
           { Systems.benchmark_drive_config with
             Drive.store =
               { Systems.benchmark_drive_config.Drive.store with Store.checkpoint_interval = iv } }
         in
         let sys =
           Systems.s4_nfs_server
             ~config:{ Systems.Config.default with drive_config = dc }
             ()
         in
         let tps = (Postmark.run ~config:pm_config sys).Postmark.transactions_per_second in
         let ckpt =
           match sys.Systems.drive with
           | Some d -> (Store.stats (Drive.store d)).Store.checkpoint_blocks_written
           | None -> 0
         in
         [ string_of_int iv; Printf.sprintf "%.1f" tps; string_of_int ckpt ])
       [ 16; 64; 128; 512 ]);
  Report.note "journal-based metadata keeps checkpoints rare; performance is flat across sane intervals"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)

let micro () =
  Report.heading "Micro-benchmarks (bechamel; real host time per operation)";
  let open Bechamel in
  let mk_store () =
    let clock = Simclock.create () in
    let disk =
      Sim_disk.create
        ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(256 * 1024 * 1024))
        clock
    in
    let log = Log.create disk in
    Store.create ~config:{ Store.default_config with keep_data = false } log
  in
  let store = mk_store () in
  let woid = Store.create_object store in
  let roid = Store.create_object store in
  Store.write store roid ~off:0 ~len:65536 ();
  let rng = Rng.create ~seed:1 in
  let payload = Rng.bytes rng 4096 in
  let payload2 =
    let b = Bytes.copy payload in
    Bytes.blit (Rng.bytes rng 256) 0 b 1024 256;
    b
  in
  let tests =
    [
      Test.make ~name:"store-write-4k"
        (Staged.stage (fun () -> Store.write store woid ~off:0 ~len:4096 ()));
      Test.make ~name:"store-read-64k"
        (Staged.stage (fun () -> ignore (Store.read store roid ~off:0 ~len:65536)));
      Test.make ~name:"store-sync" (Staged.stage (fun () -> Store.sync store));
      Test.make ~name:"crc32-4k" (Staged.stage (fun () -> ignore (S4_util.Crc32.bytes payload)));
      Test.make ~name:"lz-compress-4k"
        (Staged.stage (fun () -> ignore (S4_compress.Lz.compress payload)));
      Test.make ~name:"delta-encode-4k"
        (Staged.stage (fun () -> ignore (S4_compress.Delta.encode ~source:payload ~target:payload2)));
      Test.make ~name:"acl-check"
        (Staged.stage (fun () ->
             ignore
               (S4.Acl.allows
                  [ S4.Acl.owner_entry ~user:1; S4.Acl.public_read ]
                  ~user:2 ~client:3 S4.Acl.Read)));
    ]
  in
  let grouped = Test.make_grouped ~name:"s4" tests in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> rows := (name, nan) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "  %-40s %12.0f ns/op\n" name est)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Fault sweep: throughput and recovery under injected media faults    *)

let faults () =
  Report.heading "Fault sweep: injected media faults vs throughput and retries";
  let ops = if !full_scale then 20_000 else 4_000 in
  let payload = Bytes.make 4096 'f' in
  let run_at rate =
    let clock = Simclock.create () in
    let disk =
      Sim_disk.create
        ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(256 * 1024 * 1024))
        clock
    in
    let drive = Drive.format disk in
    let policy =
      S4_disk.Fault.create
        ~config:
          {
            S4_disk.Fault.quiet with
            transient_write_rate = rate;
            transient_read_rate = rate /. 10.;
          }
        (Rng.create ~seed:(rng_seed 97))
    in
    Sim_disk.set_fault disk (Some policy);
    let cred = Rpc.user_cred ~user:1 ~client:1 in
    let oids =
      Drive.submit drive cred (Array.init 8 (fun _ -> Rpc.Create { acl = [] }))
      |> Array.to_list
      |> List.map (function
           | Rpc.R_oid o -> o
           | r -> failwith (Format.asprintf "create: %a" Rpc.pp_resp r))
    in
    let completed = ref 0 and errors = ref 0 in
    for i = 0 to ops - 1 do
      let oid = List.nth oids (i mod 8) in
      let req =
        if i mod 8 = 7 then Rpc.Sync
        else Rpc.Write { oid; off = 4096 * (i mod 64); len = 4096; data = Some payload }
      in
      match Drive.handle drive cred req with
      | Rpc.R_error _ -> incr errors
      | _ -> incr completed
    done;
    Sim_disk.set_fault disk None;
    let secs = Int64.to_float (Simclock.now clock) /. 1e9 in
    let retries = (Log.stats (Drive.log drive)).Log.io_retries in
    ( rate,
      float_of_int !completed /. secs,
      retries,
      Drive.io_errors drive,
      !errors,
      Drive.degraded drive )
  in
  let rows =
    List.map
      (fun rate ->
        let rate, tput, retries, io_errors, rpc_errors, degraded = run_at rate in
        Report.record ~experiment:"faults"
          [
            ("fault_rate", rate);
            ("ops_per_sim_second", tput);
            ("io_retries", float_of_int retries);
            ("io_errors", float_of_int io_errors);
            ("rpc_errors", float_of_int rpc_errors);
            ("degraded", if degraded then 1.0 else 0.0);
          ];
        [
          Printf.sprintf "%.0e" rate;
          Printf.sprintf "%.0f" tput;
          string_of_int retries;
          string_of_int io_errors;
          string_of_int rpc_errors;
          (if degraded then "yes" else "no");
        ])
      [ 0.0; 1e-4; 1e-3; 1e-2 ]
  in
  Report.table
    ~header:[ "fault rate"; "ops/sim-s"; "io retries"; "io errors"; "rpc errors"; "degraded" ]
    rows;
  (* Crash-recovery spot check: random crash points through the same
     machinery the test suite sweeps exhaustively. *)
  let reports = S4_tools.Crashtest.sweep ~seed:(rng_seed 23) ~runs:(if !full_scale then 60 else 20) () in
  let failed = S4_tools.Crashtest.failed_reports reports in
  let snaps = List.fold_left (fun a r -> a + r.S4_tools.Crashtest.snapshots) 0 reports in
  let audit = List.fold_left (fun a r -> a + r.S4_tools.Crashtest.audit_checked) 0 reports in
  Printf.printf
    "\nCrash sweep: %d randomized crash points, %d snapshot states and %d audit records verified, %d invariant violations.\n"
    (List.length reports) snaps audit (List.length failed);
  List.iter
    (fun r -> Format.printf "  VIOLATION %a@." S4_tools.Crashtest.pp_report r)
    failed

(* ------------------------------------------------------------------ *)
(* Scale: sharded-array throughput scaling + online rebalance cost     *)

let scale () =
  Report.heading "Scale: sharded S4 array, 1..8 drives (PostMark + small-file microbench)";
  let pm_config =
    pm_seeded
      (if !full_scale then { Postmark.default with Postmark.files = 12_000 }
       else { Postmark.default with Postmark.files = 3_000; transactions = 6_000 })
  in
  let mb_files = if !full_scale then 10_000 else 2_000 in
  let counts = [ 1; 2; 4; 8 ] in
  (* Per-drive caches sized below the PostMark working set: a single
     drive thrashes, while each added shard brings its own cache and
     spindle — the aggregate-resources effect that makes scale-out
     arrays scale. *)
  let drive_config =
    {
      Systems.benchmark_drive_config with
      Drive.store =
        {
          Systems.benchmark_drive_config.Drive.store with
          Store.block_cache_bytes = 4 * 1024 * 1024;
          object_cache_bytes = 4 * 1024 * 1024;
        };
    }
  in
  Printf.printf "postmark: files=%d transactions=%d; microbench: files=%d x 1KB; 4MB caches/drive\n\n"
    pm_config.Postmark.files pm_config.Postmark.transactions mb_files;
  let rows =
    List.map
      (fun shards ->
        let cfg = { Systems.Config.serial with drive_config } in
        let pm = Postmark.run ~config:pm_config (Systems.s4_array ~config:cfg ~shards ()) in
        let mb =
          Microbench.run
            ~config:{ Microbench.default with Microbench.files = mb_files }
            (Systems.s4_array ~config:cfg ~shards ())
        in
        (shards, pm, mb))
      counts
  in
  let base_tps =
    match rows with
    | (_, pm, _) :: _ -> pm.Postmark.transactions_per_second
    | [] -> 1.0
  in
  List.iter
    (fun (shards, (pm : Postmark.result), (mb : Microbench.result)) ->
      Report.record ~experiment:"scale"
        [
          ("shards", float_of_int shards);
          ("postmark_tps", pm.Postmark.transactions_per_second);
          ("postmark_speedup", pm.Postmark.transactions_per_second /. base_tps);
          ("postmark_transaction_seconds", pm.Postmark.transaction_seconds);
          ("micro_create_s", mb.Microbench.create_seconds);
          ("micro_read_s", mb.Microbench.read_seconds);
          ("micro_delete_s", mb.Microbench.delete_seconds);
        ])
    rows;
  Report.table
    ~header:
      [ "shards"; "postmark txn/s"; "speedup"; "micro create (s)"; "read (s)"; "delete (s)" ]
    (List.map
       (fun (shards, (pm : Postmark.result), (mb : Microbench.result)) ->
         [
           string_of_int shards;
           Printf.sprintf "%.1f" pm.Postmark.transactions_per_second;
           Printf.sprintf "%.2fx" (pm.Postmark.transactions_per_second /. base_tps);
           Printf.sprintf "%.2f" mb.Microbench.create_seconds;
           Printf.sprintf "%.2f" mb.Microbench.read_seconds;
           Printf.sprintf "%.2f" mb.Microbench.delete_seconds;
         ])
       rows);
  print_newline ();
  Report.bars
    (List.map
       (fun (n, (pm : Postmark.result), _) ->
         (Printf.sprintf "%d shard%s (txn/s)" n (if n = 1 then "" else "s"),
          pm.Postmark.transactions_per_second))
       rows);
  (* Per-shard worker domains: the same PostMark-shaped object mix,
     submitted as vectored batches straight at the router, serial vs
     one worker domain per shard. Two honest columns per row: the
     simulated clock (the model's parallel charge — a batch window
     spanning k shards costs the slowest lane instead of the sum) and
     host wall-clock (true parallelism, bounded by the cores actually
     available — on a single-core host the wall column shows no
     speedup by construction, and the [cores] field says so). *)
  print_newline ();
  Report.heading "Scale: per-shard worker domains (vectored object workload)";
  let cores = Domain.recommended_domain_count () in
  let files = if !full_scale then 1024 else 256 in
  let batches = if !full_scale then 400 else 120 in
  let batch = 64 in
  Printf.printf "host cores: %d%s; %d objects, %d batches x %d requests\n\n" cores
    (if cores < 2 then " (wall-clock parallelism unavailable on this host)" else "")
    files batches batch;
  let payload = Bytes.make 4096 'd' in
  let run_mode ~shards ~domains =
    let clock = Simclock.create () in
    let members =
      List.init shards (fun i ->
          ( i,
            Router.Single
              (Drive.format ~config:drive_config
                 (Sim_disk.create ~geometry:Geometry.cheetah_9gb clock)) ))
    in
    let router = Router.create members in
    Router.set_domains router domains;
    let cred = Rpc.user_cred ~user:1 ~client:1 in
    let oids =
      Router.submit router cred
        (Array.init files (fun _ -> Rpc.Create { acl = S4.Acl.default ~owner:1 }))
      |> Array.map (function
           | Rpc.R_oid oid -> oid
           | r -> Format.kasprintf failwith "scale domains: create: %a" Rpc.pp_resp r)
    in
    ignore
      (Router.submit router cred ~sync:true
         (Array.map
            (fun oid -> Rpc.Write { oid; off = 0; len = 4096; data = Some payload })
            oids));
    let rng = Rng.create ~seed:(rng_seed 424) in
    let sim0 = Simclock.now clock and wall0 = Unix.gettimeofday () in
    for _ = 1 to batches do
      let reqs =
        Array.init batch (fun _ ->
            let oid = oids.(Rng.int rng files) in
            match Rng.int rng 4 with
            | 0 | 1 -> Rpc.Read { oid; off = 4096 * Rng.int rng 4; len = 4096; at = None }
            | 2 -> Rpc.Write { oid; off = 4096 * Rng.int rng 4; len = 4096; data = Some payload }
            | _ -> Rpc.Append { oid; len = 1024; data = Some (Bytes.sub payload 0 1024) })
      in
      ignore (Router.submit router cred ~sync:true reqs)
    done;
    let wall = Unix.gettimeofday () -. wall0 in
    let sim = Int64.to_float (Int64.sub (Simclock.now clock) sim0) /. 1e9 in
    Router.close_domains router;
    let ops = float_of_int (batches * batch) in
    (ops /. sim, ops /. wall)
  in
  let domain_rows =
    List.map
      (fun shards ->
        let s_sim, s_wall = run_mode ~shards ~domains:1 in
        let d_sim, d_wall = run_mode ~shards ~domains:shards in
        Report.record ~experiment:"scale_domains"
          [
            ("shards", float_of_int shards);
            ("cores", float_of_int cores);
            ("ops", float_of_int (batches * batch));
            ("sim_tps_serial", s_sim);
            ("sim_tps_domains", d_sim);
            ("sim_speedup", d_sim /. s_sim);
            ("wall_tps_serial", s_wall);
            ("wall_tps_domains", d_wall);
            ("wall_speedup", d_wall /. s_wall);
          ];
        (shards, s_sim, d_sim, s_wall, d_wall))
      counts
  in
  Report.table
    ~header:
      [
        "shards"; "sim txn/s serial"; "sim txn/s domains"; "sim speedup";
        "wall txn/s serial"; "wall txn/s domains"; "wall speedup";
      ]
    (List.map
       (fun (shards, s_sim, d_sim, s_wall, d_wall) ->
         [
           string_of_int shards;
           Printf.sprintf "%.0f" s_sim;
           Printf.sprintf "%.0f" d_sim;
           Printf.sprintf "%.2fx" (d_sim /. s_sim);
           Printf.sprintf "%.0f" s_wall;
           Printf.sprintf "%.0f" d_wall;
           Printf.sprintf "%.2fx" (d_wall /. s_wall);
         ])
       domain_rows);
  (* Online rebalance cost: populate a 2-shard array, then add a third
     drive to the live array and drain the migration queue. Default
     caches here — the constrained caches above exist to make the
     throughput sweep disk-bound, but they make the migration verifier
     thrash and would dominate the cost being measured. *)
  print_newline ();
  Report.heading "Scale: online rebalance cost (2 -> 3 drives under a populated array)";
  let sys = Systems.s4_array ~shards:2 () in
  let populate =
    { pm_config with Postmark.transactions = pm_config.Postmark.transactions / 2 }
  in
  ignore (Postmark.run ~config:populate sys);
  let router = Option.get sys.Systems.router in
  let extra =
    Drive.format ~config:Systems.benchmark_drive_config
      (Sim_disk.create ~geometry:Geometry.cheetah_9gb sys.Systems.clock)
  in
  let queued = Router.add_shard router 2 (Router.Single extra) in
  let secs, (moved, errors) =
    Systems.elapsed_seconds sys (fun () -> Router.rebalance router)
  in
  let st = Router.migration_stats router in
  let issues = Router.fsck router in
  Report.kv
    [
      ("moves queued by membership change", string_of_int queued);
      ("objects migrated", string_of_int moved);
      ("journal entries replayed", string_of_int st.Router.entries);
      ("data bytes copied", string_of_int st.Router.bytes);
      ("simulated rebalance time", Printf.sprintf "%.2f s" secs);
      ("migration errors", string_of_int (List.length errors));
      ("post-rebalance fsck issues", string_of_int (List.length issues));
    ];
  List.iter (fun e -> Printf.printf "  error: %s\n" e) errors;
  List.iter (fun i -> Printf.printf "  fsck: %s\n" i) issues;
  Report.record ~experiment:"scale_rebalance"
    [
      ("moves_queued", float_of_int queued);
      ("objects_migrated", float_of_int moved);
      ("entries_replayed", float_of_int st.Router.entries);
      ("bytes_copied", float_of_int st.Router.bytes);
      ("rebalance_seconds", secs);
      ("errors", float_of_int (List.length errors));
      ("fsck_issues", float_of_int (List.length issues));
    ];
  Report.write_json ~experiments:[ "scale"; "scale_domains"; "scale_rebalance" ]
    "BENCH_scale.json";
  Report.note "wrote BENCH_scale.json";
  (* The rebalance oracle: a migration error or any fsck issue after it
     fails the run. *)
  if errors <> [] || issues <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Trace: span tracer + metrics registry                               *)

module Trace = S4_obs.Trace
module Metrics = S4_obs.Metrics
module Check = S4_obs.Check
module Histogram = S4_util.Histogram

let trace () =
  Report.heading "Trace: per-request span trees + per-RPC-kind latency (drive and 4-shard array)";
  let pm_config = pm_seeded { Postmark.default with Postmark.files = 300; transactions = 600 } in
  let run_one ~experiment ~label sys =
    Trace.clear ();
    Metrics.reset ();
    Trace.enable ();
    let pm = Postmark.run ~config:pm_config sys in
    Trace.disable ();
    let spans = Trace.spans () in
    let res = Check.run spans in
    Printf.printf "\n%s: %d spans over the postmark run (%.1f txn/s), %d checker violations\n"
      label (Array.length spans) pm.Postmark.transactions_per_second
      (List.length res.Check.violations);
    List.iter (fun v -> Printf.printf "  VIOLATION %s\n" v) res.Check.violations;
    let hists = Metrics.histograms () in
    Report.table
      ~header:[ "layer/kind"; "n"; "mean us"; "p50 us"; "p95 us"; "max us" ]
      (List.map
         (fun (name, h) ->
           [
             name;
             string_of_int (Histogram.count h);
             Printf.sprintf "%.1f" (Histogram.mean h);
             Printf.sprintf "%.1f" (Histogram.percentile h 50.0);
             Printf.sprintf "%.1f" (Histogram.percentile h 95.0);
             Printf.sprintf "%.1f" (Histogram.max_value h);
           ])
         hists);
    List.iter
      (fun (name, h) ->
        Report.record ~experiment ~label:name
          [
            ("n", float_of_int (Histogram.count h));
            ("mean_us", Histogram.mean h);
            ("p50_us", Histogram.percentile h 50.0);
            ("p95_us", Histogram.percentile h 95.0);
            ("max_us", Histogram.max_value h);
          ])
      hists;
    (* A bounded span dump: enough of the head of the run to see whole
       request trees without exploding the JSON. *)
    Array.iteri
      (fun i s ->
        if i < 60 then
          Report.record ~experiment:"trace_spans"
            ~label:(Printf.sprintf "%s:%s/%s" label (Trace.layer_name s.Trace.layer) s.Trace.kind)
            [
              ("id", float_of_int s.Trace.id);
              ("parent", float_of_int s.Trace.parent);
              ("start_us", Int64.to_float s.Trace.start_ns /. 1e3);
              ("dur_us", Int64.to_float (Int64.sub s.Trace.stop_ns s.Trace.start_ns) /. 1e3);
              ("oid", Int64.to_float s.Trace.oid);
              ("bytes", float_of_int s.Trace.bytes);
              ("ok", if s.Trace.ok then 1.0 else 0.0);
            ])
      spans;
    res
  in
  let r1 = run_one ~experiment:"trace_drive" ~label:"drive" (Systems.s4_remote ()) in
  let r2 = run_one ~experiment:"trace_array" ~label:"array4" (Systems.s4_array ~shards:4 ()) in
  Report.write_json ~experiments:[ "trace_drive"; "trace_array"; "trace_spans" ] "BENCH_trace.json";
  Report.note "wrote BENCH_trace.json";
  if r1.Check.violations <> [] || r2.Check.violations <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Net: wire protocol — in-process vs loopback vs TCP                  *)

module Acl = S4.Acl
module Netserver = S4_net.Server
module Netclient = S4_net.Client
module Nettransport = S4_net.Transport

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let net () =
  Report.heading "Net: wire-protocol overhead — in-process vs loopback vs TCP (wall-clock)";
  let ops = if !full_scale then 20_000 else 4_000 in
  let payload = Bytes.make 1024 'x' in
  let cred = Rpc.user_cred ~user:1 ~client:1 in
  let mk_drive () =
    let clock = Simclock.create () in
    Drive.format ~config:Systems.content_drive_config
      (Sim_disk.create ~geometry:Geometry.cheetah_9gb clock)
  in
  let new_oid handle =
    match handle cred (Rpc.Create { acl = Acl.default ~owner:1 }) with
    | Rpc.R_oid oid -> oid
    | r -> Format.kasprintf failwith "net bench: create failed: %a" Rpc.pp_resp r
  in
  (* The same simulated drive work flows down every path; the wall-clock
     difference is what the codec, the session engine and the socket add. *)
  let run_path label (handle : Rpc.credential -> Rpc.req -> Rpc.resp) =
    let oid = new_oid handle in
    ignore (handle cred (Rpc.Write { oid; off = 0; len = 1024; data = Some payload }));
    let secs, () =
      wall (fun () ->
          for _ = 1 to ops / 2 do
            ignore (handle cred (Rpc.Write { oid; off = 0; len = 1024; data = Some payload }));
            ignore (handle cred (Rpc.Read { oid; off = 0; len = 1024; at = None }))
          done)
    in
    let us_per_op = secs *. 1e6 /. float_of_int ops in
    Report.record ~experiment:"net" ~label
      [
        ("ops", float_of_int ops);
        ("wall_seconds", secs);
        ("us_per_op", us_per_op);
        ("ops_per_second", float_of_int ops /. secs);
      ];
    (label, us_per_op, float_of_int ops /. secs)
  in
  let inproc = run_path "in-process" (Drive.handle (mk_drive ())) in
  let loop_row =
    let srv = Netserver.of_drive (mk_drive ()) in
    let client = Netclient.connect (Nettransport.loopback srv) in
    let row = run_path "loopback" (fun cred req -> Netclient.handle client cred req) in
    Netclient.close client;
    row
  in
  let srv = Netserver.of_drive (mk_drive ()) in
  let listener = Netserver.serve_tcp srv in
  let client =
    Netclient.connect (Nettransport.tcp ~host:"127.0.0.1" ~port:(Netserver.port listener))
  in
  let tcp_row = run_path "tcp" (fun cred req -> Netclient.handle client cred req) in
  Report.table
    ~header:[ "path"; "us/op"; "ops/s" ]
    (List.map
       (fun (label, us, rate) ->
         [ label; Printf.sprintf "%.1f" us; Printf.sprintf "%.0f" rate ])
       [ inproc; loop_row; tcp_row ]);
  (* Batch-depth sweep: one connection carries [depth] reads per Batch
     frame, so depth 1 pays a full round trip per op. *)
  print_newline ();
  Report.heading "Net: TCP batch-depth sweep (1KB reads)";
  let sweep_reads = if !full_scale then 4096 else 1024 in
  let oid = new_oid (fun cred req -> Netclient.handle client cred req) in
  ignore
    (Netclient.handle client cred (Rpc.Write { oid; off = 0; len = 1024; data = Some payload }));
  let read = Rpc.Read { oid; off = 0; len = 1024; at = None } in
  let check_read = function
    | Rpc.R_data _ -> ()
    | r -> Format.kasprintf failwith "net bench: batched read failed: %a" Rpc.pp_resp r
  in
  let sweep_rows =
    List.map
      (fun depth ->
        let batches = max 1 (sweep_reads / depth) in
        let secs, () =
          wall (fun () ->
              for _ = 1 to batches do
                Array.iter check_read (Netclient.submit client cred (Array.make depth read))
              done)
        in
        let n = batches * depth in
        let rate = float_of_int n /. secs in
        Report.record ~experiment:"net_pipeline" ~label:(string_of_int depth)
          [
            ("depth", float_of_int depth);
            ("reads", float_of_int n);
            ("wall_seconds", secs);
            ("reads_per_second", rate);
          ];
        [ string_of_int depth; string_of_int n; Printf.sprintf "%.0f" rate ])
      [ 1; 2; 4; 8; 16; 32 ]
  in
  Report.table ~header:[ "depth"; "reads"; "reads/s" ] sweep_rows;
  Netclient.close client;
  Netserver.shutdown listener;
  (* PostMark through the full stack over real TCP: translator -> net
     client -> socket -> daemon -> drive. *)
  print_newline ();
  Report.heading "Net: PostMark over TCP through the wire protocol";
  let sys, stop = Systems.s4_tcp () in
  let pm_config =
    pm_seeded
      (if !full_scale then Postmark.default
       else { Postmark.default with Postmark.files = 500; transactions = 2_000 })
  in
  let wall_s, pm = wall (fun () -> Postmark.run ~config:pm_config sys) in
  stop ();
  Printf.printf "postmark over tcp: %.1f txn/s simulated, %.2f s wall\n"
    pm.Postmark.transactions_per_second wall_s;
  Report.record ~experiment:"net_postmark" ~label:"tcp"
    [
      ("files", float_of_int pm_config.Postmark.files);
      ("transactions", float_of_int pm_config.Postmark.transactions);
      ("transactions_per_second", pm.Postmark.transactions_per_second);
      ("transaction_seconds", pm.Postmark.transaction_seconds);
      ("wall_seconds", wall_s);
    ];
  Report.record ~experiment:"net" ~label:"counters"
    [
      ("frames_in", float_of_int (Metrics.counter "net/frames_in"));
      ("frames_out", float_of_int (Metrics.counter "net/frames_out"));
      ("bytes_in", float_of_int (Metrics.counter "net/bytes_in"));
      ("bytes_out", float_of_int (Metrics.counter "net/bytes_out"));
      ("decode_reject", float_of_int (Metrics.counter "net/decode_reject"));
      ("retry", float_of_int (Metrics.counter "net/retry"));
      ("reconnect", float_of_int (Metrics.counter "net/reconnect"));
    ];
  Report.write_json ~experiments:[ "net"; "net_pipeline"; "net_postmark" ] "BENCH_net.json";
  Report.note "wrote BENCH_net.json"

(* ------------------------------------------------------------------ *)
(* Batch: vectored submission with group commit                        *)

(* Sweep the batch size over sync-bound mutations on three producers
   of the S4.Backend.t surface. Every batch ends in one durability
   barrier, so size 1 reproduces the old one-sync-per-mutation path
   and larger sizes amortize the barrier (group commit). Direct and
   sharded throughput is simulated time (the barrier is simulated disk
   work); the TCP cell's win is round trips, so it reports wall time —
   its clock is a client-side mirror the wire never advances. *)
let batch () =
  Report.heading "Batch: vectored submission group-commit sweep (batch size 1..64)";
  let total = if !full_scale then 2048 else 512 in
  let sizes = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let payload = Bytes.make 4096 'b' in
  let cred = Rpc.user_cred ~user:1 ~client:1 in
  (* Sync-bound configuration: the default 550us-per-RPC CPU charge
     caps simulated throughput at ~1.8k ops/s regardless of barriers,
     hiding exactly the cost this sweep measures. Dial it down so the
     durability barrier dominates each cell. *)
  let batch_drive_config =
    { Systems.content_drive_config with Drive.cpu_us_per_rpc = 50.0 }
  in
  let mk_drive clock =
    Drive.format ~config:batch_drive_config
      (Sim_disk.create ~geometry:Geometry.cheetah_9gb clock)
  in
  let run_cell (backend : S4.Backend.t) ~total kind k =
    let clock = backend.S4.Backend.clock in
    let targets =
      Array.init 8 (fun _ ->
          match S4.Backend.handle backend cred (Rpc.Create { acl = Acl.default ~owner:1 }) with
          | Rpc.R_oid oid -> oid
          | r -> Format.kasprintf failwith "batch bench: create failed: %a" Rpc.pp_resp r)
    in
    let mk_req i =
      match kind with
      | `Write ->
        Rpc.Write
          { oid = targets.(i mod 8); off = 4096 * (i mod 16); len = 4096; data = Some payload }
      | `Create -> Rpc.Create { acl = Acl.default ~owner:1 }
    in
    let t0 = Simclock.now clock in
    let done_ = ref 0 in
    let wall_s, () =
      wall (fun () ->
          while !done_ < total do
            let n = min k (total - !done_) in
            let reqs = Array.init n (fun j -> mk_req (!done_ + j)) in
            let resps = backend.S4.Backend.submit cred ~sync:true reqs in
            Array.iter
              (function
                | Rpc.R_error e ->
                  Format.kasprintf failwith "batch bench: %s" (Rpc.error_to_string e)
                | _ -> ())
              resps;
            done_ := !done_ + n
          done)
    in
    let sim_s = Simclock.to_seconds (Int64.sub (Simclock.now clock) t0) in
    (sim_s, wall_s)
  in
  (* Wall-clock cells get twice the ops: relative scheduler jitter
     shrinks with run length, and they are still sub-second. *)
  let total_for = function `Sim -> total | `Wall -> 2 * total in
  let workloads = [ ("write", `Write); ("create", `Create) ] in
  let cells =
    [
      ( "direct",
        `Sim,
        fun () ->
          let clock = Simclock.create () in
          (Drive.backend (mk_drive clock), fun () -> ()) );
      ( "shard4",
        `Sim,
        fun () ->
          let clock = Simclock.create () in
          let members = List.init 4 (fun i -> (i, Router.Single (mk_drive clock))) in
          (Router.backend (Router.create members), fun () -> ()) );
      ( "tcp",
        `Wall,
        fun () ->
          let srv = Netserver.of_drive (mk_drive (Simclock.create ())) in
          let listener = Netserver.serve_tcp srv in
          let client =
            Netclient.connect
              (Nettransport.tcp ~host:"127.0.0.1" ~port:(Netserver.port listener))
          in
          let backend = Netclient.backend ~clock:(Simclock.create ()) ~keep_data:true client in
          ( backend,
            fun () ->
              Netclient.close client;
              Netserver.shutdown listener ) );
    ]
  in
  List.iter
    (fun (wl_name, kind) ->
      Printf.printf "\nworkload: sync-bound %ss (%d ops, 1 barrier per batch)\n" wl_name total;
      let rows =
        List.map
          (fun (be_name, basis, mk) ->
            let base = ref 0.0 in
            let row =
              List.map
                (fun k ->
                  let total = total_for basis in
                  let once () =
                    let backend, stop = mk () in
                    let r = run_cell backend ~total kind k in
                    stop ();
                    r
                  in
                  let sim_s, wall_s =
                    match basis with
                    | `Sim -> once ()
                    | `Wall ->
                      (* Wall cells jitter with the OS scheduler: take
                         the best of three. *)
                      List.fold_left
                        (fun (bs, bw) (s, w) -> if w < bw then (s, w) else (bs, bw))
                        (once ())
                        [ once (); once () ]
                  in
                  let secs = match basis with `Sim -> sim_s | `Wall -> wall_s in
                  let rate = float_of_int total /. secs in
                  if k = 1 then base := rate;
                  Report.record ~experiment:"batch"
                    ~label:(Printf.sprintf "%s/%s/%d" be_name wl_name k)
                    [
                      ("batch", float_of_int k);
                      ("ops", float_of_int total);
                      ("sim_seconds", sim_s);
                      ("wall_seconds", wall_s);
                      ("ops_per_second", rate);
                      ("speedup_vs_1", rate /. !base);
                    ];
                  Printf.sprintf "%.0f (%.1fx)" rate (rate /. !base))
                sizes
            in
            (be_name ^ (match basis with `Sim -> " (sim)" | `Wall -> " (wall)")) :: row)
          cells
      in
      Report.table
        ~header:("backend \\ batch" :: List.map string_of_int sizes)
        rows)
    workloads;
  Report.write_json ~experiments:[ "batch" ] "BENCH_batch.json";
  Report.note "wrote BENCH_batch.json"

(* ------------------------------------------------------------------ *)
(* Persist: what real durability costs                                 *)

module File_disk = S4_disk.File_disk
module Crashtest = S4_tools.Crashtest

(* The batch-16 sync-bound write workload from the group-commit sweep,
   run over the three sector backings: in-memory (the simulation
   baseline, no host I/O), file-backed (pwrite + one fsync per
   barrier), and file-backed with O_DSYNC (every write synchronous).
   Simulated time is identical across backings by construction — the
   timing model doesn't know where sectors live — so the wall-clock
   column is the durability price. *)
let persist () =
  Report.heading "Persist: sector-store backings under sync-bound writes (batch 16)";
  let total = if !full_scale then 2048 else 512 in
  let k = 16 in
  let payload = Bytes.make 4096 'p' in
  let cred = Rpc.user_cred ~user:1 ~client:1 in
  let config = { Systems.content_drive_config with Drive.cpu_us_per_rpc = 50.0 } in
  let pgeom = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(64 * 1024 * 1024) in
  let run_cell (backend : S4.Backend.t) =
    let clock = backend.S4.Backend.clock in
    let targets =
      Array.init 8 (fun _ ->
          match S4.Backend.handle backend cred (Rpc.Create { acl = Acl.default ~owner:1 }) with
          | Rpc.R_oid oid -> oid
          | r -> Format.kasprintf failwith "persist bench: create failed: %a" Rpc.pp_resp r)
    in
    let t0 = Simclock.now clock in
    let done_ = ref 0 in
    let wall_s, () =
      wall (fun () ->
          while !done_ < total do
            let n = min k (total - !done_) in
            let reqs =
              Array.init n (fun j ->
                  let i = !done_ + j in
                  Rpc.Write
                    { oid = targets.(i mod 8); off = 4096 * (i mod 16); len = 4096;
                      data = Some payload })
            in
            let resps = backend.S4.Backend.submit cred ~sync:true reqs in
            Array.iter
              (function
                | Rpc.R_error e ->
                  Format.kasprintf failwith "persist bench: %s" (Rpc.error_to_string e)
                | _ -> ())
              resps;
            done_ := !done_ + n
          done)
    in
    (Simclock.to_seconds (Int64.sub (Simclock.now clock) t0), wall_s)
  in
  let cells =
    [
      ( "sim",
        fun () ->
          let disk = Sim_disk.create ~geometry:pgeom (Simclock.create ()) in
          (disk, fun () -> ()) );
      ( "file",
        fun () ->
          let path = Filename.temp_file "s4persist" ".s4" in
          let disk = Sim_disk.of_file (File_disk.create ~path pgeom) in
          (disk, fun () -> (try Sys.remove path with Sys_error _ -> ())) );
      ( "file-dsync",
        fun () ->
          let path = Filename.temp_file "s4persist" ".s4" in
          let disk = Sim_disk.of_file (File_disk.create ~dsync:true ~path pgeom) in
          (disk, fun () -> (try Sys.remove path with Sys_error _ -> ())) );
    ]
  in
  let rows =
    List.map
      (fun (name, mk) ->
        let once () =
          let disk, cleanup = mk () in
          let r = run_cell (Drive.backend (Drive.format ~config disk)) in
          let fsyncs =
            match Sim_disk.file_backing disk with Some f -> File_disk.syncs f | None -> 0
          in
          Sim_disk.close disk;
          cleanup ();
          (r, fsyncs)
        in
        (* Wall cells jitter with the OS scheduler: best of three. *)
        let (sim_s, wall_s), fsyncs =
          List.fold_left
            (fun ((((_, bw), _) as best) : (float * float) * int) (((_, w), _) as r) ->
              if w < bw then r else best)
            (once ())
            [ once (); once () ]
        in
        let wall_rate = float_of_int total /. wall_s in
        Report.record ~experiment:"persist" ~label:name
          [
            ("batch", float_of_int k);
            ("ops", float_of_int total);
            ("sim_seconds", sim_s);
            ("wall_seconds", wall_s);
            ("wall_ops_per_second", wall_rate);
            ("sim_ops_per_second", float_of_int total /. sim_s);
            ("fsyncs", float_of_int fsyncs);
          ];
        [
          name;
          Printf.sprintf "%.3f" sim_s;
          Printf.sprintf "%.4f" wall_s;
          Printf.sprintf "%.0f" wall_rate;
          string_of_int fsyncs;
        ])
      cells
  in
  Report.table
    ~header:[ "backing"; "sim s"; "wall s (best of 3)"; "wall writes/s"; "fsyncs" ]
    rows;
  Report.write_json ~experiments:[ "persist" ] "BENCH_persist.json";
  Report.note "wrote BENCH_persist.json"

(* ------------------------------------------------------------------ *)
(* Kill -9: acked-write durability across real process kills           *)

let kill9 () =
  Report.heading "Kill -9: fork a server, kill it cold, verify every acked sync";
  let runs = if !full_scale then 60 else 30 in
  let seed = rng_seed 42 in
  let reports = Crashtest.kill9_sweep ~seed ~runs () in
  List.iter (fun r -> Format.printf "  %a@." Crashtest.pp_report r) reports;
  let failed = Crashtest.failed_reports reports in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let acked = sum (fun r -> r.Crashtest.ops_before_crash) in
  let snaps = sum (fun r -> r.Crashtest.snapshots) in
  let audit = sum (fun r -> r.Crashtest.audit_checked) in
  Report.record ~experiment:"kill9" ~label:"sweep"
    [
      ("runs", float_of_int runs);
      ("failed", float_of_int (List.length failed));
      ("acked_ops", float_of_int acked);
      ("snapshots_checked", float_of_int snaps);
      ("audit_records_matched", float_of_int audit);
    ];
  Printf.printf
    "%d kills: %d acked ops, %d synced snapshots verified, %d audit records matched, %d failed\n"
    runs acked snaps audit (List.length failed);
  if failed <> [] then begin
    Printf.eprintf "kill9: %d runs lost acknowledged writes or broke invariants\n"
      (List.length failed);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Intrusion campaigns: detection, forensics and rollback end to end   *)

module Campaign = S4_tools.Campaign

(* Seeded attacker campaigns (trojaned binaries, log scrubbing,
   timestomping, mass deletion, slow exfiltration) against a single
   drive and a 4-shard mirrored array, at growing damage scales. Each
   cell reports detection latency per attack class, rollback time
   against damage size, and the RPC rate sustained during recovery —
   and is gated on the ground-truth oracle: any undetected class,
   surviving attacker mutation, lost legitimate write or broken audit
   chain fails the whole run. *)
let intrusion () =
  Report.heading "Intrusion campaigns: detection latency, rollback cost, recovery throughput";
  let seed = rng_seed 42 in
  let scales = if !full_scale then [ 2; 4; 8; 12 ] else [ 2; 4; 8 ] in
  let cells =
    List.concat_map
      (fun apc ->
        [
          ( Printf.sprintf "drive/x%d" apc,
            { Campaign.default with Campaign.seed; attacks_per_class = apc } );
          ( Printf.sprintf "array4m/x%d" apc,
            { Campaign.default with
              Campaign.seed;
              attacks_per_class = apc;
              deployment = Campaign.Array { shards = 4; mirrored = true };
              disk_mb = 32 } );
        ])
      scales
  in
  let failures = ref 0 in
  let rows =
    List.map
      (fun (label, cfg) ->
        let o = Campaign.run cfg in
        (match Campaign.problems o with
         | [] -> ()
         | ps ->
           incr failures;
           Printf.eprintf "intrusion %s: oracle violations:\n" label;
           List.iter (fun p -> Printf.eprintf "  %s\n" p) ps);
        let lats = List.map snd o.Campaign.o_classes in
        let worst = List.fold_left max 0.0 lats in
        let mean = List.fold_left ( +. ) 0.0 lats /. float_of_int (List.length lats) in
        Report.record ~experiment:"intrusion" ~label
          ([
             ("attack_ops", float_of_int o.Campaign.o_attack_ops);
             ("damage_objects", float_of_int o.Campaign.o_damage_objects);
             ("damage_bytes", float_of_int o.Campaign.o_damage_bytes);
             ("denied_probes", float_of_int o.Campaign.o_denied_probes);
             ("detect_latency_mean_s", mean);
             ("detect_latency_worst_s", worst);
             ("rollback_s", o.Campaign.o_rollback_s);
             ("recovery_rpcs", float_of_int o.Campaign.o_recovery_rpcs);
             ("recovery_ops_per_s", o.Campaign.o_recovery_ops_per_s);
             ("files_restored", float_of_int o.Campaign.o_report.S4_tools.Recovery.files_restored);
             ("intruder_entries_removed", float_of_int o.Campaign.o_report.S4_tools.Recovery.files_removed);
             ("oracle_violations", float_of_int (List.length (Campaign.problems o)));
           ]
          @ List.map (fun (c, l) -> ("detect_" ^ c ^ "_s", l)) o.Campaign.o_classes);
        [
          label;
          string_of_int o.Campaign.o_damage_objects;
          string_of_int o.Campaign.o_damage_bytes;
          Printf.sprintf "%.2f" mean;
          Printf.sprintf "%.2f" worst;
          Printf.sprintf "%.3f" o.Campaign.o_rollback_s;
          Printf.sprintf "%.0f" o.Campaign.o_recovery_ops_per_s;
          (if Campaign.clean o then "clean" else "VIOLATED");
        ])
      cells
  in
  Report.table
    ~header:
      [ "cell"; "objects"; "bytes"; "detect mean s"; "detect worst s"; "rollback s";
        "rec ops/s"; "oracle" ]
    rows;
  Report.write_json ~experiments:[ "intrusion" ] "BENCH_intrusion.json";
  Report.note "wrote BENCH_intrusion.json";
  Report.note
    "every cell is oracle-gated: all five attack classes detected, zero surviving attacker \
     mutations, zero lost legitimate writes, audit chain verified end to end";
  if !failures > 0 then begin
    Printf.eprintf "intrusion: %d cells violated the recovery oracle\n" !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Readscale: replica reads + client cache + per-client fair queueing  *)

module Mirror = S4_multi.Mirror
module Wire = S4_net.Wire
module Wfq = S4_qos.Wfq

(* Read-path scale-out, oracle-gated:
   (a) balanced mirror reads + overlapped batch charging must beat
       primary-only reads by >= 1.5x at >= 4 clients;
   (b) the lease-backed client cache must serve hot-set hits without
       touching the wire at all;
   (c) under a flooding client, an honest client's p99 read latency on
       the weighted-fair server must stay within 2x of the no-hog
       baseline. *)
let readscale () =
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let cred = Rpc.user_cred ~user:1 ~client:1 in
  let p99 lats =
    let a = Array.of_list lats in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (ceil (0.99 *. float_of_int n)) - 1))
  in

  (* --- (a) replica reads: ops/s vs client count ------------------- *)
  Report.heading "Readscale: replica reads — mirrored 4-shard array, balanced vs primary-only";
  let objects = 1024 in
  let obj_bytes = 4096 in
  let reads_per_client = 16 in
  let rounds = if !full_scale then 60 else 20 in
  let client_counts = [ 1; 2; 4; 8; 16 ] in
  let payload = Bytes.make obj_bytes 'r' in
  (* Caches sized well below the 4 MB working set per replica: random
     reads are spindle reads, so the sweep measures disk parallelism,
     not RAM. *)
  let mirror_drive_config =
    {
      Systems.content_drive_config with
      Drive.store =
        {
          Systems.content_drive_config.Drive.store with
          Store.block_cache_bytes = 256 * 1024;
          object_cache_bytes = 256 * 1024;
        };
    }
  in
  let read_rate ~balanced clients =
    let sys =
      Systems.s4_array
        ~config:
          {
            Systems.Config.default with
            mirrored = true;
            balanced;
            read_overlap = true;
            drive_config = mirror_drive_config;
          }
        ~shards:4 ()
    in
    let router = Option.get sys.Systems.router in
    let oids =
      Router.submit router cred
        (Array.init objects (fun _ -> Rpc.Create { acl = S4.Acl.default ~owner:1 }))
      |> Array.mapi (fun i -> function
           | Rpc.R_oid oid -> oid
           | r -> Format.kasprintf failwith "readscale: create %d failed: %a" i Rpc.pp_resp r)
    in
    ignore
      (Router.submit router cred
         (Array.map
            (fun oid -> Rpc.Write { oid; off = 0; len = obj_bytes; data = Some payload })
            oids));
    Router.sync_all router;
    let rng = Rng.create ~seed:(rng_seed 1811) in
    let idx = Array.init objects (fun i -> i) in
    let shuffle () =
      for i = objects - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let tmp = idx.(i) in
        idx.(i) <- idx.(j);
        idx.(j) <- tmp
      done
    in
    Systems.drop_all_caches sys;
    let t0 = Simclock.now sys.Systems.clock in
    for _ = 1 to rounds do
      (* Distinct objects per round; each client contributes a run of
         reads, interleaved round-robin the way concurrent readers
         arrive at a shared array. *)
      shuffle ();
      let n = clients * reads_per_client in
      let reqs =
        Array.init n (fun k ->
            Rpc.Read { oid = oids.(idx.(k mod objects)); off = 0; len = obj_bytes; at = None })
      in
      Array.iteri
        (fun i r ->
          match r with
          | Rpc.R_data _ -> ()
          | r -> Format.kasprintf failwith "readscale: read %d failed: %a" i Rpc.pp_resp r)
        (Router.submit router cred reqs)
    done;
    let secs = Simclock.to_seconds (Int64.sub (Simclock.now sys.Systems.clock) t0) in
    let prim, sec =
      List.fold_left
        (fun (p, s) id ->
          match Router.member router id with
          | Router.Mirrored m ->
            let mp, ms = Mirror.read_counts m in
            (p + mp, s + ms)
          | Router.Single _ -> (p, s))
        (0, 0) (Router.shard_ids router)
    in
    (float_of_int (rounds * clients * reads_per_client) /. secs, prim, sec)
  in
  let mirror_rows =
    List.map
      (fun clients ->
        let base, _, _ = read_rate ~balanced:false clients in
        let bal, prim, sec = read_rate ~balanced:true clients in
        let speedup = bal /. base in
        Report.record ~experiment:"readscale_mirror" ~label:(string_of_int clients)
          [
            ("clients", float_of_int clients);
            ("primary_only_ops_per_s", base);
            ("balanced_ops_per_s", bal);
            ("speedup", speedup);
            ("balanced_primary_reads", float_of_int prim);
            ("balanced_secondary_reads", float_of_int sec);
          ];
        (clients, base, bal, speedup, prim, sec))
      client_counts
  in
  Report.table
    ~header:[ "clients"; "primary-only ops/s"; "balanced ops/s"; "speedup"; "replica split" ]
    (List.map
       (fun (c, base, bal, sp, prim, sec) ->
         [
           string_of_int c;
           Printf.sprintf "%.0f" base;
           Printf.sprintf "%.0f" bal;
           Printf.sprintf "%.2fx" sp;
           Printf.sprintf "%d/%d" prim sec;
         ])
       mirror_rows);
  if
    not
      (List.exists (fun (c, _, _, sp, _, _) -> c >= 4 && sp >= 1.5) mirror_rows)
  then
    violate "mirrored reads never reached 1.5x primary-only at >= 4 clients";
  (List.iter (fun (c, _, _, _, prim, sec) ->
       if c >= 2 && (prim = 0 || sec = 0) then
         violate "balanced policy never touched one replica (%d clients: %d/%d)" c prim sec))
    mirror_rows;

  (* --- (b) lease-backed client cache: hot-set sweep ---------------- *)
  print_newline ();
  Report.heading "Readscale: lease-backed client cache — hot-set hit-rate sweep (loopback wire)";
  let files = 96 in
  let hot_set = 8 in
  let sweep_reads = if !full_scale then 4_000 else 1_500 in
  let file_bytes = 1024 in
  let cache_cell hot_fraction =
    let clock = Simclock.create () in
    let drive =
      Drive.format ~config:Systems.content_drive_config
        (Sim_disk.create ~geometry:Geometry.cheetah_9gb clock)
    in
    let server_config =
      { Netserver.default_config with Netserver.lease_ns = 120_000_000_000L }
    in
    let srv = Netserver.of_drive ~config:server_config drive in
    (* Budget ~24 cached reads: the 8-object hot set fits and stays,
       the cold tail churns through the LRU. *)
    let client_config =
      {
        Netclient.default_config with
        Netclient.cache_budget = 24 * (file_bytes + 32);
        cache_journal = true;
      }
    in
    let client = Netclient.connect ~config:client_config (Nettransport.loopback srv) in
    let data = Bytes.make file_bytes 'c' in
    let oids =
      Array.init files (fun i ->
          match Netclient.handle client cred (Rpc.Create { acl = S4.Acl.default ~owner:1 }) with
          | Rpc.R_oid oid ->
            ignore
              (Netclient.handle client cred
                 (Rpc.Write { oid; off = 0; len = file_bytes; data = Some data }));
            oid
          | r -> Format.kasprintf failwith "cache cell: create %d: %a" i Rpc.pp_resp r)
    in
    ignore (Netclient.handle client Rpc.admin_cred Rpc.Sync);
    let rng = Rng.create ~seed:(rng_seed 2203) in
    let frames_before = Metrics.counter "net/frames_in" in
    let t0 = Simclock.now clock in
    for _ = 1 to sweep_reads do
      let oid =
        if Rng.float rng 1.0 < hot_fraction then oids.(Rng.int rng hot_set)
        else oids.(hot_set + Rng.int rng (files - hot_set))
      in
      match Netclient.handle client cred (Rpc.Read { oid; off = 0; len = file_bytes; at = None }) with
      | Rpc.R_data _ -> ()
      | r -> Format.kasprintf failwith "cache cell: read: %a" Rpc.pp_resp r
    done;
    let secs = Simclock.to_seconds (Int64.sub (Simclock.now clock) t0) in
    let wire_frames = Metrics.counter "net/frames_in" - frames_before in
    let cache = Option.get (Netclient.cache client) in
    let hits = S4_net.Cache.hits cache and misses = S4_net.Cache.misses cache in
    (match S4_net.Cache.check cache with
     | Ok () -> ()
     | Error e -> violate "lease checker (hot=%.1f): %s" hot_fraction e);
    if hits + misses <> sweep_reads then
      violate "cache accounting: %d hits + %d misses <> %d reads" hits misses sweep_reads;
    (* The whole point: a hit never crosses the wire. Wire traffic is
       bounded by the misses (one Request frame each). *)
    if hot_fraction > 0.0 && hits = 0 then violate "hot set produced no cache hits";
    (* One miss = one round trip = two frame-received events (one at
       the server, one at the client). A hit contributes neither. *)
    if wire_frames > 2 * (sweep_reads - hits) then
      violate "cache hits leaked onto the wire: %d frame events for %d misses" wire_frames
        (sweep_reads - hits);
    Netclient.close client;
    (hot_fraction, float_of_int sweep_reads /. secs, hits, misses, wire_frames / 2)
  in
  let cache_rows = List.map cache_cell [ 0.0; 0.5; 0.9 ] in
  List.iter
    (fun (hot, rate, hits, misses, frames) ->
      Report.record ~experiment:"readscale_cache" ~label:(Printf.sprintf "hot%.1f" hot)
        [
          ("hot_fraction", hot);
          ("reads", float_of_int sweep_reads);
          ("ops_per_s", rate);
          ("cache_hits", float_of_int hits);
          ("cache_misses", float_of_int misses);
          ("wire_round_trips", float_of_int frames);
          ("hit_rate", float_of_int hits /. float_of_int sweep_reads);
        ])
    cache_rows;
  Report.table
    ~header:[ "hot fraction"; "ops/s"; "hits"; "misses"; "wire round trips" ]
    (List.map
       (fun (hot, rate, hits, misses, frames) ->
         [
           Printf.sprintf "%.1f" hot;
           Printf.sprintf "%.0f" rate;
           string_of_int hits;
           string_of_int misses;
           string_of_int frames;
         ])
       cache_rows);

  (* --- (c) noisy neighbor: honest p99 under a flooding client ------ *)
  print_newline ();
  Report.heading "Readscale: per-client fair queueing — honest p99 under a flooding client";
  let qos_rounds = if !full_scale then 120 else 60 in
  let hog_batches = 6 and hog_batch = 24 in
  let hog_bytes = 2048 in
  let mk_pair ~qos =
    let clock = Simclock.create () in
    let drive =
      Drive.format ~config:Systems.content_drive_config
        (Sim_disk.create ~geometry:Geometry.cheetah_9gb clock)
    in
    let config =
      { Netserver.default_config with Netserver.qos; max_inflight = 4096 }
    in
    let srv = Netserver.of_drive ~config drive in
    let hog = Netserver.Session.create ~identity:7 srv in
    let honest = Netserver.Session.create ~identity:8 srv in
    (* Seed one object per client. *)
    let mk_oid sess =
      let frame =
        Wire.encode
          (Wire.Batch { xid = 1L; cred; sync = false; reqs = [| Rpc.Create { acl = [] } |] })
      in
      Netserver.Session.feed sess frame 0 (Bytes.length frame);
      Netserver.Session.run sess;
      let rec find pos b =
        match Wire.decode b ~pos ~avail:(Bytes.length b - pos) with
        | Wire.Frame (Wire.Batch_reply { resps = [| Rpc.R_oid oid |]; _ }, _) -> oid
        | Wire.Frame (_, used) -> find (pos + used) b
        | _ -> failwith "readscale qos: no oid response"
      in
      find 0 (Netserver.Session.output sess)
    in
    let hog_oid = mk_oid hog and honest_oid = mk_oid honest in
    let wframe =
      let data = Some (Bytes.make hog_bytes 'h') in
      Wire.encode
        (Wire.Batch
           {
             xid = 99L;
             cred = Rpc.user_cred ~user:2 ~client:7;
             sync = false;
             reqs =
               Array.init hog_batch (fun _ ->
                   Rpc.Write { oid = hog_oid; off = 0; len = hog_bytes; data });
           })
    in
    let seed =
      Wire.encode
        (Wire.Batch
           {
             xid = 2L;
             cred;
             sync = false;
             reqs =
               [| Rpc.Write { oid = honest_oid; off = 0; len = 1024; data = Some (Bytes.make 1024 'o') } |];
           })
    in
    Netserver.Session.feed honest seed 0 (Bytes.length seed);
    Netserver.Session.run honest;
    ignore (Netserver.Session.output honest);
    (clock, drive, srv, hog, honest, honest_oid, wframe)
  in
  let honest_read honest_oid xid =
    Wire.encode
      (Wire.Batch
         { xid; cred; sync = false; reqs = [| Rpc.Read { oid = honest_oid; off = 0; len = 1024; at = None } |] })
  in
  let run_cell ~qos ~with_hog label =
    let clock, drive, srv, hog, honest, honest_oid, wframe = mk_pair ~qos in
    ignore drive;
    let lats = ref [] in
    for round = 1 to qos_rounds do
      Store.drop_caches (Drive.store drive);
      if with_hog then
        for _ = 1 to hog_batches do
          Netserver.Session.feed hog wframe 0 (Bytes.length wframe)
        done;
      let rframe = honest_read honest_oid (Int64.of_int (100 + round)) in
      Netserver.Session.feed honest rframe 0 (Bytes.length rframe);
      let t0 = Simclock.now clock in
      if not qos then begin
        (* Per-session FIFO service in arrival order: the flood runs
           first, the honest read waits behind all of it. *)
        if with_hog then Netserver.Session.run hog;
        ignore (Netserver.Session.step honest)
      end
      else begin
        (* Shared weighted-fair queue: step until the honest reply is
           out; its cost-1 read outranks the hog's cost-24 batches. *)
        let answered = ref false in
        while not !answered do
          if not (Netserver.Session.step honest) then answered := true
          else if Bytes.length (Netserver.Session.output honest) > 0 then answered := true
        done
      end;
      lats := Int64.to_float (Int64.sub (Simclock.now clock) t0) :: !lats;
      (* Drain the remaining flood before the next round. *)
      Netserver.Session.run hog;
      ignore (Netserver.Session.output hog);
      ignore (Netserver.Session.output honest)
    done;
    (match Netserver.scheduler srv with
     | Some sched ->
       Printf.printf "  %s: wfq served hog=%.0f honest=%.0f units, vtime %.1f\n" label
         (Wfq.served sched ~client:7) (Wfq.served sched ~client:8)
         (Wfq.virtual_time sched)
     | None -> ());
    !lats
  in
  let base = run_cell ~qos:true ~with_hog:false "no-hog" in
  let fifo = run_cell ~qos:false ~with_hog:true "fifo+hog" in
  let fair = run_cell ~qos:true ~with_hog:true "wfq+hog" in
  let ms v = v /. 1e6 in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let rows =
    [
      ("no hog (baseline)", base); ("hog, per-session FIFO", fifo); ("hog, weighted-fair", fair);
    ]
  in
  List.iter
    (fun (label, lats) ->
      Report.record ~experiment:"readscale_qos" ~label
        [
          ("rounds", float_of_int qos_rounds);
          ("p99_ms", ms (p99 lats));
          ("mean_ms", ms (mean lats));
        ])
    rows;
  Report.table
    ~header:[ "cell"; "honest mean (ms)"; "honest p99 (ms)" ]
    (List.map
       (fun (label, lats) ->
         [ label; Printf.sprintf "%.2f" (ms (mean lats)); Printf.sprintf "%.2f" (ms (p99 lats)) ])
       rows);
  let p99_base = p99 base and p99_fair = p99 fair and p99_fifo = p99 fifo in
  if p99_fair > 2.0 *. p99_base then
    violate "honest p99 under WFQ is %.2f ms, more than 2x the %.2f ms no-hog baseline"
      (ms p99_fair) (ms p99_base);
  if p99_fifo < p99_fair then
    violate "FIFO out-isolated WFQ (%.2f ms < %.2f ms): scheduler not engaging" (ms p99_fifo)
      (ms p99_fair);

  Report.write_json
    ~experiments:[ "readscale_mirror"; "readscale_cache"; "readscale_qos" ]
    "BENCH_readscale.json";
  Report.note "wrote BENCH_readscale.json";
  Report.note
    "oracle-gated: balanced reads >= 1.5x at >= 4 clients; cache hits never touch the wire \
     (lease checker clean); honest p99 under a hog within 2x of no-hog";
  match !violations with
  | [] -> ()
  | vs ->
    List.iter (fun v -> Printf.eprintf "readscale ORACLE VIOLATION: %s\n" v) (List.rev vs);
    exit 1

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("table1", "Table 1: RPC interface exercise", table1);
    ("fig2", "Figure 2: journal-based metadata space", fig2);
    ("fig3", "Figure 3: PostMark, four servers", fig3);
    ("fig4", "Figure 4: SSH-build, four servers", fig4);
    ("fig5", "Figure 5: cleaner overhead sweep", fig5);
    ("fig6", "Figure 6: audit microbenchmark", fig6);
    ("audit-macro", "Sec 5.1.4: audit penalty on PostMark", audit_macro);
    ("fundamental", "Sec 5.1.5: history-pool cleaning surcharge", fundamental);
    ("fig7", "Figure 7: projected detection window", fig7);
    ("diffstudy", "Sec 5.2: differencing + compression", diffstudy);
    ("snapshots", "Sec 6: versioning vs snapshots", snapshots);
    ("ablation", "design-parameter sensitivity sweeps", ablation);
    ("faults", "media-fault sweep + crash-recovery spot check", faults);
    ("scale", "sharded-array throughput scaling + rebalance cost", scale);
    ("net", "wire protocol: in-process vs loopback vs TCP + batch-depth sweep", net);
    ("batch", "vectored submission group-commit sweep, batch size 1..64", batch);
    ("persist", "sector-store backings: sim vs file vs file+O_DSYNC", persist);
    ("kill9", "kill -9 a live server at random points; verify acked syncs", kill9);
    ("intrusion", "attacker campaigns: detect, attribute, roll back (oracle-gated)", intrusion);
    ("readscale", "read-path scale-out: replica reads, client cache, WFQ (oracle-gated)", readscale);
    ("trace", "span tracer + metrics registry over drive and array runs", trace);
    ("micro", "bechamel micro-benchmarks", micro);
  ]

(* "fundamental" re-runs the fig5 sweep itself, so the run-everything
   default skips the redundant separate fig5 pass. *)
let default_run =
  [ "table1"; "fig2"; "fig3"; "fig4"; "fundamental"; "fig6"; "audit-macro"; "fig7"; "diffstudy";
    "snapshots"; "ablation"; "faults"; "scale"; "net"; "batch"; "persist"; "micro" ]

let () =
  let json_file = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--full" :: rest ->
      full_scale := true;
      parse acc rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse acc rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with
      | Some s -> seed_override := Some s
      | None ->
        Printf.eprintf "--seed expects an integer, got %S\n" n;
        exit 1);
      parse acc rest
    | [ ("--json" | "--seed") ] ->
      Printf.eprintf "missing value for trailing flag\n";
      exit 1
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected = match args with [] -> default_run | names -> names in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, _, f) -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
        exit 1)
    selected;
  (match !json_file with
  | Some file ->
    Report.write_json file;
    Printf.printf "\nwrote %s\n" file
  | None -> ());
  print_newline ()
