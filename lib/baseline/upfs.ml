module N = S4_nfs.Nfs_types
module Server = S4_nfs.Server
module Sim_disk = S4_disk.Sim_disk
module Simclock = S4_util.Simclock
module Lru = S4_store.Lru.Make (Int)

type config = {
  name : string;
  block_size : int;
  groups : int;
  metadata_coalesce : int;
  cache_bytes : int;
  cpu_us_per_op : float;
}

let ffs =
  {
    name = "BSD-FFS/NFS";
    block_size = 8192;
    groups = 64;
    metadata_coalesce = 1;
    cache_bytes = 448 * 1024 * 1024;
    cpu_us_per_op = 150.0;
  }

let ext2_sync =
  {
    name = "Linux-ext2/NFS(sync)";
    block_size = 4096;
    groups = 64;
    metadata_coalesce = 8;
    cache_bytes = 448 * 1024 * 1024;
    cpu_us_per_op = 130.0;
  }

type group = {
  g_inode_base : int;  (* block addr of the inode region *)
  g_data_base : int;
  g_limit : int;  (* first block beyond the group *)
  mutable g_next : int;
  mutable g_free : int list;
}

type t = {
  cfg : config;
  disk : Sim_disk.t;
  clock : Simclock.t;
  spb : int;  (* sectors per block *)
  inode_region : int;  (* blocks per group reserved for inodes *)
  grps : group array;
  attrs : (N.fh, N.attr) Hashtbl.t;
  contents : (N.fh, Bytes.t) Hashtbl.t;  (* regular files and symlinks *)
  maps : (N.fh, int list) Hashtbl.t;  (* fh -> allocated block addrs *)
  dirs : (N.fh, N.dirent list) Hashtbl.t;
  groups_of : (N.fh, int) Hashtbl.t;
  cache : unit Lru.t;
  mutable next_fh : int64;
  mutable meta_pending : int;
  mutable meta_writes : int;
  mutable data_writes : int;
  mutable op_serial : int;
  recent_meta : (int, int) Hashtbl.t;  (* block addr -> op serial of last write *)
  root : N.fh;
}

exception Err of N.error

let fail e = raise (Err e)
let now t = Simclock.now t.clock
let cpu t = Simclock.advance t.clock (Simclock.of_us t.cfg.cpu_us_per_op)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let alloc_in g =
  match g.g_free with
  | a :: rest ->
    g.g_free <- rest;
    Some a
  | [] ->
    if g.g_next < g.g_limit then begin
      let a = g.g_next in
      g.g_next <- a + 1;
      Some a
    end
    else None

let alloc_block t ~group =
  let n = Array.length t.grps in
  let rec try_from i tried =
    if tried >= n then fail N.Enospc
    else
      match alloc_in t.grps.(i mod n) with
      | Some a -> a
      | None -> try_from (i + 1) (tried + 1)
  in
  try_from group 0

let free_blocks t fh =
  match Hashtbl.find_opt t.maps fh with
  | None -> ()
  | Some blocks ->
    let group = Option.value ~default:0 (Hashtbl.find_opt t.groups_of fh) in
    let g = t.grps.(group) in
    g.g_free <- blocks @ g.g_free;
    Hashtbl.remove t.maps fh

(* ------------------------------------------------------------------ *)
(* Timed block I/O                                                     *)

let write_block t addr =
  Sim_disk.write t.disk ~tcq:true ~lba:(addr * t.spb) ~sectors:t.spb ();
  Lru.insert t.cache addr () ~cost:t.cfg.block_size

let read_block t addr =
  match Lru.find t.cache addr with
  | Some () -> ()
  | None ->
    Sim_disk.read t.disk ~lba:(addr * t.spb) ~sectors:t.spb;
    Lru.insert t.cache addr () ~cost:t.cfg.block_size

(* Synchronous-metadata policy with the ext2 coalescing flaw. A block
   rewritten within a couple of operations coalesces in the drive's
   write queue rather than paying another rotation. *)
let meta_write t addr =
  t.meta_pending <- t.meta_pending + 1;
  if t.meta_pending >= t.cfg.metadata_coalesce then begin
    t.meta_pending <- 0;
    match Hashtbl.find_opt t.recent_meta addr with
    | Some serial when t.op_serial - serial <= 2 -> ()
    | Some _ | None ->
      Hashtbl.replace t.recent_meta addr t.op_serial;
      t.meta_writes <- t.meta_writes + 1;
      write_block t addr
  end

let inode_addr t fh =
  let group = Option.value ~default:0 (Hashtbl.find_opt t.groups_of fh) in
  let g = t.grps.(group) in
  g.g_inode_base + Int64.to_int (Int64.rem fh (Int64.of_int t.inode_region))

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create cfg disk =
  let g = Sim_disk.geometry disk in
  let spb = cfg.block_size / g.S4_disk.Geometry.sector_size in
  let total_blocks = Sim_disk.capacity_sectors disk / spb in
  let span = total_blocks / cfg.groups in
  let inode_region = max 8 (span / 64) in
  let grps =
    Array.init cfg.groups (fun i ->
        let base = i * span in
        {
          g_inode_base = base;
          g_data_base = base + inode_region;
          g_limit = base + span;
          g_next = base + inode_region;
          g_free = [];
        })
  in
  let t =
    {
      cfg;
      disk;
      clock = Sim_disk.clock disk;
      spb;
      inode_region;
      grps;
      attrs = Hashtbl.create 4096;
      contents = Hashtbl.create 4096;
      maps = Hashtbl.create 4096;
      dirs = Hashtbl.create 256;
      groups_of = Hashtbl.create 4096;
      cache = Lru.create ~budget:cfg.cache_bytes ();
      next_fh = 2L;
      meta_pending = 0;
      meta_writes = 0;
      data_writes = 0;
      op_serial = 0;
      recent_meta = Hashtbl.create 1024;
      root = 2L;
    }
  in
  let root_attr = N.fresh_attr N.Fdir ~uid:0 ~now:0L in
  Hashtbl.replace t.attrs t.root root_attr;
  Hashtbl.replace t.dirs t.root [];
  Hashtbl.replace t.groups_of t.root 0;
  t.next_fh <- 3L;
  t

let root t = t.root
let metadata_writes t = t.meta_writes
let data_writes t = t.data_writes

(* ------------------------------------------------------------------ *)
(* Node helpers                                                        *)

let attr_of t fh =
  match Hashtbl.find_opt t.attrs fh with Some a -> a | None -> fail N.Enoent

let dir_of t fh =
  let a = attr_of t fh in
  if a.N.ftype <> N.Fdir then fail N.Enotdir;
  match Hashtbl.find_opt t.dirs fh with Some e -> e | None -> []

let set_attr t fh a = Hashtbl.replace t.attrs fh a

(* Directory contents occupy one or more blocks; namespace updates
   write the first dir block plus the directory inode. *)
let dir_block t fh =
  match Hashtbl.find_opt t.maps fh with
  | Some (a :: _) -> a
  | Some [] | None ->
    let group = Option.value ~default:0 (Hashtbl.find_opt t.groups_of fh) in
    let a = alloc_block t ~group in
    Hashtbl.replace t.maps fh [ a ];
    a

let write_dir t fh entries =
  Hashtbl.replace t.dirs fh entries;
  write_block t (dir_block t fh);
  meta_write t (inode_addr t fh);
  let a = attr_of t fh in
  set_attr t fh { a with N.mtime = now t }

let find_entry entries name = List.find_opt (fun (e : N.dirent) -> e.N.name = name) entries

let fresh_node t ~parent ~ftype ~mode =
  let fh = t.next_fh in
  t.next_fh <- Int64.add t.next_fh 1L;
  let group =
    match ftype with
    | N.Fdir ->
      (* Directories spread across groups (FFS policy). *)
      Int64.to_int (Int64.rem fh (Int64.of_int (Array.length t.grps)))
    | N.Freg | N.Flnk ->
      Option.value ~default:0 (Hashtbl.find_opt t.groups_of parent)
  in
  Hashtbl.replace t.groups_of fh group;
  let attr = { (N.fresh_attr ftype ~uid:1 ~now:(now t)) with N.mode } in
  Hashtbl.replace t.attrs fh attr;
  (match ftype with
   | N.Fdir -> Hashtbl.replace t.dirs fh []
   | N.Freg | N.Flnk -> Hashtbl.replace t.contents fh Bytes.empty);
  fh

let blocks_of_size t size = (size + t.cfg.block_size - 1) / t.cfg.block_size

(* Grow or shrink the physical block map to match [size]. *)
let resize_map t fh ~size =
  let want = blocks_of_size t size in
  let have = Option.value ~default:[] (Hashtbl.find_opt t.maps fh) in
  let n = List.length have in
  if want > n then begin
    let group = Option.value ~default:0 (Hashtbl.find_opt t.groups_of fh) in
    let fresh = List.init (want - n) (fun _ -> alloc_block t ~group) in
    Hashtbl.replace t.maps fh (have @ fresh)
  end
  else if want < n then begin
    let kept = List.filteri (fun i _ -> i < want) have in
    let dropped = List.filteri (fun i _ -> i >= want) have in
    let group = Option.value ~default:0 (Hashtbl.find_opt t.groups_of fh) in
    t.grps.(group).g_free <- dropped @ t.grps.(group).g_free;
    Hashtbl.replace t.maps fh kept
  end

let content_of t fh =
  match Hashtbl.find_opt t.contents fh with Some b -> b | None -> fail N.Eisdir

let blocks_in_range t fh ~off ~len =
  let blocks = Option.value ~default:[] (Hashtbl.find_opt t.maps fh) in
  let first = off / t.cfg.block_size in
  let last = if len = 0 then first - 1 else (off + len - 1) / t.cfg.block_size in
  List.filteri (fun i _ -> i >= first && i <= last) blocks

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

let do_write t fh off data =
  let a = attr_of t fh in
  if a.N.ftype = N.Fdir then fail N.Eisdir;
  let len = Bytes.length data in
  let old = content_of t fh in
  let new_size = max (Bytes.length old) (off + len) in
  let merged =
    if Bytes.length old >= new_size then Bytes.copy old
    else begin
      let b = Bytes.make new_size '\000' in
      Bytes.blit old 0 b 0 (Bytes.length old);
      b
    end
  in
  Bytes.blit data 0 merged off len;
  Hashtbl.replace t.contents fh merged;
  resize_map t fh ~size:new_size;
  (* Synchronous data writes, block by block, at fixed locations. *)
  List.iter
    (fun addr ->
      t.data_writes <- t.data_writes + 1;
      write_block t addr)
    (blocks_in_range t fh ~off ~len);
  meta_write t (inode_addr t fh);
  let attr = { a with N.size = new_size; mtime = now t } in
  set_attr t fh attr;
  attr

let do_read t fh off len =
  let a = attr_of t fh in
  if a.N.ftype = N.Fdir then fail N.Eisdir;
  let content = content_of t fh in
  if off >= Bytes.length content then Bytes.empty
  else begin
    let len = min len (Bytes.length content - off) in
    List.iter (read_block t) (blocks_in_range t fh ~off ~len);
    Bytes.sub content off len
  end

let do_create t dir name mode ftype =
  let entries = dir_of t dir in
  (match find_entry entries name with Some _ -> fail N.Eexist | None -> ());
  let fh = fresh_node t ~parent:dir ~ftype ~mode in
  meta_write t (inode_addr t fh);
  write_dir t dir (entries @ [ { N.name; fh } ]);
  (fh, attr_of t fh)

let do_remove t dir name ~want_dir =
  let entries = dir_of t dir in
  match find_entry entries name with
  | None -> fail N.Enoent
  | Some { N.fh; _ } ->
    let a = attr_of t fh in
    (match (a.N.ftype, want_dir) with
     | N.Fdir, false -> fail N.Eisdir
     | (N.Freg | N.Flnk), true -> fail N.Enotdir
     | N.Fdir, true -> if dir_of t fh <> [] then fail N.Enotempty
     | (N.Freg | N.Flnk), false -> ());
    free_blocks t fh;
    Hashtbl.remove t.attrs fh;
    Hashtbl.remove t.contents fh;
    Hashtbl.remove t.dirs fh;
    meta_write t (inode_addr t fh);
    write_dir t dir (List.filter (fun (e : N.dirent) -> e.N.name <> name) entries)

let do_rename t from_dir from_name to_dir to_name =
  let src = dir_of t from_dir in
  match find_entry src from_name with
  | None -> fail N.Enoent
  | Some { N.fh; _ } ->
    (match find_entry (dir_of t to_dir) to_name with
     | Some target when target.N.fh <> fh ->
       free_blocks t target.N.fh;
       Hashtbl.remove t.attrs target.N.fh;
       Hashtbl.remove t.contents target.N.fh;
       Hashtbl.remove t.dirs target.N.fh
     | Some _ | None -> ());
    if from_dir = to_dir then begin
      let entries =
        List.filter (fun (e : N.dirent) -> e.N.name <> from_name && e.N.name <> to_name) src
        @ [ { N.name = to_name; fh } ]
      in
      write_dir t from_dir entries
    end
    else begin
      write_dir t from_dir (List.filter (fun (e : N.dirent) -> e.N.name <> from_name) src);
      let dst = dir_of t to_dir in
      write_dir t to_dir
        (List.filter (fun (e : N.dirent) -> e.N.name <> to_name) dst @ [ { N.name = to_name; fh } ])
    end

let do_setattr t fh mode size =
  let a = attr_of t fh in
  let a = match mode with Some m -> { a with N.mode = m } | None -> a in
  let a =
    match size with
    | Some s ->
      let content = content_of t fh in
      let b =
        if s <= Bytes.length content then Bytes.sub content 0 s
        else begin
          let b = Bytes.make s '\000' in
          Bytes.blit content 0 b 0 (Bytes.length content);
          b
        end
      in
      Hashtbl.replace t.contents fh b;
      resize_map t fh ~size:s;
      { a with N.size = s; mtime = now t }
    | None -> a
  in
  meta_write t (inode_addr t fh);
  set_attr t fh { a with N.ctime = now t };
  attr_of t fh

let statfs t =
  let total =
    Array.fold_left (fun acc g -> acc + (g.g_limit - g.g_data_base)) 0 t.grps * t.cfg.block_size
  in
  let used =
    Array.fold_left (fun acc g -> acc + (g.g_next - g.g_data_base - List.length g.g_free)) 0 t.grps
    * t.cfg.block_size
  in
  N.R_statfs { total_bytes = total; free_bytes = total - used }

let handle t req =
  t.op_serial <- t.op_serial + 1;
  cpu t;
  try
    match req with
    | N.Getattr fh -> N.R_attr (attr_of t fh)
    | N.Setattr { fh; mode; size } -> N.R_attr (do_setattr t fh mode size)
    | N.Lookup { dir; name } ->
      (match find_entry (dir_of t dir) name with
       | Some { N.fh; _ } -> N.R_fh (fh, attr_of t fh)
       | None -> N.R_error N.Enoent)
    | N.Readlink fh ->
      let a = attr_of t fh in
      if a.N.ftype <> N.Flnk then N.R_error (N.Eio "not a symlink")
      else N.R_link (Bytes.to_string (content_of t fh))
    | N.Read { fh; off; len } -> N.R_data (do_read t fh off len)
    | N.Write { fh; off; data } -> N.R_attr (do_write t fh off data)
    | N.Create { dir; name; mode } ->
      let fh, attr = do_create t dir name mode N.Freg in
      N.R_fh (fh, attr)
    | N.Remove { dir; name } ->
      do_remove t dir name ~want_dir:false;
      N.R_unit
    | N.Rename { from_dir; from_name; to_dir; to_name } ->
      do_rename t from_dir from_name to_dir to_name;
      N.R_unit
    | N.Mkdir { dir; name; mode } ->
      let fh, attr = do_create t dir name mode N.Fdir in
      N.R_fh (fh, attr)
    | N.Rmdir { dir; name } ->
      do_remove t dir name ~want_dir:true;
      N.R_unit
    | N.Readdir fh ->
      read_block t (dir_block t fh);
      N.R_entries (dir_of t fh)
    | N.Symlink { dir; name; target } ->
      let fh, _ = do_create t dir name 0o777 N.Flnk in
      Hashtbl.replace t.contents fh (Bytes.of_string target);
      let a = attr_of t fh in
      set_attr t fh { a with N.size = String.length target };
      N.R_unit
    | N.Statfs -> statfs t
  with
  | Err e -> N.R_error e
  | Invalid_argument m -> N.R_error (N.Eio m)

let server t =
  {
    Server.name = t.cfg.name;
    root = t.root;
    handle = handle t;
    reset_caches = (fun () -> Lru.clear t.cache);
  }
