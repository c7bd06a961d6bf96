module Rpc = S4.Rpc
module Backend = S4.Backend
module N = Nfs_types
module Trace = S4_obs.Trace

type transport = Backend of Backend.t

(* Cached directory image: occupied slots and the slot-array length. *)
type dircache = { mutable dents : (N.dirent * int) list; mutable nslots : int }

(* Client-daemon processing cost per S4 RPC it issues (user-level
   translation, marshalling). *)
let daemon_cpu_us = 250.0

type t = {
  backend : Backend.t;
  cred : Rpc.credential;
  root : N.fh;
  attr_cache : (N.fh, N.attr) Hashtbl.t;
  dir_cache : (N.fh, dircache) Hashtbl.t;
  mutable rpcs : int;
  mutable attr_hits : int;
  mutable attr_misses : int;
}

exception Err of N.error

let clock_of t = t.backend.Backend.clock

let fail e = raise (Err e)

let nfs_of_rpc_error = function
  | Rpc.Not_found -> N.Enoent
  | Rpc.Permission_denied -> N.Eacces
  | Rpc.Object_deleted -> N.Enoent
  | Rpc.No_space -> N.Enospc
  | Rpc.Bad_request m -> N.Eio m
  | Rpc.Io_error m -> N.Eio m

let lift = function
  | Rpc.R_error e -> fail (nfs_of_rpc_error e)
  | resp -> resp

let call t ?sync req =
  t.rpcs <- t.rpcs + 1;
  S4_util.Simclock.advance (clock_of t) (S4_util.Simclock.of_us daemon_cpu_us);
  lift (Backend.handle t.backend t.cred ?sync req)

(* Vectored submission: the daemon still pays per-request marshalling
   cpu, but the whole array crosses the backend as ONE submit — with
   [sync] that is one group-commit barrier instead of one per request.
   Responses are positional and NOT lifted: batch callers must inspect
   each slot (a failed slot must not mask its successors). *)
let call_batch t ~sync reqs =
  let n = Array.length reqs in
  t.rpcs <- t.rpcs + n;
  S4_util.Simclock.advance (clock_of t)
    (S4_util.Simclock.of_us (daemon_cpu_us *. float_of_int n));
  t.backend.Backend.submit t.cred ~sync reqs

let expect_unit = function
  | Rpc.R_unit -> ()
  | _ -> fail (N.Eio "unexpected response")

let expect_data = function
  | Rpc.R_data b -> b
  | _ -> fail (N.Eio "unexpected response")

let expect_oid = function
  | Rpc.R_oid oid -> oid
  | _ -> fail (N.Eio "unexpected response")

let now t = S4_util.Simclock.now (clock_of t)

(* ------------------------------------------------------------------ *)
(* Attribute and directory access with read caching                    *)

let get_attr t fh =
  match Hashtbl.find_opt t.attr_cache fh with
  | Some a ->
    t.attr_hits <- t.attr_hits + 1;
    a
  | None ->
    t.attr_misses <- t.attr_misses + 1;
    (match call t (Rpc.Get_attr { oid = fh; at = None }) with
     | Rpc.R_attr b when Bytes.length b > 0 ->
       let a = N.decode_attr b in
       Hashtbl.replace t.attr_cache fh a;
       a
     | Rpc.R_attr _ -> fail (N.Eio "missing attributes")
     | _ -> fail (N.Eio "unexpected response"))

let set_attr t ?sync fh attr =
  expect_unit (call t ?sync (Rpc.Set_attr { oid = fh; attr = N.encode_attr attr }));
  Hashtbl.replace t.attr_cache fh attr

let load_dir t fh =
  match Hashtbl.find_opt t.dir_cache fh with
  | Some dc -> dc
  | None ->
    let attr = get_attr t fh in
    if attr.N.ftype <> N.Fdir then fail N.Enotdir;
    let data = expect_data (call t (Rpc.Read { oid = fh; off = 0; len = attr.N.size; at = None })) in
    let dents, nslots = N.decode_dir_slots data in
    let dc = { dents; nslots } in
    Hashtbl.replace t.dir_cache fh dc;
    dc

let read_dir t fh = List.map fst (load_dir t fh).dents

(* Namespace updates touch exactly one 64-byte directory slot. *)
let write_slot t ~sync fh ~slot entry =
  expect_unit
    (call t ~sync
       (Rpc.Write
          { oid = fh; off = slot * N.slot_size; len = N.slot_size; data = Some (N.encode_slot entry) }))

let add_entry t ?(sync = false) fh entry =
  let dc = load_dir t fh in
  let used = Array.make (dc.nslots + 1) false in
  List.iter (fun (_, i) -> used.(i) <- true) dc.dents;
  let slot =
    let rec find i = if i >= dc.nslots then dc.nslots else if used.(i) then find (i + 1) else i in
    find 0
  in
  let grows = slot >= dc.nslots in
  write_slot t ~sync:(sync && not grows) fh ~slot (Some entry);
  dc.dents <- (entry, slot) :: dc.dents;
  if grows then begin
    dc.nslots <- slot + 1;
    let attr = get_attr t fh in
    set_attr t ~sync fh { attr with N.size = dc.nslots * N.slot_size; mtime = now t }
  end

let remove_entry t ?(sync = false) fh name =
  let dc = load_dir t fh in
  match List.find_opt (fun (e, _) -> e.N.name = name) dc.dents with
  | None -> fail N.Enoent
  | Some (_, slot) ->
    write_slot t ~sync fh ~slot None;
    dc.dents <- List.filter (fun (_, i) -> i <> slot) dc.dents

let invalidate t fh =
  Hashtbl.remove t.attr_cache fh;
  Hashtbl.remove t.dir_cache fh

(* ------------------------------------------------------------------ *)
(* Mount                                                               *)

let mount ?(partition = "root") ?(cred = Rpc.user_cred ~user:1 ~client:1) (Backend backend) =
  let call ?sync req = lift (Backend.handle backend cred ?sync req) in
  let root =
    match Backend.handle backend cred (Rpc.P_mount { name = partition; at = None }) with
    | Rpc.R_oid oid -> oid
    | Rpc.R_error Rpc.Not_found ->
      let clock = backend.Backend.clock in
      let oid = expect_oid (call (Rpc.Create { acl = [] })) in
      let attr = N.fresh_attr N.Fdir ~uid:cred.Rpc.user ~now:(S4_util.Simclock.now clock) in
      expect_unit (call (Rpc.Set_attr { oid; attr = N.encode_attr attr }));
      expect_unit (call ~sync:true (Rpc.P_create { name = partition; oid }));
      oid
    | _ -> fail (N.Eio "mount failed")
  in
  {
    backend;
    cred;
    root;
    attr_cache = Hashtbl.create 1024;
    dir_cache = Hashtbl.create 256;
    rpcs = 0;
    attr_hits = 0;
    attr_misses = 0;
  }

let root t = t.root
let cred t = t.cred
let rpc_count t = t.rpcs
let attr_cache_stats t = (t.attr_hits, t.attr_misses)

let invalidate_caches t =
  Hashtbl.reset t.attr_cache;
  (* A timing-only drive (keep_data:false) cannot serve directory
     contents back, so the directory cache is the namespace's only
     authoritative copy and must survive cache-drop experiments. *)
  if t.backend.Backend.keep_data then Hashtbl.reset t.dir_cache

(* ------------------------------------------------------------------ *)
(* NFS operations                                                      *)

let find_entry entries name = List.find_opt (fun e -> e.N.name = name) entries

let create_object t ftype ~mode =
  let oid = expect_oid (call t (Rpc.Create { acl = [] })) in
  let attr = { (N.fresh_attr ftype ~uid:t.cred.Rpc.user ~now:(now t)) with N.mode } in
  set_attr t oid attr;
  (oid, attr)

let do_create t ~dir ~name ~mode ~ftype =
  (match find_entry (read_dir t dir) name with Some _ -> fail N.Eexist | None -> ());
  let fh, attr = create_object t ftype ~mode in
  add_entry t ~sync:true dir { N.name; fh };
  (fh, attr)

let do_remove t ~dir ~name ~want_dir =
  let entries = read_dir t dir in
  match find_entry entries name with
  | None -> fail N.Enoent
  | Some { N.fh; _ } ->
    let attr = get_attr t fh in
    (match (attr.N.ftype, want_dir) with
     | N.Fdir, false -> fail N.Eisdir
     | (N.Freg | N.Flnk), true -> fail N.Enotdir
     | N.Fdir, true -> if read_dir t fh <> [] then fail N.Enotempty
     | (N.Freg | N.Flnk), false -> ());
    expect_unit (call t (Rpc.Delete { oid = fh }));
    invalidate t fh;
    remove_entry t ~sync:true dir name

let do_write t fh off data =
  let len = Bytes.length data in
  let attr = get_attr t fh in
  if attr.N.ftype = N.Fdir then fail N.Eisdir;
  let attr = { attr with N.size = max attr.N.size (off + len); mtime = now t } in
  (* The payload write and the attribute update ride one vectored
     submission: the NFSv2 stability barrier is paid once, after the
     second request, instead of once per RPC. *)
  let resps =
    call_batch t ~sync:true
      [|
        Rpc.Write { oid = fh; off; len; data = Some data };
        Rpc.Set_attr { oid = fh; attr = N.encode_attr attr };
      |]
  in
  expect_unit (lift resps.(0));
  expect_unit (lift resps.(1));
  Hashtbl.replace t.attr_cache fh attr;
  attr

let do_setattr t fh mode size =
  let attr = get_attr t fh in
  (* Truncating a directory through SETATTR would shred its slot
     array. *)
  if size <> None && attr.N.ftype = N.Fdir then fail N.Eisdir;
  let attr = match mode with Some m -> { attr with N.mode = m } | None -> attr in
  let attr =
    match size with
    | Some s ->
      expect_unit (call t (Rpc.Truncate { oid = fh; size = s }));
      { attr with N.size = s; mtime = now t }
    | None -> attr
  in
  set_attr t ~sync:true fh { attr with N.ctime = now t };
  attr

let do_rename t ~from_dir ~from_name ~to_dir ~to_name =
  let src_entries = read_dir t from_dir in
  match find_entry src_entries from_name with
  | None -> fail N.Enoent
  | Some { N.fh; _ } ->
    let same_dir = from_dir = to_dir in
    let dst_entries = if same_dir then src_entries else read_dir t to_dir in
    (* Overwrite semantics: an existing target is removed first. *)
    (match find_entry dst_entries to_name with
     | Some target when target.N.fh <> fh ->
       expect_unit (call t (Rpc.Delete { oid = target.N.fh }));
       invalidate t target.N.fh
     | Some _ | None -> ());
    if same_dir && from_name = to_name then
      (* Renaming an entry onto itself is a (synced) no-op. *)
      ()
    else begin
      (match find_entry dst_entries to_name with
       | Some _ -> remove_entry t to_dir to_name
       | None -> ());
      remove_entry t from_dir from_name;
      add_entry t ~sync:true to_dir { N.name = to_name; fh }
    end

let do_symlink t ~dir ~name ~target =
  let entries = read_dir t dir in
  (match find_entry entries name with Some _ -> fail N.Eexist | None -> ());
  let fh, attr = create_object t N.Flnk ~mode:0o777 in
  let data = Bytes.of_string target in
  expect_unit (call t (Rpc.Write { oid = fh; off = 0; len = Bytes.length data; data = Some data }));
  set_attr t fh { attr with N.size = Bytes.length data };
  add_entry t ~sync:true dir { N.name; fh }

let statfs t =
  let total, free = t.backend.Backend.capacity () in
  N.R_statfs { total_bytes = total; free_bytes = free }

let nfs_kind : N.req -> string = function
  | N.Getattr _ -> "getattr"
  | N.Setattr _ -> "setattr"
  | N.Lookup _ -> "lookup"
  | N.Readlink _ -> "readlink"
  | N.Read _ -> "read"
  | N.Write _ -> "write"
  | N.Create _ -> "create"
  | N.Remove _ -> "remove"
  | N.Rename _ -> "rename"
  | N.Mkdir _ -> "mkdir"
  | N.Rmdir _ -> "rmdir"
  | N.Readdir _ -> "readdir"
  | N.Symlink _ -> "symlink"
  | N.Statfs -> "statfs"

let nfs_err_tag : N.error -> string = function
  | N.Enoent -> "not_found"
  | N.Eexist -> "exists"
  | N.Enotdir -> "not_dir"
  | N.Eisdir -> "is_dir"
  | N.Eacces -> "denied"
  | N.Enotempty -> "not_empty"
  | N.Enospc -> "no_space"
  | N.Eio _ -> "io_error"

(* The translator's span fields: the file handle a request names, the
   bytes it moves, its error tag, and the attribute-cache hits and
   misses it caused. *)
let probe =
  {
    Trace.clock = clock_of;
    opened =
      (fun tok t () req ->
        (match req with
         | N.Getattr fh | N.Setattr { fh; _ } | N.Readlink fh | N.Read { fh; _ }
         | N.Write { fh; _ } | N.Readdir fh ->
           Trace.set_oid tok fh
         | _ -> ());
        (t.attr_hits, t.attr_misses));
    closed =
      (fun tok t () req (h0, m0) resp ->
        (match resp with
         | Some (N.R_data b) -> Trace.set_bytes tok (Bytes.length b)
         | Some (N.R_error e) -> Trace.fail tok (nfs_err_tag e)
         | _ -> ());
        (match (req, resp) with
         | N.Write { data; _ }, Some _ -> Trace.set_bytes tok (Bytes.length data)
         | _ -> ());
        Trace.add_cache tok ~hits:(t.attr_hits - h0) ~misses:(t.attr_misses - m0));
  }

let handle t req =
  Trace.span Trace.Nfs probe ~kind:(nfs_kind req)
    (fun t () req ->
      try
        match req with
        | N.Getattr fh -> N.R_attr (get_attr t fh)
        | N.Setattr { fh; mode; size } -> N.R_attr (do_setattr t fh mode size)
        | N.Lookup { dir; name } ->
          (match find_entry (read_dir t dir) name with
           | Some { N.fh; _ } -> N.R_fh (fh, get_attr t fh)
           | None -> N.R_error N.Enoent)
        | N.Readlink fh ->
          let attr = get_attr t fh in
          if attr.N.ftype <> N.Flnk then N.R_error (N.Eio "not a symlink")
          else
            N.R_link
              (Bytes.to_string (expect_data (call t (Rpc.Read { oid = fh; off = 0; len = attr.N.size; at = None }))))
        | N.Read { fh; off; len } ->
          let attr = get_attr t fh in
          if attr.N.ftype = N.Fdir then N.R_error N.Eisdir
          else N.R_data (expect_data (call t (Rpc.Read { oid = fh; off; len; at = None })))
        | N.Write { fh; off; data } -> N.R_attr (do_write t fh off data)
        | N.Create { dir; name; mode } ->
          let fh, attr = do_create t ~dir ~name ~mode ~ftype:N.Freg in
          N.R_fh (fh, attr)
        | N.Remove { dir; name } ->
          do_remove t ~dir ~name ~want_dir:false;
          N.R_unit
        | N.Rename { from_dir; from_name; to_dir; to_name } ->
          do_rename t ~from_dir ~from_name ~to_dir ~to_name;
          N.R_unit
        | N.Mkdir { dir; name; mode } ->
          let fh, attr = do_create t ~dir ~name ~mode ~ftype:N.Fdir in
          N.R_fh (fh, attr)
        | N.Rmdir { dir; name } ->
          do_remove t ~dir ~name ~want_dir:true;
          N.R_unit
        | N.Readdir fh -> N.R_entries (read_dir t fh)
        | N.Symlink { dir; name; target } ->
          do_symlink t ~dir ~name ~target;
          N.R_unit
        | N.Statfs -> statfs t
      with
      | Err e -> N.R_error e
      | Invalid_argument m -> N.R_error (N.Eio m))
    t () req

(* ------------------------------------------------------------------ *)
(* Path helpers                                                        *)

let split_path path = String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let lookup_path t path =
  let rec walk fh = function
    | [] -> Ok (fh, get_attr t fh)
    | name :: rest ->
      (match find_entry (read_dir t fh) name with
       | Some { N.fh = child; _ } -> walk child rest
       | None -> Error N.Enoent)
  in
  try walk t.root (split_path path) with Err e -> Error e

let mkdir_p t path =
  let rec walk fh = function
    | [] -> Ok fh
    | name :: rest ->
      (match find_entry (read_dir t fh) name with
       | Some { N.fh = child; _ } -> walk child rest
       | None ->
         (match handle t (N.Mkdir { dir = fh; name; mode = 0o755 }) with
          | N.R_fh (child, _) -> walk child rest
          | N.R_error e -> Error e
          | _ -> Error (N.Eio "mkdir")))
  in
  try walk t.root (split_path path) with Err e -> Error e

let dirname_basename path =
  match List.rev (split_path path) with
  | [] -> Error N.Enoent
  | base :: rev_dirs -> Ok (List.rev rev_dirs, base)

let write_file t path data =
  match dirname_basename path with
  | Error e -> Error e
  | Ok (dirs, base) ->
    (match mkdir_p t (String.concat "/" dirs) with
     | Error e -> Error e
     | Ok dir ->
       let fh =
         match handle t (N.Create { dir; name = base; mode = 0o644 }) with
         | N.R_fh (fh, _) -> Ok fh
         | N.R_error N.Eexist ->
           (match handle t (N.Lookup { dir; name = base }) with
            | N.R_fh (fh, _) -> Ok fh
            | _ -> Error N.Enoent)
         | N.R_error e -> Error e
         | _ -> Error (N.Eio "create")
       in
       (match fh with
        | Error e -> Error e
        | Ok fh ->
          (match handle t (N.Setattr { fh; mode = None; size = Some 0 }) with
           | N.R_error e -> Error e
           | _ ->
             (match handle t (N.Write { fh; off = 0; data }) with
              | N.R_attr _ -> Ok fh
              | N.R_error e -> Error e
              | _ -> Error (N.Eio "write")))))

let read_file t path =
  match lookup_path t path with
  | Error e -> Error e
  | Ok (fh, attr) ->
    (match handle t (N.Read { fh; off = 0; len = attr.N.size }) with
     | N.R_data b -> Ok b
     | N.R_error e -> Error e
     | _ -> Error (N.Eio "read"))

(* ------------------------------------------------------------------ *)
(* Multi-file batch operations                                         *)

(* Both helpers run the namespace preparation (parent dirs, create or
   lookup, slot bookkeeping) through the normal cached path but with
   every intermediate RPC unsynced, then push the whole set of
   mutations across the backend as ONE [submit ~sync:true]: n files
   share a single group-commit barrier instead of paying one each.
   Results are positional; one file's failure leaves the others'
   outcomes intact (per-request atomicity, per-batch durability). *)

let check_slots resps ~first ~stop ok =
  let rec check i =
    if i >= stop then Ok (ok ())
    else
      match resps.(i) with
      | Rpc.R_unit -> check (i + 1)
      | Rpc.R_error err -> Error (nfs_of_rpc_error err)
      | _ -> Error (N.Eio "unexpected response")
  in
  check first

let write_files t files =
  let reqs = ref [] in
  let nreq = ref 0 in
  let push r =
    reqs := r :: !reqs;
    incr nreq
  in
  let preps =
    List.map
      (fun (path, data) ->
        try
          match dirname_basename path with
          | Error e -> Error e
          | Ok (dirs, base) -> (
            match mkdir_p t (String.concat "/" dirs) with
            | Error e -> Error e
            | Ok dir ->
              let len = Bytes.length data in
              let fh, attr, fresh =
                match find_entry (read_dir t dir) base with
                | Some { N.fh; _ } ->
                  let a = get_attr t fh in
                  if a.N.ftype = N.Fdir then fail N.Eisdir;
                  (fh, a, false)
                | None ->
                  let fh, a = create_object t N.Freg ~mode:0o644 in
                  add_entry t ~sync:false dir { N.name = base; fh };
                  (fh, a, true)
              in
              let first = !nreq in
              if (not fresh) && attr.N.size > 0 then push (Rpc.Truncate { oid = fh; size = 0 });
              let attr = { attr with N.size = len; mtime = now t } in
              push (Rpc.Write { oid = fh; off = 0; len; data = Some data });
              push (Rpc.Set_attr { oid = fh; attr = N.encode_attr attr });
              Ok (fh, attr, first, !nreq))
        with Err e -> Error e)
      files
  in
  let resps = call_batch t ~sync:true (Array.of_list (List.rev !reqs)) in
  List.map
    (function
      | Error e -> Error e
      | Ok (fh, attr, first, stop) ->
        check_slots resps ~first ~stop (fun () ->
            Hashtbl.replace t.attr_cache fh attr;
            fh))
    preps

let remove_files t paths =
  let reqs = ref [] in
  let nreq = ref 0 in
  let push r =
    reqs := r :: !reqs;
    incr nreq
  in
  let preps =
    List.map
      (fun path ->
        try
          match dirname_basename path with
          | Error e -> Error e
          | Ok (dirs, base) -> (
            match lookup_path t (String.concat "/" dirs) with
            | Error e -> Error e
            | Ok (dir, _) -> (
              let dc = load_dir t dir in
              match List.find_opt (fun (e, _) -> e.N.name = base) dc.dents with
              | None -> Error N.Enoent
              | Some ({ N.fh; _ }, slot) ->
                let attr = get_attr t fh in
                if attr.N.ftype = N.Fdir then fail N.Eisdir;
                let first = !nreq in
                push (Rpc.Delete { oid = fh });
                push
                  (Rpc.Write
                     {
                       oid = dir;
                       off = slot * N.slot_size;
                       len = N.slot_size;
                       data = Some (N.encode_slot None);
                     });
                (* Optimistic cache update, mirroring the single-op
                   path: the mutation is in flight once enqueued. *)
                dc.dents <- List.filter (fun (_, i) -> i <> slot) dc.dents;
                invalidate t fh;
                Ok (first, !nreq)))
        with Err e -> Error e)
      paths
  in
  let resps = call_batch t ~sync:true (Array.of_list (List.rev !reqs)) in
  List.map
    (function
      | Error e -> Error e
      | Ok (first, stop) -> check_slots resps ~first ~stop (fun () -> ()))
    preps
