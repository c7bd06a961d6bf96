(** The "S4 client": an NFSv2-to-S4 translator.

    Overlays a file system on the drive's flat object namespace:
    directory objects hold name-to-handle lists, file and symlink
    objects hold data, and the NFSv2 attribute structure lives in each
    object's opaque attribute space. NFS file handles are ObjectIDs.

    The translator always talks to one {!S4.Backend.t}; the two
    deployments of the paper's Figure 1 differ only in what surrounds
    it:
    - Fig. 1a: the translator runs on the client machine as a
      user-level loopback NFS server, and S4 RPCs cross the network to
      a network-attached drive. The backend is wrapped in
      {!S4.Backend.over_net}, the server in {!Server.over_loopback}.
    - Fig. 1b: the translator is linked into the storage server,
      forming an S4-enhanced NFS server; NFS itself then crosses the
      network ({!Server.over_net}).

    To honour NFSv2 stability, every modifying operation ends with a
    drive sync, batched onto the final S4 RPC of the operation. The
    translator keeps read-only attribute and directory caches. *)

type transport =
  | Backend of S4.Backend.t
      (** any producer of the uniform vectored surface: a drive, a
          shard router, a wire client, a backend behind the modelled
          network *)

type t

val mount :
  ?partition:string -> ?cred:S4.Rpc.credential -> transport -> t
(** Attach to (or create) the file system named [partition] (default
    "root") on the drive: resolves the root directory through PMount,
    creating the root object and partition entry on first use. *)

val root : t -> Nfs_types.fh
val cred : t -> S4.Rpc.credential

val handle : t -> Nfs_types.req -> Nfs_types.resp
(** Serve one NFS request (one or more S4 RPCs). Never raises. *)

val rpc_count : t -> int
(** S4 RPCs issued so far (drive operations per NFS op metric). *)

val attr_cache_stats : t -> int * int
(** (hits, misses). *)

val invalidate_caches : t -> unit
(** Drop the read caches (used to model cold-cache phases). When the
    drive is timing-only ([keep_data:false]) the directory cache is
    retained — it is then the only authoritative copy of the
    namespace. *)

(** {1 Path helpers}

    Convenience for tests, examples and workloads: slash-separated
    paths resolved from the root. *)

val lookup_path : t -> string -> (Nfs_types.fh * Nfs_types.attr, Nfs_types.error) result
val mkdir_p : t -> string -> (Nfs_types.fh, Nfs_types.error) result
val write_file : t -> string -> Bytes.t -> (Nfs_types.fh, Nfs_types.error) result
(** Create-or-truncate then write the whole contents. *)

val read_file : t -> string -> (Bytes.t, Nfs_types.error) result

(** {1 Batched multi-file operations}

    The whole set of mutations crosses the backend as one vectored
    [submit ~sync:true]: n files share a single group-commit barrier
    instead of paying one each. Results are positional — one file's
    failure does not disturb the others (per-request atomicity,
    per-batch durability). *)

val write_files :
  t -> (string * Bytes.t) list -> (Nfs_types.fh, Nfs_types.error) result list
(** Create-or-truncate-then-write each [(path, contents)]; parent
    directories are created as needed. *)

val remove_files : t -> string list -> (unit, Nfs_types.error) result list
(** Remove each file or symlink (never a directory). *)
